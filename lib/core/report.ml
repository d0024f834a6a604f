let widths header rows =
  let ncols = List.length header in
  let w = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if i < ncols then w.(i) <- max w.(i) (String.length cell)) row)
    (header :: rows);
  w

let pad width s = s ^ String.make (max 0 (width - String.length s)) ' '

let render_row w row =
  let cells = List.mapi (fun i cell -> pad w.(i) cell) row in
  "| " ^ String.concat " | " cells ^ " |"

let table ?title ~header rows =
  let w = widths header rows in
  let sep =
    "+" ^ String.concat "+" (Array.to_list (Array.map (fun n -> String.make (n + 2) '-') w)) ^ "+"
  in
  let buf = Buffer.create 256 in
  (match title with
  | Some t ->
    Buffer.add_string buf t;
    Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (render_row w header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row w row ^ "\n")) rows;
  Buffer.add_string buf sep;
  Buffer.contents buf

let print ?title ~header rows = print_endline (table ?title ~header rows)

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x

let si x =
  let ax = Float.abs x in
  if ax >= 1e9 then Printf.sprintf "%.2fG" (x /. 1e9)
  else if ax >= 1e6 then Printf.sprintf "%.2fM" (x /. 1e6)
  else if ax >= 1e3 then Printf.sprintf "%.1fK" (x /. 1e3)
  else Printf.sprintf "%.1f" x

let pct x = Printf.sprintf "%.1f%%" (x *. 100.0)

type cell =
  | Text of string
  | Int of int
  | F1 of float
  | F2 of float
  | F3 of float
  | Si of float
  | Pct of float

let show = function
  | Text s -> s
  | Int n -> string_of_int n
  | F1 x -> f1 x
  | F2 x -> f2 x
  | F3 x -> Printf.sprintf "%.3f" x
  | Si x -> si x
  | Pct x -> pct x

let check ~paper ~measured ~ok row = row @ [ paper; measured; Text (if ok then "ok" else "DIFF") ]

let tenant_table ?(title = "tenants") tenants =
  table ~title ~header:Bm_cloud.Tenant.row_header (List.map Bm_cloud.Tenant.row tenants)

let slo_scorecard ?(title = "per-tenant SLO scorecard") scores =
  table ~title ~header:Bm_cloud.Slo.row_header (List.map Bm_cloud.Slo.row scores)

let metrics_table ?(title = "metrics") m =
  table ~title ~header:Bm_engine.Metrics.table_header (Bm_engine.Metrics.rows m)
