(* The little JSON the benchmark reads and writes: its result lines,
   the pass files [compare] reads back, and BENCHMARK.json. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integers print without a fraction; other finite values with every
   digit needed to read them back exactly. JSON has no NaN or infinity. *)
let number x =
  if not (Float.is_finite x) then invalid_arg "Json.number: non-finite value"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num x -> Buffer.add_string b (number x)
  | Str s -> Buffer.add_string b ("\"" ^ escape s ^ "\"")
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        write b v)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b ("\"" ^ escape k ^ "\": ");
        write b v)
      l;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r') then begin
      incr pos;
      skip ()
    end
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        let e = peek () in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?'
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number_lit () =
    let start = !pos in
    while
      !pos < n && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          skip ();
          let k = string_lit () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number_lit ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing characters";
  v

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let get k v =
  match member k v with Some x -> x | None -> raise (Parse_error (Printf.sprintf "missing key %S" k))

let to_num = function Num x -> x | _ -> raise (Parse_error "expected a number")
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Parse_error "expected an array")
let to_obj = function Obj l -> l | _ -> raise (Parse_error "expected an object")
let to_bool = function Bool b -> b | _ -> raise (Parse_error "expected a boolean")

let read_file path = In_channel.with_open_bin path In_channel.input_all
let of_file path = parse (read_file path)
