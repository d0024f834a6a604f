type protocol = Udp | Tcp | Icmp

type t = {
  id : int;
  src : int;
  dst : int;
  size : int;
  count : int;
  protocol : protocol;
  tag : int;
  sent_at : float;
}

let make ~id ~src ~dst ~size ?(count = 1) ?(tag = 0) ~protocol ~sent_at () =
  assert (size > 0 && count > 0);
  { id; src; dst; size; count; protocol; tag; sent_at }

let udp_header_bytes = 42
let tcp_header_bytes = 54

let small_udp ~id ~src ~dst ?(count = 1) ~sent_at () =
  make ~id ~src ~dst ~size:((udp_header_bytes + 1) * count) ~count ~protocol:Udp ~sent_at ()
