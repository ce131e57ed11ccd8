(* The forwarding and churn loops' device and traffic, built from a seed.

   The device runs the base design with C1 (ECMP), C2 (SRv6) and C3 (flow
   probe) stacked, and its wide tables are filled to a workload's [scale]
   so the table engine resolves real keys. The traffic is a fixed set of
   flows mixing every forwarding path the design has, with IMIX frame
   sizes. *)

module A = Net.Addr
module Fg = Net.Flowgen

(* Entries per wide table and flows in the stream. *)
type scale = {
  v4_prefixes : int;
  v4_hosts : int;
  v6_prefixes : int;
  v6_hosts : int;
  macs : int;
  flows : int;
}

(* Close to the tables' declared sizes. *)
let wide = { v4_prefixes = 3500; v4_hosts = 3500; v6_prefixes = 1500; v6_hosts = 1500; macs = 3500; flows = 4096 }

(* A tenth of [wide], with a quarter of its flows. *)
let small = { v4_prefixes = 350; v4_hosts = 350; v6_prefixes = 150; v6_hosts = 150; macs = 350; flows = 1024 }

type kind = Routed_v4 | Host_v4 | Routed_v6 | Srv6_end | Bridged | Probed

(* Share of flows per kind, in percent. *)
let mix =
  [ (Routed_v4, 30); (Host_v4, 20); (Routed_v6, 15); (Srv6_end, 8); (Bridged, 22); (Probed, 5) ]

(* IMIX: 64, 576 and 1500-byte frames in a 7:4:1 ratio. *)
let imix = [ (64, 7); (576, 4); (1500, 1) ]

(* [n] values in the exact proportions of [weights], in seeded order:
   the seed moves which flow gets what, never how many. *)
let quota rng n weights =
  let total = List.fold_left (fun a (_, w) -> a + w) 0 weights in
  let out = Array.make n (fst (List.hd weights)) in
  let i = ref 0 in
  List.iteri
    (fun j (v, w) ->
      let upto = if j = List.length weights - 1 then n else !i + (n * w / total) in
      while !i < upto do
        out.(!i) <- v;
        incr i
      done)
    weights;
  Prelude.Rng.shuffle rng out;
  out

type flow = {
  f_kind : kind;
  f_in_port : int;
  f_wire : string; (* ingress frame *)
  f_key : int; (* index of the churnable entry this flow's result depends on, or -1 *)
}

(* A churnable entry: a table row the traffic uses, which the churn loop
   deletes and re-adds. Its add and del lines are controller commands. *)
type key = { k_add : string; k_del : string }

type t = {
  scale : scale;
  population : string; (* table_add script for the wide tables *)
  flows : flow array;
  keys : key array; (* host routes first, then bridged MACs *)
}

let router_mac = A.Mac.of_string_exn Usecases.Base_l23.router_mac

let v4_string ip = A.Ipv4.to_string (A.Ipv4.of_int ip)

(* Unique draws: [draw] until [n] distinct values are collected. *)
let distinct rng n draw =
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] in
  while Hashtbl.length seen < n do
    let v = draw rng in
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v ();
      out := v :: !out
    end
  done;
  Array.of_list (List.rev !out)

let v6_of_hi_lo ~hi ~lo =
  let b = Bytes.make 16 '\000' in
  Bytes.set_uint16_be b 0 0x2001;
  Bytes.set_uint16_be b 2 0x0db8;
  Bytes.set_uint16_be b 4 hi;
  Bytes.set_uint16_be b 14 lo;
  A.Ipv6.of_raw (Bytes.unsafe_to_string b)

let generate ~scale ~seed =
  let { v4_prefixes = n_v4_prefixes; v4_hosts = n_v4_hosts; v6_prefixes = n_v6_prefixes;
        v6_hosts = n_v6_hosts; macs = n_macs; flows = n_flows } = scale in
  let rng = Prelude.Rng.create seed in
  (* IPv4: /24 prefixes in 10.2.0.0 - 10.250.255.0 (10.1/16 is the base
     design's own route); host routes inside them, so deleting a host
     route makes its flow fall back to the covering prefix. *)
  let v4_nets =
    distinct rng n_v4_prefixes (fun r ->
        0x0A000000 lor ((2 + Prelude.Rng.int r 249) lsl 16) lor (Prelude.Rng.int r 256 lsl 8))
  in
  let v4_hosts =
    distinct rng n_v4_hosts (fun r ->
        v4_nets.(Prelude.Rng.int r n_v4_prefixes) lor (1 + Prelude.Rng.int r 200))
  in
  (* IPv6: /48s under 2001:db8::/32, avoiding 2001:db8:0::/48 (the SRv6
     final segment) and 2001:db8:100::/48 (the local SID). *)
  let v6_nets =
    distinct rng n_v6_prefixes (fun r ->
        let hi = 1 + Prelude.Rng.int r 0xFFFE in
        if hi = 0x100 then 0x101 else hi)
  in
  let v6_hosts =
    distinct rng n_v6_hosts (fun r ->
        (v6_nets.(Prelude.Rng.int r n_v6_prefixes), 1 + Prelude.Rng.int r 200))
  in
  let macs = distinct rng n_macs (fun r -> 0x10000 + Prelude.Rng.int r 0xFFFFF) in
  let mac_port = Array.map (fun _ -> 4 + Prelude.Rng.int rng 12) macs in
  let nh () = 1 + Prelude.Rng.int rng 1000 in
  let lines = Buffer.create (1 lsl 20) in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string lines s; Buffer.add_char lines '\n') fmt in
  Array.iter (fun net -> line "table_add ipv4_lpm set_nexthop 10 %s/24 => %d" (v4_string net) (nh ())) v4_nets;
  Array.iter
    (fun hi ->
      line "table_add ipv6_lpm set_nexthop 10 %s/48 => %d"
        (A.Ipv6.to_string (v6_of_hi_lo ~hi ~lo:0)) (nh ()))
    v6_nets;
  Array.iter
    (fun (hi, lo) ->
      line "table_add ipv6_host set_nexthop 10 %s => %d"
        (A.Ipv6.to_string (v6_of_hi_lo ~hi ~lo)) (nh ()))
    v6_hosts;
  let host_keys =
    Array.map
      (fun ip ->
        let addr = v4_string ip in
        {
          k_add = Printf.sprintf "table_add ipv4_host set_nexthop 10 %s => %d" addr (nh ());
          k_del = Printf.sprintf "table_del ipv4_host 10 %s" addr;
        })
      v4_hosts
  in
  let mac_keys =
    Array.mapi
      (fun i m ->
        let mac = A.Mac.to_string (A.Mac.of_index m) in
        {
          k_add = Printf.sprintf "table_add dmac set_out_port 1 %s => %d" mac mac_port.(i);
          k_del = Printf.sprintf "table_del dmac 1 %s" mac;
        })
      macs
  in
  let keys = Array.append host_keys mac_keys in
  Array.iter (fun k -> line "%s" k.k_add) keys;
  let kinds = quota rng n_flows mix in
  let frames = quota rng n_flows imix in
  let flows =
    Array.init n_flows (fun i ->
        let kind = kinds.(i) and frame = frames.(i) in
        let in_port = Prelude.Rng.int rng 8 in
        let src_ip4 = A.Ipv4.of_int (0x0A000000 lor (1 + Prelude.Rng.int rng 0xFFFE)) in
        let sport = 1024 + Prelude.Rng.int rng 60000 in
        let base = Fg.make_flow ~src_mac:(A.Mac.of_index (500 + i)) ~dst_mac:router_mac ~src_ip4 ~sport () in
        let v4 flow = Fg.ipv4_udp ~in_port ~payload_len:(max 0 (frame - 42)) flow in
        let v6 flow = Fg.ipv6_udp ~in_port ~payload_len:(max 0 (frame - 62)) flow in
        let pkt, key =
          match kind with
          | Routed_v4 ->
            let net = v4_nets.(Prelude.Rng.int rng n_v4_prefixes) in
            (* .201-.254 never carry a host route *)
            let dst = net lor (201 + Prelude.Rng.int rng 54) in
            (v4 { base with Fg.dst_ip4 = A.Ipv4.of_int dst }, -1)
          | Host_v4 ->
            let k = Prelude.Rng.int rng n_v4_hosts in
            (v4 { base with Fg.dst_ip4 = A.Ipv4.of_int v4_hosts.(k) }, k)
          | Routed_v6 ->
            let dst =
              if Prelude.Rng.bool rng then begin
                let hi, lo = v6_hosts.(Prelude.Rng.int rng n_v6_hosts) in
                v6_of_hi_lo ~hi ~lo
              end
              else v6_of_hi_lo ~hi:v6_nets.(Prelude.Rng.int rng n_v6_prefixes) ~lo:(201 + Prelude.Rng.int rng 54)
            in
            (v6 { base with Fg.dst_ip6 = dst; src_ip6 = A.Ipv6.of_index (77 + i) }, -1)
          | Srv6_end ->
            (* the smallest SRv6 frame is 138 bytes: outer v6 + 3-segment SRH + inner v4 *)
            ( Fg.srv6_ipv4 ~in_port ~payload_len:(max 0 (frame - 138)) ~segments:Usecases.Srv6.segments
                ~segments_left:1
                { Usecases.Srv6.srv6_flow with Fg.src_ip4; sport },
              -1 )
          | Bridged ->
            let k = Prelude.Rng.int rng n_macs in
            ( Fg.l2 ~in_port ~payload_len:(max 46 (frame - 14))
                { base with Fg.dst_mac = A.Mac.of_index macs.(k) },
              n_v4_hosts + k )
          | Probed -> (v4 { Usecases.Flowprobe.probed_flow with Fg.sport }, -1)
        in
        { f_kind = kind; f_in_port = in_port; f_wire = Net.Packet.contents pkt; f_key = key })
  in
  { scale; population = Buffer.contents lines; flows; keys }

let packet f = Net.Packet.create ~in_port:f.f_in_port f.f_wire

exception Setup_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt

let run_script session what text =
  match Controller.Session.run_script session text with
  | Ok _ -> ()
  | Error e -> fail "%s: %s" what e

(* Boot the stacked device: base, then C1, C2, C3 in-situ, then the wide
   tables. [linked:false] gives the reference interpreter. *)
let boot ?telemetry ?linked t =
  let session, device = Harness.Cases.boot_base ?telemetry ?linked () in
  List.iter (fun c -> ignore (Harness.Cases.apply_case session c)) Harness.Paper.cases;
  run_script session "population" t.population;
  (session, device)
