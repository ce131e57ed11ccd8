(* ipbmd-rpc: the control-plane daemon under a two-tenant client.

   [ipbm serve] runs as a child process on a Unix socket. One client
   process holds two connections, each its own tenant with an isolated
   session. Tenant A loads a FIB of [n_v4] IPv4 and [n_v6] IPv6 routes
   in setup (100k + 25k on wide-tables), then runs a closed loop of
   [fib_lookup] (80%: half inside generated prefixes, half random
   addresses) and [stats] (20%). Tenant B runs a closed loop,
   with [think] seconds between reply and next request, of [check]
   dry-runs of the C3 script; the server handles every request to
   completion in one select loop, so B's heavy requests delay A's.
   Replies are checked against the same FIB built in-process. *)

module J = Prelude.Json

let think = 0.1

type conn = {
  fd : Unix.file_descr;
  dec : Service.Frame.decoder;
  mutable next_id : int;
  mutable sent_at : float;
  mutable in_flight : (float -> string -> unit) option; (* reply handler: arrival time, payload *)
}

(* One round: tenant A's round-trip times (microseconds), the round's
   seconds and its kernel time. *)
type round = { rtt_us : float list; seconds : float; kernel_s : float }

type t = {
  pid : int;
  sock : string;
  a : conn;
  b : conn;
  sid_a : int;
  sid_b : int;
  fib_seed : int;
  n_v4 : int;
  n_v6 : int;
  rng : Prelude.Rng.t;
  tally : Oracle.tally;
  mutable rtt_us : float list; (* tenant A, this round *)
  mutable rounds : round list;
  addrs : string array; (* fib_lookup addresses, drawn in setup *)
  ports : int option array; (* their expected ports *)
  mutable next_addr : int;
  mutable unchecked : (unit -> unit) list; (* replies to check once the window closes *)
  mutable warming : int option; (* pid of the warm-up client *)
}

let buf = Bytes.create 65536

let send c ~op ~params ~on_reply =
  let id = c.next_id in
  c.next_id <- id + 1;
  let frame =
    Service.Frame.encode
      (J.to_string (J.Obj [ ("id", J.Int id); ("op", J.String op); ("params", params) ]))
  in
  Service.Client.write_all c.fd frame;
  c.sent_at <- Stats.now ();
  c.in_flight <- Some on_reply

(* Read what is available on [c] and hand each whole reply, with the time
   it was complete, to the request's handler. *)
let pump c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> Traffic.fail "ipbmd closed the connection"
  | n ->
    Service.Frame.feed_bytes c.dec buf 0 n;
    let at = Stats.now () in
    let rec go () =
      match Service.Frame.next c.dec with
      | None -> ()
      | Some payload -> (
        match c.in_flight with
        | Some k ->
          c.in_flight <- None;
          k at payload;
          go ()
        | None -> Traffic.fail "ipbmd: unsolicited reply %s" payload)
    in
    go ()

let result payload =
  match Service.Client.result_of (J.of_string payload) with
  | Ok r -> r
  | Error e -> Traffic.fail "ipbmd error: %s" e

(* Send now, wait later: [await] blocks until the reply is in. For
   set-up only. *)
let request c ~op ~params =
  let reply = ref None in
  send c ~op ~params ~on_reply:(fun _ payload -> reply := Some payload);
  (op, reply)

let await c (op, reply) =
  let deadline = Stats.now () +. 120.0 in
  while !reply = None do
    if Stats.now () > deadline then Traffic.fail "ipbmd: %s timed out" op;
    match Unix.select [ c.fd ] [] [] 1.0 with
    | [], _, _ -> ()
    | _ -> pump c
  done;
  result (Option.get !reply)

let call c ~op ~params = await c (request c ~op ~params)

let connect sock =
  let deadline = Stats.now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { fd; dec = Service.Frame.decoder (); next_id = 0; sent_at = 0.0; in_flight = None }
    | exception Unix.Unix_error _ when Stats.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let open_session c tenant =
  J.to_int (J.member_exn "session" (call c ~op:"open_session" ~params:(J.Obj [ ("tenant", J.String tenant) ])))

let spawn ~ipbm ~sock =
  if Sys.file_exists sock then Sys.remove sock;
  Unix.create_process ipbm [| ipbm; "serve"; "--socket"; sock; "--tick-ms"; "1000" |] Unix.stdin
    Unix.stderr Unix.stderr

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Stats.now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Stats.now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* --- tenant A's addresses ---------------------------------------------- *)

let n_addrs = 8192

(* The prefix with its host bits drawn at random. *)
let inside rng (r : Fabric.Fibgen.route) =
  let b = Bytes.of_string r.Fabric.Fibgen.r_prefix in
  let rnd = Prelude.Rng.bytes rng (Bytes.length b) in
  for i = 0 to Bytes.length b - 1 do
    let keep =
      if (i + 1) * 8 <= r.Fabric.Fibgen.r_plen then 0xFF
      else if i * 8 >= r.Fabric.Fibgen.r_plen then 0
      else 0xFF lxor (0xFF lsr (r.Fabric.Fibgen.r_plen - (i * 8)))
    in
    Bytes.set_uint8 b i
      ((Bytes.get_uint8 b i land keep) lor (Char.code rnd.[i] land (0xFF lxor keep)))
  done;
  Bytes.to_string b

let addr_string raw =
  if String.length raw = 4 then
    Printf.sprintf "%d.%d.%d.%d" (Char.code raw.[0]) (Char.code raw.[1]) (Char.code raw.[2])
      (Char.code raw.[3])
  else Net.Addr.Ipv6.to_string (Net.Addr.Ipv6.of_raw raw)

(* Four v4 lookups per v6 one (the FIB's own ratio); within each family
   half the addresses fall inside a generated prefix, half are uniform. *)
let draw_addrs fib rng =
  let v4 = Array.of_list fib.Fabric.Fibgen.fib_routes_v4 in
  let v6 = Array.of_list fib.Fabric.Fibgen.fib_routes_v6 in
  Array.init n_addrs (fun i ->
      let routes, width = if i mod 5 = 4 then (v6, 16) else (v4, 4) in
      let raw =
        if Prelude.Rng.bool rng then inside rng (Prelude.Rng.choose rng routes)
        else Prelude.Rng.bytes rng width
      in
      addr_string raw)

let raw_v4 s = Net.Lpm.key_of_v4 (Net.Addr.Ipv4.of_string_exn s)
let raw_v6 s = Net.Addr.Ipv6.to_raw (Net.Addr.Ipv6.of_string_exn s)

let expect_port fib addr =
  if String.contains addr ':' then Fabric.Fibgen.lookup_v6 fib (raw_v6 addr)
  else Fabric.Fibgen.lookup_v4 fib (raw_v4 addr)


let setup ~seed ~n_v4 ~n_v6 ~ipbm ~sock =
  let pid = spawn ~ipbm ~sock in
  match
    let a = connect sock in
    let b = connect sock in
    let sid_a = open_session a "a" and sid_b = open_session b "b" in
    let loading =
      request a ~op:"fib_load"
        ~params:
          (J.Obj
             [ ("session", J.Int sid_a); ("v4", J.Int n_v4); ("v6", J.Int n_v6); ("seed", J.Int seed) ])
    in
    (* The oracle's copy of the FIB is built while the server builds its
       own, and dropped once the expected ports are known. *)
    let fib = Fabric.Fibgen.build ~seed ~n_v4 ~n_v6 () in
    ignore (await a loading);
    let addrs = draw_addrs fib (Prelude.Rng.create (seed + 4)) in
    let ports = Array.map (expect_port fib) addrs in
    {
      pid;
      sock;
      a;
      b;
      sid_a;
      sid_b;
      fib_seed = seed;
      n_v4;
      n_v6;
      rng = Prelude.Rng.create (seed + 4);
      tally = Oracle.tally ();
      rtt_us = [];
      rounds = [];
      addrs;
      ports;
      next_addr = 0;
      unchecked = [];
      warming = None;
    }
  with
  | t -> t
  | exception e ->
    stop_server pid;
    raise e

let stats_params t = J.Obj [ ("session", J.Int t.sid_a) ]

(* Right after loading the FIB the server carries a large garbage
   collection debt, which it pays only while it allocates, that is while
   it serves. A child process keeps it serving [stats] for [warm_up]
   seconds while the rest of the set-up runs, so the measured rounds see
   the server's steady state. *)
let warm_up = 8.0

let start_warm_up t =
  match Unix.fork () with
  | 0 ->
    (try
       let c = connect t.sock in
       let stop = Stats.now () +. warm_up in
       while Stats.now () < stop do
         ignore (call c ~op:"stats" ~params:(stats_params t))
       done;
       Unix.close c.fd
     with _ -> ());
    Unix._exit 0
  | pid -> t.warming <- Some pid

let finish_warm_up t =
  Option.iter (fun pid -> ignore (Unix.waitpid [] pid)) t.warming;
  t.warming <- None

let close t =
  Option.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) t.warming;
  finish_warm_up t;
  Unix.close t.a.fd;
  Unix.close t.b.fd;
  stop_server t.pid;
  if Sys.file_exists t.sock then Sys.remove t.sock

(* --- the closed loops ---------------------------------------------------- *)

let lookup_params t i = J.Obj [ ("session", J.Int t.sid_a); ("addr", J.String t.addrs.(i)) ]

(* The C3 script without its [commit]: a dry run stages, compiles and
   reports, and never applies. *)
let check_script =
  String.split_on_char '\n' Usecases.Flowprobe.script
  |> List.filter (fun l -> String.trim l <> "commit")
  |> String.concat "\n"

let check_params t = J.Obj [ ("session", J.Int t.sid_b); ("script", J.String check_script) ]

let port_of = function J.Int p -> Some p | _ -> None

let check_lookup t i r =
  let want = t.ports.(i) in
  let trie = port_of (J.member_exn "trie_port" r) and table = port_of (J.member_exn "table_port" r) in
  if trie = want && table = want then Oracle.ok t.tally
  else Oracle.fail t.tally (Printf.sprintf "fib_lookup %s: reply disagrees with the in-process FIB" t.addrs.(i))

let check_stats t r =
  let fib = J.member_exn "fib" r in
  let routes fam = J.to_int (J.member_exn "routes" (J.member_exn fam fib)) in
  if routes "v4" = t.n_v4 && routes "v6" = t.n_v6 then Oracle.ok t.tally
  else Oracle.fail t.tally "stats: FIB route counts differ from what was loaded"

let check_check t r =
  if J.to_bool (J.member_exn "valid" r) then Oracle.ok t.tally
  else Oracle.fail t.tally ("check of the C3 script failed: " ^ J.to_string r)

(* Replies are parsed and checked after the window: the client's own
   JSON work stays out of the loop it drives. *)
let defer t payload check =
  t.unchecked <-
    (fun () ->
      match Service.Client.result_of (J.of_string payload) with
      | Ok r -> check r
      | Error e -> Oracle.fail t.tally ("ipbmd error: " ^ e))
    :: t.unchecked

let next_a t =
  let on_reply check at payload =
    t.rtt_us <- ((at -. t.a.sent_at) *. 1e6) :: t.rtt_us;
    defer t payload check
  in
  if Prelude.Rng.int t.rng 5 = 0 then
    send t.a ~op:"stats" ~params:(stats_params t) ~on_reply:(on_reply (check_stats t))
  else begin
    let i = t.next_addr in
    t.next_addr <- (i + 1) mod n_addrs;
    send t.a ~op:"fib_lookup" ~params:(lookup_params t i) ~on_reply:(on_reply (check_lookup t i))
  end

let next_b t ~b_due =
  send t.b ~op:"check" ~params:(check_params t) ~on_reply:(fun at payload ->
      defer t payload (check_check t);
      b_due := at +. think)

(* One round of [seconds]: both tenants closed-loop, then drained; the
   kernel runs between tenant A's requests. *)
let run t ~seconds =
  t.rtt_us <- [];
  Calib.begin_round ();
  let start = Stats.now () in
  let stop = start +. seconds in
  let b_due = ref start in
  next_a t;
  while Stats.now () < stop || t.a.in_flight <> None || t.b.in_flight <> None do
    let now = Stats.now () in
    if t.b.in_flight = None && now >= !b_due && now < stop then next_b t ~b_due;
    let timeout = if t.b.in_flight = None then Float.max 0.0 (!b_due -. now) else 0.5 in
    let fds = List.filter_map (fun c -> if c.in_flight <> None then Some c.fd else None) [ t.a; t.b ] in
    match Unix.select fds [] [] (Float.min timeout 0.5) with
    | ready, _, _ ->
      if List.memq t.a.fd ready then begin
        pump t.a;
        if t.a.in_flight = None && Stats.now () < stop then begin
          Calib.tick ();
          next_a t
        end
      end;
      if List.memq t.b.fd ready then pump t.b
  done;
  let seconds = Stats.now () -. start in
  t.rounds <- { rtt_us = t.rtt_us; seconds; kernel_s = Calib.end_round () } :: t.rounds;
  List.iter (fun check -> check ()) (List.rev t.unchecked);
  t.unchecked <- []

(* Tenant A's round trips over every round, each divided by [scale] of
   its round. *)
let rtt t scale = List.concat_map (fun (r : round) -> List.map (fun s -> s /. scale r) r.rtt_us) t.rounds

let metrics t =
  let p99 name xs = Stats.percentile_exn ~name ~p:0.99 xs in
  let us = rtt t (fun _ -> 1.0) and cal = rtt t (fun (r : round) -> r.kernel_s *. 1e6) in
  let ops = float_of_int (List.length us) in
  let sum f = List.fold_left (fun a (r : round) -> a +. f r) 0.0 t.rounds in
  [
    ("rpc_p50_us", Stats.median us, "us");
    ("rpc_p99_us", p99 "rpc_p99_us" us, "us");
    ("rpc_ops_per_s", ops /. sum (fun r -> r.seconds), "1/s");
    ("rpc_p50_us.cal", Stats.median cal, "kernel");
    ("rpc_p99_us.cal", p99 "rpc_p99_us.cal" cal, "kernel");
    (* requests per kernel time *)
    ("rpc_ops_per_s.cal", ops /. sum (fun r -> r.seconds /. r.kernel_s), "1/kernel");
  ]

(* --- traced run: the service layer by layer, replayed in-process ------- *)

(* Median microseconds per call of [f] over [items], over [passes]. *)
let per_call ~passes items f =
  let n = Array.length items in
  Stats.median
    (List.init passes (fun _ ->
         let t0 = Stats.now () in
         Array.iter f items;
         (Stats.now () -. t0) *. 1e6 /. float_of_int n))

let request_payload id op params =
  J.to_string (J.Obj [ ("id", J.Int id); ("op", J.String op); ("params", params) ])

(* The same requests and FIB through an in-process [Service.Server]:
   framing, request parsing, dispatch per op, reply rendering, and the
   FIB's trie and virtualized-table lookups on their own. *)
let trace t ~sock =
  let server = Service.Server.create ~endpoints:[ Service.Server.Unix_path sock ] () in
  Fun.protect ~finally:(fun () -> Service.Server.shutdown server) @@ fun () ->
  let conn =
    {
      Service.Server.c_id = 0;
      c_fd = Unix.stdin;
      c_dec = Service.Frame.decoder ();
      c_out = Buffer.create 16;
      c_ooff = 0;
      c_close = false;
      c_subs = [];
    }
  in
  let parse payload =
    match Service.Proto.parse payload with Ok rq -> rq | Error e -> Traffic.fail "replay: %s" e
  in
  let dispatch payload =
    match fst (Service.Server.dispatch server conn (parse payload)) with
    | Ok doc -> doc
    | Error e -> Traffic.fail "replay: %s" e
  in
  let sid tenant =
    J.to_int (J.member_exn "session" (dispatch (request_payload 0 "open_session" (J.Obj [ ("tenant", J.String tenant) ]))))
  in
  let sa = sid "a" and sb = sid "b" in
  ignore
    (dispatch
       (request_payload 0 "fib_load"
          (J.Obj
             [ ("session", J.Int sa); ("v4", J.Int t.n_v4); ("v6", J.Int t.n_v6); ("seed", J.Int t.fib_seed) ])));
  let fib =
    match (Hashtbl.find server.Service.Server.sv_sessions sa).Service.Server.x_fib with
    | Some f -> f
    | None -> Traffic.fail "replay: no FIB loaded"
  in
  let lookups =
    Array.mapi (fun i a -> request_payload i "fib_lookup" (J.Obj [ ("session", J.Int sa); ("addr", J.String a) ])) t.addrs
  in
  let stats = Array.init 16 (fun i -> request_payload i "stats" (J.Obj [ ("session", J.Int sa) ])) in
  let checks =
    Array.init 4 (fun i ->
        request_payload i "check" (J.Obj [ ("session", J.Int sb); ("script", J.String check_script) ]))
  in
  (* Tenant A's mix, in the loop's proportions: four lookups per stats. *)
  let mix = Array.init (Array.length lookups) (fun i -> if i mod 5 = 4 then stats.(i mod 16) else lookups.(i)) in
  let frames = Array.map Service.Frame.encode mix in
  let dec = Service.Frame.decoder () in
  (* the reply envelopes [Service.Proto.ok] renders *)
  let replies =
    Array.map (fun p -> J.Obj [ ("id", J.Int 0); ("ok", J.Bool true); ("result", dispatch p) ]) mix
  in
  let lookup_docs = Array.map dispatch lookups in
  Array.iteri (fun i doc -> check_lookup t i doc) lookup_docs;
  let encode_us = per_call ~passes:5 mix (fun p -> ignore (Service.Frame.encode p)) in
  let decode_us =
    per_call ~passes:5 frames (fun f ->
        Service.Frame.feed_string dec f;
        ignore (Service.Frame.next dec))
  in
  let parse_us = per_call ~passes:5 mix (fun p -> ignore (Service.Proto.parse p)) in
  let dispatch_lookup_us = per_call ~passes:3 lookups (fun p -> ignore (dispatch p)) in
  let dispatch_stats_us = per_call ~passes:3 stats (fun p -> ignore (dispatch p)) in
  let dispatch_check_us = per_call ~passes:3 checks (fun p -> ignore (dispatch p)) in
  let to_string_us = per_call ~passes:5 replies (fun d -> ignore (J.to_string d)) in
  let lookup_to_string_us =
    per_call ~passes:5 lookup_docs (fun d ->
        ignore (J.to_string (J.Obj [ ("id", J.Int 0); ("ok", J.Bool true); ("result", d) ])))
  in
  let keys = Array.map (fun a -> if String.contains a ':' then `V6 (raw_v6 a) else `V4 (raw_v4 a)) t.addrs in
  let lpm_ns =
    1e3 *. per_call ~passes:5 keys (function
      | `V4 k -> ignore (Fabric.Fibgen.lookup_v4 fib k)
      | `V6 k -> ignore (Fabric.Fibgen.lookup_v6 fib k))
  in
  let tier = Table.tier_stats fib.Fabric.Fibgen.fib_v4.Fabric.Fibgen.lt_table in
  let h0, m0 = match tier with Some s -> (s.Table.ts_hits, s.Table.ts_misses) | None -> (0, 0) in
  let virt_ns =
    1e3 *. per_call ~passes:5 keys (function
      | `V4 k -> ignore (Fabric.Fibgen.apply_v4 fib k)
      | `V6 k -> ignore (Fabric.Fibgen.apply_v6 fib k))
  in
  let hit_rate =
    match Table.tier_stats fib.Fabric.Fibgen.fib_v4.Fabric.Fibgen.lt_table with
    | Some s ->
      let h = s.Table.ts_hits - h0 and m = s.Table.ts_misses - m0 in
      float_of_int h /. float_of_int (max 1 (h + m))
    | None -> 1.0
  in
  (* The median request is a lookup: its own rendering, and framing on
     both ends of the socket. *)
  let compute = (2.0 *. (decode_us +. encode_us)) +. parse_us +. dispatch_lookup_us +. lookup_to_string_us in
  [
    ("service.frame.encode_us", encode_us, "us");
    ("service.frame.decode_us", decode_us, "us");
    ("service.proto.parse_us", parse_us, "us");
    ("service.server.dispatch_fib_lookup_us", dispatch_lookup_us, "us");
    ("service.server.dispatch_stats_us", dispatch_stats_us, "us");
    ("service.server.dispatch_check_us", dispatch_check_us, "us");
    ("prelude.json.to_string_us", to_string_us, "us");
    ("net.lpm.lookup_ns", lpm_ns, "ns");
    ("table.engine.virt_apply_ns", virt_ns, "ns");
    ("table.tier_hit_rate", hit_rate, "share");
    ("service.socket_rtt_us", Stats.median (rtt t (fun _ -> 1.0)) -. compute, "us");
  ]
