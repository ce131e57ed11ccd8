(* Checks of the benchmark's own measuring code: the percentile rule, the
   calibration rounds, open-loop stall accounting and the output oracle. Run with
   [dune test perfbench]. *)

open Perfbench

let checks = ref 0

let expect what cond =
  incr checks;
  if not cond then begin
    Printf.eprintf "perfbench selftest: FAILED: %s\n%!" what;
    exit 1
  end

let samples n = List.init n (fun i -> float_of_int (i + 1))

(* A percentile is reported only from a rank with ten samples beyond it. *)
let percentile_rule () =
  expect "p90 of 100 samples is the 90th" (Stats.percentile ~p:0.9 (samples 100) = Some 90.0);
  expect "p95 of 100 samples has 5 beyond" (Stats.percentile ~p:0.95 (samples 100) = None);
  expect "p99 of 1000 samples is the 990th" (Stats.percentile ~p:0.99 (samples 1000) = Some 990.0);
  expect "p99 of 999 samples has 9 beyond" (Stats.percentile ~p:0.99 (samples 999) = None);
  List.iter
    (fun p ->
      let n = Stats.samples_for ~p in
      expect (Printf.sprintf "samples_for p%g suffices" p) (Stats.percentile ~p (samples n) <> None))
    [ 0.5; 0.9; 0.99 ];
  expect "median of an even count" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  expect "no samples" (Stats.percentile ~p:0.5 [] = None)

(* A 50 ms stall at t = 0.5 s under 1000 packets/s: every packet that
   fell due behind it must carry the wait, not only the one it hit. *)
let open_loop_stall () =
  let now = ref 0.0 in
  let clock () =
    now := !now +. 1e-6;
    !now
  in
  let stalled = ref false in
  let control ~now:t =
    if (not !stalled) && t >= 0.5 then begin
      stalled := true;
      now := !now +. 0.05
    end
  in
  let inject ~first:_ ~n = now := !now +. (float_of_int n *. 10e-6) in
  let ol = Openloop.run ~clock ~rate:1000.0 ~duration:1.0 ~max_batch:64 ~inject ~control in
  let late = Openloop.late ol ~limit:0.005 in
  expect "every scheduled packet went out" (ol.Openloop.injected = 1000);
  expect "the stall delays the ~45 packets due more than 5 ms before its end" (late >= 40 && late <= 50);
  expect "the first packet behind the stall waited the whole stall"
    (List.fold_left Float.max 0.0 ol.Openloop.latency >= 0.049);
  expect "p50 stays at the service time"
    (Stats.median ol.Openloop.latency < 0.001)

(* The oracle passes the compiled path against the interpreter, and flags
   a packet whose egress port was corrupted. *)
let oracle_flags_corruption () =
  let _, dev = Harness.Cases.boot_base () in
  let _, refdev = Harness.Cases.boot_base ~linked:false () in
  let flows =
    [
      Net.Flowgen.ipv4_udp ~in_port:0 Usecases.Base_l23.routed_v4_flow;
      Net.Flowgen.ipv4_udp ~in_port:1 Usecases.Base_l23.host_route_v4_flow;
      Net.Flowgen.ipv6_udp ~in_port:2 Usecases.Base_l23.routed_v6_flow;
      Net.Flowgen.l2 ~in_port:3 Usecases.Base_l23.bridged_flow;
    ]
  in
  let wires = List.map (fun p -> (Net.Packet.contents p, p.Net.Packet.in_port)) flows in
  let fresh () = Array.of_list (List.map (fun (w, in_port) -> Net.Packet.create ~in_port w) wires) in
  let expected = Array.map (Oracle.inject refdev) (fresh ()) in
  let pkts = fresh () in
  let got = Oracle.of_batch pkts (Ipsa.Device.inject_batch dev pkts) in
  let run got =
    let t = Oracle.tally () in
    Array.iteri (fun i g -> Oracle.check t ~what:(string_of_int i) ~expected:expected.(i) ~got:g) got;
    t
  in
  let clean = run got in
  expect "compiled path agrees with the interpreter" (clean.Oracle.failed = 0 && clean.Oracle.attempted = 4);
  let bad = Array.copy got in
  bad.(1) <- { (bad.(1)) with Oracle.v_port = (bad.(1).Oracle.v_port + 1) mod 16 };
  let t = run bad in
  expect "one corrupted egress port is one failure" (t.Oracle.failed = 1);
  expect "the failure names the packet"
    (match t.Oracle.first_failure with Some s -> String.length s > 0 && s.[0] = '1' | None -> false);
  let bad = Array.copy got in
  bad.(0) <- { (bad.(0)) with Oracle.v_bytes = bad.(0).Oracle.v_bytes ^ "x" };
  expect "corrupted bytes are a failure" ((run bad).Oracle.failed = 1)

(* The calibration kernel runs at a round's start and end and at most once
   per interval in between, and a round's kernel time is the median. *)
let calibration () =
  Calib.begin_round ();
  let stop = Stats.now () +. (4.5 *. Calib.interval) in
  while Stats.now () < stop do
    Calib.tick ()
  done;
  let k = Calib.end_round () in
  let n = List.length Calib.current.Calib.samples in
  expect "the kernel ran at the start, on each interval and at the end"
    (n >= (2 * Calib.edge) + 3 && n <= (2 * Calib.edge) + 5);
  expect "the round's kernel time is the median of its calls" (k = Stats.median Calib.current.Calib.samples);
  expect "the kernel takes time" (k > 0.0)

let () =
  percentile_rule ();
  calibration ();
  open_loop_stall ();
  oracle_flags_corruption ();
  Printf.printf "perfbench selftest: %d checks passed\n" !checks
