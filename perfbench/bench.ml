(* perfbench, the benchmark executable. Every run sets up and measures
   all four loops — fwd-imix, update-cycle, churn and ipbmd-rpc — so
   every end-to-end metric is reported on every workload. A workload is
   a table scale: the forwarding device's tables, its traffic, the churn
   loop's offered rate and the daemon's FIB. See README.md.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --ipbm PATH --sock PATH *)

open Perfbench

type workload = {
  name : string;
  scale : Traffic.scale;
  churn_rate : float; (* offered packets per second, a quarter to a third of fwd-imix capacity *)
  c3_period : float; (* seconds of churn time between C3 unloads and reloads *)
  fib_v4 : int; (* routes tenant A loads into ipbmd *)
  fib_v6 : int;
}

let workloads =
  [
    {
      name = "wide-tables";
      scale = Traffic.wide;
      churn_rate = 7000.0;
      c3_period = 1.5;
      fib_v4 = 100_000;
      fib_v6 = 25_000;
    };
    {
      name = "small-tables";
      scale = Traffic.small;
      churn_rate = 20000.0;
      c3_period = 0.25;
      fib_v4 = 10_000;
      fib_v6 = 2_500;
    };
  ]

(* Set-ups per run; [setup_s] is their median. *)
let setup_reps = 3

type legs = { fwd : Fwd.t; upd : Update.t; churn : Churn.t; rpc : Rpc.t }

let timed f =
  let t0 = Stats.now () in
  let r = f () in
  (r, Stats.now () -. t0)

(* [f] [setup_reps] times, each from a compacted heap holding none of the
   earlier results: the last result and the median time. *)
let repeat f =
  let last = ref None in
  let times =
    List.init setup_reps (fun _ ->
        last := None;
        Gc.compact ();
        let r, s = timed f in
        last := Some r;
        s)
  in
  (Option.get !last, Stats.median times)

(* The timed set-up is the program's: the interpreter's verdicts on the
   stream, the stacked device booted and populated, and the interpreter's
   first-packet verdicts per update case. It runs before the daemon is
   spawned, so nothing else competes for the processors. The traffic is
   the benchmark's own and is built outside it. *)
let setup w ~seed ~ipbm ~sock =
  let traffic = Traffic.generate ~scale:w.scale ~seed in
  let order = Fwd.stream_order traffic ~seed in
  let (fwd, upd), setup_s =
    repeat (fun () ->
        let reference = Fwd.reference traffic order in
        (Fwd.setup traffic ~order ~reference, Update.setup ~seed))
  in
  let rpc = Rpc.setup ~seed ~n_v4:w.fib_v4 ~n_v6:w.fib_v6 ~ipbm ~sock in
  match
    Rpc.start_warm_up rpc;
    let churn = Churn.setup ~seed ~rate:w.churn_rate ~c3_period:w.c3_period traffic ~order ~reference:fwd.Fwd.reference in
    Rpc.finish_warm_up rpc;
    { fwd; upd; churn; rpc }
  with
  | legs -> (legs, setup_s)
  | exception e ->
    Rpc.close rpc;
    raise e

(* Each round runs the four loops in turn, each for an equal share. *)
let measure legs ~seconds =
  let s = seconds /. 4.0 /. float_of_int Stats.rounds in
  for _ = 1 to Stats.rounds do
    Fwd.run legs.fwd ~seconds:s;
    Update.run legs.upd ~seconds:s;
    Churn.run legs.churn ~seconds:s;
    Rpc.run legs.rpc ~seconds:s
  done

(* The end-to-end numbers a later change is gated on: the absolute
   timings of the four loops, each divided by the calibration kernel
   timed in the same rounds ([.cal], see Calib); the paper's Table 1
   ratio; and the set-up time. Every other number, the undivided ones
   among them, is printed by every run and reported by a traced run. The
   daemon's tail and throughput are not gated: with a 100k-route FIB they
   spread by 0.17-0.49 of their median over ten runs, from the server's
   own state, which no kernel in the client cancels. *)
let gated =
  [
    "fwd_ns_per_pkt.cal"; "fwd_single_ns_per_pkt.cal"; "update_p50_ms.cal"; "update_p90_ms.cal";
    "reload_ms.cal"; "precompiled_load_ms.cal"; "update_vs_reload"; "churn_p50_us.cal";
    "churn_p99_us.cal"; "rpc_p50_us.cal"; "setup_s";
  ]

let is_gated (n, _, _) = List.mem n gated

let end_to_end legs ~setup_s =
  Fwd.metrics legs.fwd @ Update.metrics legs.upd @ Churn.metrics legs.churn
  @ Rpc.metrics legs.rpc
  @ [ ("setup_s", setup_s, "s") ]

let tally legs =
  let t = Oracle.tally () in
  List.iter (Oracle.merge t)
    [ legs.fwd.Fwd.tally; legs.upd.Update.tally; legs.churn.Churn.tally; legs.rpc.Rpc.tally ];
  t

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else raise (Failure (Printf.sprintf "non-finite metric value %g" v))

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u) ms)
  ^ "}"

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-40s %14.4f %s\n" n v u) ms

let main w ~seed ~seconds ~trace ~ipbm ~sock =
  Printf.printf "method: profile=release ocaml=%s cpus=%d workload=%s seed=%d seconds=%g trace=%b\n%!"
    Sys.ocaml_version (Domain.recommended_domain_count ()) w.name seed seconds trace;
  let t_start = Stats.now () in
  let phase what = Printf.eprintf "perfbench: %s at %.1f s\n%!" what (Stats.now () -. t_start) in
  let legs, setup_s = setup w ~seed ~ipbm ~sock in
  phase "set up";
  Fun.protect ~finally:(fun () -> Rpc.close legs.rpc) @@ fun () ->
  (* Start every run's measurement from the same heap state: set-up
     garbage collected and compacted. *)
  Gc.compact ();
  let window = if trace then seconds /. 2.0 else seconds in
  measure legs ~seconds:window;
  phase "measured";
  let e2e = end_to_end legs ~setup_s in
  Printf.printf "%s end-to-end: %s\n%!" (if trace then "traced" else "untraced") (metrics_json e2e);
  let reported =
    if not trace then List.filter is_gated e2e
    else begin
      print_table "end-to-end (traced run)" e2e;
      let part = window /. 4.0 in
      let fwd = Fwd.trace legs.fwd ~seconds:part in
      let upd = Update.trace legs.upd ~seconds:part in
      let rpc = Rpc.trace legs.rpc ~sock:(sock ^ ".replay") in
      fwd @ upd @ Churn.trace_metrics legs.churn @ rpc
      @ List.filter (fun m -> not (is_gated m)) e2e
    end
  in
  let t = tally legs in
  if not trace then print_table "end-to-end" e2e else print_table "per layer" reported;
  Option.iter (Printf.printf "first failure: %s\n") t.Oracle.first_failure;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (t.Oracle.failed = 0) t.Oracle.attempted t.Oracle.failed (metrics_json reported);
  if t.Oracle.failed = 0 then 0 else 1

let () =
  let names = List.map (fun w -> w.name) workloads in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let ipbm = ref "" and sock = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured window");
      ("--trace", Arg.Set_int trace, " 1 = per-layer metrics");
      ("--ipbm", Arg.Set_string ipbm, " path of the ipbm executable");
      ("--sock", Arg.Set_string sock, " Unix socket path for ipbm serve");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --ipbm PATH --sock PATH";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("bench: --workload must be one of " ^ String.concat ", " names);
      exit 2
  in
  if !ipbm = "" || !sock = "" then begin
    prerr_endline "bench: --ipbm and --sock are required";
    exit 2
  end;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    main w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~ipbm:!ipbm ~sock:!sock
  with
  | code -> exit code
  | exception e ->
    Printf.eprintf "bench: %s\n%!" (Printexc.to_string e);
    exit 2
