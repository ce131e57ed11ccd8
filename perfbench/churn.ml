(* churn: open-loop forwarding with control writes beside it.

   Packets of the forwarding stream fall due at [rate] per second (about a
   third of what the batch path sustains on this traffic) and go through
   [Ipsa.Device.inject_batch]. Beside them a seeded control schedule runs
   through [Controller.Session]: [table_del]/[table_add] of host routes and
   bridged MACs at [op_rate] per second, some of them on entries the
   traffic uses, and every [c3_period] seconds an unload or, the next
   time, a reload of C3. One C3 operation stalls the wide-table device
   for 100-140 ms and the small-table one for ~10 ms (re-verification
   against the live tables and a decision-diagram resplice); the period
   is set per workload so that a few percent of the packets queue behind
   a stall, which puts the p99 inside the stalls. Both schedules run on churn time, summed
   over rounds, so they keep their rates however the window is cut.
   Each packet is checked against the table
   state at its injection: a flow whose entry is present gets the
   interpreter's verdict with all entries in, one whose entry is absent
   the verdict with all churnable entries out. *)

let op_rate = 20.0
let max_batch = 64

(* A packet later than this counts as lost: the device model buffers
   arrivals without bound, and a switch with a buffer of
   [loss_limit * rate] packets would have dropped it. *)
let loss_limit = 0.005

type round = {
  latency : float list; (* seconds, one per packet *)
  lost : int;
  offered : int;
  kernel_s : float;
}

type t = {
  rate : float; (* offered packets per second *)
  c3_period : float; (* seconds of churn time between C3 operations *)
  traffic : Traffic.t;
  session : Controller.Session.t;
  device : Ipsa.Device.t;
  order : int array;
  present : Oracle.verdict array; (* by flow, every churnable entry in *)
  absent : Oracle.verdict array; (* by flow, every churnable entry out *)
  state : bool array; (* by key: entry installed? *)
  mutable c3_loaded : bool;
  rng : Prelude.Rng.t;
  tally : Oracle.tally;
  mutable rounds : round list;
  mutable wait : float list; (* seconds *)
  mutable service : float list;
  mutable add_us : float list;
  mutable del_us : float list;
  mutable load_us : float list;
  mutable unload_us : float list;
  mutable lag : float list; (* control op start - schedule, seconds *)
  mutable cursor : int; (* stream position *)
  mutable elapsed : float; (* churn time before this round *)
  mutable ops_done : int;
  mutable c3_done : int;
  mutable deleted : int; (* key the last delete took out *)
}

let exec session line =
  match Controller.Command.parse_script line with
  | [ cmd ] -> (
    match Controller.Session.exec session cmd with
    | Ok _ -> ()
    | Error e -> Traffic.fail "churn %S: %s" line e)
  | _ -> Traffic.fail "churn: bad command %S" line

let setup ~seed ~rate ~c3_period traffic ~order ~(reference : Fwd.reference) =
  let session, device = Traffic.boot traffic in
  {
    rate;
    c3_period;
    traffic;
    session;
    device;
    order;
    present = reference.Fwd.present;
    absent = reference.Fwd.absent;
    state = Array.make (Array.length traffic.Traffic.keys) true;
    c3_loaded = true;
    rng = Prelude.Rng.create (seed + 3);
    tally = Oracle.tally ();
    rounds = [];
    wait = [];
    service = [];
    add_us = [];
    del_us = [];
    load_us = [];
    unload_us = [];
    lag = [];
    cursor = 0;
    elapsed = 0.0;
    ops_done = 0;
    c3_done = 0;
    deleted = -1;
  }

let timed f =
  let t0 = Stats.now () in
  f ();
  (Stats.now () -. t0) *. 1e6

(* Even operations delete a random installed entry, odd ones re-add the
   entry the previous one deleted: half the writes are each kind, and an
   entry stays out for one operation interval. *)
let table_op t =
  if t.ops_done land 1 = 0 then begin
    let rec pick () =
      let k = Prelude.Rng.int t.rng (Array.length t.state) in
      if t.state.(k) then k else pick ()
    in
    let k = pick () in
    t.del_us <- timed (fun () -> exec t.session t.traffic.Traffic.keys.(k).Traffic.k_del) :: t.del_us;
    t.state.(k) <- false;
    t.deleted <- k
  end
  else begin
    let k = t.deleted in
    t.add_us <- timed (fun () -> exec t.session t.traffic.Traffic.keys.(k).Traffic.k_add) :: t.add_us;
    t.state.(k) <- true
  end

let c3_op t =
  if t.c3_loaded then begin
    t.unload_us <-
      timed (fun () ->
          match Controller.Session.unload t.session ~func_name:"flow_probe" with
          | Ok _ -> ()
          | Error e -> Traffic.fail "churn unload: %s" (String.concat "; " e))
      :: t.unload_us;
    t.c3_loaded <- false
  end
  else begin
    t.load_us <-
      timed (fun () ->
          Traffic.run_script t.session "churn load" Usecases.Flowprobe.script;
          Traffic.run_script t.session "churn load population" Usecases.Flowprobe.population)
      :: t.load_us;
    t.c3_loaded <- true
  end

let expected t fi =
  let f = t.traffic.Traffic.flows.(fi) in
  if f.Traffic.f_key >= 0 && not t.state.(f.Traffic.f_key) then t.absent.(fi) else t.present.(fi)

(* One round: an open-loop window of [seconds]. Each batch's expected
   verdicts are taken at injection; the checks run after the window, so
   they delay no packet. *)
let run t ~seconds =
  let n = Array.length t.order in
  let start = Stats.now () in
  let origin = start -. t.elapsed in
  let fin = start +. seconds in
  let sent = ref [] in
  let control ~now =
    let op_due i = origin +. (float_of_int (i + 1) /. op_rate) in
    while op_due t.ops_done <= now && op_due t.ops_done < fin do
      t.lag <- (Stats.now () -. op_due t.ops_done) :: t.lag;
      table_op t;
      t.ops_done <- t.ops_done + 1
    done;
    (* half a period in, so C3 never falls on a round's first packet *)
    let c3_due j = origin +. ((float_of_int j +. 0.5) *. t.c3_period) in
    if c3_due t.c3_done <= now && c3_due t.c3_done < fin then begin
      t.lag <- (Stats.now () -. c3_due t.c3_done) :: t.lag;
      c3_op t;
      t.c3_done <- t.c3_done + 1
    end
  in
  let inject ~first:_ ~n:len =
    let fis = Array.init len (fun j -> t.order.((t.cursor + j) mod n)) in
    let expect = Array.map (expected t) fis in
    let pkts = Array.map (fun fi -> Traffic.packet t.traffic.Traffic.flows.(fi)) fis in
    let res = Ipsa.Device.inject_batch t.device pkts in
    ignore (Ipsa.Device.collect_all t.device);
    t.cursor <- t.cursor + len;
    sent := (fis, expect, pkts, res) :: !sent
  in
  Calib.begin_round ();
  let ol = Openloop.run ~clock:Stats.now ~rate:t.rate ~duration:seconds ~max_batch ~inject ~control in
  let kernel_s = Calib.end_round () in
  List.iter
    (fun (fis, expect, pkts, res) ->
      Array.iteri
        (fun j got ->
          Oracle.check t.tally ~what:(Printf.sprintf "churn flow %d" fis.(j)) ~expected:expect.(j) ~got)
        (Oracle.of_batch pkts res))
    (List.rev !sent);
  t.elapsed <- t.elapsed +. seconds;
  t.rounds <-
    {
      latency = ol.Openloop.latency;
      lost = Openloop.late ol ~limit:loss_limit;
      offered = ol.Openloop.injected;
      kernel_s;
    }
    :: t.rounds;
  t.wait <- List.rev_append ol.Openloop.wait t.wait;
  t.service <- List.rev_append ol.Openloop.service t.service

let loss rounds =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds in
  float_of_int (sum (fun r -> r.lost)) /. float_of_int (max 1 (sum (fun r -> r.offered)))

let metrics t =
  let latency scale = List.concat_map (fun r -> List.map (fun s -> s /. scale r) r.latency) t.rounds in
  let p99 name xs = Stats.percentile_exn ~name ~p:0.99 xs in
  let us = latency (fun _ -> 1e-6) and cal = latency (fun r -> r.kernel_s) in
  [
    ("churn_p50_us", Stats.median us, "us");
    ("churn_p99_us", p99 "churn_p99_us" us, "us");
    ("churn_loss", loss t.rounds, "share");
    ("churn_p50_us.cal", Stats.median cal, "kernel");
    ("churn_p99_us.cal", p99 "churn_p99_us.cal" cal, "kernel");
  ]

(* The control writes and the packet-side split of latency, from the
   same loop: every control operation is timed around its call. *)
let trace_metrics t =
  let med l = Stats.median l in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  [
    ("controller.session.table_add_us", med t.add_us, "us");
    ("controller.session.table_del_us", med t.del_us, "us");
    ("controller.session.load_us", med t.load_us, "us");
    ("controller.session.unload_us", med t.unload_us, "us");
    ("churn.queue_wait_us", med t.wait *. 1e6, "us");
    ("churn.service_us", med t.service *. 1e6, "us");
    ("churn.gen_lag_ms", mean t.lag *. 1e3, "ms");
  ]
