(* fwd-imix: closed-loop forwarding on the stacked device.

   One pass sends every flow once, in a fixed seeded order. A batch pass
   goes through [Ipsa.Device.inject_batch] in batches of [batch]; a single
   pass goes packet by packet through [Ipsa.Device.inject]. Each timed
   chunk covers building the packets from wire bytes, injecting them and
   draining egress with [collect_all]; the oracle check runs outside the
   timed region. *)

let batch = 64

(* A pass is timed per segment of [segment] packets; the reported cost
   sums each segment's median over passes, so a burst of machine noise
   moves one sample of one segment rather than a whole pass. *)
let segment = 256

(* Reference verdicts, with every churnable entry installed ([present])
   and with all of them deleted ([absent]; only flows that depend on one
   differ). *)
type reference = { present : Oracle.verdict array; absent : Oracle.verdict array }

(* One round: per segment, seconds with one sample per pass; and the
   round's kernel time. *)
type round = { batch_s : float list array; single_s : float list array; kernel_s : float }

type t = {
  traffic : Traffic.t;
  device : Ipsa.Device.t;
  reference : reference;
  expected : Oracle.verdict array; (* by flow index: [reference.present] *)
  order : int array; (* flow indices in stream order *)
  nsegments : int;
  tally : Oracle.tally;
  mutable rounds : round list;
}

(* The stream, in order, through the interpreter; then the churnable
   entries deleted and their flows sent again. *)
let reference traffic order =
  let refsession, refdev = Traffic.boot ~linked:false traffic in
  let flows = traffic.Traffic.flows in
  let present = Array.make (Array.length flows) Oracle.no_egress in
  Array.iter (fun fi -> present.(fi) <- Oracle.inject refdev (Traffic.packet flows.(fi))) order;
  Traffic.run_script refsession "reference deletes"
    (String.concat "\n" (Array.to_list (Array.map (fun k -> k.Traffic.k_del) traffic.Traffic.keys)));
  let absent = Array.copy present in
  Array.iter
    (fun fi ->
      if flows.(fi).Traffic.f_key >= 0 then absent.(fi) <- Oracle.inject refdev (Traffic.packet flows.(fi)))
    order;
  { present; absent }

let stream_order traffic ~seed =
  let order = Array.init (Array.length traffic.Traffic.flows) Fun.id in
  Prelude.Rng.shuffle (Prelude.Rng.create (seed + 1)) order;
  order

let setup traffic ~order ~reference =
  let _, device = Traffic.boot traffic in
  if not (Ipsa.Device.flat_ready device) then
    Traffic.fail "fwd: stacked design is not flat_ready (%s)"
      (String.concat "; "
         (List.map (fun (i, r) -> Printf.sprintf "tsp%d: %s" i r) (Ipsa.Device.flat_report device)));
  {
    traffic;
    device;
    reference;
    expected = reference.present;
    order;
    nsegments = (Array.length order + segment - 1) / segment;
    tally = Oracle.tally ();
    rounds = [];
  }

let check t fi got =
  Oracle.check t.tally ~what:(Printf.sprintf "fwd flow %d" fi) ~expected:t.expected.(fi) ~got

let packets t base len = Array.init len (fun j -> Traffic.packet t.traffic.Traffic.flows.(t.order.(base + j)))

(* One segment through [inject_batch]: seconds spent building, injecting
   and draining; the check runs after the clock stops. *)
let flows t = Array.length t.order

let batch_segment t samples seg =
  let base = seg * segment in
  let last = min (flows t) (base + segment) in
  let busy = ref 0.0 in
  let off = ref base in
  while !off < last do
    let len = min batch (last - !off) in
    let t0 = Stats.now () in
    let pkts = packets t !off len in
    let res = Ipsa.Device.inject_batch t.device pkts in
    ignore (Ipsa.Device.collect_all t.device);
    busy := !busy +. (Stats.now () -. t0);
    let first = !off in
    Array.iteri (fun j v -> check t t.order.(first + j) v) (Oracle.of_batch pkts res);
    off := !off + len
  done;
  samples.(seg) <- !busy :: samples.(seg)

(* One segment packet by packet through [inject]. *)
let single_segment t samples seg =
  let base = seg * segment in
  let len = min (flows t) (base + segment) - base in
  let out = Array.make len None in
  let t0 = Stats.now () in
  for j = 0 to len - 1 do
    out.(j) <- Ipsa.Device.inject t.device (Traffic.packet t.traffic.Traffic.flows.(t.order.(base + j)))
  done;
  ignore (Ipsa.Device.collect_all t.device);
  samples.(seg) <- (Stats.now () -. t0) :: samples.(seg);
  Array.iteri
    (fun j r ->
      let got =
        match r with
        | Some (port, ctx) -> { Oracle.v_port = port; v_bytes = Net.Packet.contents ctx.Ipsa.Context.pkt }
        | None -> Oracle.no_egress
      in
      check t t.order.(base + j) got)
    out

(* One round: whole passes, each segment batch then single, until
   [seconds] are up, calibrated between segments. *)
let run t ~seconds =
  let batch_s = Array.make t.nsegments [] and single_s = Array.make t.nsegments [] in
  Calib.begin_round ();
  let stop = Stats.now () +. seconds in
  let passes = ref 0 in
  while !passes < 1 || Stats.now () < stop do
    for seg = 0 to t.nsegments - 1 do
      batch_segment t batch_s seg;
      single_segment t single_s seg;
      Calib.tick ()
    done;
    incr passes
  done;
  t.rounds <- { batch_s; single_s; kernel_s = Calib.end_round () } :: t.rounds

(* Cost per packet: the sum of each segment's median. *)
let per_pkt t segs = Array.fold_left (fun acc l -> acc +. Stats.median l) 0.0 segs /. float_of_int (flows t)

(* Every round's samples per segment, each divided by [scale] of its
   round. *)
let pooled t pick scale =
  Array.init t.nsegments (fun seg ->
      List.concat_map (fun r -> List.map (fun s -> s /. scale r) (pick r).(seg)) t.rounds)

let metrics t =
  let batch r = r.batch_s and single r = r.single_s in
  let raw pick = per_pkt t (pooled t pick (fun _ -> 1e-9)) in
  let cal pick = per_pkt t (pooled t pick (fun r -> r.kernel_s)) in
  let b = raw batch and s = raw single in
  [
    ("fwd_ns_per_pkt", b, "ns");
    ("fwd_single_ns_per_pkt", s, "ns");
    ("fwd_batch_vs_single", b /. s, "ratio");
    ("fwd_ns_per_pkt.cal", cal batch, "kernel");
    ("fwd_single_ns_per_pkt.cal", cal single, "kernel");
  ]

(* --- traced run: the data plane layer by layer ------------------------- *)

module F = Net.Flatpkt

(* Per-layer costs by differencing. Loop k runs one more layer than loop
   k - 1: the flat record load, then the pipeline; and, over the
   pipeline's powered slots in order, one more TSP per loop (stage-prefix
   differencing over [Ipsa.Device.run_flat_slots]). Every loop runs over
   the same segment back to back; a loop's cost sums its per-segment
   medians, as the forwarding loop does. *)
let trace_layers t ~seconds =
  let dev = t.device in
  let layout = dev.Ipsa.Device.meta_layout in
  let fp = F.create () in
  let load pkt = F.of_packet fp ~layout pkt in
  let slots = Array.append dev.Ipsa.Device.flat_ingress dev.Ipsa.Device.flat_egress in
  let nslots = Array.length slots in
  let tc = Ipsa.Cycles.template_cycles dev.Ipsa.Device.cycles_cfg in
  let loops =
    Array.of_list
      ([ load; (fun pkt -> load pkt; ignore (Ipsa.Device.process_flat dev fp)) ]
      @ List.init (nslots + 1) (fun k ->
            let pre = Array.sub slots 0 k in
            fun pkt -> load pkt; Ipsa.Device.run_flat_slots dev pre tc fp))
  in
  let samples = Array.init (Array.length loops) (fun _ -> Array.make t.nsegments []) in
  (* The write-back is timed on its own, over records the pipeline has
     already run. *)
  let back = Array.make t.nsegments [] in
  let records = Array.init segment (fun _ -> F.create ()) in
  let stop = Stats.now () +. seconds in
  let rounds = ref 0 in
  while !rounds < 3 || Stats.now () < stop do
    for seg = 0 to t.nsegments - 1 do
      let base = seg * segment in
      let len = min (flows t) (base + segment) - base in
      Array.iteri
        (fun i f ->
          let pkts = packets t base len in
          let t0 = Stats.now () in
          Array.iter f pkts;
          samples.(i).(seg) <- (Stats.now () -. t0) :: samples.(i).(seg))
        loops;
      let pkts = packets t base len in
      let ran =
        Array.mapi
          (fun j p ->
            F.of_packet records.(j) ~layout p;
            Ipsa.Device.process_flat dev records.(j) >= -1)
          pkts
      in
      let t0 = Stats.now () in
      Array.iteri (fun j p -> if ran.(j) then F.to_packet records.(j) p) pkts;
      back.(seg) <- (Stats.now () -. t0) :: back.(seg)
    done;
    incr rounds
  done;
  let ns segs = per_pkt t segs *. 1e9 in
  let cost i = ns samples.(i) in
  let tsp = Array.make (Ipsa.Pipeline.ntsps dev.Ipsa.Device.pipeline) 0.0 in
  for k = 1 to nslots do
    let slot, _ = slots.(k - 1) in
    tsp.(slot.Ipsa.Tsp.id) <- tsp.(slot.Ipsa.Tsp.id) +. (cost (2 + k) -. cost (1 + k))
  done;
  [
    ("net.flatpkt.of_packet_ns", cost 0, "ns");
    ("ipsa.device.process_flat_ns", cost 1 -. cost 0, "ns");
    ("net.flatpkt.to_packet_ns", ns back, "ns");
  ]
  @ List.init (Array.length tsp) (fun i -> (Printf.sprintf "ipsa.tsp%d_ns" i, tsp.(i), "ns"))

(* Per-packet counts and allocation over one batch pass, and the share
   of packets [inject_batch] could send down the flat path. *)
let trace_counts t =
  let flows = t.traffic.Traffic.flows in
  let n = Array.length t.order in
  let lookups = ref 0 and parses = ref 0 and cycles = ref 0 and fast = ref 0 in
  let alloc = ref 0.0 in
  let off = ref 0 in
  while !off < n do
    let len = min batch (n - !off) in
    let pkts = Array.init len (fun j -> Traffic.packet flows.(t.order.(!off + j))) in
    let dev = t.device in
    if Ipsa.Device.flat_ready dev && (not (Ipsa.Device.updating dev))
       && Ipsa.Tm.length dev.Ipsa.Device.tm = 0
    then fast := !fast + len;
    let a0 = Gc.allocated_bytes () in
    let res = Ipsa.Device.inject_batch dev pkts in
    alloc := !alloc +. (Gc.allocated_bytes () -. a0);
    ignore (Ipsa.Device.collect_all dev);
    Array.iter
      (function
        | Some br ->
          lookups := !lookups + br.Ipsa.Device.br_lookups;
          parses := !parses + br.Ipsa.Device.br_parse_attempts;
          cycles := !cycles + br.Ipsa.Device.br_cycles
        | None -> ())
      res;
    Array.iteri (fun j v -> check t t.order.(!off + j) v) (Oracle.of_batch pkts res);
    off := !off + len
  done;
  let per x = float_of_int x /. float_of_int n in
  [
    ("ipsa.device.alloc_bytes_per_pkt", !alloc /. float_of_int n, "B/pkt");
    ("ipsa.device.fastpath_share", per !fast, "share");
    ("table.engine.lookups_per_pkt", per !lookups, "count/pkt");
    ("ipsa.parse_attempts_per_pkt", per !parses, "count/pkt");
    ("ipsa.cycles_per_pkt", per !cycles, "count/pkt");
  ]

(* The boxed [Table.Engine.lookup] on the keys the traffic resolves in
   the wide tables. *)
let trace_engine t ~passes =
  let tables = Hashtbl.create 8 in
  let table name =
    match Hashtbl.find_opt tables name with
    | Some e -> e
    | None ->
      let e =
        match Ipsa.Device.find_table t.device name with
        | Some tb -> Table.engine tb
        | None -> Traffic.fail "trace: no table %s" name
      in
      Hashtbl.replace tables name e;
      e
  in
  let b16 v = Net.Bits.of_int ~width:16 v in
  let probes =
    Array.to_list t.traffic.Traffic.flows
    |> List.concat_map (fun f ->
           let pkt = Traffic.packet f in
           let field ~off ~width = Net.Packet.get_bits pkt ~off ~width in
           match f.Traffic.f_kind with
           | Traffic.Routed_v4 | Traffic.Host_v4 | Traffic.Probed ->
             let dst = field ~off:((14 + 16) * 8) ~width:32 in
             [ (table "ipv4_lpm", [ b16 10; dst ]); (table "ipv4_host", [ b16 10; dst ]) ]
           | Traffic.Routed_v6 ->
             let dst = field ~off:((14 + 24) * 8) ~width:128 in
             [ (table "ipv6_lpm", [ b16 10; dst ]); (table "ipv6_host", [ b16 10; dst ]) ]
           | Traffic.Bridged -> [ (table "dmac", [ b16 1; field ~off:0 ~width:48 ]) ]
           | Traffic.Srv6_end -> [])
    |> Array.of_list
  in
  let samples =
    List.init passes (fun _ ->
        let t0 = Stats.now () in
        Array.iter (fun (e, k) -> ignore (Table.Engine.lookup e k)) probes;
        (Stats.now () -. t0) *. 1e9 /. float_of_int (Array.length probes))
  in
  [ ("table.engine.lookup_ns", Stats.median samples, "ns") ]

(* Batch passes with a live telemetry registry against the no-op sink
   this device runs with, alternated. *)
let trace_telemetry t ~seconds =
  let _, live = Traffic.boot ~telemetry:(Telemetry.create ()) t.traffic in
  let on = { t with device = live } in
  let off_s = Array.make t.nsegments [] and on_s = Array.make t.nsegments [] in
  let stop = Stats.now () +. seconds in
  let passes = ref 0 in
  while !passes < 3 || Stats.now () < stop do
    for seg = 0 to t.nsegments - 1 do
      batch_segment t off_s seg;
      batch_segment on on_s seg
    done;
    incr passes
  done;
  [ ("telemetry.on_off_ratio", per_pkt t on_s /. per_pkt t off_s, "ratio") ]

let trace t ~seconds =
  trace_layers t ~seconds:(seconds *. 0.5)
  @ trace_counts t
  @ trace_engine t ~passes:5
  @ trace_telemetry t ~seconds:(seconds *. 0.4)
