(* update-cycle: closed-loop in-situ updates against full reloads.

   Each rep picks one of C1/C2/C3 (every block of three reps is a seeded
   permutation of the three, so each run has the same mix) and times
   three flows for it, each on state booted untimed just before:
   - update: [Session.run_script] of the case's script and population on
     a fresh base, then the first packet that must take the new pipeline;
   - reload: the PISA full flow for the same case (P4lite -> Rp4fc ->
     [compile_full] -> [Pisa.Deploy.install]/[populate]), then the same
     first packet;
   - precompiled: [Session.prepare] untimed, then [apply_prepared] and the
     population, then the first packet (the paper's t_L).
   Every first packet is checked against the reference interpreter's
   post-update verdict, which setup made sure differs from the pre-update
   one. *)

type case = Harness.Paper.case

(* What the oracle compares for a first packet: egress port and bytes,
   plus the number of table lookups, which is how the flow-probe update
   (no new header, no new port) becomes visible. *)
type verdict = { out : Oracle.verdict; lookups : int }

let verdict_of_batch pkt (r : Ipsa.Device.batch_result option) =
  match r with
  | Some br ->
    {
      out = { Oracle.v_port = br.Ipsa.Device.br_port; v_bytes = Net.Packet.contents pkt };
      lookups = br.Ipsa.Device.br_lookups;
    }
  | None -> { out = Oracle.no_egress; lookups = -1 }

let same a b = Oracle.agrees ~expected:a.out ~got:b.out && a.lookups = b.lookups

type plan = {
  p_case : case;
  p_wire : string; (* first packet *)
  p_in_port : int;
  p_expect : verdict; (* post-update, from the interpreter *)
}

type round = {
  mutable update_ms : float list;
  mutable reload_ms : float list;
  mutable precompiled_ms : float list;
  mutable kernel_s : float;
}

type t = {
  plans : plan array; (* indexed like [Harness.Paper.cases] *)
  rng : Prelude.Rng.t;
  mutable block : case array;
  mutable next : int;
  tally : Oracle.tally;
  mutable rounds : round list;
}

let new_round () = { update_ms = []; reload_ms = []; precompiled_ms = []; kernel_s = nan }

let case_index c =
  let rec go i = function
    | x :: rest -> if x = c then i else go (i + 1) rest
    | [] -> assert false
  in
  go 0 Harness.Paper.cases

let demo_packet = function
  | Harness.Paper.C1 -> Usecases.Ecmp.demo_packet
  | Harness.Paper.C2 -> Usecases.Srv6.demo_packet
  | Harness.Paper.C3 -> Usecases.Flowprobe.demo_packet

let first_packet device p =
  let pkt = Net.Packet.create ~in_port:p.p_in_port p.p_wire in
  let r = (Ipsa.Device.inject_batch device [| pkt |]).(0) in
  ignore (Ipsa.Device.collect_all device);
  verdict_of_batch pkt r

(* Candidates are the case's demo packets; keep those whose interpreter
   verdict changes with the update and pick one by seed. *)
let plan_for rng c =
  let verdict_on ~updated wire in_port =
    let session, device = Harness.Cases.boot_base ~linked:false () in
    if updated then ignore (Harness.Cases.apply_case session c);
    let pkt = Net.Packet.create ~in_port wire in
    let r = (Ipsa.Device.inject_batch device [| pkt |]).(0) in
    verdict_of_batch pkt r
  in
  let candidates =
    List.filter_map
      (fun i ->
        let pkt = demo_packet c i in
        let wire = Net.Packet.contents pkt and in_port = pkt.Net.Packet.in_port in
        let post = verdict_on ~updated:true wire in_port in
        let pre = verdict_on ~updated:false wire in_port in
        if post.out.Oracle.v_port >= 0 && not (same pre post) then
          Some { p_case = c; p_wire = wire; p_in_port = in_port; p_expect = post }
        else None)
      (List.init 16 Fun.id)
  in
  match candidates with
  | [] -> Traffic.fail "update: no first packet distinguishes %s" (Harness.Paper.case_name c)
  | l -> List.nth l (Prelude.Rng.int rng (List.length l))

let setup ~seed =
  let rng = Prelude.Rng.create (seed + 2) in
  {
    plans = Array.of_list (List.map (plan_for rng) Harness.Paper.cases);
    rng;
    block = [||];
    next = 0;
    tally = Oracle.tally ();
    rounds = [];
  }

let next_plan t =
  if t.next >= Array.length t.block then begin
    t.block <- Array.of_list Harness.Paper.cases;
    Prelude.Rng.shuffle t.rng t.block;
    t.next <- 0
  end;
  let c = t.block.(t.next) in
  t.next <- t.next + 1;
  t.plans.(case_index c)

let check t p what got =
  if same p.p_expect got then Oracle.ok t.tally
  else
    Oracle.fail t.tally
      (Printf.sprintf "%s %s: first packet got port %d, %d lookups; expected port %d, %d lookups"
         what (Harness.Paper.case_name p.p_case) got.out.Oracle.v_port got.lookups
         p.p_expect.out.Oracle.v_port p.p_expect.lookups)

let ms_since t0 = (Stats.now () -. t0) *. 1e3

(* snippet in -> first packet through the new pipeline *)
let update_rep t p =
  let session, device = Harness.Cases.boot_base () in
  let c = p.p_case in
  let t0 = Stats.now () in
  Traffic.run_script session "update" (Harness.Cases.script_of c);
  Traffic.run_script session "update population" (Harness.Cases.population_of c);
  let got = first_packet device p in
  let ms = ms_since t0 in
  check t p "update" got;
  ms

let pisa_compile rp4 =
  match Rp4bc.Compile.compile_full ~pool:(Ipsa.Device.default_pool ()) rp4 with
  | Ok r -> r
  | Error e -> Traffic.fail "pisa compile: %s" (String.concat "; " e)

let pisa_install device design =
  match Pisa.Deploy.install device design with
  | Ok _ -> ()
  | Error e -> Traffic.fail "pisa install: %s" e

let pisa_populate device design c =
  match Pisa.Deploy.populate device design (Harness.Cases.pisa_population c) with
  | Ok _ -> ()
  | Error e -> Traffic.fail "pisa populate: %s" e

let pisa_first_packet device p =
  let pkt = Net.Packet.create ~in_port:p.p_in_port p.p_wire in
  let r = (Pisa.Device.inject_batch device [| pkt |]).(0) in
  for port = 0 to Pisa.Device.nports device - 1 do
    ignore (Pisa.Device.collect device port)
  done;
  verdict_of_batch pkt r

(* PISA runs a differently laid-out pipeline, so its lookup count is not
   the IPSA one; port and bytes must still agree. *)
let check_pisa t p got =
  if Oracle.agrees ~expected:p.p_expect.out ~got:got.out then Oracle.ok t.tally
  else check t p "reload" { got with lookups = -2 }

(* PISA full flow: P4 source in -> first packet through the reloaded
   device. The PISA device is created before the clock starts, like the
   IPSA side's fresh base. *)
let reload_rep t p =
  let device = Pisa.Device.create ~nstages:8 () in
  let c = p.p_case in
  let t0 = Stats.now () in
  let rp4 = Rp4fc.Translate.translate (P4lite.Parser.parse_string (Harness.Cases.p4_source_of c)) in
  let compiled = pisa_compile rp4 in
  let design = compiled.Rp4bc.Compile.design in
  pisa_install device design;
  pisa_populate device design c;
  let got = pisa_first_packet device p in
  let ms = ms_since t0 in
  check_pisa t p got;
  ms

(* The case script minus its [commit], staged command by command. *)
let stage session c =
  List.iter
    (fun cmd ->
      match cmd with
      | Controller.Command.Commit -> ()
      | cmd -> (
        match Controller.Session.exec session cmd with
        | Ok _ -> ()
        | Error e -> Traffic.fail "stage: %s" e))
    (Controller.Command.parse_script (Harness.Cases.script_of c))

let prepare session =
  match Controller.Session.prepare session with
  | Ok p -> p
  | Error e -> Traffic.fail "prepare: %s" (String.concat "; " e)

let precompiled_rep t p =
  let session, device = Harness.Cases.boot_base () in
  let c = p.p_case in
  stage session c;
  let prepared = prepare session in
  let t0 = Stats.now () in
  (match Controller.Session.apply_prepared session prepared with
  | Ok _ -> ()
  | Error e -> Traffic.fail "apply_prepared: %s" (String.concat "; " e));
  Traffic.run_script session "precompiled population" (Harness.Cases.population_of c);
  let got = first_packet device p in
  let ms = ms_since t0 in
  check t p "precompiled" got;
  ms

let rep t r =
  let p = next_plan t in
  r.update_ms <- update_rep t p :: r.update_ms;
  r.reload_ms <- reload_rep t p :: r.reload_ms;
  r.precompiled_ms <- precompiled_rep t p :: r.precompiled_ms

(* Reps per round for a p90 with ten samples beyond it over all rounds. *)
let min_reps = (Stats.samples_for ~p:0.9 + Stats.rounds - 1) / Stats.rounds

(* One round: reps until [seconds] are up, calibrated between reps. *)
let run t ~seconds =
  let r = new_round () in
  Calib.begin_round ();
  let stop = Stats.now () +. seconds in
  while Stats.now () < stop || List.length r.update_ms < min_reps do
    rep t r;
    Calib.tick ()
  done;
  r.kernel_s <- Calib.end_round ();
  t.rounds <- r :: t.rounds

(* One flow's samples over every round, each divided by [scale] of its
   round. *)
let pool t get scale = List.concat_map (fun r -> List.map (fun s -> s /. scale r) (get r)) t.rounds

let metrics t =
  let update r = r.update_ms and reload r = r.reload_ms and precompiled r = r.precompiled_ms in
  let p90 xs = Stats.percentile_exn ~name:"update_p90_ms" ~p:0.9 xs in
  let raw get = pool t get (fun _ -> 1.0) in
  (* milliseconds over the kernel's seconds: kernels per update, x 1e3 *)
  let cal get = pool t get (fun r -> r.kernel_s *. 1e3) in
  let update_p50 = Stats.median (raw update) and reload_p50 = Stats.median (raw reload) in
  [
    ("update_p50_ms", update_p50, "ms");
    ("update_p90_ms", p90 (raw update), "ms");
    ("reload_ms", reload_p50, "ms");
    ("precompiled_load_ms", Stats.median (raw precompiled), "ms");
    ("update_vs_reload", update_p50 /. reload_p50, "ratio");
    ("update_p50_ms.cal", Stats.median (cal update), "kernel");
    ("update_p90_ms.cal", p90 (cal update), "kernel");
    ("reload_ms.cal", Stats.median (cal reload), "kernel");
    ("precompiled_load_ms.cal", Stats.median (cal precompiled), "kernel");
  ]

(* --- traced run: the update and the reload layer by layer ------------- *)

(* Samples per layer metric, in order of first use. *)
let add ls name v =
  if List.mem_assoc name !ls then
    ls := List.map (fun (n, xs) -> if n = name then (n, v :: xs) else (n, xs)) !ls
  else ls := !ls @ [ (name, [ v ]) ]

(* Time [f], recording microseconds under [name]. *)
let span ls name f =
  let t0 = Stats.now () in
  let r = f () in
  add ls name ((Stats.now () -. t0) *. 1e6);
  r

let ok_or what = function Ok v -> v | Error e -> Traffic.fail "%s: %s" what (String.concat "; " e)

(* The layers [Session.run_script] goes through for the case's script,
   called one by one: snippet parse, [insert_function] without the
   verifier, the four verifier passes, the blast radius, [apply_patch]
   (which relinks every slot; [relink] is timed again on its own), the
   population and the first packet. *)
let reenact t ls p =
  let session, device = Harness.Cases.boot_base () in
  let c = p.p_case in
  let design = Controller.Session.design session in
  let cmds = Controller.Command.parse_script (Harness.Cases.script_of c) in
  let file, func_name =
    match List.find_map (function Controller.Command.Load { file; func_name } -> Some (file, func_name) | _ -> None) cmds with
    | Some x -> x
    | None -> Traffic.fail "trace: script of %s loads nothing" (Harness.Paper.case_name c)
  in
  let link_cmds =
    List.filter_map
      (function
        | Controller.Command.Add_link (a, b) -> Some (Rp4bc.Compile.Add_link (a, b))
        | Controller.Command.Del_link (a, b) -> Some (Rp4bc.Compile.Del_link (a, b))
        | Controller.Command.Link_header { pre; next; tag } -> Some (Rp4bc.Compile.Link_hdr (pre, tag, next))
        | Controller.Command.Unlink_header { pre; next } -> Some (Rp4bc.Compile.Unlink_hdr (pre, next))
        | _ -> None)
      cmds
  in
  let t0 = Stats.now () in
  let snippet = span ls "rp4.parser.parse_us" (fun () -> Rp4.Parser.parse_string (Harness.Cases.resolve_file file)) in
  let r =
    span ls "rp4bc.compile.insert_us" (fun () ->
        ok_or "insert_function"
          (Rp4bc.Compile.insert_function design ~snippet ~func_name ~cmds:link_cmds ~algo:Rp4bc.Layout.Dp
             ~pool:(Ipsa.Device.pool device)))
  in
  let d = r.Rp4bc.Compile.design and patch = r.Rp4bc.Compile.patch in
  let env = d.Rp4bc.Design.env in
  let tables = Ipsa.Device.find_table device in
  ignore
    (span ls "analysis.parsecheck_us" (fun () ->
         Analysis.Parsecheck.run ~env ~igraph:d.Rp4bc.Design.igraph ~egraph:d.Rp4bc.Design.egraph));
  ignore
    (span ls "analysis.mergecheck_us" (fun () ->
         Analysis.Mergecheck.audit ~env ~limits:d.Rp4bc.Design.limits d.Rp4bc.Design.layout));
  ignore (span ls "analysis.updatecheck_us" (fun () -> Analysis.Updatecheck.audit ~old:(Some design) ~design:d ~patch));
  ignore (span ls "analysis.symexec_us" (fun () -> Analysis.Symexec.run ~tables d));
  let impact =
    span ls "analysis.impact_us" (fun () ->
        Analysis.Impact.analyze ~tables ~old_tables:tables ~old_design:design ~design:d ())
  in
  (match
     span ls "ipsa.device.apply_patch_us" (fun () ->
         Ipsa.Device.apply_patch ~dirty_stages:(Analysis.Impact.changed_stages impact) device patch)
   with
  | Ok _ -> ()
  | Error e -> Traffic.fail "apply_patch: %s" e);
  let before_relink = Stats.now () in
  span ls "ipsa.device.relink_us" (fun () -> Ipsa.Device.relink device);
  let relink_s = Stats.now () -. before_relink in
  let apis = Controller.Runtime.of_design d in
  List.iter
    (function
      | Controller.Command.Table_add { table; action; keys; args } -> (
        match Controller.Runtime.table_add ~device ~apis ~table ~action ~keys ~args with
        | Ok () -> ()
        | Error e -> Traffic.fail "trace population: %s" e)
      | _ -> ())
    (Controller.Command.parse_script (Harness.Cases.population_of c));
  let got = span ls "ipsa.device.first_pkt_us" (fun () -> first_packet device p) in
  add ls "trace.layered_update_us" ((Stats.now () -. t0 -. relink_s) *. 1e6);
  check t p "traced update" got;
  add ls "rp4bc.patch_ops" (float_of_int (List.length patch.Ipsa.Config.ops));
  add ls "ipsa.device.templates_written" (float_of_int (Ipsa.Config.templates_written patch));
  add ls "ipsa.device.patch_bytes" (float_of_int (Ipsa.Config.byte_size patch))

let reenact_reload t ls p =
  let device = Pisa.Device.create ~nstages:8 () in
  let c = p.p_case in
  let p4 = span ls "p4lite.parser.parse_us" (fun () -> P4lite.Parser.parse_string (Harness.Cases.p4_source_of c)) in
  let rp4 = span ls "rp4fc.translate_us" (fun () -> Rp4fc.Translate.translate p4) in
  let compiled = span ls "rp4bc.compile_full_us" (fun () -> pisa_compile rp4) in
  let design = compiled.Rp4bc.Compile.design in
  span ls "pisa.deploy.install_us" (fun () -> pisa_install device design);
  span ls "pisa.deploy.populate_us" (fun () -> pisa_populate device design c);
  check_pisa t p (pisa_first_packet device p)

(* Layer names in report order; the [session] self time closes the sum. *)
let update_layers =
  [
    "rp4.parser.parse_us"; "rp4bc.compile.insert_us"; "analysis.parsecheck_us";
    "analysis.mergecheck_us"; "analysis.updatecheck_us"; "analysis.symexec_us";
    "analysis.impact_us"; "ipsa.device.apply_patch_us"; "ipsa.device.first_pkt_us";
  ]

let trace t ~seconds =
  let ls = ref [] in
  let stop = Stats.now () +. seconds in
  let session = ref [] in
  while List.length !session < 30 || Stats.now () < stop do
    let p = next_plan t in
    reenact t ls p;
    reenact_reload t ls p;
    session := update_rep t p :: !session
  done;
  let med name = Stats.median (List.assoc name !ls) in
  let session_us = Stats.median !session *. 1e3 in
  let layers_us = List.fold_left (fun acc n -> acc +. med n) 0.0 update_layers in
  (* The layers plus the session's self time add up to the session path's
     median by construction; the check that they account for the update
     is the re-enacted update's own median against that median's spread. *)
  let sorted = Array.of_list (List.sort Float.compare !session) in
  let n = Array.length sorted in
  let iqr_us = (sorted.(3 * n / 4) -. sorted.(n / 4)) *. 1e3 in
  let layered_us = med "trace.layered_update_us" in
  Printf.eprintf
    "update-cycle trace: %d reps; session path p50 %.0f us (IQR %.0f us), layers %.0f us; re-enacted update p50 %.0f us is %s that spread\n%!"
    n session_us iqr_us layers_us layered_us
    (if Float.abs (layered_us -. session_us) <= iqr_us then "within" else "outside");
  List.filter_map
    (fun (name, _) ->
      if name = "trace.layered_update_us" then None
      else
        let unit =
          if name = "ipsa.device.patch_bytes" then "B"
          else if String.ends_with ~suffix:"_us" name then "us"
          else "count"
        in
        Some (name, med name, unit))
    !ls
  @ [ ("controller.session.self_us", session_us -. layers_us, "us") ]
