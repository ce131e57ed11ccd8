(* rp4lint orchestration: run the four passes over a compiled design and
   its patch, and adapt the result to rp4bc's verify hook so compilation
   fails on errors and surfaces warnings.

   The passes only need what every rp4bc result already carries — the
   semantic env, the stage graphs, the layout and the emitted patch — so
   the same entry point serves full compiles (old = None), incremental
   updates (old = the pre-update design) and the [rp4c check] CLI. The
   symbolic pass additionally accepts the device's live table contents
   ([?tables]) to sharpen feasibility with real entries, a telemetry
   registry ([?telemetry]) to account findings and per-pass latency, and
   an [?on_symexec] callback that receives the symbolic result so a
   caller can reuse it (the session's blast radius). *)

(* Per-pass wall-clock, in microseconds, into the registry's
   [analysis.pass_duration_us{pass=...}] histogram. *)
let timed ?telemetry ~pass f =
  match telemetry with
  | None -> f ()
  | Some tel when not (Telemetry.enabled tel) -> f ()
  | Some tel ->
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    Telemetry.Histogram.observe
      (Telemetry.histogram tel "analysis.pass_duration_us"
         ~labels:[ ("pass", pass) ]
         ~buckets:[ 10; 100; 1_000; 10_000; 100_000; 1_000_000 ])
      us;
    r

let count_findings ?telemetry diags =
  match telemetry with
  | None -> ()
  | Some tel when not (Telemetry.enabled tel) -> ()
  | Some tel ->
    let count sev n =
      if n > 0 then
        Telemetry.Counter.add
          (Telemetry.counter tel "analysis.findings" ~labels:[ ("severity", sev) ])
          n
    in
    count "error" (List.length (Diag.errors diags));
    count "warning" (List.length (Diag.warnings diags))

let analyze ?telemetry ?tables ?old ?(on_symexec = ignore)
    ~(design : Rp4bc.Design.t) ~(patch : Ipsa.Config.t) () : Diag.t list =
  let env = design.Rp4bc.Design.env in
  let diags =
    timed ?telemetry ~pass:"parsecheck" (fun () ->
        Parsecheck.run ~env ~igraph:design.Rp4bc.Design.igraph
          ~egraph:design.Rp4bc.Design.egraph)
    @ timed ?telemetry ~pass:"mergecheck" (fun () ->
          Mergecheck.audit ~env ~limits:design.Rp4bc.Design.limits
            design.Rp4bc.Design.layout)
    @ timed ?telemetry ~pass:"updatecheck" (fun () ->
          Updatecheck.audit ~old ~design ~patch)
    @ timed ?telemetry ~pass:"symexec" (fun () ->
          let res = Symexec.run ?tables design in
          on_symexec res;
          res.Symexec.r_diags)
  in
  count_findings ?telemetry diags;
  diags

(* Symbolic report alone (the [rp4c check --symbolic] surface). *)
let symbolic ?telemetry ?tables (design : Rp4bc.Design.t) : Symexec.result =
  timed ?telemetry ~pass:"symexec" (fun () -> Symexec.run ?tables design)

(* Blast radius of an incremental update (the [--impact] surface and
   the session/fleet patch gate). *)
let impact ?telemetry ?new_result ?tables ?old_tables
    ~(old_design : Rp4bc.Design.t) ~(design : Rp4bc.Design.t) () : Impact.report =
  timed ?telemetry ~pass:"impact" (fun () ->
      Impact.analyze ?new_result ?tables ?old_tables ~old_design ~design ())

(* The hook [Rp4bc.Compile] calls when a verifier is supplied: errors
   abort the compile, warnings ride along in the result. Partial
   application ([verifier], [verifier ~telemetry:tel ~tables:f]) yields
   the [Rp4bc.Compile.verifier] closure. *)
let verifier ?telemetry ?tables ?on_symexec (vi : Rp4bc.Compile.verify_input) :
    Rp4bc.Compile.verdict =
  let diags =
    analyze ?telemetry ?tables ?old:vi.Rp4bc.Compile.vi_old ?on_symexec
      ~design:vi.Rp4bc.Compile.vi_design ~patch:vi.Rp4bc.Compile.vi_patch ()
  in
  {
    Rp4bc.Compile.v_errors = List.map Diag.to_line (Diag.errors diags);
    v_warnings = List.map Diag.to_line (Diag.warnings diags);
  }

(* ------------------------------------------------------------------ *)
(* Stand-alone checking (the CLI and the tests)                        *)
(* ------------------------------------------------------------------ *)

(* Full-compile a program and lint it. The pool is only a capacity model
   here — nothing is loaded on a device. *)
let check_program ?(opts = Rp4bc.Compile.default_options) ?tables
    (prog : Rp4.Ast.program) :
    (Rp4bc.Compile.result_t * Diag.t list, string list) result =
  let pool = Ipsa.Device.default_pool () in
  match Rp4bc.Compile.compile_full ~opts ~pool prog with
  | Error errs -> Error errs
  | Ok r ->
    Ok (r, analyze ?tables ~design:r.Rp4bc.Compile.design ~patch:r.Rp4bc.Compile.patch ())

(* Incrementally compile an update against [base] and lint the patch. *)
let check_update (base : Rp4bc.Design.t) ~(snippet : Rp4.Ast.program) ~func_name
    ~(cmds : Rp4bc.Compile.cmd list) ?(algo = Rp4bc.Layout.Dp) ?tables () :
    (Rp4bc.Compile.result_t * Diag.t list, string list) result =
  let pool = Ipsa.Device.default_pool () in
  match Rp4bc.Compile.insert_function base ~snippet ~func_name ~cmds ~algo ~pool with
  | Error errs -> Error errs
  | Ok r ->
    Ok
      ( r,
        analyze ?tables ~old:base ~design:r.Rp4bc.Compile.design
          ~patch:r.Rp4bc.Compile.patch () )
