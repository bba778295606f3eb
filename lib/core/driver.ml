(* Top-level optimization flows, both run by one pass loop.

   [yosys]   — the baseline: opt_expr + opt_merge + opt_muxtree + opt_clean
               to fixpoint.
   [smartly] — the paper's flow: opt_muxtree is *replaced* by SAT-based
               redundancy elimination and muxtree restructuring, again
               interleaved with expression folding and cleanup. *)

open Netlist

type yosys_report = {
  iterations : int;
  expr_folded : int;
  muxtree_changes : int;
  cells_removed : int;
}

let pp_yosys_report ppf r =
  Fmt.pf ppf "iters=%d expr=%d muxtree=%d removed=%d" r.iterations
    r.expr_folded r.muxtree_changes r.cells_removed

type result = {
  iterations : int;
  sat_reports : Sat_elim.report list;
  rebuild_reports : Restructure.report list;
  overruns : Budget.overrun list;
}

let h_cells_removed = Obs.Metrics.histogram "driver.cells_removed_per_iter"
let m_cells_removed = Obs.Metrics.counter "flow.cells_removed"
let m_iterations = Obs.Metrics.counter "driver.iterations"

(* Run the named passes in order, each under the watchdog, until an
   iteration in which none reports progress, at most [cap] iterations;
   returns the iteration count and the overruns.  A pass that blew its
   budget once is skipped on later iterations: re-running it would blow
   the budget again for no progress. *)
let loop ~cfg ~after_pass ~cap (c : Circuit.t)
    (passes : (string * (unit -> bool)) list) : int * Budget.overrun list =
  let overruns = ref [] in
  let skipped : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  (* One named pass under the watchdog.  Event ordering matters for the
     run report: Pass_end is emitted last, so a pass that dies (in the
     pass body or in [after_pass]) leaves its Pass_start open in the
     stream, and the report names it in flight; Budget_exceeded is
     emitted before [after_pass] so an invariant failure cannot swallow
     the verdict. *)
  let run_pass ~iter (name, f) =
    if Hashtbl.mem skipped name then false
    else begin
      Obs.Event.emit ~name
        ~data:(Obs.Json.Obj [ "iteration", Obs.Json.num_of_int iter ])
        Obs.Event.Pass_start;
      Budget.arm ~cfg ~pass:name ();
      let t0 = Obs.Clock.now () in
      let progress =
        try f ()
        with e ->
          ignore (Budget.disarm ());
          raise e
      in
      let seconds = Obs.Clock.now () -. t0 in
      (match Budget.disarm () with
      | Some o ->
        overruns := o :: !overruns;
        Hashtbl.replace skipped name ();
        Obs.Event.emit ~name ~data:(Budget.overrun_to_json o)
          Obs.Event.Budget_exceeded
      | None -> ());
      after_pass name c;
      Obs.Event.emit ~name
        ~data:
          (Obs.Json.Obj
             [
               "iteration", Obs.Json.num_of_int iter;
               "seconds", Obs.Json.Num seconds;
               "cells", Obs.Json.num_of_int (Circuit.cell_count c);
             ])
        Obs.Event.Pass_end;
      progress
    end
  in
  let rec go iter =
    if iter >= cap then iter
    else begin
      let removed_before = Obs.Metrics.value m_cells_removed in
      let progress =
        Obs.Trace.with_span "driver.iteration" @@ fun () ->
        List.fold_left (fun acc p -> run_pass ~iter p || acc) false passes
      in
      Obs.Metrics.observe_int h_cells_removed
        (Obs.Metrics.value m_cells_removed - removed_before);
      if progress then go (iter + 1) else iter + 1
    end
  in
  let iterations = go 0 in
  Obs.Metrics.add m_iterations iterations;
  (iterations, List.rev !overruns)

let yosys ?(after_pass = fun _ _ -> ()) (c : Circuit.t) : yosys_report =
  Obs.Trace.with_span "driver.yosys" @@ fun () ->
  let expr_folded = ref 0 in
  let muxtree_changes = ref 0 in
  let cells_removed = ref 0 in
  let counted total run () =
    let n = run c in
    total := !total + n;
    n > 0
  in
  let iterations, _ =
    loop ~cfg:Config.default ~after_pass ~cap:16 c
      [
        ("opt_expr", counted expr_folded Rtl_opt.Opt_expr.run);
        ("opt_merge", counted expr_folded Rtl_opt.Opt_merge.run);
        ("opt_muxtree", counted muxtree_changes Rtl_opt.Opt_muxtree.run);
        ("opt_clean", counted cells_removed Rtl_opt.Opt_clean.run);
      ]
  in
  {
    iterations;
    expr_folded = !expr_folded;
    muxtree_changes = !muxtree_changes;
    cells_removed = !cells_removed;
  }

let smartly ?(cfg = Config.default) ?(after_pass = fun _ _ -> ())
    (c : Circuit.t) : result =
  Obs.Trace.with_span "driver.smartly" @@ fun () ->
  let sat_reports = ref [] in
  let rebuild_reports = ref [] in
  let counted run () = run c > 0 in
  let pass enabled name run =
    if enabled then [ (name, run) ] else []
  in
  let iterations, overruns =
    loop ~cfg ~after_pass ~cap:6 c
      (List.concat
         [
           [
             ("opt_expr", counted Rtl_opt.Opt_expr.run);
             ("opt_merge", counted Rtl_opt.Opt_merge.run);
           ];
           pass cfg.Config.enable_sat "sat_elim" (fun () ->
               let r = Sat_elim.run cfg c in
               sat_reports := r :: !sat_reports;
               Sat_elim.changed r);
           pass cfg.Config.enable_rebuild "restructure" (fun () ->
               let r = Restructure.run_once c in
               rebuild_reports := r :: !rebuild_reports;
               Restructure.changed r);
           [ ("opt_clean", counted Rtl_opt.Opt_clean.run) ];
         ])
  in
  {
    iterations;
    sat_reports = List.rev !sat_reports;
    rebuild_reports = List.rev !rebuild_reports;
    overruns;
  }
