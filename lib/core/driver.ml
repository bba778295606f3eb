(* Top-level optimization flows.

   [yosys]   — the baseline: opt_expr + opt_muxtree + opt_clean to fixpoint.
   [smartly] — the paper's flow: opt_muxtree is *replaced* by SAT-based
               redundancy elimination and muxtree restructuring, again
               interleaved with expression folding and cleanup. *)

open Netlist

type result = {
  iterations : int;
  sat_reports : Sat_elim.report list;
  rebuild_reports : Restructure.report list;
  overruns : Budget.overrun list;
}

let h_cells_delta = Obs.Metrics.histogram "driver.cells_removed_per_iter"
let m_iterations = Obs.Metrics.counter "driver.iterations"

let yosys ?after_pass (c : Circuit.t) : Rtl_opt.Flow.report =
  Obs.Trace.with_span "driver.yosys" @@ fun () ->
  Rtl_opt.Flow.baseline ?after_pass c

let smartly ?(cfg = Config.default) ?(after_pass = fun _ _ -> ())
    (c : Circuit.t) : result =
  Obs.Trace.with_span "driver.smartly" @@ fun () ->
  let sat_reports = ref [] in
  let rebuild_reports = ref [] in
  let overruns = ref [] in
  (* A pass that blew its budget once is skipped on later iterations:
     re-running it would blow the budget again for no progress. *)
  let skipped : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  (* One named pass under the watchdog.  Event ordering matters for the
     flight recorder: Pass_end is emitted last, so a pass that dies (in
     the pass body or in [after_pass]) leaves itself as the bus's
     current pass; Budget_exceeded is emitted before [after_pass] so an
     invariant failure cannot swallow the verdict. *)
  let run_pass ~iter name ~default f =
    if Hashtbl.mem skipped name then default
    else begin
      Obs.Event.emit ~name
        ~data:(Obs.Json.Obj [ "iteration", Obs.Json.num_of_int iter ])
        Obs.Event.Pass_start;
      Budget.arm ~cfg ~pass:name ();
      let t0 = Obs.Clock.now () in
      let r =
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
      r
    end
  in
  let rec loop iter =
    if iter >= 6 then iter
    else begin
      let cells_before = Circuit.cell_count c in
      let progress =
        Obs.Trace.with_span "driver.iteration" @@ fun () ->
        let e =
          run_pass ~iter "opt_expr" ~default:0 (fun () ->
              Rtl_opt.Opt_expr.run c)
        in
        let g =
          run_pass ~iter "opt_merge" ~default:0 (fun () ->
              Rtl_opt.Opt_merge.run c)
        in
        let e = e + g in
        let sat_changed =
          if cfg.Config.enable_sat then
            run_pass ~iter "sat_elim" ~default:false (fun () ->
                let r = Sat_elim.run cfg c in
                sat_reports := r :: !sat_reports;
                Sat_elim.changed r)
          else false
        in
        let rebuild_changed =
          if cfg.Config.enable_rebuild then
            run_pass ~iter "restructure" ~default:false (fun () ->
                let r = Restructure.run_once c in
                rebuild_reports := r :: !rebuild_reports;
                Restructure.changed r)
          else false
        in
        let removed =
          run_pass ~iter "opt_clean" ~default:0 (fun () ->
              Rtl_opt.Opt_clean.run c)
        in
        e > 0 || sat_changed || rebuild_changed || removed > 0
      in
      Obs.Metrics.observe_int h_cells_delta
        (cells_before - Circuit.cell_count c);
      if progress then loop (iter + 1) else iter + 1
    end
  in
  let iterations = loop 0 in
  Obs.Metrics.add m_iterations iterations;
  {
    iterations;
    sat_reports = List.rev !sat_reports;
    rebuild_reports = List.rev !rebuild_reports;
    overruns = List.rev !overruns;
  }

(* Convenience wrappers returning the AIG area after optimization. *)

let optimize_and_measure flow (c : Circuit.t) =
  (match flow with
  | `None -> ()
  | `Yosys -> ignore (yosys c)
  | `Smartly cfg -> ignore (smartly ~cfg c));
  Aiger.Aigmap.aig_area c
