(* Top-level optimization flows, both run by one pass loop.

   [yosys]   — the baseline: opt_expr + opt_merge + opt_muxtree + opt_clean
               to fixpoint.
   [smartly] — the paper's flow: opt_muxtree is *replaced* by SAT-based
               redundancy elimination and muxtree restructuring, again
               interleaved with expression folding and cleanup. *)

open Netlist

type result = { iterations : int; overruns : Budget.overrun list }

let h_cells_removed = Obs.Metrics.histogram "driver.cells_removed_per_iter"
let m_cells_removed = Obs.Metrics.counter "flow.cells_removed"
let m_iterations = Obs.Metrics.counter "driver.iterations"

(* The counters a pass moved: the nonzero changes between two
   [Obs.Metrics.counters] snapshots, as a JSON object. *)
let moved before after =
  Obs.Json.Obj
    (List.filter_map
       (fun (name, v) ->
         let d = v - Option.value (List.assoc_opt name before) ~default:0 in
         if d = 0 then None else Some (name, Obs.Json.num_of_int d))
       after)

(* Run the named passes in order, each under the watchdog, until an
   iteration in which none changes anything, at most [cap] iterations.
   A pass that blew its budget once is skipped on later iterations:
   re-running it would blow the budget again for no progress. *)
let loop ~cfg ~after_pass ~cap (c : Circuit.t)
    (passes : (string * (Circuit.t -> int)) list) : result =
  let overruns = ref [] in
  let skipped : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  (* One named pass under the watchdog.  Event ordering matters for the
     run report: Pass_end is emitted last, so a pass that dies (in the
     pass body or in [after_pass]) leaves its Pass_start open in the
     stream, and the report names it in flight; Budget_exceeded is
     emitted before [after_pass] so an invariant failure cannot swallow
     the verdict.  With a bus subscriber, Pass_end carries the counters
     the pass body moved. *)
  let run_pass ~iter (name, f) =
    if Hashtbl.mem skipped name then false
    else begin
      Obs.Event.emit ~name
        ~data:(Obs.Json.Obj [ "iteration", Obs.Json.num_of_int iter ])
        Obs.Event.Pass_start;
      let before =
        if Obs.Event.enabled () then Some (Obs.Metrics.counters ()) else None
      in
      Budget.arm ~cfg ~pass:name ();
      let t0 = Obs.Clock.now () in
      let changes =
        try f c
        with e ->
          ignore (Budget.disarm ());
          raise e
      in
      let seconds = Obs.Clock.now () -. t0 in
      let counters =
        match before with
        | Some b -> [ "counters", moved b (Obs.Metrics.counters ()) ]
        | None -> []
      in
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
             ([
                "iteration", Obs.Json.num_of_int iter;
                "seconds", Obs.Json.Num seconds;
                "cells", Obs.Json.num_of_int (Circuit.cell_count c);
              ]
             @ counters))
        Obs.Event.Pass_end;
      changes > 0
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
  { iterations; overruns = List.rev !overruns }

let yosys ?(after_pass = fun _ _ -> ()) (c : Circuit.t) : result =
  Obs.Trace.with_span "driver.yosys" @@ fun () ->
  loop ~cfg:Config.default ~after_pass ~cap:16 c
    [
      ("opt_expr", Rtl_opt.Opt_expr.run);
      ("opt_merge", Rtl_opt.Opt_merge.run);
      ("opt_muxtree", Rtl_opt.Opt_muxtree.run);
      ("opt_clean", Rtl_opt.Opt_clean.run);
    ]

let smartly ?(cfg = Config.default) ?(after_pass = fun _ _ -> ())
    (c : Circuit.t) : result =
  Obs.Trace.with_span "driver.smartly" @@ fun () ->
  let pass enabled name run = if enabled then [ (name, run) ] else [] in
  loop ~cfg ~after_pass ~cap:6 c
    (List.concat
       [
         [
           ("opt_expr", Rtl_opt.Opt_expr.run);
           ("opt_merge", Rtl_opt.Opt_merge.run);
         ];
         pass cfg.Config.enable_sat "sat_elim" (Sat_elim.run cfg);
         pass cfg.Config.enable_rebuild "restructure" Restructure.run_once;
         [ ("opt_clean", Rtl_opt.Opt_clean.run) ];
       ])
