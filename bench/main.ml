(* Benchmark harness: regenerates every table and figure of the paper,
   and doubles as the continuous-benchmarking pipeline.

     table2     — Table II: AIG areas Original / Yosys / smaRTLy + ratio
     table3     — Table III: SAT-only / Rebuild-only / Full reductions
     industrial — Section IV-B: the mux-rich industrial benchmark
     mux_chain  — the seconds-fast smoke profile (CI regression gate)
     jobs_per_sec — batch throughput: one warm batch with the cross-job
                  replay store (the serve model) vs cold per-job runs
                  with no store
     figures    — Figs. 1/2/3/5/6/7 and the Listing-2 assignment claim
     ablation   — design-choice sweeps (distance k, rules, sim, SAT, ...)

   Run with no arguments to regenerate everything the paper reports
   (table2 table3 industrial figures); pass section names to select.

   The statistical sections (table2 table3 industrial mux_chain) measure
   every case with --reps repetitions on the monotonic clock and produce a
   versioned smartly-bench-v1 document per section (see Perf.Schema):

     --json                write BENCH_<section>.json (into --out DIR, cwd
                           by default; committed baselines are never
                           touched by a plain run)
     --update-baselines    rewrite the committed baseline store
                           (--baseline-dir, default bench/baselines/)
     --compare             diff this run against the committed baselines
     --check               like --compare but exit nonzero on any
                           regression beyond threshold (the CI gate)
     --reps N              repetitions per flow (default 1)
     --threshold-scale X   multiply the Time/Gc noise bands (CI uses a
                           loose scale to absorb cross-machine variance;
                           deterministic metrics always compare exactly)
     --report FILE         also write the diff tables + verdict to FILE
     --pessimize           run the smaRTLy variants as no-ops: a
                           deliberate pessimization that self-tests the
                           regression gate end to end
     --no-analysis         disable the abstract-interpretation rung zero in
                           the smaRTLy variants; bench/baselines/noanalysis
                           is recorded in this mode, so the committed diff
                           between the two baseline stores documents the
                           SAT queries the rung eliminates — with the areas
                           byte-identical
     --no-ledger           don't record this run under .smartly/runs/
     --ledger-root DIR     where the run ledger lives (default
                           .smartly/runs)
     --progress            attach the live TTY progress sink; pass events
                           stream to stderr, which perturbs the measured
                           timings — never use under --check *)

open Netlist

(* --- options --- *)

let emit_json = ref false
let out_dir = ref None
let reps = ref 1
let compare_flag = ref false
let check_flag = ref false
let update_baselines = ref false
let baseline_dir = ref Perf.Store.default_dir
let threshold_scale = ref 1.0
let report_path = ref None
let pessimize = ref false
let no_analysis = ref false
let no_ledger = ref false
let ledger_root = ref Obs.Ledger.default_root
let progress = ref false

(* the run ledger this bench invocation records into, if any; every
   section document (and the gate report) is copied under its bench/
   subdirectory so `smartly report` finds the run *)
let ledger : Obs.Ledger.t option ref = ref None

(* statistical sections stash their fresh document here; main () compares
   / gates over all of them at once *)
let fresh_docs : Perf.Schema.doc list ref = ref []

let emit_doc section (cases : Perf.Schema.case list) =
  let doc =
    {
      Perf.Schema.section;
      env = Perf.Schema.fingerprint ~reps:!reps;
      cases;
    }
  in
  if !compare_flag || !check_flag then fresh_docs := !fresh_docs @ [ doc ];
  if !emit_json then begin
    let dir = Option.value !out_dir ~default:Filename.current_dir_name in
    let path = Perf.Store.save ~dir doc in
    Printf.printf "wrote %s\n" path
  end;
  (match !ledger with
  | Some l ->
    (try
       ignore
         (Perf.Store.save ~dir:(Filename.concat (Obs.Ledger.dir l) "bench")
            doc)
     with Sys_error msg | Unix.Unix_error (_, msg, _) ->
       Printf.eprintf "ledger: cannot write bench report (%s)\n" msg)
  | None -> ());
  if !update_baselines then begin
    let path = Perf.Store.save ~dir:!baseline_dir doc in
    Printf.printf "baseline: wrote %s\n" path
  end

let timed f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  r, Obs.Clock.elapsed t0

let check_equivalence ?(full_cec_limit = 9500) (orig : Circuit.t)
    (opt : Circuit.t) : string =
  let area = Aiger.Aigmap.aig_area orig in
  if area <= full_cec_limit then
    match Equiv.check opt orig with
    | Equiv.Equivalent -> "ok(cec)"
    | Equiv.Not_equivalent o -> "FAIL:" ^ o
    | Equiv.Inconclusive -> "cec?"
  else
    match Rtl_sim.Vector.random_equiv ~rounds:64 orig opt with
    | None -> "ok(sim64)"
    | Some (_, o) -> "FAIL:" ^ o

(* one optimized variant of a circuit *)
let optimized flow (c0 : Circuit.t) =
  let c = Circuit.copy c0 in
  (match flow with
  | `Yosys -> ignore (Smartly.Driver.yosys c)
  | `Smartly _ when !pessimize ->
    (* gate self-test: leave the circuit untouched, so every smaRTLy
       area/cells_removed metric regresses against a real baseline *)
    ()
  | `Smartly cfg ->
    (* --no-analysis: the noanalysis baseline store is recorded without
       the rung, so its gate leg reproduces those counters and the
       committed diff between the stores is the rung's attribution *)
    let cfg =
      if !no_analysis then { cfg with Smartly.Config.enable_analysis = false }
      else cfg
    in
    ignore (Smartly.Driver.smartly ~cfg c));
  c

(* --- the one statistical case runner every table section shares --- *)

type flow_meas = {
  area : int;
  time : Perf.Stat.summary;  (** wall seconds over --reps repetitions *)
  gc : Obs.Metrics.gc_delta;  (** of the last repetition *)
}

type case_result = {
  name : string;
  orig : int;
  yosys : flow_meas;
  sat : flow_meas option;  (** [None] for `Pair variant runs *)
  rebuild : flow_meas option;
  full : flow_meas;
  equiv : string;
  (* deterministic counters of the last full-flow repetition *)
  cells_removed : int;
  sat_queries : int;
  sat_conflicts : int;
  sat_decisions : int;
  sat_propagations : int;
  session_flushes : int;
  analysis_queries : int;
  analysis_hits : int;
  analysis_sweeps : int;
  (* SAT conflicts-per-query percentiles of the full-flow run *)
  conf_p50 : float;
  conf_p90 : float;
  conf_max : float;
}

(* every repetition starts from zeroed instruments, so the counters (and
   the JSON derived from them) read after the last repetition describe
   exactly one run of one flow — no accumulation across repetitions,
   flow variants, or table cases *)
let reset_instruments () =
  Obs.Metrics.reset ();
  Smartly.Engine.Sat_log.reset ()

let measure_flow flow (c0 : Circuit.t) : flow_meas * Circuit.t =
  let c, t =
    Perf.Measure.repeat ~reps:!reps ~prepare:reset_instruments (fun () ->
        optimized flow c0)
  in
  ( { area = Aiger.Aigmap.aig_area c; time = t.Perf.Measure.wall;
      gc = t.Perf.Measure.gc },
    c )

let run_case ?(variants = `All) (p : Workloads.Profiles.profile) : case_result
    =
  let c0 = Workloads.Profiles.circuit p in
  let orig = Aiger.Aigmap.aig_area c0 in
  let yosys, _ = measure_flow `Yosys c0 in
  let sat, rebuild =
    match variants with
    | `Pair -> None, None
    | `All ->
      let s, _ = measure_flow (`Smartly Smartly.Config.sat_only) c0 in
      let r, _ = measure_flow (`Smartly Smartly.Config.rebuild_only) c0 in
      Some s, Some r
  in
  (* the full flow runs last: the instruments now describe it alone *)
  let full, cf = measure_flow (`Smartly Smartly.Config.default) c0 in
  let counter n = Obs.Metrics.value (Obs.Metrics.counter n) in
  let cells_removed = counter "flow.cells_removed" in
  let sat_queries = counter "engine.sat_queries" in
  let sat_conflicts = counter "engine.sat_conflicts" in
  let sat_decisions = counter "engine.sat_decisions" in
  let sat_propagations = counter "engine.sat_propagations" in
  let session_flushes = counter "sat_session.flushes" in
  let analysis_queries = counter "engine.analysis_queries" in
  let analysis_hits = counter "engine.analysis_hits" in
  let analysis_sweeps = counter "engine.analysis_sweeps" in
  let conf =
    Obs.Metrics.histogram_stats
      (Obs.Metrics.histogram "engine.conflicts_per_query")
  in
  (* equivalence checking may itself run SAT: only after the counters
     above are captured *)
  let equiv = check_equivalence c0 cf in
  {
    name = p.Workloads.Profiles.name;
    orig;
    yosys;
    sat;
    rebuild;
    full;
    equiv;
    cells_removed;
    sat_queries;
    sat_conflicts;
    sat_decisions;
    sat_propagations;
    session_flushes;
    analysis_queries;
    analysis_hits;
    analysis_sweeps;
    conf_p50 = conf.Obs.Metrics.p50;
    conf_p90 = conf.Obs.Metrics.p90;
    conf_max = conf.Obs.Metrics.max_v;
  }

let reduction ~yosys v =
  if yosys = 0 then 0.0
  else 100.0 *. (1.0 -. (float_of_int v /. float_of_int yosys))

(* --- schema documents, one metric list per section --- *)

let f = float_of_int

let flow_metrics prefix (m : flow_meas) =
  [
    Perf.Schema.scalar ~name:(prefix ^ "_area") ~kind:Perf.Schema.Area
      (f m.area);
    Perf.Schema.timing ~name:("t_" ^ prefix) m.time;
  ]

let gc_metrics (m : flow_meas) =
  let g = m.gc in
  Perf.Schema.
    [
      scalar ~name:"gc_minor_collections" ~kind:Gc
        (f g.Obs.Metrics.minor_collections);
      scalar ~name:"gc_major_collections" ~kind:Gc
        (f g.Obs.Metrics.major_collections);
      scalar ~name:"gc_allocated_words" ~kind:Gc g.Obs.Metrics.allocated_words;
      (* top_heap_words is deliberately NOT committed: it is a
         process-lifetime high-water mark, so its value depends on which
         sections ran earlier in the same process, not on this case *)
    ]

let sat_counter_metrics (r : case_result) =
  Perf.Schema.
    [
      scalar ~name:"sat_queries" ~kind:Count (f r.sat_queries);
      scalar ~name:"sat_conflicts" ~kind:Count (f r.sat_conflicts);
      scalar ~name:"sat_decisions" ~kind:Count (f r.sat_decisions);
      scalar ~name:"sat_propagations" ~kind:Count (f r.sat_propagations);
    ]
  (* analysis counters only exist when the rung ran: the noanalysis
     baseline store omits them, so its gate leg sees the rung's metrics
     as New_metric (ignored), never as an exact-Count mismatch *)
  @ (if !no_analysis then []
     else
       Perf.Schema.
         [
           scalar ~name:"analysis_queries" ~kind:Count (f r.analysis_queries);
           scalar ~direction:Higher_better ~name:"analysis_hits" ~kind:Count
             (f r.analysis_hits);
         ])
  @ [
      Perf.Schema.scalar ~name:"session_flushes" ~kind:Perf.Schema.Count
        (f r.session_flushes);
    ]

(* the per-case rung-zero/session panel of every statistical section *)
let counters_table results =
  print_endline
    "Rung-zero analysis and SAT-session counters (full flow):";
  Report.Table.print
    ~columns:
      [
        Report.Table.column ~align:Report.Table.Left "Case";
        Report.Table.column "queries";
        Report.Table.column "analysis";
        Report.Table.column "flushes";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.name;
             string_of_int r.sat_queries;
             Printf.sprintf "%d/%d" r.analysis_hits r.analysis_queries;
             string_of_int r.session_flushes;
           ])
         results)

let core_metrics (r : case_result) =
  (Perf.Schema.scalar ~name:"orig_area" ~kind:Perf.Schema.Area (f r.orig)
  :: flow_metrics "yosys" r.yosys)
  @ flow_metrics "smartly" r.full
  @ [
      Perf.Schema.scalar ~direction:Perf.Schema.Higher_better
        ~name:"cells_removed" ~kind:Perf.Schema.Count (f r.cells_removed);
    ]

(* table2 carries the headline (areas, full-flow time, GC); table3 carries
   what only it displays (the per-method variants and SAT totals), so one
   regression is named by exactly one section *)
let table2_case (r : case_result) : Perf.Schema.case =
  { Perf.Schema.name = r.name; metrics = core_metrics r @ gc_metrics r.full }

let table3_case (r : case_result) : Perf.Schema.case =
  {
    Perf.Schema.name = r.name;
    metrics =
      (match r.sat with Some m -> flow_metrics "sat" m | None -> [])
      @ (match r.rebuild with Some m -> flow_metrics "rebuild" m | None -> [])
      @ sat_counter_metrics r;
  }

let full_case (r : case_result) : Perf.Schema.case =
  {
    Perf.Schema.name = r.name;
    metrics =
      core_metrics r
      @ (match r.sat with Some m -> flow_metrics "sat" m | None -> [])
      @ (match r.rebuild with Some m -> flow_metrics "rebuild" m | None -> [])
      @ sat_counter_metrics r @ gc_metrics r.full;
  }

let public_results =
  lazy (List.map run_case Workloads.Profiles.public_benchmarks)

let left = Report.Table.column ~align:Report.Table.Left
let right t = Report.Table.column t

(* --- Table II --- *)

let table2 () =
  print_endline "";
  print_endline
    "Table II: AIG areas, Yosys baseline vs smaRTLy (10 public stand-ins)";
  let results = Lazy.force public_results in
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          string_of_int r.orig;
          string_of_int r.yosys.area;
          string_of_int r.full.area;
          Report.Table.pct (reduction ~yosys:r.yosys.area r.full.area);
          Report.Table.secs r.yosys.time.Perf.Stat.median;
          Report.Table.secs r.full.time.Perf.Stat.median;
          r.equiv;
        ])
      results
  in
  let avg fn =
    List.fold_left (fun acc r -> acc +. fn r) 0.0 results
    /. float_of_int (List.length results)
  in
  let avg_row =
    [
      "Average";
      Printf.sprintf "%.1f" (avg (fun r -> f r.orig));
      Printf.sprintf "%.1f" (avg (fun r -> f r.yosys.area));
      Printf.sprintf "%.1f" (avg (fun r -> f r.full.area));
      Report.Table.pct
        (avg (fun r -> reduction ~yosys:r.yosys.area r.full.area));
      Report.Table.secs (avg (fun r -> r.yosys.time.Perf.Stat.median));
      Report.Table.secs (avg (fun r -> r.full.time.Perf.Stat.median));
      "";
    ]
  in
  Report.Table.print
    ~columns:
      [ left "Case"; right "Original"; right "Yosys"; right "smaRTLy";
        right "Ratio"; right "t(Yosys)"; right "t(smaRTLy)";
        left "Equivalence" ]
    ~rows:(rows @ [ avg_row ]);
  emit_doc "table2" (List.map table2_case results);
  print_endline
    "(paper: avg extra reduction 8.95%; largest on case-heavy and\n\
     correlated-control designs, near zero on flat datapaths)"

(* --- Table III --- *)

let table3 () =
  print_endline "";
  print_endline
    "Table III: reduction vs Yosys by individual method and combined";
  let results = Lazy.force public_results in
  let area_of = function Some (m : flow_meas) -> m.area | None -> 0 in
  let time_of = function
    | Some (m : flow_meas) -> m.time.Perf.Stat.median
    | None -> 0.0
  in
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Report.Table.pct (reduction ~yosys:r.yosys.area (area_of r.sat));
          Report.Table.pct (reduction ~yosys:r.yosys.area (area_of r.rebuild));
          Report.Table.pct (reduction ~yosys:r.yosys.area r.full.area);
          Report.Table.secs (time_of r.sat);
          Report.Table.secs (time_of r.rebuild);
          Report.Table.secs r.full.time.Perf.Stat.median;
          Printf.sprintf "%.0f" r.conf_p50;
          Printf.sprintf "%.0f" r.conf_p90;
          Printf.sprintf "%.0f" r.conf_max;
        ])
      results
  in
  let avg fn =
    List.fold_left (fun acc r -> acc +. fn r) 0.0 results
    /. float_of_int (List.length results)
  in
  let avg_row =
    [
      "Average";
      Report.Table.pct
        (avg (fun r -> reduction ~yosys:r.yosys.area (area_of r.sat)));
      Report.Table.pct
        (avg (fun r -> reduction ~yosys:r.yosys.area (area_of r.rebuild)));
      Report.Table.pct
        (avg (fun r -> reduction ~yosys:r.yosys.area r.full.area));
      Report.Table.secs (avg (fun r -> time_of r.sat));
      Report.Table.secs (avg (fun r -> time_of r.rebuild));
      Report.Table.secs (avg (fun r -> r.full.time.Perf.Stat.median));
      "";
      "";
      "";
    ]
  in
  Report.Table.print
    ~columns:
      [ left "Case"; right "SAT"; right "Rebuild"; right "Full";
        right "t(SAT)"; right "t(Rebuild)"; right "t(Full)";
        right "cfl(p50)"; right "cfl(p90)"; right "cfl(max)" ]
    ~rows:(rows @ [ avg_row ]);
  emit_doc "table3" (List.map table3_case results);
  counters_table results;
  print_endline
    "(paper: SAT 3.57% / Rebuild 4.39% / Full 8.95% on average; which\n\
     method dominates varies per case, Full >= max(SAT, Rebuild))"

(* --- shared Yosys-vs-smaRTLy table for the remaining sections --- *)

let pair_table results =
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          string_of_int r.orig;
          string_of_int r.yosys.area;
          string_of_int r.full.area;
          Report.Table.pct (reduction ~yosys:r.yosys.area r.full.area);
          Report.Table.secs r.yosys.time.Perf.Stat.median;
          Report.Table.secs r.full.time.Perf.Stat.median;
          r.equiv;
        ])
      results
  in
  Report.Table.print
    ~columns:
      [ left "Point"; right "Original"; right "Yosys"; right "smaRTLy";
        right "Extra reduction"; right "t(Yosys)"; right "t(smaRTLy)";
        left "Equivalence" ]
    ~rows

(* --- Industrial (Section IV-B) --- *)

let industrial () =
  print_endline "";
  print_endline
    "Industrial benchmark (Section IV-B): mux/pmux-rich test points";
  let points =
    (* the first half of the points keeps the default harness run within
       minutes on one core; the other four are not measured here *)
    List.filteri (fun i _ -> i < 4) Workloads.Profiles.industrial_benchmarks
  in
  let results = List.map (run_case ~variants:`Pair) points in
  pair_table results;
  counters_table results;
  emit_doc "industrial"
    (List.map
       (fun r ->
         { Perf.Schema.name = r.name; metrics = core_metrics r })
       results);
  let avg =
    List.fold_left
      (fun acc r -> acc +. reduction ~yosys:r.yosys.area r.full.area)
      0.0 results
    /. float_of_int (List.length results)
  in
  Printf.printf
    "Average extra AIG-area reduction over Yosys: %.1f%%\n\
     (paper: 47.2%%; far above the public benchmarks because Yosys finds\n\
     almost nothing in selection-circuit-dominated designs)\n"
    avg

(* --- mux_chain: the seconds-fast smoke section the CI gate runs --- *)

let mux_chain () =
  print_endline "";
  print_endline "Smoke profile mux_chain (fast; the CI regression gate)";
  let results = [ run_case Workloads.Profiles.mux_chain ] in
  pair_table results;
  counters_table results;
  emit_doc "mux_chain" (List.map full_case results)

(* --- jobs_per_sec: batch throughput, serve model vs process-per-job --- *)

(* A batch the serve daemon would see: design variants (one per seed),
   each stamped out several times — regenerating unchanged sources is
   the normal shape of a re-run EDA batch.  Warm batch mode answers the
   stamped copies' recurring sat_elim passes from the cross-job replay
   cache.  Generation happens once, outside every timed region. *)
let batch_corpus =
  lazy
    (let mk seed copy =
       let p =
         {
           Workloads.Profiles.name =
             Printf.sprintf "batch_s%02d_c%d" seed copy;
           seed;
           style = `Pmux;
           repeat = 2;
           mix =
             Workloads.Profiles.
               [
                 Crossbar_port { n_grants = 16; width = 8 };
                 Correlated_ifs { depth = 7; width = 8 };
                 Correlated_ifs { depth = 6; width = 8 };
               ];
           register_fraction = 5;
         }
       in
       p.Workloads.Profiles.name, Workloads.Profiles.circuit p
     in
     List.concat_map
       (fun seed -> List.map (mk seed) [ 0; 1; 2; 3 ])
       [ 21; 22; 23 ])

let jobs_per_sec () =
  print_endline "";
  print_endline
    "Batch throughput (jobs/s): warm cross-job replay cache (the serve \
     model) vs cold per-job state";
  let corpus = Lazy.force batch_corpus in
  let n_jobs = List.length corpus in
  (* [warm]: one replay store for the whole batch — the daemon's state
     model; cold installs no replay store, the one-process-per-job
     reference.  Warmth builds *within* a batch (each timed rep starts
     from a fresh store), so reps are i.i.d.  Replayed passes stand in
     for work a cold run does, so an area disagreement below is a cache
     bug. *)
  let run_batch ~warm () =
    if warm then Smartly.Replay.install (Smartly.Replay.make ());
    List.map
      (fun (_, c0) ->
        if not warm then reset_instruments ();
        let c = Circuit.copy c0 in
        if not !pessimize then ignore (Smartly.Driver.smartly c);
        Aiger.Aigmap.aig_area c)
      corpus
  in
  let prepare ~warm () =
    reset_instruments ();
    if not warm then Smartly.Replay.uninstall ()
  in
  let measure ~warm =
    Perf.Measure.repeat ~reps:!reps ~prepare:(prepare ~warm)
      (run_batch ~warm)
  in
  let areas_cold, t_cold = measure ~warm:false in
  let areas_warm, t_warm = measure ~warm:true in
  Smartly.Replay.uninstall ();
  let jps (t : Perf.Measure.timed) =
    let m = t.Perf.Measure.wall.Perf.Stat.median in
    if m <= 0.0 then 0.0 else float_of_int n_jobs /. m
  in
  let speedup =
    let m = t_warm.Perf.Measure.wall.Perf.Stat.median in
    if m <= 0.0 then 0.0 else t_cold.Perf.Measure.wall.Perf.Stat.median /. m
  in
  let total = List.fold_left ( + ) 0 in
  let equal = areas_cold = areas_warm in
  Report.Table.print
    ~columns:
      [ left "Mode"; right "batch t"; right "jobs/s"; right "area total" ]
    ~rows:
      (List.map
         (fun (mode, t, areas) ->
           [
             mode;
             Report.Table.secs t.Perf.Measure.wall.Perf.Stat.median;
             Printf.sprintf "%.2f" (jps t);
             string_of_int (total areas);
           ])
         [
           "cold per-job", t_cold, areas_cold;
           "warm batch", t_warm, areas_warm;
         ]);
  Printf.printf
    "speedup (warm batch vs cold per-job): %.2fx   areas identical: %s\n"
    speedup
    (if equal then "yes" else "NO — CACHE BUG");
  let metrics =
    Perf.Schema.
      [
        timing ~name:"t_batch_cold" t_cold.Perf.Measure.wall;
        timing ~name:"t_batch_warm" t_warm.Perf.Measure.wall;
        (* jobs/s and the headline speedup are Time-kind (banded): they
           are ratios of wall clocks, exactly as noisy as the clocks *)
        scalar ~direction:Higher_better ~name:"jps_cold" ~kind:Time
          (jps t_cold);
        scalar ~direction:Higher_better ~name:"jps_warm" ~kind:Time
          (jps t_warm);
        scalar ~direction:Higher_better ~name:"speedup_warm_vs_cold"
          ~kind:Time speedup;
        (* deterministic: exact-compare the batch areas of both modes and
           the corpus shape, so a cache bug or a silent corpus change
           fails the gate even if the timings absorb it *)
        scalar ~name:"batch_area_total_cold" ~kind:Area (f (total areas_cold));
        scalar ~name:"batch_area_total_warm" ~kind:Area (f (total areas_warm));
        scalar ~direction:Higher_better ~name:"areas_equal" ~kind:Count
          (if equal then 1.0 else 0.0);
        scalar ~name:"corpus_jobs" ~kind:Count (f n_jobs);
      ]
  in
  emit_doc "jobs_per_sec" [ { Perf.Schema.name = "corpus"; metrics } ]

(* --- Figures --- *)

let expose c name (v : Bits.sigspec) =
  let y = Circuit.add_output c name ~width:(Bits.width v) in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = v; b = Bits.all_zero ~width:(Bits.width v);
            y = Circuit.sig_of_wire y }))

let fig1_circuit () =
  let c = Circuit.create "fig1" in
  let s = Circuit.add_input c "S" ~width:1 in
  let a = Circuit.add_input c "A" ~width:4 in
  let b = Circuit.add_input c "B" ~width:4 in
  let cc = Circuit.add_input c "C" ~width:4 in
  let sb = Circuit.bit_of_wire s in
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire b) ~b:(Circuit.sig_of_wire a) ~s:sb
  in
  let outer = Circuit.mk_mux c ~a:(Circuit.sig_of_wire cc) ~b:inner ~s:sb in
  expose c "Y" outer;
  c

let fig2_circuit () =
  let c = Circuit.create "fig2" in
  let s = Circuit.add_input c "S" ~width:1 in
  let a = Circuit.add_input c "A" ~width:1 in
  let b = Circuit.add_input c "B" ~width:1 in
  let cc = Circuit.add_input c "C" ~width:1 in
  let sb = Circuit.bit_of_wire s in
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire b) ~b:[| sb |]
      ~s:(Circuit.bit_of_wire a)
  in
  let outer = Circuit.mk_mux c ~a:(Circuit.sig_of_wire cc) ~b:inner ~s:sb in
  expose c "Y" outer;
  c

let fig3_circuit () =
  let c = Circuit.create "fig3" in
  let s = Circuit.add_input c "S" ~width:1 in
  let r = Circuit.add_input c "R" ~width:1 in
  let a = Circuit.add_input c "A" ~width:4 in
  let b = Circuit.add_input c "B" ~width:4 in
  let cc = Circuit.add_input c "C" ~width:4 in
  let sb = Circuit.bit_of_wire s and rb = Circuit.bit_of_wire r in
  let s_or_r = Circuit.mk_or c sb rb in
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire b) ~b:(Circuit.sig_of_wire a)
      ~s:s_or_r
  in
  let outer = Circuit.mk_mux c ~a:(Circuit.sig_of_wire cc) ~b:inner ~s:sb in
  expose c "Y" outer;
  c

let listing1 =
  {|
module listing1(input [1:0] s, input [7:0] p0, input [7:0] p1,
                input [7:0] p2, input [7:0] p3, output reg [7:0] y);
  always @* begin
    case (s)
      2'b00: y = p0;
      2'b01: y = p1;
      2'b10: y = p2;
      default: y = p3;
    endcase
  end
endmodule
|}

let listing2 =
  {|
module listing2(input [2:0] s, input [7:0] p0, input [7:0] p1,
                input [7:0] p2, input [7:0] p3, output reg [7:0] y);
  always @* begin
    casez (s)
      3'b1zz: y = p0;
      3'b01z: y = p1;
      3'b001: y = p2;
      default: y = p3;
    endcase
  end
endmodule
|}

let figure_row name c0 flow =
  let c = Circuit.copy c0 in
  (match flow with
  | `None -> ()
  | `Yosys -> ignore (Smartly.Driver.yosys c)
  | `Smartly -> ignore (Smartly.Driver.smartly c));
  let st = Stats.of_circuit c in
  [
    name;
    string_of_int (Aiger.Aigmap.aig_area c);
    string_of_int st.Stats.muxes;
    string_of_int st.Stats.eqs;
    (match flow with
    | `None -> "-"
    | `Yosys | `Smartly -> check_equivalence c0 c);
  ]

let fig_columns =
  [ left "Circuit"; right "AIG"; right "mux"; right "eq"; left "Equivalence" ]

let figures () =
  print_endline "";
  print_endline "Figures 1-3: the motivating muxtree examples";
  let rows =
    List.concat_map
      (fun (name, c) ->
        [
          figure_row (name ^ " original") c `None;
          figure_row (name ^ " yosys") c `Yosys;
          figure_row (name ^ " smartly") c `Smartly;
        ])
      [
        "fig1 Y=S?(S?A:B):C", fig1_circuit ();
        "fig2 Y=S?(A?S:B):C", fig2_circuit ();
        "fig3 Y=S?((S|R)?A:B):C", fig3_circuit ();
      ]
  in
  Report.Table.print ~columns:fig_columns ~rows;
  print_endline
    "(fig1/fig2 are handled by both flows; fig3's dependent control\n\
     S|R is found only by smaRTLy's inference, as in the paper)";

  print_endline "";
  print_endline
    "Figures 5/6/7: Listing 1 as chain, balanced tree, and rebuilt tree";
  let rows =
    List.concat_map
      (fun (style, sname) ->
        let c = Hdl.Elaborate.elaborate_string ~style listing1 in
        [
          figure_row (Printf.sprintf "listing1 %s" sname) c `None;
          figure_row (Printf.sprintf "listing1 %s smartly" sname) c `Smartly;
        ])
      [ `Chain, "chain (Fig.5)"; `Balanced, "balanced (Fig.6)"; `Pmux, "pmux" ]
  in
  Report.Table.print ~columns:fig_columns ~rows;
  print_endline
    "(the rebuilt tree (Fig.7) uses 3 muxes on the selector bits and no\n\
     eq gates, whatever the input structure)";

  print_endline "";
  print_endline
    "Listing 2: greedy ADD assignment quality (paper: 3 vs 7 muxes)";
  let c = Hdl.Elaborate.elaborate_string ~style:`Chain listing2 in
  ignore (Rtl_opt.Opt_expr.run c);
  match Smartly.Muxtree.find_all c with
  | [ flat ] ->
    let index = Index.build c in
    let d = Smartly.Restructure.evaluate c index flat in
    Printf.printf
      "  rows=%d selector_bits=%d  greedy tree: %d muxes (height %d)\n"
      (List.length flat.Smartly.Muxtree.rows)
      (Bits.width flat.Smartly.Muxtree.selector)
      d.Smartly.Restructure.new_muxes d.Smartly.Restructure.height;
    (* contrast with the poor fixed order S0 < S1 < S2 via the canonical
       ADD over reversed cubes *)
    let m = Add_bdd.Add.manager () in
    let term_tbl = Hashtbl.create 8 in
    let term_of (v : Bits.sigspec) =
      let key = Bits.to_string v in
      match Hashtbl.find_opt term_tbl key with
      | Some i -> i
      | None ->
        let i = Hashtbl.length term_tbl + 1 in
        Hashtbl.replace term_tbl key i;
        i
    in
    let rows =
      List.map
        (fun (r : Smartly.Muxtree.row) ->
          r.Smartly.Muxtree.cube, term_of r.Smartly.Muxtree.value)
        flat.Smartly.Muxtree.rows
    in
    let good = Add_bdd.Add.of_rows m ~num_vars:3 rows ~default:0 in
    let rows_rev =
      List.map
        (fun (cube, v) ->
          let n = Array.length cube in
          Array.init n (fun i -> cube.(n - 1 - i)), v)
        rows
    in
    let poor = Add_bdd.Add.of_rows m ~num_vars:3 rows_rev ~default:0 in
    Printf.printf
      "  fixed-order ADD, S2 first (good): %d nodes; S0 first (poor): %d \
       nodes\n"
      (Add_bdd.Add.count_nodes good)
      (Add_bdd.Add.count_nodes poor)
  | _ -> print_endline "  (unexpected: muxtree not found)"

(* --- ablation sweeps --- *)

let ablation () =
  print_endline "";
  print_endline "Ablation: design choices of the smaRTLy implementation";
  let p = Workloads.Profiles.wb_dma in
  let c0 = Workloads.Profiles.circuit p in
  let yosys = Aiger.Aigmap.aig_area (optimized `Yosys c0) in
  let measure cfg =
    let c, dt = timed (fun () -> optimized (`Smartly cfg) c0) in
    Aiger.Aigmap.aig_area c, dt
  in
  let base = Smartly.Config.default in
  let rows =
    List.map
      (fun (name, cfg) ->
        let area, dt = measure cfg in
        [
          name;
          string_of_int area;
          Report.Table.pct (reduction ~yosys area);
          Report.Table.secs dt;
        ])
      [
        "default (k=6)", base;
        "k=2", { base with Smartly.Config.distance_k = 2 };
        "k=4", { base with Smartly.Config.distance_k = 4 };
        "k=10", { base with Smartly.Config.distance_k = 10 };
        ( "no inference rules",
          { base with Smartly.Config.enable_inference_rules = false } );
        ( "no simulation (SAT only)",
          { base with Smartly.Config.sim_input_threshold = 0 } );
        ( "no SAT (rules+sim only)",
          { base with Smartly.Config.sat_input_threshold = 0 } );
      ]
  in
  Printf.printf "case %s: yosys area %d\n" p.Workloads.Profiles.name yosys;
  Report.Table.print
    ~columns:
      [ left "Configuration"; right "AIG"; right "vs Yosys"; right "time" ]
    ~rows

(* --- main --- *)

let section_table =
  let each =
    [
      ("table2", table2);
      ("table3", table3);
      ("industrial", industrial);
      ("mux_chain", mux_chain);
      ("jobs_per_sec", jobs_per_sec);
      ("figures", figures);
      ("ablation", ablation);
    ]
  in
  each @ [ ("all", fun () -> List.iter (fun (_, run) -> run ()) each) ]

let usage () =
  prerr_endline
    "usage: bench [SECTION...] [--json] [--out DIR] [--reps N]\n\
    \             [--compare | --check] [--update-baselines]\n\
    \             [--baseline-dir DIR] [--threshold-scale X]\n\
    \             [--report FILE] [--pessimize] [--no-analysis]\n\
    \             [--no-ledger] [--ledger-root DIR] [--progress]\n\
     sections: table2 table3 industrial mux_chain jobs_per_sec figures\n\
    \          ablation all";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let needs_value name = function
    | v :: rest -> v, rest
    | [] ->
      Printf.eprintf "bench: %s needs a value\n" name;
      usage ()
  in
  let rec parse sections = function
    | [] -> List.rev sections
    | "--json" :: rest ->
      emit_json := true;
      parse sections rest
    | "--compare" :: rest ->
      compare_flag := true;
      parse sections rest
    | "--check" :: rest ->
      check_flag := true;
      parse sections rest
    | "--update-baselines" :: rest ->
      update_baselines := true;
      parse sections rest
    | "--pessimize" :: rest ->
      pessimize := true;
      parse sections rest
    | "--no-analysis" :: rest ->
      no_analysis := true;
      parse sections rest
    | "--no-ledger" :: rest ->
      no_ledger := true;
      parse sections rest
    | "--progress" :: rest ->
      progress := true;
      parse sections rest
    | "--ledger-root" :: rest ->
      let v, rest = needs_value "--ledger-root" rest in
      ledger_root := v;
      parse sections rest
    | "--out" :: rest ->
      let v, rest = needs_value "--out" rest in
      out_dir := Some v;
      parse sections rest
    | "--baseline-dir" :: rest ->
      let v, rest = needs_value "--baseline-dir" rest in
      baseline_dir := v;
      parse sections rest
    | "--report" :: rest ->
      let v, rest = needs_value "--report" rest in
      report_path := Some v;
      parse sections rest
    | "--reps" :: rest ->
      let v, rest = needs_value "--reps" rest in
      (match int_of_string_opt v with
      | Some n when n >= 1 -> reps := n
      | _ ->
        Printf.eprintf "bench: --reps needs a positive integer, got %s\n" v;
        usage ());
      parse sections rest
    | "--threshold-scale" :: rest ->
      let v, rest = needs_value "--threshold-scale" rest in
      (match float_of_string_opt v with
      | Some x when x > 0.0 -> threshold_scale := x
      | _ ->
        Printf.eprintf "bench: --threshold-scale needs a positive number\n";
        usage ());
      parse sections rest
    | opt :: _ when String.length opt >= 2 && String.sub opt 0 2 = "--" ->
      Printf.eprintf "bench: unknown option %s\n" opt;
      usage ()
    | s :: rest -> parse (s :: sections) rest
  in
  let sections =
    match parse [] args with
    | [] -> [ "table2"; "table3"; "industrial"; "figures" ]
    | rest -> rest
  in
  (* reject a misspelt section before anything runs: under --check it
     would otherwise leave nothing to compare and switch the gate off *)
  List.iter
    (fun s ->
      if not (List.mem_assoc s section_table) then begin
        Printf.eprintf "bench: unknown section %s\n" s;
        usage ()
      end)
    sections;
  if Unix.isatty Unix.stdout && Sys.getenv_opt "NO_COLOR" = None then
    Report.Table.set_color true;
  if not !no_ledger then begin
    (try
       let l =
         Obs.Ledger.create ~root:!ledger_root ~attach_events:false
           ~argv:(Array.to_list Sys.argv)
           ~env:(Perf.Schema.env_to_json (Perf.Schema.fingerprint ~reps:!reps))
           ()
       in
       (* no event sinks during measurement: per-event delivery would
          perturb the committed Time/Gc figures, so even the flight ring
          stays detached — a bench ledger is manifest + reports only *)
       Obs.Ring.detach (Obs.Ledger.ring l);
       ledger := Some l
     with Sys_error msg | Unix.Unix_error (_, msg, _) ->
       Printf.eprintf "ledger: disabled (%s)\n" msg)
  end;
  if !progress then
    (* explicit opt-in: streams pass boundaries live, and therefore
       perturbs the measured timings — never combined with --check *)
    ignore (Obs.Event.attach_progress ());
  List.iter (fun s -> (List.assoc s section_table) ()) sections;
  let finish_ledger status =
    match !ledger with
    | Some l ->
      Obs.Ledger.finish ~status l;
      Printf.eprintf "ledger: %s\n" (Obs.Ledger.dir l)
    | None -> ()
  in
  if !compare_flag || !check_flag then begin
    print_endline "";
    if !fresh_docs = [] then begin
      print_endline
        "bench-check: no statistical sections selected (nothing to compare)";
      finish_ledger "ok"
    end
    else begin
      let outcome =
        Perf.Gate.check ~scale:!threshold_scale ~dir:!baseline_dir !fresh_docs
      in
      print_string (Perf.Gate.render outcome);
      let plain_report () =
        (* the artifact must be byte-stable whatever the terminal: render
           it with color forced off *)
        let was = Report.Table.colorize Report.Table.Dim "x" <> "x" in
        Report.Table.set_color false;
        let text = Perf.Gate.render outcome in
        Report.Table.set_color was;
        text
      in
      (match !report_path with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (plain_report ());
        close_out oc;
        Printf.printf "wrote %s\n" path);
      (match !ledger with
      | Some l ->
        (try
           let p = Filename.concat (Obs.Ledger.dir l) "bench_gate.txt" in
           let oc = open_out p in
           output_string oc (plain_report ());
           close_out oc
         with Sys_error msg ->
           Printf.eprintf "ledger: cannot write gate report (%s)\n" msg)
      | None -> ());
      let ok = Perf.Gate.ok outcome in
      finish_ledger (if ok then "ok" else "regressed");
      if !check_flag && not ok then exit 1
    end
  end
  else finish_ledger "ok"
