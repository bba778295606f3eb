(* smartly — command-line driver.

   smartly list                           list built-in workload profiles
   smartly generate NAME [-o FILE]        emit the profile's Verilog source
   smartly stats SRC [--json]             netlist statistics and AIG area
   smartly opt SRC [--flow FLOW] [...]    optimize and report
   smartly cec A B                        combinational equivalence check
   smartly explain FILE.jsonl             area-attribution from a provenance log
   smartly replay FILE.cnf...             re-run captured SAT queries
   smartly validate-json FILE...          check files parse as JSON (.jsonl per line)
   smartly lint SRC... [--json] [--werror] [--waive RULES]
                                          static analysis: AST rules + netlist rules;
                                          --list-rules prints the registry
   smartly serve [--socket PATH]          batch daemon: JSONL jobs in, one
                                          smartly-report-v1 per job out, warm
                                          cross-job replay store

   SRC is either a built-in profile name or a path to a Verilog file in the
   supported subset.

   Observability: [opt --trace FILE] writes a Chrome trace_event JSON of
   the run (open in chrome://tracing or Perfetto); [opt --json] prints a
   machine-readable stats report (per-pass wall time, SAT query/conflict
   totals, area before/after) to stdout, moving the human summary to
   stderr; [opt --provenance FILE] writes one JSONL event per netlist
   mutation, which [smartly explain] aggregates into a per-mechanism
   area-attribution table; [opt --sat-dump DIR] writes the hardest SAT
   queries as self-contained DIMACS files for [smartly replay]. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A source that does not load is one message, located as lint locates
   frontend errors: "SRC:LINE:COL: parse error: MSG". *)
let try_load_circuit ~style src : (Netlist.Circuit.t, string) result =
  let located what msg (span : Hdl.Loc.span option) =
    match span with
    | Some sp when not (Hdl.Loc.is_dummy sp) ->
      Error (Printf.sprintf "%s:%s: %s: %s" src (Hdl.Loc.to_string sp) what msg)
    | _ -> Error (Printf.sprintf "%s: %s: %s" src what msg)
  in
  match Workloads.Profiles.by_name src with
  | Some p -> Ok (Workloads.Profiles.circuit p)
  | None when not (Sys.file_exists src) ->
    Error (Printf.sprintf "%s: neither a profile name nor an existing file" src)
  | None -> (
    match Hdl.Elaborate.elaborate_string ~style (read_file src) with
    | c -> Ok c
    | exception Sys_error msg ->
      (* open errors name the path already; read errors do not *)
      Error
        (if String.starts_with ~prefix:src msg then msg
         else Printf.sprintf "%s: %s" src msg)
    | exception Hdl.Lexer.Lex_error (msg, pos) ->
      located "lex error" msg (Some (Hdl.Loc.of_pos pos))
    | exception Hdl.Parser.Parse_error (msg, pos) ->
      located "parse error" msg (Some (Hdl.Loc.of_pos pos))
    | exception Hdl.Elaborate.Elab_error (msg, span) ->
      located "elaboration error" msg span)

(* The one-shot subcommands: print the message and exit 2, lint's code
   for a source it cannot read. *)
let load_circuit ~style src : Netlist.Circuit.t =
  match try_load_circuit ~style src with
  | Ok c -> c
  | Error msg ->
    prerr_endline msg;
    exit 2

(* --- arguments --- *)

let src_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SRC" ~doc:"Profile name or Verilog file.")

let style_arg =
  let style_conv =
    Arg.enum [ "chain", `Chain; "balanced", `Balanced; "pmux", `Pmux ]
  in
  Arg.(
    value & opt style_conv `Chain
    & info [ "style" ] ~docv:"STYLE"
        ~doc:"Case lowering style for Verilog files: chain, balanced, pmux.")

let flow_arg =
  let flow_conv =
    Arg.enum
      [
        "none", `None; "yosys", `Yosys; "smartly", `Smartly; "sat", `Sat;
        "rebuild", `Rebuild;
      ]
  in
  Arg.(
    value & opt flow_conv `Smartly
    & info [ "flow" ] ~docv:"FLOW"
        ~doc:
          "Optimization flow: none, yosys (baseline), smartly (full), sat \
           (SAT elimination only), rebuild (restructuring only).")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ] ~doc:"Equivalence-check the result against the input.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print pass reports.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the run to FILE (open in \
           chrome://tracing or Perfetto).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print a machine-readable JSON report to stdout (human summary \
           moves to stderr).")

let provenance_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "provenance" ] ~docv:"FILE"
        ~doc:
          "Write the optimization provenance log (one JSON event per \
           netlist mutation) to FILE; aggregate it with $(b,smartly \
           explain).")

let no_analysis_arg =
  Arg.(
    value & flag
    & info [ "no-analysis" ]
        ~doc:
          "Disable the abstract-interpretation rung zero: every query \
           falls through to the sim/SAT rungs.  The final netlist is \
           identical either way; this knob exists for benchmarking and \
           for proving it.")

let sat_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sat-dump" ] ~docv:"DIR"
        ~doc:
          "Write the hardest SAT queries of the run as self-contained \
           DIMACS files under DIR; re-run them with $(b,smartly replay).")

let no_ledger_arg =
  Arg.(
    value & flag
    & info [ "no-ledger" ]
        ~doc:
          "Do not create a run-ledger directory.  By default every \
           $(b,opt) run records its manifest, event stream, trace, \
           provenance, SAT dumps and flight-recorder dump under \
           $(b,.smartly/runs/<run-id>/), renderable later with \
           $(b,smartly report).")

let ledger_root_arg =
  Arg.(
    value
    & opt string Obs.Ledger.default_root
    & info [ "ledger-root" ] ~docv:"DIR"
        ~doc:"Run-ledger root directory (default $(b,.smartly/runs)).")

let pass_budget_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pass-budget-ms" ] ~docv:"MS"
        ~doc:
          "Wall-time budget per optimization pass (smartly-family flows). \
           A pass exceeding it is truncated — remaining SAT queries \
           forgone, remaining trees skipped — and skipped on later \
           iterations; the flow still completes and exits 0, with a \
           $(b,Budget_exceeded) event recorded in the ledger.")

let pass_alloc_budget_mw_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "pass-alloc-budget-mw" ] ~docv:"MWORDS"
        ~doc:
          "Allocation budget per pass in millions of words; same graceful \
           degradation as $(b,--pass-budget-ms).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a live line per completed pass to stderr (automatic when \
           stderr is a TTY).")

(* --- commands --- *)

let list_cmd =
  let run () =
    print_endline "public benchmark profiles:";
    List.iter
      (fun (p : Workloads.Profiles.profile) ->
        Printf.printf "  %-16s (seed %d, %s style)\n" p.Workloads.Profiles.name
          p.Workloads.Profiles.seed
          (match p.Workloads.Profiles.style with
          | `Chain -> "chain"
          | `Balanced -> "balanced"
          | `Pmux -> "pmux"))
      Workloads.Profiles.public_benchmarks;
    print_endline "industrial test points:";
    List.iter
      (fun (p : Workloads.Profiles.profile) ->
        Printf.printf "  %-16s (seed %d)\n" p.Workloads.Profiles.name
          p.Workloads.Profiles.seed)
      Workloads.Profiles.industrial_benchmarks;
    print_endline "smoke profiles:";
    Printf.printf "  %-16s (seed %d, fast; for CI and quick checks)\n"
      Workloads.Profiles.mux_chain.Workloads.Profiles.name
      Workloads.Profiles.mux_chain.Workloads.Profiles.seed
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in workload profiles.")
    Term.(const run $ const ())

let generate_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE.")
  in
  let run name out =
    match Workloads.Profiles.by_name name with
    | None -> Printf.eprintf "unknown profile %s\n" name
    | Some p -> (
      let src = Workloads.Profiles.source p in
      match out with
      | None -> print_string src
      | Some path ->
        let oc = open_out path in
        output_string oc src;
        close_out oc;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length src))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit the Verilog source of a profile.")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"NAME" ~doc:"Profile name.")
      $ out_arg)

let stats_cmd =
  let run src style json =
    let c = load_circuit ~style src in
    let st = Netlist.Stats.of_circuit c in
    let depth = Netlist.Topo.logic_depth c in
    let area = Aiger.Aigmap.aig_area c in
    if json then
      let open Obs.Json in
      print_endline
        (to_string ~pretty:true
           (Obj
              [
                "schema", Str "smartly-netlist-stats-v1";
                "source", Str src;
                ( "cells",
                  Obj
                    [
                      "total", num_of_int st.Netlist.Stats.total;
                      "muxes", num_of_int st.Netlist.Stats.muxes;
                      "pmuxes", num_of_int st.Netlist.Stats.pmuxes;
                      "eqs", num_of_int st.Netlist.Stats.eqs;
                      "dffs", num_of_int st.Netlist.Stats.dffs;
                      "logic", num_of_int st.Netlist.Stats.logic;
                      "bitwise", num_of_int st.Netlist.Stats.bitwise;
                      "arith", num_of_int st.Netlist.Stats.arith;
                      "mux_bits", num_of_int st.Netlist.Stats.mux_bits;
                    ] );
                "wires", num_of_int st.Netlist.Stats.wires;
                "logic_depth", num_of_int depth;
                "aig_area", num_of_int area;
              ]))
    else begin
      Fmt.pr "%a@." Netlist.Stats.pp st;
      Printf.printf "logic depth: %d\n" depth;
      Printf.printf "AIG area (FF excluded): %d\n" area
    end
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print netlist statistics and the AIG area.")
    Term.(const run $ src_arg $ style_arg $ json_arg)

(* `smartly analyze`: the whole-circuit abstract-interpretation fixpoint
   with no path seeds — per-wire known bits and intervals, plus the
   derived cell facts that back the NL010..NL013 lint rules. *)
let analyze_cmd =
  let run src style json =
    let c = load_circuit ~style src in
    let cells =
      try Netlist.Topo.sort c
      with Netlist.Topo.Combinational_cycle ids ->
        Printf.eprintf "analyze: combinational cycle through cells %s\n%!"
          (String.concat ", " (List.map string_of_int ids));
        exit 1
    in
    match Analysis.Fixpoint.run c cells with
    | Analysis.Fixpoint.Contradiction ->
      (* unseeded, this would mean the circuit itself is inconsistent —
         impossible for a well-formed netlist, but report it rather than
         crash if an abstraction bug ever produces it *)
      Printf.eprintf "analyze: contradiction on the unseeded fixpoint\n%!";
      exit 1
    | Analysis.Fixpoint.Converged o ->
      let st = o.Analysis.Fixpoint.state in
      let facts = Analysis.Facts.derive c st in
      let wires =
        Hashtbl.fold (fun _ w acc -> w :: acc) c.Netlist.Circuit.wires []
        |> List.sort (fun (a : Netlist.Circuit.wire) b ->
               compare a.Netlist.Circuit.wire_id b.Netlist.Circuit.wire_id)
      in
      if json then begin
        let open Obs.Json in
        let wire_json (w : Netlist.Circuit.wire) =
          let s = Netlist.Circuit.sig_of_wire w in
          Obj
            [
              "id", num_of_int w.Netlist.Circuit.wire_id;
              "name", Str w.Netlist.Circuit.wire_name;
              "width", num_of_int w.Netlist.Circuit.width;
              "bits", Str (Analysis.Absval.to_string st s);
              ( "interval",
                match Analysis.Absval.get_itv st s with
                | None -> Null
                | Some i ->
                  Obj
                    [
                      "lo", num_of_int i.Analysis.Absval.lo;
                      "hi", num_of_int i.Analysis.Absval.hi;
                    ] );
            ]
        in
        print_endline
          (to_string ~pretty:true
             (Obj
                [
                  "schema", Str "smartly-analysis-v1";
                  "source", Str src;
                  "cells", num_of_int (Netlist.Circuit.cell_count c);
                  "sweeps", num_of_int o.Analysis.Fixpoint.sweeps;
                  "wires", List (List.map wire_json wires);
                  ( "facts",
                    List (List.map Analysis.Facts.fact_to_json facts) );
                ]))
      end
      else begin
        Printf.printf "analysis: %d cells, fixpoint in %d sweep%s\n"
          (Netlist.Circuit.cell_count c)
          o.Analysis.Fixpoint.sweeps
          (if o.Analysis.Fixpoint.sweeps = 1 then "" else "s");
        let nontrivial_itv (w : Netlist.Circuit.wire) s =
          match Analysis.Absval.get_itv st s with
          | Some i
            when w.Netlist.Circuit.width <= Analysis.Absval.max_itv_width ->
            i.Analysis.Absval.lo > 0
            || i.Analysis.Absval.hi < (1 lsl w.Netlist.Circuit.width) - 1
          | _ -> false
        in
        let pinned =
          List.filter
            (fun (w : Netlist.Circuit.wire) ->
              let s = Netlist.Circuit.sig_of_wire w in
              String.exists (fun ch -> ch <> '?')
                (Analysis.Absval.to_string st s)
              || nontrivial_itv w s)
            wires
        in
        Printf.printf "wires with derived facts: %d of %d\n"
          (List.length pinned) (List.length wires);
        List.iter
          (fun (w : Netlist.Circuit.wire) ->
            let s = Netlist.Circuit.sig_of_wire w in
            let itv =
              match Analysis.Absval.get_itv st s with
              | Some i when not (i.Analysis.Absval.lo = 0
                                 && i.Analysis.Absval.hi
                                    = (1 lsl w.Netlist.Circuit.width) - 1) ->
                Printf.sprintf " in [%d, %d]" i.Analysis.Absval.lo
                  i.Analysis.Absval.hi
              | _ -> ""
            in
            Printf.printf "  %-24s = %s%s\n" w.Netlist.Circuit.wire_name
              (Analysis.Absval.to_string st s)
              itv)
          pinned;
        Printf.printf "cell facts: %d\n" (List.length facts);
        List.iter
          (fun f ->
            Printf.printf "  [%s] %s\n"
              (Analysis.Facts.fact_rule f)
              (Analysis.Facts.fact_message f))
          facts
      end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the abstract-interpretation value analysis (known bits + \
          intervals) over a circuit and report per-wire abstract values \
          and derived facts.")
    Term.(const run $ src_arg $ style_arg $ json_arg)

(* --- the optimization flows, one code path for every variant --- *)

type outcome =
  | O_none
  | O_yosys of Rtl_opt.Flow.report
  | O_smartly of Smartly.Driver.result

let flow_name = function
  | `None -> "none"
  | `Yosys -> "yosys"
  | `Smartly -> "smartly"
  | `Sat -> "sat"
  | `Rebuild -> "rebuild"

let run_flow ?after_pass ?(analysis = true)
    ?(pass_budget_ms = None) ?(pass_alloc_budget_mw = None) flow
    (c : Netlist.Circuit.t) : outcome =
  match flow with
  | `None -> O_none
  | `Yosys -> O_yosys (Smartly.Driver.yosys ?after_pass c)
  | (`Smartly | `Sat | `Rebuild) as f ->
    let cfg =
      match f with
      | `Sat -> Smartly.Config.sat_only
      | `Rebuild -> Smartly.Config.rebuild_only
      | `Smartly -> Smartly.Config.default
    in
    let cfg =
      {
        cfg with
        Smartly.Config.enable_analysis = analysis;
        pass_budget_ms;
        pass_alloc_budget_mw;
      }
    in
    O_smartly (Smartly.Driver.smartly ~cfg ?after_pass c)

(* Every flow variant prints its pass reports here — `--verbose` behaves
   the same whether the flow is none/yosys/sat/rebuild/smartly. *)
let print_pass_reports ppf = function
  | O_none -> ()
  | O_yosys r -> Fmt.pf ppf "baseline: %a@." Rtl_opt.Flow.pp_report r
  | O_smartly r ->
    List.iter
      (fun rr -> Fmt.pf ppf "sat_elim: %a@." Smartly.Sat_elim.pp_report rr)
      r.Smartly.Driver.sat_reports;
    List.iter
      (fun rr -> Fmt.pf ppf "rebuild:  %a@." Smartly.Restructure.pp_report rr)
      r.Smartly.Driver.rebuild_reports

(* Sum the engine stats over every sat_elim sweep of the run. *)
let engine_totals (o : outcome) : Smartly.Engine.stats =
  let acc = Smartly.Engine.fresh_stats () in
  (match o with
  | O_none | O_yosys _ -> ()
  | O_smartly r ->
    List.iter
      (fun (rr : Smartly.Sat_elim.report) ->
        let e = rr.Smartly.Sat_elim.engine in
        let open Smartly.Engine in
        acc.rule_hits <- acc.rule_hits + e.rule_hits;
        acc.analysis_hits <- acc.analysis_hits + e.analysis_hits;
        acc.analysis_queries <- acc.analysis_queries + e.analysis_queries;
        acc.sim_queries <- acc.sim_queries + e.sim_queries;
        acc.sat_queries <- acc.sat_queries + e.sat_queries;
        acc.forgone <- acc.forgone + e.forgone;
        acc.subgraph_kept <- acc.subgraph_kept + e.subgraph_kept;
        acc.sat_conflicts <- acc.sat_conflicts + e.sat_conflicts;
        acc.sat_decisions <- acc.sat_decisions + e.sat_decisions;
        acc.sat_propagations <- acc.sat_propagations + e.sat_propagations)
      r.Smartly.Driver.sat_reports);
  acc

let iterations_of = function
  | O_none -> 0
  | O_yosys r -> r.Rtl_opt.Flow.iterations
  | O_smartly r -> r.Smartly.Driver.iterations

(* Per-span-name wall-time totals from the recorded trace.  Durations are
   inclusive (a driver.iteration span contains its passes). *)
let span_totals (sink : Obs.Trace.sink) : (string * int * float) list =
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let calls, tot =
        Option.value (Hashtbl.find_opt tbl e.Obs.Trace.name) ~default:(0, 0.0)
      in
      Hashtbl.replace tbl e.Obs.Trace.name
        (calls + 1, tot +. e.Obs.Trace.dur_us))
    (Obs.Trace.events sink);
  Hashtbl.fold (fun name (calls, tot) acc -> (name, calls, tot) :: acc) tbl []
  |> List.sort compare

let m_flow_cells_removed = Obs.Metrics.counter "flow.cells_removed"

(* p50/p90/max of a named histogram, [Null] when it has no observations. *)
let histogram_percentiles_json name : Obs.Json.t =
  let st = Obs.Metrics.histogram_stats (Obs.Metrics.histogram name) in
  if st.Obs.Metrics.count = 0 then Obs.Json.Null
  else
    Obs.Json.Obj
      [
        "count", Obs.Json.num_of_int st.Obs.Metrics.count;
        "p50", Obs.Json.Num st.Obs.Metrics.p50;
        "p90", Obs.Json.Num st.Obs.Metrics.p90;
        "max", Obs.Json.Num st.Obs.Metrics.max_v;
      ]

let counter_value name = Obs.Metrics.value (Obs.Metrics.counter name)

(* The sat-session counters as one JSON object — the [session] section of
   the --json report and of bench per-case output. *)
let session_json () : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      "flushes", num_of_int (counter_value "sat_session.flushes");
      "cell_encodes", num_of_int (counter_value "sat_session.cell_encodes");
      "cell_reuses", num_of_int (counter_value "sat_session.cell_reuses");
    ]

(* The rung-zero counters as one JSON object — the [analysis] section of
   the --json report and of bench per-case output.  [Null] when the rung
   never ran (--no-analysis, or a flow without the sat pass), so gates
   diffing reports across configs never see a spurious section. *)
let analysis_json () : Obs.Json.t =
  let open Obs.Json in
  let queries = counter_value "engine.analysis_queries" in
  if queries = 0 then Null
  else
    Obj
      [
        "queries", num_of_int queries;
        "hits", num_of_int (counter_value "engine.analysis_hits");
        "forced", num_of_int (counter_value "engine.analysis_forced");
        "unreachable", num_of_int (counter_value "engine.analysis_unreachable");
        "sim_avoided", num_of_int (counter_value "engine.analysis_sim_avoided");
        "sat_avoided", num_of_int (counter_value "engine.analysis_sat_avoided");
        "sweeps", num_of_int (counter_value "engine.analysis_sweeps");
        "seconds", histogram_percentiles_json "engine.analysis_seconds";
      ]

let overruns_of = function
  | O_none | O_yosys _ -> []
  | O_smartly r -> r.Smartly.Driver.overruns

let stats_report_json ~src ~flow ~area0 ~area1 ~dt ~outcome ~sink ~psink :
    Obs.Json.t =
  let open Obs.Json in
  let e = engine_totals outcome in
  let passes =
    match sink with
    | None -> []
    | Some s ->
      List.map
        (fun (name, calls, total_us) ->
          Obj
            [
              "name", Str name;
              "calls", num_of_int calls;
              "seconds", Num (total_us /. 1e6);
            ])
        (span_totals s)
  in
  Obj
    [
      "schema", Str "smartly-stats-v1";
      "source", Str src;
      "flow", Str (flow_name flow);
      "area_before", num_of_int area0;
      "area_after", num_of_int area1;
      ( "reduction_pct",
        Num
          (if area0 = 0 then 0.0
           else 100.0 *. (1.0 -. (float_of_int area1 /. float_of_int area0)))
      );
      "wall_seconds", Num dt;
      "iterations", num_of_int (iterations_of outcome);
      ( "sat",
        Obj
          [
            "queries", num_of_int e.Smartly.Engine.sat_queries;
            "conflicts", num_of_int e.Smartly.Engine.sat_conflicts;
            "decisions", num_of_int e.Smartly.Engine.sat_decisions;
            "propagations", num_of_int e.Smartly.Engine.sat_propagations;
            "rule_hits", num_of_int e.Smartly.Engine.rule_hits;
            "analysis_hits", num_of_int e.Smartly.Engine.analysis_hits;
            "sim_queries", num_of_int e.Smartly.Engine.sim_queries;
            "forgone", num_of_int e.Smartly.Engine.forgone;
            "subgraph_kept", num_of_int e.Smartly.Engine.subgraph_kept;
          ] );
      "session", session_json ();
      "analysis", analysis_json ();
      ( "budget",
        List
          (List.map Smartly.Budget.overrun_to_json (overruns_of outcome)) );
      "cells_removed", num_of_int (Obs.Metrics.value m_flow_cells_removed);
      ( "sat_percentiles",
        Obj
          [
            ( "conflicts_per_query",
              histogram_percentiles_json "engine.conflicts_per_query" );
            ( "query_seconds",
              histogram_percentiles_json "engine.sat_query_seconds" );
            "subgraph_cells", histogram_percentiles_json "engine.subgraph_cells";
          ] );
      ( "provenance_summary",
        match psink with
        | Some s -> Obs.Provenance.summary_json (Obs.Provenance.events s)
        | None -> Null );
      "sat_queries", Smartly.Engine.Sat_log.to_json ();
      "passes", List passes;
      "metrics", Obs.Metrics.to_json ();
    ]

let check_invariants_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Re-validate the netlist and SAT-check equivalence after every \
           sub-pass; on a violation, name the first pass that broke an \
           invariant and exit non-zero.")

(* The hardest-query refs a flight dump carries: pointers into the
   ledger's sat/ directory, not the DIMACS text itself. *)
let flight_extra () =
  let open Obs.Json in
  [
    ( "sat_hardest",
      List
        (List.map
           (fun (e : Smartly.Engine.Sat_log.entry) ->
             Obj
               [
                 "id", num_of_int e.Smartly.Engine.Sat_log.id;
                 ( "conflicts",
                   num_of_int e.Smartly.Engine.Sat_log.conflicts );
                 ( "dimacs",
                   Str
                     (Printf.sprintf "sat/query_%04d.cnf"
                        e.Smartly.Engine.Sat_log.id) );
               ])
           (Smartly.Engine.Sat_log.hardest ())) );
  ]

let opt_cmd =
  let run src style flow check verbose trace json provenance sat_dump
      check_invariants no_analysis no_ledger ledger_root
      pass_budget_ms pass_alloc_budget_mw progress =
    let c = load_circuit ~style src in
    let orig = Netlist.Circuit.copy c in
    let invariants =
      if check_invariants then Some (Lint.Invariant.create c) else None
    in
    let after_pass =
      Option.map
        (fun t name circuit -> Lint.Invariant.after_pass t name circuit)
        invariants
    in
    Obs.Metrics.reset ();
    Smartly.Engine.Sat_log.reset ();
    Smartly.Budget.reset ();
    Obs.Event.reset ();
    (* the run ledger is on by default; a failure to create it (read-only
       cwd, bad --ledger-root) degrades to an unledgered run, not an
       error *)
    let ledger =
      if no_ledger then None
      else
        try
          let env =
            Perf.Schema.env_to_json (Perf.Schema.fingerprint ~reps:1)
          in
          Some
            (Obs.Ledger.create ~root:ledger_root
               ~argv:(Array.to_list Sys.argv) ~env ())
        with e ->
          Printf.eprintf "ledger: disabled (%s)\n%!" (Printexc.to_string e);
          None
    in
    if progress || Unix.isatty Unix.stderr then
      ignore (Obs.Event.attach_progress ());
    (* an interrupted run still leaves a complete, renderable ledger: the
       flushed events.jsonl prefix, a flight dump naming the in-flight
       pass, and a manifest with status "interrupted" *)
    (match ledger with
    | Some l ->
      Sys.set_signal Sys.sigint
        (Sys.Signal_handle
           (fun _ ->
             ignore
               (Obs.Ledger.dump_flight ~extra:(flight_extra ())
                  ~reason:"sigint" l);
             Obs.Ledger.finish ~status:"interrupted" l;
             exit 130))
    | None -> ());
    (* spans feed the --trace file, the per-pass times of the --json
       report, and the ledger's trace.json; with none of those the sink
       stays uninstalled and tracing costs nothing *)
    let sink =
      if trace <> None || json || ledger <> None then begin
        let s = Obs.Trace.make_sink () in
        Obs.Trace.install s;
        Some s
      end
      else None
    in
    (* the provenance sink feeds the --provenance JSONL file, the
       provenance_summary section of --json, and the ledger *)
    let psink =
      if provenance <> None || json || ledger <> None then begin
        let s = Obs.Provenance.make_sink () in
        Obs.Provenance.install s;
        Some s
      end
      else None
    in
    let area0 = Aiger.Aigmap.aig_area c in
    Obs.Event.emit ~name:src
      ~data:
        (Obs.Json.Obj
           [
             "source", Obs.Json.Str src;
             "flow", Obs.Json.Str (flow_name flow);
             "area", Obs.Json.num_of_int area0;
             "cells", Obs.Json.num_of_int (Netlist.Circuit.cell_count c);
           ])
      Obs.Event.Run_start;
    let t0 = Obs.Clock.now () in
    let outcome =
      try
        run_flow ?after_pass ~analysis:(not no_analysis) ~pass_budget_ms
          ~pass_alloc_budget_mw flow c
      with e ->
        (match ledger with
        | Some l ->
          ignore
            (Obs.Ledger.dump_flight ~extra:(flight_extra ())
               ~reason:("exception: " ^ Printexc.to_string e)
               l);
          Obs.Ledger.finish ~status:"crashed" l
        | None -> ());
        raise e
    in
    let dt = Obs.Clock.now () -. t0 in
    let area1 = Aiger.Aigmap.aig_area c in
    let overruns = overruns_of outcome in
    Obs.Event.emit ~name:src
      ~data:
        (Obs.Json.Obj
           [
             "area", Obs.Json.num_of_int area1;
             "iterations", Obs.Json.num_of_int (iterations_of outcome);
             "wall_seconds", Obs.Json.Num dt;
             "session", session_json ();
             "analysis", analysis_json ();
             "overruns", Obs.Json.num_of_int (List.length overruns);
           ])
      Obs.Event.Run_end;
    Obs.Trace.uninstall ();
    Obs.Provenance.uninstall ();
    (* a bad trace path must not lose the run's report: write after the
       flow, catch the failure, and exit nonzero only at the end *)
    let trace_error = ref None in
    (match trace, sink with
    | Some path, Some s -> (
      try
        Obs.Trace.write_chrome_json ~path s;
        Printf.eprintf "trace: wrote %s (%d spans)\n%!" path
          (Obs.Trace.event_count s)
      with Sys_error msg -> trace_error := Some msg)
    | _ -> ());
    (match provenance, psink with
    | Some path, Some s -> (
      try
        Obs.Provenance.write_jsonl ~path s;
        Printf.eprintf "provenance: wrote %s (%d events)\n%!" path
          (Obs.Provenance.count s)
      with Sys_error msg -> trace_error := Some msg)
    | _ -> ());
    (match sat_dump with
    | Some dir -> (
      try
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        let paths = Smartly.Engine.Sat_log.dump ~dir in
        Printf.eprintf "sat-dump: wrote %d queries to %s\n%!"
          (List.length paths) dir
      with Sys_error msg | Unix.Unix_error (_, msg, _) ->
        trace_error := Some msg)
    | None -> ());
    (* the summary goes to stderr under --json so stdout stays parseable *)
    let human = if json then Format.err_formatter else Format.std_formatter in
    if verbose then print_pass_reports human outcome;
    let red =
      if area0 = 0 then 0.0
      else 100.0 *. (1.0 -. (float_of_int area1 /. float_of_int area0))
    in
    Fmt.pf human "%s: AIG area %d -> %d (%s reduction) in %s@."
      (flow_name flow) area0 area1 (Report.Table.pct red)
      (Report.Table.secs dt);
    (let e = engine_totals outcome in
     if e.Smartly.Engine.analysis_queries > 0 then
       Fmt.pf human "analysis: %d/%d rung-zero hits (%s)@."
         e.Smartly.Engine.analysis_hits e.Smartly.Engine.analysis_queries
         (Report.Table.pct
            (100.0
            *. float_of_int e.Smartly.Engine.analysis_hits
            /. float_of_int e.Smartly.Engine.analysis_queries)));
    List.iter
      (fun (o : Smartly.Budget.overrun) ->
        Fmt.pf human
          "budget: pass %s exceeded (%.1f ms elapsed%s, %d work items \
           truncated)@."
          o.Smartly.Budget.pass o.Smartly.Budget.elapsed_ms
          (match o.Smartly.Budget.budget_ms with
          | Some ms -> Printf.sprintf " of %d ms" ms
          | None -> "")
          o.Smartly.Budget.truncated)
      overruns;
    if json then
      print_endline
        (Obs.Json.to_string ~pretty:true
           (stats_report_json ~src ~flow ~area0 ~area1 ~dt ~outcome ~sink
              ~psink));
    if check then
      Fmt.pf human "equivalence: %a@." Equiv.pp_verdict (Equiv.check orig c);
    let invariant_failed = ref false in
    (match invariants with
    | None -> ()
    | Some t -> (
      match Lint.Invariant.failure t with
      | None ->
        Fmt.pf human "invariants: ok (%d checks)@."
          (Lint.Invariant.checks_run t)
      | Some f ->
        invariant_failed := true;
        Fmt.pf human "invariants: @[<v>%a@]@." Lint.Invariant.pp_failure f));
    (* everything the run produced also lands in the ledger, so [smartly
       report] works without having asked for any artifact flag *)
    (match ledger with
    | None -> ()
    | Some l ->
      (try
         (match sink with
         | Some s ->
           Obs.Trace.write_chrome_json ~path:(Obs.Ledger.path l "trace.json") s
         | None -> ());
         (match psink with
         | Some s ->
           Obs.Provenance.write_jsonl
             ~path:(Obs.Ledger.path l "provenance.jsonl")
             s
         | None -> ());
         let oc = open_out (Obs.Ledger.path l "stats.json") in
         output_string oc
           (Obs.Json.to_string ~pretty:true
              (stats_report_json ~src ~flow ~area0 ~area1 ~dt ~outcome ~sink
                 ~psink));
         output_char oc '\n';
         close_out oc;
         if Smartly.Engine.Sat_log.query_count () > 0 then begin
           let dir = Obs.Ledger.path l "sat" in
           if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
           ignore (Smartly.Engine.Sat_log.dump ~dir)
         end
       with Sys_error msg | Unix.Unix_error (_, msg, _) ->
         Printf.eprintf "ledger: cannot write artifact: %s\n%!" msg);
      if overruns <> [] then
        ignore
          (Obs.Ledger.dump_flight ~extra:(flight_extra ()) ~reason:"budget" l);
      let status = if !invariant_failed then "invariant-failed" else "ok" in
      Obs.Ledger.finish ~status
        ~extra:
          [
            "source", Obs.Json.Str src;
            "flow", Obs.Json.Str (flow_name flow);
            "area_before", Obs.Json.num_of_int area0;
            "area_after", Obs.Json.num_of_int area1;
            "wall_seconds", Obs.Json.Num dt;
            ( "budget_overruns",
              Obs.Json.List
                (List.map Smartly.Budget.overrun_to_json overruns) );
          ]
        l;
      Printf.eprintf "ledger: %s\n%!" (Obs.Ledger.dir l));
    (match !trace_error with
    | None -> ()
    | Some msg -> Printf.eprintf "trace: cannot write: %s\n%!" msg);
    if !trace_error <> None || !invariant_failed then exit 1
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Optimize a circuit and report the AIG area.")
    Term.(
      const run $ src_arg $ style_arg $ flow_arg $ check_arg $ verbose_arg
      $ trace_arg $ json_arg $ provenance_arg $ sat_dump_arg
      $ check_invariants_arg $ no_analysis_arg
      $ no_ledger_arg $ ledger_root_arg $ pass_budget_ms_arg
      $ pass_alloc_budget_mw_arg $ progress_arg)

let write_verilog_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE.")
  in
  let run src style out =
    let c = load_circuit ~style src in
    let text = Hdl.Verilog_out.write c in
    match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
  in
  Cmd.v
    (Cmd.info "write-verilog"
       ~doc:"Write the circuit back out as Verilog (round-trippable).")
    Term.(const run $ src_arg $ style_arg $ out_arg)

let dump_cmd =
  let run src style =
    let c = load_circuit ~style src in
    Netlist.Pp.print c
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print the elaborated netlist in textual form.")
    Term.(const run $ src_arg $ style_arg)

let cec_cmd =
  let src2_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SRC2" ~doc:"Second profile or Verilog file.")
  in
  let run src1 src2 style =
    let c1 = load_circuit ~style src1 in
    let c2 = load_circuit ~style src2 in
    Fmt.pr "%a@." Equiv.pp_verdict (Equiv.check c1 c2)
  in
  Cmd.v
    (Cmd.info "cec" ~doc:"Combinational equivalence check of two circuits.")
    Term.(const run $ src_arg $ src2_arg $ style_arg)

let explain_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Provenance JSONL file written by $(b,opt --provenance).")
  in
  let run file json =
    if not (Sys.file_exists file) then begin
      Printf.eprintf "%s: no such file\n" file;
      exit 1
    end;
    match Obs.Provenance.parse_jsonl (read_file file) with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1
    | Ok evs ->
      if json then
        print_endline
          (Obs.Json.to_string ~pretty:true (Obs.Provenance.summary_json evs))
      else begin
        let open Obs.Provenance in
        let rows = attribute evs in
        let cols =
          Report.Table.
            [
              column "mechanism";
              column ~align:Right "cells";
              column ~align:Right "muxes";
              column ~align:Right "consts";
              column ~align:Right "trees";
              column ~align:Right "dead";
              column ~align:Right "area_saved";
            ]
        in
        let row_of (a : attribution) =
          [
            a.mech;
            Report.Table.int_ a.cells_removed;
            Report.Table.int_ a.muxes_bypassed;
            Report.Table.int_ a.consts_resolved;
            Report.Table.int_ a.trees_rebuilt;
            Report.Table.int_ a.dead_branches;
            Report.Table.int_ a.area_saved;
          ]
        in
        let tot f = List.fold_left (fun acc a -> acc + f a) 0 rows in
        let total_row =
          [
            "total";
            Report.Table.int_ (tot (fun a -> a.cells_removed));
            Report.Table.int_ (tot (fun a -> a.muxes_bypassed));
            Report.Table.int_ (tot (fun a -> a.consts_resolved));
            Report.Table.int_ (tot (fun a -> a.trees_rebuilt));
            Report.Table.int_ (tot (fun a -> a.dead_branches));
            Report.Table.int_ (tot (fun a -> a.area_saved));
          ]
        in
        Printf.printf "%d events\n" (List.length evs);
        Report.Table.print ~columns:cols
          ~rows:(List.map row_of rows @ [ total_row ])
      end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Aggregate a provenance log into a per-mechanism area-attribution \
          table.")
    Term.(const run $ file_arg $ json_arg)

let replay_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"DIMACS files written by $(b,opt --sat-dump).")
  in
  (* the [solve=] field of the metadata comment a dumped query carries *)
  let recorded_verdict comments =
    let meta =
      List.find_opt
        (fun c -> String.length c > 0 && String.starts_with ~prefix:"smartly-sat-query" c)
        comments
    in
    Option.bind meta (fun m ->
        String.split_on_char ' ' m
        |> List.find_map (fun tok ->
               if String.starts_with ~prefix:"solve=" tok then
                 Some (String.sub tok 6 (String.length tok - 6))
               else None))
  in
  let run files =
    let ok = ref true in
    List.iter
      (fun path ->
        if not (Sys.file_exists path) then begin
          Printf.eprintf "%s: no such file\n" path;
          ok := false
        end
        else begin
          let cnf, comments = Cdcl.Dimacs.parse_string_ext (read_file path) in
          let s = Cdcl.Solver.create () in
          for _ = 1 to cnf.Cdcl.Dimacs.num_vars do
            ignore (Cdcl.Solver.new_var s)
          done;
          List.iter
            (fun cl ->
              Cdcl.Solver.add_clause s (List.map Cdcl.Lit.of_dimacs cl))
            cnf.Cdcl.Dimacs.clauses;
          let t0 = Obs.Clock.now () in
          let r = Cdcl.Solver.solve s in
          let dt = Obs.Clock.now () -. t0 in
          let got = Smartly.Engine.Sat_log.solve_name r in
          let conflicts, _, _ = Cdcl.Solver.stats s in
          match recorded_verdict comments with
          | Some exp when exp <> "UNKNOWN" ->
            if got = exp then
              Printf.printf "%s: %s (matches recorded) %d conflicts %s\n"
                path got conflicts (Report.Table.secs dt)
            else begin
              Printf.eprintf "%s: MISMATCH got %s, recorded %s\n" path got
                exp;
              ok := false
            end
          | Some _ | None ->
            Printf.printf "%s: %s (no recorded verdict) %d conflicts %s\n"
              path got conflicts (Report.Table.secs dt)
        end)
      files;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-solve captured SAT queries in isolation and check each \
          result against the recorded verdict; non-zero exit on mismatch.")
    Term.(const run $ files_arg)

let lint_cmd =
  let sources_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SRC" ~doc:"Profile names or Verilog files.")
  in
  let werror_arg =
    Arg.(
      value & flag
      & info [ "werror" ] ~doc:"Treat warnings as errors (infos stay infos).")
  in
  let waive_arg =
    Arg.(
      value & opt_all string []
      & info [ "waive" ] ~docv:"RULES"
          ~doc:
            "Suppress diagnostics of the given rule ids \
             (comma-separated; repeatable), e.g. --waive HDL001,NL003.")
  in
  let list_rules_arg =
    Arg.(
      value & flag
      & info [ "list-rules" ] ~doc:"Print the rule registry and exit.")
  in
  let run sources style json werror waive list_rules =
    if list_rules then begin
      let columns =
        Report.Table.
          [ column "rule"; column "layer"; column "severity"; column "title" ]
      in
      let rows =
        List.map
          (fun (r : Lint.Registry.rule) ->
            [
              r.Lint.Registry.id;
              Lint.Registry.layer_name r.Lint.Registry.layer;
              Lint.Diag.severity_name r.Lint.Registry.default_severity;
              r.Lint.Registry.title;
            ])
          Lint.Registry.all
      in
      Report.Table.print ~columns ~rows
    end
    else begin
      if sources = [] then begin
        Printf.eprintf "lint: no sources given (profile names or .v files)\n";
        exit 2
      end;
      let waive =
        List.concat_map (String.split_on_char ',') waive
        |> List.map String.trim
        |> List.filter (( <> ) "")
      in
      List.iter
        (fun id ->
          if not (Lint.Registry.is_known id) then begin
            Printf.eprintf
              "lint: unknown rule id '%s' in --waive (see --list-rules)\n" id;
            exit 2
          end)
        waive;
      let lint_one src =
        match Workloads.Profiles.by_name src with
        | Some p ->
          (* profiles are linted from their generated source, with the
             profile's own case-lowering style *)
          Lint.Engine.lint_source ~style:p.Workloads.Profiles.style
            (Workloads.Profiles.source p)
        | None ->
          if Sys.file_exists src then
            Lint.Engine.lint_source ~style (read_file src)
          else begin
            Printf.eprintf
              "lint: %s: neither a profile name nor an existing file\n" src;
            exit 2
          end
      in
      let results =
        List.map
          (fun src -> (src, Lint.Diag.apply ~werror ~waive (lint_one src)))
          sources
      in
      let all = List.concat_map snd results in
      if json then
        print_endline
          (Obs.Json.to_string ~pretty:true (Lint.Engine.report_json results))
      else begin
        let columns =
          Report.Table.column "source" :: Lint.Diag.table_columns
        in
        let rows =
          List.concat_map
            (fun (src, diags) ->
              List.map
                (fun row -> src :: row)
                (Lint.Diag.table_rows diags))
            results
        in
        if rows <> [] then Report.Table.print ~columns ~rows;
        let errors, warnings, infos = Lint.Diag.counts all in
        Printf.printf "%d source%s: %d error%s, %d warning%s, %d info%s\n"
          (List.length results)
          (if List.length results = 1 then "" else "s")
          errors
          (if errors = 1 then "" else "s")
          warnings
          (if warnings = 1 then "" else "s")
          infos
          (if infos = 1 then "" else "s")
      end;
      if Lint.Diag.has_errors all then exit 1
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static analyzer over Verilog sources or profiles: AST \
          rules (case coverage, multiple drivers, truncation, read-before- \
          write), then netlist rules on the elaborated circuit.  Non-zero \
          exit iff any error-severity diagnostic remains after --waive / \
          --werror.")
    Term.(
      const run $ sources_arg $ style_arg $ json_arg $ werror_arg $ waive_arg
      $ list_rules_arg)

let validate_json_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"JSON files to check.")
  in
  let run files =
    let ok = ref true in
    List.iter
      (fun path ->
        if not (Sys.file_exists path) then begin
          Printf.eprintf "%s: no such file\n" path;
          ok := false
        end
        else if Filename.check_suffix path ".jsonl" then begin
          (* JSONL: every non-blank line is its own JSON document *)
          let lines = String.split_on_char '\n' (read_file path) in
          let bad = ref None in
          List.iteri
            (fun i line ->
              if !bad = None && String.trim line <> "" then
                match Obs.Json.parse line with
                | Ok _ -> ()
                | Error msg -> bad := Some (i + 1, msg))
            lines;
          match !bad with
          | None -> Printf.printf "%s: ok\n" path
          | Some (ln, msg) ->
            Printf.eprintf "%s: invalid JSONL at line %d (%s)\n" path ln msg;
            ok := false
        end
        else
          match Obs.Json.parse (read_file path) with
          | Ok _ -> Printf.printf "%s: ok\n" path
          | Error msg ->
            Printf.eprintf "%s: invalid JSON (%s)\n" path msg;
            ok := false)
      files;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "validate-json"
       ~doc:
         "Check that files parse as JSON (or, for .jsonl files, that every \
          line does); non-zero exit on failure.  Used by the CI smoke step \
          on --json / --trace / --provenance outputs.")
    Term.(const run $ files_arg)

let bench_diff_cmd =
  let baseline_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline smartly-bench-v1 document.")
  in
  let current_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Fresh smartly-bench-v1 document.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit non-zero if any metric regressed beyond its threshold.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Show every metric row, not just the ones that changed.")
  in
  let scale_arg =
    Arg.(
      value & opt float 1.0
      & info [ "threshold-scale" ] ~docv:"X"
          ~doc:
            "Multiply the noisy-kind (time, GC) tolerance bands by $(docv); \
             area and count metrics always compare exactly.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the diff as machine-readable JSON instead of a table.")
  in
  let run base_path cur_path check all scale json =
    let load path =
      match Perf.Schema.of_string (read_file path) with
      | Ok doc -> doc
      | Error msg ->
        Printf.eprintf "%s: %s\n" path msg;
        exit 2
    in
    let baseline = load base_path in
    let current = load cur_path in
    if baseline.Perf.Schema.section <> current.Perf.Schema.section then
      Printf.eprintf "note: comparing section %S against %S\n"
        baseline.Perf.Schema.section current.Perf.Schema.section;
    let d = Perf.Compare.diff ~scale ~baseline current in
    if json then
      print_endline
        (Obs.Json.to_string ~pretty:true (Perf.Compare.to_json d))
    else begin
      if Unix.isatty Unix.stdout && Sys.getenv_opt "NO_COLOR" = None then
        Report.Table.set_color true;
      print_string (Perf.Compare.render ~all d)
    end;
    let regs = Perf.Compare.regressions d in
    if check && (regs <> [] || d.Perf.Compare.missing_cases <> []) then begin
      List.iter
        (fun (case, (r : Perf.Compare.metric_diff)) ->
          Printf.eprintf "regressed: %s/%s\n" case r.Perf.Compare.name)
        regs;
      List.iter
        (fun case -> Printf.eprintf "missing case: %s\n" case)
        d.Perf.Compare.missing_cases;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two smartly-bench-v1 documents (as written by bench \
          --json / --update-baselines) metric by metric, using the same \
          per-kind noise thresholds as bench --check.  With --check, exit \
          non-zero when any metric regressed or a baseline case vanished.")
    Term.(
      const run $ baseline_arg $ current_arg $ check_arg $ all_arg $ scale_arg
      $ json_arg)

(* --- smartly report: render a run ledger, written by a process that may
   no longer exist (or may have died mid-pass).  Everything is read
   tolerantly: a missing file is an absent section, a torn events.jsonl
   tail is recovered around and reported by byte offset. *)

let report_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RUN"
          ~doc:"Run id (looked up under --ledger-root) or run directory.")
  in
  let run target root json =
    let dir =
      if Sys.file_exists target && Sys.is_directory target then target
      else begin
        let d = Filename.concat root target in
        if Sys.file_exists d && Sys.is_directory d then d
        else begin
          Printf.eprintf "report: no run directory %s (nor %s)\n" target d;
          exit 2
        end
      end
    in
    let read_opt name =
      let p = Filename.concat dir name in
      if Sys.file_exists p then Some (read_file p) else None
    in
    let manifest =
      Option.bind (read_opt "manifest.json") (fun text ->
          match Obs.Json.parse text with Ok j -> Some j | Error _ -> None)
    in
    let events, torn =
      match read_opt "events.jsonl" with
      | Some text -> Obs.Event.parse_jsonl_partial text
      | None -> [], None
    in
    (* ordering invariant of the stream — a report over a damaged ledger
       should say so rather than render garbage *)
    let ordered =
      let rec ok = function
        | (a : Obs.Event.t) :: (b : Obs.Event.t) :: rest ->
          a.Obs.Event.seq < b.Obs.Event.seq
          && Int64.compare a.Obs.Event.t_ns b.Obs.Event.t_ns <= 0
          && ok (b :: rest)
        | _ -> true
      in
      ok events
    in
    let find_kind k =
      List.find_opt (fun (e : Obs.Event.t) -> e.Obs.Event.kind = k) events
    in
    let run_start = find_kind Obs.Event.Run_start in
    let run_end = find_kind Obs.Event.Run_end in
    let budget_events =
      List.filter
        (fun (e : Obs.Event.t) -> e.Obs.Event.kind = Obs.Event.Budget_exceeded)
        events
    in
    let sat_queries =
      List.length
        (List.filter
           (fun (e : Obs.Event.t) -> e.Obs.Event.kind = Obs.Event.Sat_query)
           events)
    in
    (* per-pass aggregation from Pass_end events, in first-seen order *)
    let pass_order = ref [] in
    let pass_tbl : (string, int * float * int option) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun (e : Obs.Event.t) ->
        if e.Obs.Event.kind = Obs.Event.Pass_end then begin
          let name = e.Obs.Event.name in
          if not (Hashtbl.mem pass_tbl name) then
            pass_order := name :: !pass_order;
          let calls, secs, _ =
            Option.value
              (Hashtbl.find_opt pass_tbl name)
              ~default:(0, 0.0, None)
          in
          let s =
            Option.value
              (Obs.Json.mem_num "seconds" e.Obs.Event.data)
              ~default:0.0
          in
          Hashtbl.replace pass_tbl name
            (calls + 1, secs +. s, Obs.Json.mem_int "cells" e.Obs.Event.data)
        end)
      events;
    let passes =
      List.rev_map
        (fun name ->
          let calls, secs, cells = Hashtbl.find pass_tbl name in
          name, calls, secs, cells)
        !pass_order
    in
    let prov_events, prov_torn =
      match read_opt "provenance.jsonl" with
      | Some text ->
        let evs, t = Obs.Provenance.parse_jsonl_partial text in
        Some evs, t
      | None -> None, None
    in
    let flight =
      Option.bind (read_opt "flightrec.json") (fun text ->
          match Obs.Json.parse text with Ok j -> Some j | Error _ -> None)
    in
    let area_before =
      match Option.bind manifest (Obs.Json.mem_int "area_before") with
      | Some a -> Some a
      | None ->
        Option.bind run_start (fun (e : Obs.Event.t) ->
            Obs.Json.mem_int "area" e.Obs.Event.data)
    in
    let area_after =
      match Option.bind manifest (Obs.Json.mem_int "area_after") with
      | Some a -> Some a
      | None ->
        Option.bind run_end (fun (e : Obs.Event.t) ->
            Obs.Json.mem_int "area" e.Obs.Event.data)
    in
    let session =
      Option.bind run_end (fun (e : Obs.Event.t) ->
          Obs.Json.member "session" e.Obs.Event.data)
    in
    (* only runs with the rung enabled carry a non-null analysis object *)
    let analysis =
      match
        Option.bind run_end (fun (e : Obs.Event.t) ->
            Obs.Json.member "analysis" e.Obs.Event.data)
      with
      | Some (Obs.Json.Obj _ as a) -> Some a
      | _ -> None
    in
    let status =
      Option.value
        (Option.bind manifest (Obs.Json.mem_str "status"))
        ~default:"unknown"
    in
    if json then begin
      let open Obs.Json in
      let opt_int = function Some i -> num_of_int i | None -> Null in
      print_endline
        (to_string ~pretty:true
           (Obj
              [
                "schema", Str "smartly-report-v1";
                "dir", Str dir;
                "status", Str status;
                "manifest", Option.value manifest ~default:Null;
                ( "events",
                  Obj
                    [
                      "count", num_of_int (List.length events);
                      "ordered", Bool ordered;
                      "torn_at", opt_int torn;
                    ] );
                ( "passes",
                  List
                    (List.map
                       (fun (name, calls, secs, cells) ->
                         Obj
                           [
                             "name", Str name;
                             "calls", num_of_int calls;
                             "seconds", Num secs;
                             "cells", opt_int cells;
                           ])
                       passes) );
                ( "area",
                  Obj
                    [ "before", opt_int area_before;
                      "after", opt_int area_after ] );
                "sat_queries", num_of_int sat_queries;
                "session", Option.value session ~default:Null;
                "analysis", Option.value analysis ~default:Null;
                ( "budget",
                  List
                    (List.map
                       (fun (e : Obs.Event.t) -> e.Obs.Event.data)
                       budget_events) );
                "flight", Option.value flight ~default:Null;
                ( "provenance_summary",
                  match prov_events with
                  | Some evs -> Obs.Provenance.summary_json evs
                  | None -> Null );
                "provenance_torn_at", opt_int prov_torn;
              ]))
    end
    else begin
      Printf.printf "run %s\n"
        (Option.value
           (Option.bind manifest (Obs.Json.mem_str "run_id"))
           ~default:(Filename.basename dir));
      Printf.printf "  dir:    %s\n" dir;
      Printf.printf "  status: %s%s\n" status
        (if status = "running" then " (writer gone? ledger never finished)"
         else "");
      (match Option.bind manifest (Obs.Json.mem_list "argv") with
      | Some argv ->
        Printf.printf "  argv:   %s\n"
          (String.concat " " (List.filter_map Obs.Json.to_str argv))
      | None -> ());
      (match Option.bind manifest (Obs.Json.member "env") with
      | Some env ->
        Printf.printf "  env:    host=%s ocaml=%s git=%s\n"
          (Option.value (Obs.Json.mem_str "hostname" env) ~default:"?")
          (Option.value (Obs.Json.mem_str "ocaml_version" env) ~default:"?")
          (Option.value (Obs.Json.mem_str "git_rev" env) ~default:"?")
      | None -> ());
      Printf.printf "  events: %d%s%s\n" (List.length events)
        (if ordered then "" else "  [ORDERING VIOLATED]")
        (match torn with
        | Some off -> Printf.sprintf "  (torn tail at byte %d)" off
        | None -> "");
      (match area_before, area_after with
      | Some a0, Some a1 ->
        let red =
          if a0 = 0 then 0.0
          else 100.0 *. (1.0 -. (float_of_int a1 /. float_of_int a0))
        in
        Printf.printf "  area:   %d -> %d (%s)\n" a0 a1 (Report.Table.pct red)
      | _ -> ());
      if passes <> [] then begin
        let columns =
          Report.Table.
            [
              column "pass";
              column ~align:Right "calls";
              column ~align:Right "seconds";
              column ~align:Right "cells";
            ]
        in
        let rows =
          List.map
            (fun (name, calls, secs, cells) ->
              [
                name;
                Report.Table.int_ calls;
                Report.Table.secs secs;
                (match cells with
                | Some c -> Report.Table.int_ c
                | None -> "-");
              ])
            passes
        in
        Report.Table.print ~columns ~rows
      end;
      if sat_queries > 0 then
        Printf.printf "  sat queries: %d\n" sat_queries;
      (match analysis with
      | Some a ->
        Printf.printf
          "  analysis: hits=%d/%d forced=%d unreachable=%d sweeps=%d\n"
          (Option.value (Obs.Json.mem_int "hits" a) ~default:0)
          (Option.value (Obs.Json.mem_int "queries" a) ~default:0)
          (Option.value (Obs.Json.mem_int "forced" a) ~default:0)
          (Option.value (Obs.Json.mem_int "unreachable" a) ~default:0)
          (Option.value (Obs.Json.mem_int "sweeps" a) ~default:0)
      | None -> ());
      (match session with
      | Some s ->
        Printf.printf "  session: flushes=%d encodes=%d reuses=%d\n"
          (Option.value (Obs.Json.mem_int "flushes" s) ~default:0)
          (Option.value (Obs.Json.mem_int "cell_encodes" s) ~default:0)
          (Option.value (Obs.Json.mem_int "cell_reuses" s) ~default:0)
      | None -> ());
      (match budget_events with
      | [] -> Printf.printf "  budget: no overruns\n"
      | evs ->
        List.iter
          (fun (e : Obs.Event.t) ->
            let d = e.Obs.Event.data in
            Printf.printf
              "  budget: pass %s exceeded (%.1f ms elapsed%s, %d truncated)\n"
              e.Obs.Event.name
              (Option.value (Obs.Json.mem_num "elapsed_ms" d) ~default:0.0)
              (match Obs.Json.mem_int "budget_ms" d with
              | Some ms -> Printf.sprintf " of %d ms" ms
              | None -> "")
              (Option.value (Obs.Json.mem_int "truncated" d) ~default:0))
          evs);
      (match flight with
      | Some f ->
        Printf.printf
          "  flight recorder: reason=%s, in-flight pass=%s, %d of %d events \
           retained\n"
          (Option.value (Obs.Json.mem_str "reason" f) ~default:"?")
          (Option.value (Obs.Json.mem_str "current_pass" f) ~default:"none")
          (Option.value (Obs.Json.mem_int "retained" f) ~default:0)
          (Option.value (Obs.Json.mem_int "seen" f) ~default:0)
      | None -> ());
      (match prov_events with
      | Some evs ->
        let s = Obs.Provenance.summary_json evs in
        Printf.printf "  provenance: %d events, %d cells removed%s\n"
          (Option.value (Obs.Json.mem_int "events" s) ~default:0)
          (Option.value (Obs.Json.mem_int "cells_removed" s) ~default:0)
          (match prov_torn with
          | Some off -> Printf.sprintf "  (torn tail at byte %d)" off
          | None -> "")
      | None -> ())
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a human (or, with --json, machine-readable) summary of a \
          run ledger: passes, timings, area trajectory, session \
          counters, budget verdicts, flight-recorder dump.  Works from the \
          ledger files alone — including ledgers of runs that died \
          mid-pass, whose torn event stream is recovered and reported.")
    Term.(const run $ target_arg $ ledger_root_arg $ json_arg)

(* --- serve: batch optimization daemon --- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at PATH instead of serving \
             stdio.  Connections are accepted and served one at a time; \
             the warm replay store is shared across all of \
             them.  An existing socket file at PATH is replaced.")
  in
  let budget_ms_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Default per-pass wall budget (the watchdog of smartly opt's \
             --budget-ms) for jobs whose request carries no budget_ms \
             field.")
  in
  let run style socket budget_ms =
    let load ~kind source =
      match kind with
      | "profile" | "verilog" | "auto" -> (
        try try_load_circuit ~style source
        with e -> Error (Printexc.to_string e))
      | k -> Error (Printf.sprintf "unknown kind %S" k)
    in
    let cfg =
      { Smartly.Config.default with Smartly.Config.pass_budget_ms = budget_ms }
    in
    let daemon = Smartly.Serve.create ~cfg ~load () in
    match socket with
    | None -> ignore (Smartly.Serve.run daemon stdin stdout)
    | Some path ->
      if Sys.file_exists path then Sys.remove path;
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      Printf.eprintf "serve: listening on %s\n%!" path;
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let shutdown =
          try Smartly.Serve.run daemon ic oc with _ -> false
        in
        (* ic and oc share the descriptor: closing ic closes both *)
        (try close_in ic with _ -> ());
        if not shutdown then accept_loop ()
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          try Sys.remove path with Sys_error _ -> ())
        accept_loop
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batch optimization daemon: one JSON request per line \
          (op optimize/ping/stats/shutdown), one smartly-report-v1 \
          response per job, over stdio or a Unix socket.  A warm \
          cross-job pass-replay store persists for the daemon's lifetime, \
          so a recurring design in a batch replays whole sat_elim passes \
          instead of walking them again.")
    Term.(const run $ style_arg $ socket_arg $ budget_ms_arg)

let main_cmd =
  let doc = "smaRTLy: RTL muxtree optimization (DAC'25 reproduction)" in
  Cmd.group
    (Cmd.info "smartly" ~version:"1.0.0" ~doc)
    [
      list_cmd; generate_cmd; stats_cmd; analyze_cmd; opt_cmd; cec_cmd;
      dump_cmd;
      write_verilog_cmd; explain_cmd; replay_cmd; validate_json_cmd; lint_cmd;
      bench_diff_cmd; report_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
