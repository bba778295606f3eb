(* smartly — command-line driver.

   smartly list                           list built-in workload profiles
   smartly generate NAME [-o FILE]        emit the profile's Verilog source
   smartly stats SRC [--json]             netlist statistics and AIG area
   smartly opt SRC [--flow FLOW] [...]    optimize and report
   smartly cec A B                        combinational equivalence check
   smartly explain LOG|RUN                area-attribution from a provenance log
                                          or a run ledger
   smartly replay FILE.cnf...             re-run captured SAT queries
   smartly validate-json FILE...          check files parse as JSON (.jsonl per line)
   smartly lint SRC... [--json] [--werror] [--waive RULES]
                                          static analysis: AST rules + netlist rules;
                                          --list-rules prints the registry
   smartly report RUN [--json]            render a run ledger
   smartly serve [--socket PATH]          batch daemon: JSONL jobs in, one
                                          smartly-job-v1 per job out, warm
                                          cross-job replay store

   SRC is either a built-in profile name or a path to a Verilog file in the
   supported subset.

   Observability: [opt] records the run's event stream once and renders
   everything from it.  [opt --trace FILE] writes a Chrome trace_event
   JSON of the run (open in chrome://tracing or Perfetto); [opt --json]
   prints the run report (smartly-report-v4: area, per-pass wall time and
   counters, per-span wall time, SAT log, metrics, provenance summary) to
   stdout, moving the human summary to stderr, and [smartly report]
   prints the same document from a run's ledger; [opt -v] prints each
   pass call's counters from the same stream; [opt --provenance FILE]
   writes one JSONL event per netlist mutation, which [smartly explain]
   aggregates into a per-mechanism area-attribution table, as it does a
   ledger's event stream; [opt --sat-dump DIR] writes the hardest SAT
   queries as self-contained DIMACS files for [smartly replay]. *)

open Cmdliner

(* Every file a command reads goes through here: a path that cannot be
   read (missing, a directory, unreadable) is one "PATH: MSG" line. *)
let read_file path : (string, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg ->
    (* open errors name the path already; read errors do not *)
    Error
      (if String.starts_with ~prefix:path msg then msg
       else Printf.sprintf "%s: %s" path msg)

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
    Result.bind (read_file src) @@ fun text ->
    match Hdl.Elaborate.elaborate_string ~style text with
    | c -> Ok c
    | exception Hdl.Lexer.Lex_error (msg, pos) ->
      located "lex error" msg (Some (Hdl.Loc.of_pos pos))
    | exception Hdl.Parser.Parse_error (msg, pos) ->
      located "parse error" msg (Some (Hdl.Loc.of_pos pos))
    | exception Hdl.Elaborate.Elab_error (msg, span) ->
      located "elaboration error" msg span)

(* opt, stats, cec and serve need an acyclic netlist with one driver per
   bit: a latch or a shorted net is one "SRC: MSG" line naming the
   Validate finding, not an exception out of the flow.  analyze refuses
   only the cycle; dump, write-verilog and lint take any netlist, since
   lint is how a user locates the latch. *)
let try_load_checked ?(single_driver = true) ~style src :
    (Netlist.Circuit.t, string) result =
  Result.bind (try_load_circuit ~style src) (fun c ->
      match
        List.find_opt
          (function
            | Netlist.Validate.Cyclic _ -> true
            | Netlist.Validate.Multiple_drivers _ -> single_driver
            | Netlist.Validate.Dangling_wire_bit _
            | Netlist.Validate.Width_violation _
            | Netlist.Validate.Unknown_wire _ -> false)
          (Netlist.Validate.check c)
      with
      | None -> Ok c
      | Some issue ->
        Error (Fmt.str "%s: %a" src Netlist.Validate.pp_issue issue))

(* The one-shot subcommands: print the message and exit 2, lint's code
   for a source it cannot read. *)
let exit_on_error = function
  | Ok c -> c
  | Error msg ->
    prerr_endline msg;
    exit 2

let load_circuit ~style src = exit_on_error (try_load_circuit ~style src)
let load_checked ?single_driver ~style src =
  exit_on_error (try_load_checked ?single_driver ~style src)

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
    & info [ "check" ]
        ~doc:
          "Equivalence-check the result against the input; exit 1 unless \
           it is proven equivalent.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Print one line per pass call with the counters it moved.")

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
           $(b,opt) run records its manifest, event stream (provenance \
           included), trace and SAT dumps under \
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
    | None ->
      Printf.eprintf "unknown profile %s\n" name;
      exit 2
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
    let c = load_checked ~style src in
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
    let c = load_checked ~single_driver:false ~style src in
    match Analysis.Fixpoint.run c (Netlist.Topo.sort c) with
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

let flow_name = function
  | `None -> "none"
  | `Yosys -> "yosys"
  | `Smartly -> "smartly"
  | `Sat -> "sat"
  | `Rebuild -> "rebuild"

let run_flow ?after_pass ?(pass_budget_ms = None)
    ?(pass_alloc_budget_mw = None) flow (c : Netlist.Circuit.t) :
    Smartly.Driver.result =
  match flow with
  | `None -> { Smartly.Driver.iterations = 0; overruns = [] }
  | `Yosys -> Smartly.Driver.yosys ?after_pass c
  | (`Smartly | `Sat | `Rebuild) as f ->
    let cfg =
      match f with
      | `Sat -> Smartly.Config.sat_only
      | `Rebuild -> Smartly.Config.rebuild_only
      | `Smartly -> Smartly.Config.default
    in
    let cfg =
      { cfg with Smartly.Config.pass_budget_ms; pass_alloc_budget_mw }
    in
    Smartly.Driver.smartly ~cfg ?after_pass c

(* A [counters] object of a [Pass_end] event or a run report's pass as
   " name=value" pairs. *)
let counters_text = function
  | Some (Obs.Json.Obj kvs) ->
    String.concat ""
      (List.map
         (fun (k, v) ->
           Printf.sprintf " %s=%d" k
             (Option.value (Obs.Json.to_int v) ~default:0))
         kvs)
  | _ -> ""

let check_invariants_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Re-validate the netlist and SAT-check equivalence after every \
           sub-pass; on a violation, name the first pass that broke an \
           invariant and exit non-zero.")

let opt_cmd =
  let run src style flow check verbose trace json provenance sat_dump
      check_invariants no_ledger ledger_root
      pass_budget_ms pass_alloc_budget_mw progress =
    let c = load_checked ~style src in
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
       flushed events.jsonl, whose last open pass is the one in flight,
       and a manifest with status "interrupted" *)
    (match ledger with
    | Some l ->
      Sys.set_signal Sys.sigint
        (Sys.Signal_handle
           (fun _ ->
             Obs.Ledger.finish ~status:"interrupted" l;
             exit 130))
    | None -> ());
    (* the run's stream, recorded once, feeds the --trace file, the
       --provenance log, the --json report and the ledger's trace.json;
       with none of those nothing is recorded and tracing costs nothing *)
    let recording =
      if verbose || trace <> None || provenance <> None || json
         || ledger <> None
      then
        Some (Obs.Event.record ~name:"opt" ())
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
    let result =
      try
        run_flow ?after_pass ~pass_budget_ms ~pass_alloc_budget_mw flow c
      with e ->
        Option.iter
          (Obs.Ledger.finish ~status:"crashed"
             ~extra:[ "reason", Obs.Json.Str (Printexc.to_string e) ])
          ledger;
        raise e
    in
    let dt = Obs.Clock.now () -. t0 in
    let area1 = Aiger.Aigmap.aig_area c in
    (* inside the run, so the live report and the ledger's both hold the
       check's spans *)
    let verdict = if check then Some (Equiv.check orig c) else None in
    let overruns = result.Smartly.Driver.overruns in
    Obs.Event.emit ~name:src
      ~data:
        (Obs.Json.Obj
           [
             "area", Obs.Json.num_of_int area1;
             ( "iterations",
               Obs.Json.num_of_int result.Smartly.Driver.iterations );
             "wall_seconds", Obs.Json.Num dt;
             "sat_log", Smartly.Engine.Sat_log.to_json ();
             "metrics", Obs.Metrics.to_json ();
           ])
      Obs.Event.Run_end;
    let events =
      match recording with
      | Some (sub, recorded) ->
        Obs.Event.unsubscribe sub;
        recorded ()
      | None -> []
    in
    let spans = lazy (Obs.Trace.of_events events) in
    (* a bad trace path must not lose the run's report: write after the
       flow, catch the failure, and exit nonzero only at the end *)
    let trace_error = ref None in
    (match trace with
    | Some path -> (
      try
        Obs.Trace.write_chrome_json ~path (Lazy.force spans);
        Printf.eprintf "trace: wrote %s (%d spans)\n%!" path
          (List.length (Lazy.force spans))
      with Sys_error msg -> trace_error := Some msg)
    | None -> ());
    (match provenance with
    | Some path -> (
      try
        let prov = Obs.Provenance.of_events events in
        Obs.Provenance.write_jsonl ~path prov;
        Printf.eprintf "provenance: wrote %s (%d events)\n%!" path
          (List.length prov)
      with Sys_error msg -> trace_error := Some msg)
    | None -> ());
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
    (* one line per pass call: the counters it moved *)
    if verbose then
      List.iter
        (fun (e : Obs.Event.t) ->
          if e.Obs.Event.kind = Obs.Event.Pass_end then
            Fmt.pf human "%s:%s@." e.Obs.Event.name
              (counters_text (Obs.Json.member "counters" e.Obs.Event.data)))
        events;
    let red =
      if area0 = 0 then 0.0
      else 100.0 *. (1.0 -. (float_of_int area1 /. float_of_int area0))
    in
    Fmt.pf human "%s: AIG area %d -> %d (%s reduction) in %s@."
      (flow_name flow) area0 area1 (Report.Table.pct red)
      (Report.Table.secs dt);
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
        (Obs.Json.to_string ~pretty:true (Obs.Run_report.of_events events));
    (* only a proven equivalence passes: inconclusive proves nothing *)
    let not_equivalent =
      match verdict with
      | None -> false
      | Some v ->
        Fmt.pf human "equivalence: %a@." Equiv.pp_verdict v;
        v <> Equiv.Equivalent
    in
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
         Obs.Trace.write_chrome_json ~path:(Obs.Ledger.path l "trace.json")
           (Lazy.force spans);
         if Smartly.Engine.Sat_log.hardest () <> [] then begin
           let dir = Obs.Ledger.path l "sat" in
           if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
           ignore (Smartly.Engine.Sat_log.dump ~dir)
         end
       with Sys_error msg | Unix.Unix_error (_, msg, _) ->
         Printf.eprintf "ledger: cannot write artifact: %s\n%!" msg);
      let status =
        if !invariant_failed then "invariant-failed"
        else if not_equivalent then "not-equivalent"
        else "ok"
      in
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
    if !trace_error <> None || !invariant_failed || not_equivalent then exit 1
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Optimize a circuit and report the AIG area.")
    Term.(
      const run $ src_arg $ style_arg $ flow_arg $ check_arg $ verbose_arg
      $ trace_arg $ json_arg $ provenance_arg $ sat_dump_arg
      $ check_invariants_arg $ no_ledger_arg $ ledger_root_arg $ pass_budget_ms_arg
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
    let c1 = load_checked ~style src1 in
    let c2 = load_checked ~style src2 in
    let verdict = Equiv.check c1 c2 in
    Fmt.pr "%a@." Equiv.pp_verdict verdict;
    if verdict <> Equiv.Equivalent then exit 1
  in
  Cmd.v
    (Cmd.info "cec"
       ~doc:
         "Combinational equivalence check of two circuits; exits 1 unless \
          they are proven equivalent.")
    Term.(const run $ src_arg $ src2_arg $ style_arg)

(* A run named on the command line: a run directory, or a run id under
   the ledger root. *)
let run_dir ~root target =
  if Sys.file_exists target then
    if Sys.is_directory target then Some target else None
  else
    let d = Filename.concat root target in
    if Sys.file_exists d && Sys.is_directory d then Some d else None

let explain_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LOG|RUN"
          ~doc:
            "Provenance JSONL file written by $(b,opt --provenance), or a \
             run: its ledger directory, or its run id under \
             $(b,--ledger-root).")
  in
  let run target root json =
    let fail msg =
      prerr_endline msg;
      exit 1
    in
    let evs =
      match run_dir ~root target with
      | None -> (
        (* a provenance log, parsed strictly *)
        match read_file target with
        | Error msg -> fail msg
        | Ok text -> (
          match Obs.Provenance.parse_jsonl text with
          | Ok evs -> evs
          | Error msg -> fail (Printf.sprintf "%s: %s" target msg)))
      | Some dir -> (
        (* a run: the provenance events of its ledger's stream *)
        let path = Filename.concat dir "events.jsonl" in
        match read_file path with
        | Error msg -> fail msg
        | Ok text ->
          let evs, torn = Obs.Event.parse_jsonl_partial text in
          Option.iter
            (Printf.eprintf
               "%s: torn tail at byte %d; explaining the events before it\n%!"
               path)
            torn;
          Obs.Provenance.of_events evs)
    in
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
         "Aggregate the provenance of a run into a per-mechanism \
          area-attribution table, from a $(b,--provenance) log or from the \
          run's ledger.")
    Term.(const run $ target_arg $ ledger_root_arg $ json_arg)

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
        match
          Result.bind (read_file path) (fun text ->
              Result.map_error (Printf.sprintf "%s: %s" path)
                (Cdcl.Dimacs.parse_string_ext text))
        with
        | Error msg ->
          prerr_endline msg;
          ok := false
        | Ok (cnf, comments) ->
          let s = Cdcl.Dimacs.load cnf in
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
              path got conflicts (Report.Table.secs dt))
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
        | None when not (Sys.file_exists src) ->
          Printf.eprintf
            "lint: %s: neither a profile name nor an existing file\n" src;
          exit 2
        | None -> (
          match read_file src with
          | Ok text -> Lint.Engine.lint_source ~style text
          | Error msg ->
            Printf.eprintf "lint: %s\n" msg;
            exit 2)
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
        match read_file path with
        | Error msg ->
          prerr_endline msg;
          ok := false
        | Ok text when Filename.check_suffix path ".jsonl" -> (
          (* JSONL: every non-blank line is its own JSON document *)
          let lines = String.split_on_char '\n' text in
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
            ok := false)
        | Ok text -> (
          match Obs.Json.parse text with
          | Ok _ -> Printf.printf "%s: ok\n" path
          | Error msg ->
            Printf.eprintf "%s: invalid JSON (%s)\n" path msg;
            ok := false))
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
      match read_file path with
      | Error msg ->
        prerr_endline msg;
        exit 2
      | Ok text -> (
        match Perf.Schema.of_string text with
        | Ok doc -> doc
        | Error msg ->
          Printf.eprintf "%s: %s\n" path msg;
          exit 2)
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
   no longer exist (or may have died mid-pass), as the run report that
   [opt --json] printed for it.  Every ledger starts with its manifest,
   so a directory without manifest.json is not a run (exit 1); anything
   else is read tolerantly: a missing file is an absent section, a torn
   events.jsonl tail is recovered around and reported by byte offset. *)

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
      match run_dir ~root target with
      | Some d -> d
      | None ->
        Printf.eprintf "report: no run directory %s (nor %s)\n" target
          (Filename.concat root target);
        exit 2
    in
    let manifest =
      match read_file (Filename.concat dir "manifest.json") with
      | Ok text -> Result.to_option (Obs.Json.parse text)
      | Error msg ->
        prerr_endline msg;
        exit 1
    in
    let events, torn_at =
      match read_file (Filename.concat dir "events.jsonl") with
      | Ok text -> Obs.Event.parse_jsonl_partial text
      | Error _ -> [], None
    in
    let doc = Obs.Run_report.of_events ?manifest ?torn_at events in
    if json then print_endline (Obs.Json.to_string ~pretty:true doc)
    else begin
      let open Obs.Json in
      let section key =
        match member key doc with Some Null | None -> None | j -> j
      in
      let int_ key j = Option.value (mem_int key j) ~default:0 in
      let str key j ~default = Option.value (mem_str key j) ~default in
      let status = str "status" doc ~default:"unknown" in
      Printf.printf "run %s\n"
        (Option.value
           (Option.bind manifest (mem_str "run_id"))
           ~default:(Filename.basename dir));
      Printf.printf "  dir:    %s\n" dir;
      Printf.printf "  status: %s%s\n" status
        (if status = "running" then " (writer gone? ledger never finished)"
         else "");
      Option.iter
        (Printf.printf "  reason: %s\n")
        (Option.bind manifest (mem_str "reason"));
      Option.iter
        (List.iter (fun e ->
             Printf.printf "  sink error: %s: %s\n"
               (str "sink" e ~default:"?") (str "error" e ~default:"?")))
        (Option.bind manifest (mem_list "sink_errors"));
      (match Option.bind manifest (mem_list "argv") with
      | Some argv ->
        Printf.printf "  argv:   %s\n"
          (String.concat " " (List.filter_map to_str argv))
      | None -> ());
      (match Option.bind manifest (member "env") with
      | Some env ->
        Printf.printf "  env:    host=%s ocaml=%s git=%s\n"
          (str "hostname" env ~default:"?")
          (str "ocaml_version" env ~default:"?")
          (str "git_rev" env ~default:"?")
      | None -> ());
      let events = Option.value (member "events" doc) ~default:Null in
      Printf.printf "  events: %d%s%s\n" (int_ "count" events)
        (if member "ordered" events = Some (Bool false) then
           "  [ORDERING VIOLATED]"
         else "")
        (match mem_int "torn_at" events with
        | Some off -> Printf.sprintf "  (torn tail at byte %d)" off
        | None -> "");
      (* reduction_pct is null unless both areas are known *)
      (match mem_num "reduction_pct" doc, member "area" doc with
      | Some red, Some area ->
        Printf.printf "  area:   %d -> %d (%s)\n" (int_ "before" area)
          (int_ "after" area) (Report.Table.pct red)
      | _ -> ());
      (match Option.value (mem_list "passes" doc) ~default:[] with
      | [] -> ()
      | passes ->
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
            (fun p ->
              [
                str "name" p ~default:"?";
                Report.Table.int_ (int_ "calls" p);
                Report.Table.secs
                  (Option.value (mem_num "seconds" p) ~default:0.0);
                (match mem_int "cells" p with
                | Some c -> Report.Table.int_ c
                | None -> "-");
              ])
            passes
        in
        Report.Table.print ~columns ~rows;
        List.iter
          (fun p ->
            match counters_text (member "counters" p) with
            | "" -> ()
            | text -> Printf.printf "  %s:%s\n" (str "name" p ~default:"?") text)
          passes);
      (match int_ "sat_queries" doc with
      | 0 -> ()
      | n -> Printf.printf "  sat queries: %d\n" n);
      (match Option.bind (section "metrics") (member "counters") with
      | Some s ->
        Printf.printf "  session: flushes=%d encodes=%d reuses=%d\n"
          (int_ "sat_session.flushes" s)
          (int_ "sat_session.cell_encodes" s)
          (int_ "sat_session.cell_reuses" s)
      | None -> ());
      (match Option.value (mem_list "budget" doc) ~default:[] with
      | [] -> Printf.printf "  budget: no overruns\n"
      | overruns ->
        List.iter
          (fun o ->
            Printf.printf
              "  budget: pass %s exceeded (%.1f ms elapsed%s, %d truncated)\n"
              (str "pass" o ~default:"?")
              (Option.value (mem_num "elapsed_ms" o) ~default:0.0)
              (match mem_int "budget_ms" o with
              | Some ms -> Printf.sprintf " of %d ms" ms
              | None -> "")
              (int_ "truncated" o))
          overruns);
      Option.iter
        (Printf.printf "  in flight: %s (the stream ends inside this pass)\n")
        (mem_str "in_flight_pass" doc);
      let p = Option.value (member "provenance_summary" doc) ~default:Null in
      Printf.printf "  provenance: %d events, %d cells removed\n"
        (int_ "events" p) (int_ "cells_removed" p)
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a run ledger as the run report $(b,opt --json) printed for \
          the run (with --json, the same smartly-report-v4 document plus \
          the ledger's status and manifest), or as a human summary: \
          passes, timings, each pass's counters, area trajectory, session \
          counters, budget verdicts, and the pass in flight if the run \
          died.  Works from the ledger files alone — including ledgers \
          of runs that died mid-pass, whose torn event stream is \
          recovered and reported.")
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
        try try_load_checked ~style source
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
          (op optimize/ping/stats/shutdown), one smartly-job-v1 \
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
