(** The composite lint pipeline the CLI and tests drive.

    [lint_source] runs the whole stack on one Verilog source: parse, AST
    rules, elaborate, netlist rules.  Frontend failures (lex, parse,
    elaboration) become located [HDL000] error diagnostics instead of
    exceptions, so linting a broken file still produces a report. *)

val lint_source : ?style:Hdl.Elaborate.case_style -> string -> Diag.t list

val report_json : (string * Diag.t list) list -> Obs.Json.t
(** The [--json] report: [{"schema": "smartly-lint-v1", "sources": [...],
    "errors": N, "warnings": N, "infos": N}] with one entry per linted
    source carrying its name and diagnostics. *)
