(** The combined decision engine: is a signal forced under path facts?

    Resolution ladder, as in the paper: direct lookup (the Yosys
    identical-signal rule), inference rules, exhaustive bit-parallel
    simulation when the sub-graph has few free inputs, an incremental SAT
    query otherwise, and a give-up threshold. *)

open Netlist

type verdict =
  | Forced of bool
  | Free  (** provably takes both values *)
  | Unreachable  (** the facts are contradictory: dead path *)
  | Unknown  (** thresholds exceeded or budget exhausted *)

(** Which rung of the ladder produced a verdict — the provenance half of
    {!determine_how}. *)
type source =
  | Via_lookup  (** already known: the identical-signal rule *)
  | Via_rule of string  (** inference rule family that derived the value *)
  | Via_sim  (** exhaustive bit-parallel simulation *)
  | Via_sat of int  (** SAT query, carrying the query id *)
  | Via_forgone  (** thresholds exceeded; verdict is [Unknown] *)

(** Per-SAT-query telemetry and a bounded buffer of the hardest queries
    (by conflicts), each with a self-contained DIMACS dump replayable by
    [smartly replay].  Call {!Sat_log.reset} to scope the log to one
    run.  The engine's counts (rule hits, simulation and SAT queries,
    solver effort, forgone queries, sub-graph cells) live in the
    {!Obs.Metrics} registry under [engine.*] and [subgraph.kept]. *)
module Sat_log : sig
  type entry = {
    id : int;  (** query id, 0-based per {!reset} *)
    verdict : string;
        (** [forced_true | forced_false | free | unreachable | unknown] *)
    solve : Cdcl.Solver.result;  (** result of the query's final solve *)
    mode : string;  (** ["fresh"] or ["session"] *)
    conflicts : int;  (** over both polarity solves *)
    decisions : int;
    propagations : int;
    wall_s : float;
    vars : int;
    clauses : int;
    dimacs : unit -> string;
        (** full DIMACS text, metadata comment line included — the CNF
            is already materialized; only its text is rendered late *)
  }

  val reset : ?keep:int -> unit -> unit
  (** Clear the log and restart query ids; [keep] (default 8) bounds the
      hardest-query buffer. *)

  val hardest : unit -> entry list
  (** Hardest first. *)

  val solve_name : Cdcl.Solver.result -> string
  (** ["SAT" | "UNSAT" | "UNKNOWN"] — matches the [solve=] field of the
      DIMACS metadata comment. *)

  val to_json : unit -> Obs.Json.t
  (** [{"total", "hardest": [...]}] — the [sat_queries] report section;
      [total] reads the [engine.sat_queries] counter. *)

  val dump : dir:string -> string list
  (** Write each hardest query as [query_NNNN.cnf] under [dir]; returns
      the paths written (easiest first). *)
end

val query_sat :
  ?session:Cdcl.Session.t ->
  Circuit.t ->
  cells:int list ->
  facts:(Bits.bit * bool) list ->
  budget:int ->
  target:Bits.bit ->
  verdict
(** One forced-value query over [cells] (drivers first) under the
    assumed [facts].  Without [session], a fresh Tseitin encoding and
    solver; with [session], the persistent solver answers it — [cells]
    are lazily encoded as guarded clause groups and activated by
    assumptions, so the verdict is the same while learned clauses and
    the variable map carry over to the next query.  The query's
    conflict/decision/propagation deltas are added to the
    {!Obs.Metrics} registry.

    The solver polls {!Budget.exhausted} at every conflict and decision:
    once the armed pass budget trips, a running query stops with
    [Unknown].  Without a session this is the fresh
    encoding the differential tests use as their oracle. *)

val determine :
  ?session:Cdcl.Session.t ->
  Config.t ->
  Subgraph.t ->
  Inference.known ->
  target:Bits.bit ->
  verdict
(** Extract the bounded sub-graph from the cones of the target and the
    known signals on the kernel, and run the ladder: the rules on the
    kernel's fact store, then simulation or SAT on the cells in rank
    order and the facts on the sub-graph's bits.  The caller's known map
    is never polluted with inferred values.  [session] routes SAT queries
    through the persistent incremental solver. *)

val determine_how :
  ?session:Cdcl.Session.t ->
  Config.t ->
  Subgraph.t ->
  Inference.known ->
  target:Bits.bit ->
  verdict * source
(** {!determine}, also reporting which ladder rung resolved the query. *)
