(** A persistent incremental SAT session: one solver and one Tseitin
    variable map serving every redundancy query over a circuit.

    Cells are encoded lazily, once, with their clauses guarded by a
    per-cell activation literal; a query assumes the guards of exactly
    its sub-graph's cells, which keeps the accumulated database
    equisatisfiable with a fresh per-query encoding while learned clauses
    survive across queries.  Mutated cells are detected structurally and
    flush the session (clauses cannot be retracted). *)

open Netlist

type t

val create : unit -> t

val prepare : t -> Circuit.t -> int list -> Lit.t list * int list
(** [prepare t c ids] lazily encodes any of [ids] not yet in the session
    and returns [(assumptions, relevant)].  The assumption literals of
    the query are the activation guards of [ids] positively, and the
    guard of every other encoded group negated (switching inactive
    groups off costs the search nothing, where leaving them free would
    drag their clauses through watch traversal).  [relevant] is the
    union of the active groups' solver variables, to pass to
    {!Solver.solve} so the search stops once the query's own cone is
    assigned instead of deciding the whole accumulated database.  If any
    previously encoded cell of [ids] no longer matches the circuit, the
    whole session is flushed and re-encoded first (invalidating all
    previously returned literals). *)

val encoder : t -> Tseitin.t
(** The live encoder; invalidated by the next flush.  Use it for
    assumption literals ({!Tseitin.assume_lit}) and the query itself. *)

val flush : t -> unit
(** Drop everything: fresh solver, empty variable and cell maps. *)

val flushes : t -> int
(** Times the session was flushed by staleness (also a metric). *)
