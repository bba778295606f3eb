(** Per-pass resource watchdog: wall-time and allocation budgets with
    graceful degradation.

    The driver {!arm}s it before each pass from the {!Config} budgets;
    the expensive inner loops — the SAT solver's search included — poll
    {!exhausted} and abandon remaining work (interrupted SAT calls,
    forgone queries, skipped muxtree roots) once it trips;
    {!disarm} reports whether — and by how much — the pass overran.
    Exceeding a budget is never an error: the flow completes with
    partial optimization and a [Budget_exceeded] event on the bus. *)

(** What one overrunning pass abandoned. *)
type overrun = {
  pass : string;
  budget_ms : int option;  (** configured wall budget, if any *)
  elapsed_ms : float;  (** wall time actually spent *)
  alloc_budget_mw : float option;  (** configured allocation budget *)
  alloc_mw : float;  (** millions of words actually allocated *)
  truncated : int;  (** work items abandoned after the trip *)
}

val arm : ?cfg:Config.t -> pass:string -> unit -> unit
(** Start watching [pass] under [cfg]'s budgets.  With both budgets
    [None] this disarms instead, making {!exhausted} one ref read. *)

val armed : unit -> bool

val exhausted : unit -> bool
(** [true] once the armed pass has exceeded a budget; sticky until
    {!disarm}.  Cheap enough to poll at every solver conflict and
    decision. *)

val note_truncation : unit -> unit
(** Record one abandoned work item (bumps the [budget.truncated]
    counter). *)

val disarm : unit -> overrun option
(** Stop watching; [Some] iff the budget tripped while armed. *)

val reset : unit -> unit
(** Forget any armed state (test scoping). *)

val overrun_to_json : overrun -> Obs.Json.t
