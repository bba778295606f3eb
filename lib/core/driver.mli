(** Top-level optimization flows.

    {!yosys} is the baseline [opt] loop with [opt_muxtree]; {!smartly}
    replaces [opt_muxtree] with SAT-based redundancy elimination and
    muxtree restructuring, keeping everything else identical — exactly the
    paper's experimental setup.  Both run their passes through one loop:
    each pass is bracketed by [Pass_start]/[Pass_end] events on
    {!Obs.Event} and armed with the {!Config} budgets through {!Budget},
    each iteration is a [driver.iteration] span, and the loop stops after
    an iteration in which no pass made progress. *)

open Netlist

type result = {
  iterations : int;
  overruns : Budget.overrun list;
      (** passes that exceeded a {!Config} budget (each is also a
          [Budget_exceeded] event on the bus); the flow still completed,
          with those passes truncated and skipped thereafter *)
}
(** What each pass did is in {!Obs.Metrics}; with a bus subscriber,
    each [Pass_end] event also carries a [counters] object, the nonzero
    changes of the registry's counters over the pass body. *)

val yosys :
  ?after_pass:(string -> Circuit.t -> unit) -> Circuit.t -> result
(** opt_expr, opt_merge, opt_muxtree and opt_clean to fixpoint (capped at
    16 iterations).  [after_pass] runs after each sub-pass with its name
    and the circuit as that pass left it; the invariant checker hooks in
    here.  No budget is armed. *)

val smartly :
  ?cfg:Config.t ->
  ?after_pass:(string -> Circuit.t -> unit) ->
  Circuit.t ->
  result
(** Interleaves expression folding, cell sharing, SAT elimination,
    restructuring and cleanup until a fixpoint (capped at 6 iterations —
    measured convergence is 2-4).  [after_pass] runs after each sub-pass
    (["opt_expr"], ["opt_merge"], ["sat_elim"], ["restructure"],
    ["opt_clean"]) with the circuit as that pass left it; the lint
    subsystem's invariant checker hooks in here.

    A pass that exceeds its {!Config} budget is truncated (its inner
    loops poll the watchdog), reported via [Budget_exceeded], and
    skipped on subsequent iterations. *)
