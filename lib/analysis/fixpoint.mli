(** Worklist fixpoint of the two abstract domains over a cell DAG.

    Forward transfer functions in topological order, backward "assume"
    narrowing in reverse order, swept until nothing strengthens (or a
    small sweep cap, for predictable cost).

    The abstract state always over-approximates the set of concrete
    executions compatible with the seeds, so a definite bit is a sound
    [Forced] verdict and {!Contradiction} a sound dead-path verdict; the
    analysis can never conclude [Free]. *)

open Netlist

type outcome = {
  state : Absval.state;
  sweeps : int;  (** sweeps run until convergence (or the cap) *)
}

type result =
  | Converged of outcome
  | Contradiction
      (** the seeds admit no concrete execution: a dead path *)

val default_max_sweeps : int

val run :
  ?seeds:(Bits.bit * bool) list ->
  ?max_sweeps:int ->
  Circuit.t ->
  int list ->
  result
(** [run circuit cells] analyzes [cells] (a topological order of a
    sub-DAG, e.g. [Topo.sort] or a query sub-graph's cells), assuming
    every seeded bit value.  Bits driven outside [cells] stay top. *)
