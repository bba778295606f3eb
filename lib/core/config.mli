(** Tuning knobs for the smaRTLy passes (paper Section II thresholds). *)

type t = {
  distance_k : int;
      (** gates within this distance of a control port join the sub-graph *)
  sim_input_threshold : int;
      (** at most this many free inputs: exhaustive simulation *)
  sat_input_threshold : int;
      (** at most this many inputs: SAT query; above: forgo *)
  sat_conflict_budget : int;  (** conflict cap per SAT query *)
  max_subgraph_cells : int;  (** forgo queries on larger sub-graphs *)
  enable_inference_rules : bool;  (** Table I propagation *)
  enable_sat : bool;  (** the SAT-based redundancy elimination pass *)
  enable_rebuild : bool;  (** the muxtree restructuring pass *)
  pass_budget_ms : int option;
      (** wall-time budget per driver pass ({!Budget}); exceeding it
          truncates the pass and skips it on later iterations — the flow
          still completes, with partial optimization *)
  pass_alloc_budget_mw : float option;
      (** allocation budget per pass, in millions of words *)
}

val default : t

val sat_only : t
(** Restructuring disabled (Table III's "SAT" column). *)

val rebuild_only : t
(** SAT elimination disabled (Table III's "Rebuild" column). *)

val fingerprint : t -> string
(** Stable serialization of every verdict-affecting knob, for composite
    cache keys ({!Replay}).  Two configs with equal fingerprints drive
    a [sat_elim] pass identically. *)
