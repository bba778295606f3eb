(* Tuning knobs for the smaRTLy passes, mirroring the thresholds the paper
   describes in Section II. *)

type t = {
  distance_k : int;
      (* gates within this distance of a control port join the sub-graph *)
  sim_input_threshold : int;
      (* <= this many free sub-graph inputs: exhaustive simulation *)
  sat_input_threshold : int;
      (* <= this many inputs: SAT; above: forgo the query (paper's
         "threshold for the number of inputs") *)
  sat_conflict_budget : int; (* conflict cap per SAT query *)
  max_subgraph_cells : int; (* forgo queries on larger sub-graphs *)
  enable_inference_rules : bool; (* Table I propagation *)
  enable_analysis : bool;
      (* abstract-interpretation rung zero (known-bits + intervals):
         answers Forced/Unreachable before the sim/SAT rungs when
         the dataflow fixpoint pins the target; falls through on top *)
  enable_sat : bool; (* the SAT-based redundancy elimination *)
  enable_rebuild : bool; (* muxtree restructuring *)
  pass_budget_ms : int option;
      (* wall-time budget per driver pass; exceeding it truncates the
         pass (remaining queries forgone, remaining trees skipped) and
         skips it on later iterations — never an error *)
  pass_alloc_budget_mw : float option;
      (* allocation budget per pass, in millions of words (minor
         allocation pointer delta); same graceful degradation *)
}

let default =
  {
    distance_k = 6;
    sim_input_threshold = 11;
    sat_input_threshold = 96;
    sat_conflict_budget = 4000;
    max_subgraph_cells = 600;
    enable_inference_rules = true;
    enable_analysis = true;
    enable_sat = true;
    enable_rebuild = true;
    pass_budget_ms = None;
    pass_alloc_budget_mw = None;
  }

let sat_only = { default with enable_rebuild = false }
let rebuild_only = { default with enable_sat = false }

(* Stable serialization of every verdict-affecting knob, for composite
   cache keys ({!Replay}). *)
let fingerprint (t : t) =
  Printf.sprintf "k%d;si%d;sa%d;cb%d;mx%d;f%b%b%b%b;bm%s;ba%s"
    t.distance_k t.sim_input_threshold t.sat_input_threshold
    t.sat_conflict_budget t.max_subgraph_cells t.enable_inference_rules
    t.enable_analysis t.enable_sat t.enable_rebuild
    (match t.pass_budget_ms with None -> "-" | Some m -> string_of_int m)
    (match t.pass_alloc_budget_mw with
    | None -> "-"
    | Some m -> string_of_float m)
