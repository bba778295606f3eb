(** Muxtree restructuring (paper Section III, Algorithm 1).

    Flattened muxtrees are rebuilt as decision trees over the selector
    bits, using the paper's greedy heuristic: at each node pick the bit
    minimizing the total number of distinct terminals in the two children.
    Identical subtrees are shared.  [Check] rebuilds only when the
    estimated AIG cost (muxes scaled by data width, minus the eq gates that
    become removable) goes down. *)

open Netlist

type decision = {
  flat : Muxtree.flat;
  tree : Add_bdd.Add.t;
      (** over selector bit indices; leaves are terminal ids *)
  terminals : Bits.sigspec array;
      (** leaf sigspecs by terminal id; id 0 is the default *)
  new_muxes : int;  (** shared nodes of the rebuilt tree *)
  old_muxes : int;  (** post-techmap muxes of the existing tree *)
  removable : int list;  (** select cells read only inside the tree *)
  saved_cost : int;  (** estimated AIG nodes saved; rebuild iff > 0 *)
  height : int;
}

val evaluate : Circuit.t -> Index.t -> Muxtree.flat -> decision
(** Algorithm 1's ADD construction + Check, without committing. *)

val rebuild : Circuit.t -> Index.t -> decision -> unit
(** Emit the rebuilt tree in place of the old root: its top mux drives the
    old root's output bits, so no reader is rewritten.  A tree that
    collapsed to one leaf rewires the old root's readers, as the index
    (of the circuit the decision was made on) names them, to the leaf.
    The disconnected cells are left to opt_clean (Algorithm 1 line 9). *)

val run_once : Circuit.t -> int
(** Evaluate every candidate tree and rebuild those whose [Check] pays;
    returns the number rebuilt.  Its numbers are counters:
    [restructure.candidates], [restructure.rebuilt],
    [restructure.eq_removed], and [restructure.muxes_after] (the rebuilt
    trees' new muxes plus the kept trees' old ones; the muxes before are
    the sum of the [restructure.old_muxes_per_tree] histogram). *)
