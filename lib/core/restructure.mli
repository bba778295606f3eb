(** Muxtree restructuring (paper Section III, Algorithm 1).

    Flattened muxtrees are rebuilt as decision trees over the selector
    bits, using the paper's greedy heuristic: at each node pick the bit
    minimizing the total number of distinct terminals in the two children.
    Identical subtrees are shared.  [Check] rebuilds only when the
    estimated AIG cost (muxes scaled by data width, minus the eq gates that
    become removable) goes down. *)

open Netlist

(** A hash-consed decision tree over selector bit indices. *)
type tree

val count_unique_nodes : tree -> int
val tree_height : tree -> int

type decision = {
  flat : Muxtree.flat;
  tree : tree;
  new_muxes : int;  (** shared nodes of the rebuilt tree *)
  old_muxes : int;  (** post-techmap muxes of the existing tree *)
  removable : int list;  (** select cells read only inside the tree *)
  saved_cost : int;  (** estimated AIG nodes saved; rebuild iff > 0 *)
  height : int;
}

val evaluate : Circuit.t -> Index.t -> Muxtree.flat -> decision
(** Algorithm 1's ADD construction + Check, without committing. *)

val rebuild : Circuit.t -> decision -> unit
(** Emit the rebuilt tree and rewire the old root; the disconnected cells
    are left to opt_clean (Algorithm 1 line 9). *)

type report = {
  candidates : int;
  rebuilt : int;
  muxes_before : int;
  muxes_after : int;
  eq_removed : int;
}

val pp_report : Format.formatter -> report -> unit

val run_once : ?min_saving:int -> Circuit.t -> report

val changed : report -> bool
