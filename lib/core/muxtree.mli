(** Muxtree detection and flattening for the restructuring pass
    (Algorithm 1's [OnlyEq] and [SingleCtrl] predicates).

    A rebuildable tree is a mux/pmux tree whose internal nodes are
    dedicated children and whose selects are eq-with-constant cells,
    logic_not cells (the all-zeros eq), or or-combinations thereof.
    Flattening yields priority rows: pattern cubes over the selector bits
    mapping to leaf data signals, plus a default. *)

open Netlist

type row = { cube : Add_bdd.Add.pbit array; value : Bits.sigspec }

type flat = {
  root : int;
  selector : Bits.sigspec;  (** the shared control bits *)
  rows : row list;  (** in priority order *)
  default : Bits.sigspec;
  tree_cells : int list;  (** the tree's mux/pmux cells, root included *)
  select_cells : int list;  (** the eq / logic_not / or select cells *)
  width : int;  (** data width *)
}

val flatten : Circuit.t -> Index.t -> int -> flat option
(** Flatten the tree rooted at the given mux cell, reading drivers and
    dedicated children from an index of the circuit's current state.
    [None] for a vanished root and for a tree that fails the paper's
    SingleCtrl condition: all selector bits from one wire. *)

val find_all : Circuit.t -> Index.t -> flat list
(** Every rebuildable muxtree, from {!Rtl_opt.Opt_muxtree.roots}, on an
    index of the circuit's current state. *)
