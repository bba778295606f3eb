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

type deps = {
  circuit : Circuit.t;
  index : Index.t;
  readers : Rtl_opt.Opt_muxtree.readers;
}

val make_deps : Circuit.t -> deps

val flatten : deps -> int -> flat option
(** Flatten the tree rooted at the given mux cell.  [None] unless it
    meets the paper's SingleCtrl condition: all selector bits from one
    wire. *)

val flatten_root : deps -> int -> flat option
(** Like {!flatten} but tolerates a vanished root (returns [None]). *)

val find_all : Circuit.t -> flat list
(** Every rebuildable muxtree (roots = muxes that are not dedicated
    children themselves). *)
