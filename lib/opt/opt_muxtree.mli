(** The Yosys [opt_muxtree] baseline.

    Muxtrees are traversed from their roots; along every branch the control
    bits chosen so far are known.  The two Yosys rules apply (paper Figs. 1
    and 2): a descendant mux with an already-known *identical* control bit
    is bypassed, and data bits equal to a known control bit become
    constants.  A descendant is eliminable only when all reads of its
    output come from one data-port side of one mux
    ({!Netlist.Index.dedicated_location}). *)

open Netlist

val run_once : Circuit.t -> int * int
(** One traversal; returns (bypassed mux-bits, constant-folded data bits). *)

val run : Circuit.t -> int
(** Iterate to fixpoint; returns the total number of changes. *)
