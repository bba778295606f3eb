(** Dead-code elimination (Yosys [opt_clean]): cells not reaching a primary
    output or a sequential cell are removed, as are unreferenced wires. *)

val remove_unused_wires : Netlist.Circuit.t -> int

val run : Netlist.Circuit.t -> int
(** One liveness sweep, then {!remove_unused_wires}; returns removed
    cells. *)
