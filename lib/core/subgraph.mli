(** The sub-graph kernel of one pass (paper Section II): bounded cone
    extraction plus a fact store, serving every data-port fold and every
    ladder query of a [sat_elim] walk.

    Control ports contribute their distance-k fanin cones; sequential cells
    are excluded so the sub-graph stays a DAG.  A query's sub-graph holds
    the cones of exactly its relevant bits, so it is already the gate set
    Theorem II.1 keeps: every cell shares a source with the relevant bit
    whose cone added it.  No separate pruning step runs.

    The kernel is built once over a circuit and answers many extractions
    from arrays over its cell ids.  The circuit may change while the
    kernel lives only by {!replace}, with replacements that keep each
    cell's outputs and kind and substitute fanin bits by constants or by
    bits already in the cell's transitive fanin; these keep the
    creation-time rank topological. *)

open Netlist

type t

val create : Circuit.t -> Index.t -> t
(** Ranks every combinational cell, drivers first (a combinational cycle
    is cut, never reported), and gives the fact store a slot per wire
    bit.  [Index] must describe the circuit. *)

val circuit : t -> Circuit.t

val replace : t -> int -> Cell.t -> unit
(** Replace a cell of the circuit as a walk does (same outputs, each new
    fanin bit a constant or already in the cell's fanin cone) and forget
    its cached fanin. *)

val start : t -> unit
(** Begin a new, empty cell set. *)

val add_cone : t -> k:int -> Bits.bit -> unit
(** Add the combinational gates within distance [k] above [bit] to the
    current set. *)

val size : t -> int
(** Cell count of the current set. *)

val ordered_cells : t -> int array
(** The current set by creation-time rank: drivers first. *)

val computes : t -> Bits.bit -> bool
(** The bit is an output of a cell of the current set. *)

val sources : t -> Bits.bit list
(** The bits the current set reads but does not compute, constants
    excluded, each once. *)

val facts : t -> Inference.Dense.t
(** The kernel's fact store, reused by every fold and query. *)
