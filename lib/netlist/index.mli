(** Structural indices: which cell drives each bit, and which cells read
    it on which port.  Rebuild after mutating passes. *)

type driver =
  | Driven_by of int * int  (** cell id, offset in its output sigspec *)
  | Primary_input
  | Undriven

type side = Side_a | Side_b of int  (** pmux part index; a Mux's b-side is part 0 *)

type t

val build : Circuit.t -> t

val driver : t -> Bits.bit -> driver

val driving_cell : t -> Bits.bit -> (int * int) option
(** [(cell id, output offset)] when a cell drives the bit. *)

val readers : t -> Bits.bit -> int list
(** Distinct cells reading the bit (any input port), ascending. *)

val is_exported : t -> Bits.bit -> bool
(** Does the bit belong to an output port? *)

val dedicated_location : t -> Cell.t -> (int * side) option
(** The unique (mux id, side) reading every output bit of the cell, if the
    cell is dedicated to a single tree location.  A select read, a read by
    a non-mux cell or an output port bit disqualifies it. *)
