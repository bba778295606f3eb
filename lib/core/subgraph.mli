(** Bounded sub-graph extraction for the redundancy-elimination queries
    (paper Section II).

    Control ports contribute their distance-k fanin cones; sequential cells
    are excluded so the sub-graph stays a DAG.  A query's sub-graph holds
    the cones of exactly its relevant bits, so it is already the gate set
    Theorem II.1 keeps: every cell shares a source with the relevant bit
    whose cone added it.  No separate pruning step runs. *)

open Netlist

type t

val create : Circuit.t -> Index.t -> t

val add_cone : t -> k:int -> Bits.bit -> unit
(** Add the combinational gates within distance [k] above [bit]. *)

val size : t -> int
(** Accumulated cell count. *)

val ordered_cells : t -> int list
(** Every accumulated cell, drivers first. *)

(** A topologically ordered view ready for querying. *)
type view = {
  cells : int list;  (** drivers first *)
  sources : Bits.bit list;  (** bits read but not driven inside *)
  source_set : unit Bits.Bit_tbl.t;  (** [sources] as a table *)
  driver : int Bits.Bit_tbl.t;  (** each bit computed inside -> its cell *)
}

val view : t -> view
(** The cells of {!ordered_cells} with their sources and drivers. *)

val is_source : view -> Bits.bit -> bool

val computes : view -> Bits.bit -> bool
(** The bit is an output of a view cell. *)
