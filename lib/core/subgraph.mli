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

(** The cell sets of {!add_cone} for the many extractions of one pass,
    from arrays built once over the pass-start circuit.  The circuit may
    change during the pass only by {!Cones.invalidate}d cell
    replacements that keep each cell's outputs and kind and substitute
    fanin bits by constants or by bits already in the cell's transitive
    fanin; these keep the pass-start rank topological. *)
module Cones : sig
  type t

  val create : Circuit.t -> Index.t -> t
  (** Ranks every combinational cell, drivers first (a combinational
      cycle is cut, never reported).  [Index] must describe the circuit. *)

  val invalidate : t -> int -> unit
  (** Forget the cached fanin of a cell that was just replaced. *)

  val start : t -> unit
  (** Begin a new, empty cell set. *)

  val add_cone : t -> k:int -> Bits.bit -> unit
  (** {!Subgraph.add_cone} into the current set. *)

  val size : t -> int
  (** {!Subgraph.size} of the current set. *)

  val ordered_cells : t -> int array
  (** The current set by pass-start rank: drivers first, though not in
      {!Subgraph.ordered_cells}' order. *)
end
