(** Rule-based value inference (paper Table I, generalized to every cell
    kind): forward evaluation with partially-known inputs plus backward
    rules such as [a|b = 0 ⊢ a = b = 0] and [a|b = 1, a = 0 ⊢ b = 1].

    One copy of the rules runs over two fact stores: the hash table
    {!known} that the engine copies per query, and {!Dense}, which the
    walk's data-bit folding reuses across a whole pass. *)

open Netlist

exception Contradiction
(** The known values are inconsistent: the current path is unreachable. *)

type known = bool Bits.Bit_tbl.t

val read : known -> Bits.bit -> bool option
(** Constants read as themselves. *)

val set : known -> Bits.bit -> bool -> bool
(** Record a fact; [true] when it is new information.
    @raise Contradiction when it conflicts. *)

val step : known -> Cell.t -> bool
(** One propagation step through a cell; [true] on progress. *)

val propagate : ?track:string Bits.Bit_tbl.t -> Circuit.t -> known -> int list -> int
(** Sweep the given cells to fixpoint; returns the sweep count.  When
    [track] is given, every bit whose value is newly derived during the
    sweep is mapped to the rule family (the cell kind, e.g. ["or"] or
    ["mux"]) that derived it — the raw material for provenance rule
    attribution.
    @raise Contradiction when the facts are inconsistent. *)

(** A fact store with one slot per wire bit of a circuit.  Starting a
    fresh fact set costs O(1) plus one write per seed, and rule
    attribution is always on. *)
module Dense : sig
  type t

  val create : Circuit.t -> t
  (** Slots for every bit of the circuit's wires and of its cells'
      ports.  The store stays valid while the circuit gains no wire and
      no wider port.
      @raise Invalid_argument later, when asked about any other bit. *)

  val load : t -> known -> unit
  (** Forget every fact, then take [known]'s (seeds, attributed to no
      rule). *)

  val propagate : t -> Circuit.t -> int array -> unit
  (** {!Inference.propagate} over the given cells, recording the rule
      family that derives each new fact.  The rules are monotone, so the
      fixpoint they reach, and with it every value, does not depend on
      the cells' order.
      @raise Contradiction when the facts are inconsistent. *)

  val read : t -> Bits.bit -> bool option
  (** Constants read as themselves. *)

  val rule : t -> Bits.bit -> string option
  (** The rule family that derived the bit's value in the last
      {!propagate}; [None] for a seed or an unknown bit. *)
end
