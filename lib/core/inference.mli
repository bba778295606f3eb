(** Rule-based value inference (paper Table I, generalized to every cell
    kind): forward evaluation with partially-known inputs plus backward
    rules such as [a|b = 0 ⊢ a = b = 0] and [a|b = 1, a = 0 ⊢ b = 1].

    The rules are one functor over a fact store; the walk and the engine
    run them on {!Dense}, which one pass reuses for every fold and
    query. *)

open Netlist

exception Contradiction
(** The known values are inconsistent: the current path is unreachable. *)

type known = bool Bits.Bit_tbl.t
(** The path facts a walk carries down a muxtree. *)

val read : known -> Bits.bit -> bool option
(** Constants read as themselves. *)

(** A set of facts about wire bits.  The rules read and extend a store
    only through these two functions. *)
module type STORE = sig
  type t

  val find : t -> Bits.bit -> bool option
  (** The value of a wire bit, if known. *)

  val add : t -> Bits.bit -> bool -> unit
  (** Record a wire bit [find] reports unknown. *)
end

(** Table I's rules over one store. *)
module Rules (S : STORE) : sig
  val read : S.t -> Bits.bit -> bool option
  (** Constants read as themselves. *)

  val step : S.t -> Cell.t -> bool
  (** One propagation step through a cell; [true] on progress.
      @raise Contradiction when the facts are inconsistent. *)
end

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
  (** Sweep the rules over the given cells until none makes progress (at
      most 65 sweeps), recording the rule family (the cell kind, e.g.
      ["or"] or ["mux"]) that derives each new fact.  The rules are
      monotone, so the fixpoint they reach, and with it every value, does
      not depend on the cells' order.
      @raise Contradiction when the facts are inconsistent. *)

  val read : t -> Bits.bit -> bool option
  (** Constants read as themselves. *)

  val rule : t -> Bits.bit -> string option
  (** The rule family that derived the bit's value in the last
      {!propagate}; [None] for a seed or an unknown bit. *)
end
