(** Signal substitution used by optimization passes. *)

val is_output_bit : Circuit.t -> Bits.bit -> bool
(** Does the bit belong to an output port wire? *)

(** {1 Pending substitution}

    A sweep that removes cells records each removed output and its
    replacement here instead of rewriting every reader at once, reads each
    cell it visits through {!cell}, and calls {!flush} at the end.  As long
    as the sweep reads other cells only through the substitution, the
    circuit it leaves is the one rewiring every reader at each removal
    would leave. *)

type t

val create : Circuit.t -> t
(** An empty substitution over the circuit. *)

val record : t -> from_:Bits.sigspec -> to_:Bits.sigspec -> unit
(** Route every later read of [from_] to [to_].  [to_] is first resolved
    through the substitution; constant bits of [from_], bits that would
    map to themselves and bits already replaced are skipped.  Bits of [from_] that belong to output
    ports cannot be renamed; a transparent or-with-zero buffer (free after
    AIG mapping) is added at once to keep them driven.  The caller removes
    the old driver cell.
    @raise Invalid_argument on width mismatch. *)

val cell : t -> int -> Cell.t option
(** The cell with its inputs resolved through the substitution, written
    back to the circuit if that changed it; [None] if there is no such
    cell. *)

val flush : t -> unit
(** Rewrite every cell's inputs through the substitution and empty it. *)
