(** Signal bits and bit vectors (sigspecs).

    A {!bit} is a constant (0, 1, X) or one bit of a wire; a {!sigspec} is
    an array of bits, least-significant first (RTLIL convention). *)

type bit =
  | C0  (** constant zero *)
  | C1  (** constant one *)
  | Cx  (** unknown / don't care *)
  | Of_wire of int * int  (** wire id, bit offset *)

type sigspec = bit array

val bit_equal : bit -> bit -> bool
val bit_compare : bit -> bit -> int
val bit_hash : bit -> int

val is_const : bit -> bool
(** [true] for [C0], [C1] and [Cx]. *)

val is_fully_const : sigspec -> bool

val const_of_bool : bool -> bit

val of_int : width:int -> int -> sigspec
(** [of_int ~width v] is the [width]-bit constant [v], LSB first. *)

val to_int : sigspec -> int
(** Unsigned value of a fully-binary constant sigspec.
    @raise Invalid_argument on X or wire bits. *)

val width : sigspec -> int

val concat : sigspec list -> sigspec
(** Concatenation, first element at the LSB end. *)

val slice : sigspec -> off:int -> len:int -> sigspec
(** Bits [off .. off+len-1]. @raise Invalid_argument when out of range. *)

val equal : sigspec -> sigspec -> bool

val extend : sigspec -> width:int -> sigspec
(** Zero-extend or truncate to [width]. *)

val all_zero : width:int -> sigspec

val pp_bit : Format.formatter -> bit -> unit
val pp : Format.formatter -> sigspec -> unit
val to_string : sigspec -> string

(** Containers keyed by bits. *)
module Bit : sig
  type t = bit

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
end

module Bit_tbl : Hashtbl.S with type key = bit
module Bit_set : Set.S with type elt = bit
module Bit_map : Map.S with type key = bit
