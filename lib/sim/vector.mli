(** Two-valued bit-parallel simulation: each wire bit carries up to
    [Sys.int_size - 1] independent simulation lanes in one machine word. *)

open Netlist

type env

val lanes_max : int

val create : ?lanes:int -> unit -> env
(** @raise Invalid_argument when [lanes] is out of range. *)

val read : env -> Bits.bit -> int
val write : env -> Bits.bit -> int -> unit

val eval_cell : env -> Cell.t -> unit
val eval_ordered : Circuit.t -> env -> int list -> unit

val random_word : int -> int -> int
(** Deterministic pseudo-random word from (seed, index). *)

val random_equiv :
  ?rounds:int -> ?seed:int -> Circuit.t -> Circuit.t -> (int * string) option
(** Random co-simulation of two circuits with name-matched ports.
    [None] when all rounds agree; otherwise the first differing round and
    output name.  A cheap refutation filter, not a proof. *)
