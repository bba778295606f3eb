(** The muxtree walk, and the Yosys [opt_muxtree] baseline built on it.

    Muxtrees are traversed from their roots; along every branch the control
    bits chosen so far are known.  Two rules apply (paper Figs. 1 and 2): a
    descendant mux whose control the {!resolver} decides is bypassed, and
    data bits equal to a known control bit become constants.  A descendant
    is eliminable only when all reads of its output come from one data-port
    side of one mux ({!Netlist.Index.dedicated_location}).

    The Yosys baseline is the walk with {!identical_signal}; smaRTLy's
    redundancy elimination is the same walk with the inference engine as
    its resolver. *)

open Netlist

(** A resolver's verdict on a dedicated child's select bit. *)
type select =
  | Take of bool * Obs.Provenance.mechanism * int option
      (** the select is forced: bypass the child onto this side, by this
          mechanism (with the SAT query id, if any) *)
  | Dead  (** the path is contradictory: the child's value is never seen *)
  | Keep  (** undecided: leave the child *)

type resolver = {
  pass : string;  (** the provenance pass name *)
  fold : bool Bits.Bit_tbl.t -> owner:int -> Bits.sigspec -> Bits.sigspec * int;
      (** run on each data port before its bits are chased: the port with
          the bits it decides replaced by constants, and their count; it
          emits their [Const_resolved] events on [owner] *)
  select : bool Bits.Bit_tbl.t -> Bits.bit -> select;
      (** decide a dedicated child's select under the known values;
          verdicts are cached per port *)
  replace : int -> Cell.t -> unit;  (** install a rewritten tree node *)
  stop : unit -> bool;
      (** polled before each tree node: [true] leaves that node, and so
          its subtree, as it is *)
}

type counts = {
  bypassed : int;  (** per-bit bypasses of decided children *)
  folded : int;
      (** data bits made constant by the fold or by a known-value lookup;
          a bypass that lands on a literal constant is not counted *)
  dead : int;  (** contradictory paths found *)
}

val roots : Circuit.t -> Index.t -> int list
(** The muxes that are not dedicated children of another mux, ascending. *)

val walk : resolver -> Circuit.t -> Index.t -> counts
(** One in-place traversal of every tree from {!roots}, in id order: each
    tree sees the rewrites of the trees walked before it.  Under pmux part
    [i] the walk knows [s_i = 1] and every earlier select 0 (the Yosys
    priority rule); under the default, every select 0.  [Index] must
    describe the circuit at the start of the walk. *)

val identical_signal : Circuit.t -> resolver
(** The Yosys resolver: a select decides only when it is constant or
    itself known; no fold; {!Netlist.Circuit.replace_cell}; never stops.
    Pass ["opt_muxtree"]. *)

val run : Circuit.t -> int
(** The Yosys pass: one walk with {!identical_signal}, on a fresh index;
    returns that walk's number of changes.  Like Yosys's [opt_muxtree],
    it does not loop itself: the driver's loop repeats it until no pass
    makes progress. *)
