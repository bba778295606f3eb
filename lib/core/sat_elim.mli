(** SAT-based redundancy elimination (paper Section II).

    The traversal mirrors the Yosys opt_muxtree baseline, but descendant
    controls are resolved with the full {!Engine} ladder instead of only by
    identical-signal matching, and data-port bits determined by the
    inference rules under the path condition become constants. *)

open Netlist

type report = {
  muxes_bypassed : int;  (** per-bit bypasses of resolved descendants *)
  data_bits_folded : int;
  dead_branches : int;  (** contradictory path conditions found *)
  engine : Engine.stats;
}

val pp_report : Format.formatter -> report -> unit

val run : Config.t -> Circuit.t -> report
(** One full in-place traversal of every muxtree, with one persistent
    SAT session for the pass.  Interleave with opt_expr / opt_clean and
    iterate (see {!Driver.smartly}).

    With a {!Replay} store installed and no budget armed, a pass whose
    start circuit and config recur replays the recorded edits and
    report instead of walking; a first pass walks, records its edits
    and stores them. *)

val changed : report -> bool

val fold_port :
  Config.t ->
  Subgraph.t ->
  Inference.known ->
  owner:int ->
  Bits.sigspec ->
  Bits.sigspec * int
(** The port with each bit that [known] and the rules determine replaced
    by its constant, and the count of bits replaced: the walk's data-bit
    fold, on the kernel it builds over its pass-start circuit.  The rules
    run over the distance-k cones of the known bits and the port bits,
    unless those exceed [max_subgraph_cells] or contradict.  Emits one
    [Const_resolved] provenance event per replaced bit, on [owner].
    Exposed for its differential test. *)
