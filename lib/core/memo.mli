(** Cross-query verdict memoization for the decision engine.

    Sim/SAT verdicts are cached under a canonical structural key of
    (sub-graph view, known assignments, target) — alpha-equivalent over
    wire ids, so structurally identical queries from different muxtrees
    (or stamped-out copies of the same logic) hit the same entry.  The
    full key is stored, so hash collisions can never return a wrong
    verdict; [Unknown] verdicts are never cached (they depend on the
    conflict budget, not only on the query).  Domain-local like the
    metrics registry — worker domains install overlays over a frozen
    base and the coordinator absorbs them in task order — with
    hit/miss/eviction counters ([memo.hits], [memo.misses],
    [memo.evictions]) and bounded FIFO eviction. *)

open Netlist

(** A cacheable verdict ({!Engine.verdict} minus [Unknown]). *)
type verdict = Forced of bool | Free | Unreachable

val key :
  Circuit.t ->
  Subgraph.view ->
  bool Bits.Bit_tbl.t ->
  target:Bits.bit ->
  string
(** Canonical key: a deterministic serialization of the target's fanin
    cone within the view followed by the known cones in a
    structure-derived order, with wire bits numbered by first use.
    Knowns with no connection to the view are excluded. *)

val find : string -> verdict option
(** Bumps the hit/miss counters. *)

val store : string -> verdict -> unit
(** Insert (first writer wins); evicts FIFO beyond capacity. *)

val reset : ?capacity:int -> unit -> unit
(** Clear the store and set capacity (default 65536; 0 disables
    storing). *)

val size : unit -> int

val to_json : unit -> Obs.Json.t
(** [{"hits", "misses", "evictions", "entries", "capacity",
    "hit_rate"}] — the [--json] report's [memo] section. *)

(** {2 Domain-local overlays}

    Every operation above acts on the current domain's store: the
    process-global one unless an overlay is installed here.  An overlay
    owns its entries and reads through a frozen [base] — safe across
    domains while the base's owner is blocked at the join barrier. *)

type t
(** A verdict store. *)

val current : unit -> t
(** The store the current domain's operations hit. *)

val install_overlay : ?capacity:int -> ?base:t -> unit -> unit
(** Install a fresh overlay on the current domain, reading through
    [base] on miss and keeping its own writes. *)

val make : ?capacity:int -> ?base:t -> unit -> t
(** A detached store (not installed anywhere). *)

val install : t -> unit
(** Make an existing store the current domain's — the serve daemon
    keeps one warm store installed across jobs. *)

val uninstall_overlay : unit -> unit

type saved

val save : unit -> saved
(** The current domain's overlay slot, for displacing around an inline
    task (overlays nest by save/restore, not by stacking). *)

val restore : saved -> unit

type snapshot
(** An overlay's own entries, in insertion order. *)

val capture_overlay : unit -> snapshot
(** Drain and uninstall the current domain's overlay; empty when none
    is installed. *)

val absorb : snapshot -> unit
(** Replay a snapshot's entries into the current domain's store (first
    writer wins).  Absorbing task snapshots in task order makes the
    merged store schedule-independent. *)
