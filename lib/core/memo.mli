(** Cross-query verdict memoization for the decision engine.

    Sim/SAT verdicts are cached under a canonical structural key of
    (sub-graph view, known assignments, target) — alpha-equivalent over
    wire ids, so structurally identical queries from different muxtrees
    (or stamped-out copies of the same logic) hit the same entry.  The
    full key is stored, so hash collisions can never return a wrong
    verdict; [Unknown] verdicts are never cached (they depend on the
    conflict budget, not only on the query).  Hit/miss/eviction
    counters ([memo.hits], [memo.misses], [memo.evictions]) and bounded
    FIFO eviction. *)

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

(** {2 Stores}

    Every operation above acts on the installed store: a process-wide
    one unless {!install} swaps in another. *)

type t
(** A verdict store. *)

val make : ?capacity:int -> unit -> t
(** A detached store (not installed). *)

val install : t -> unit
(** Make [t] the store every operation acts on — the serve daemon keeps
    one warm store installed across jobs. *)
