(** Pass-level result cache for the SAT-elimination walk.

    One {!Sat_elim.run} pass reads the circuit it starts from — its
    cells and its output bits, which decide the muxtree roots — and the
    config.  A warm batch (the serve daemon re-optimizing stamped-out
    design variants, or the [jobs_per_sec] bench's warm mode) therefore
    replays the recorded edits and counters when a pass-start circuit
    recurs instead of walking it again.  It is the only result cache:
    individual queries are always answered afresh by the ladder.

    Opt-in: nothing is consulted until {!install} puts a store in place.
    Replayed passes restore their [sat_elim.*] counters but do not re-emit
    provenance events or engine metrics for the skipped work. *)

open Netlist

type entry = {
  e_edits : (int * Cell.t) list;
      (** (cell id, replacement) in application order; cells owned by
          the cache (deep-copied on store and on {!find} application) *)
  e_counts : Rtl_opt.Opt_muxtree.counts;  (** the walk's counts *)
}

type t
(** A replay store: bounded FIFO table plus hit/miss counters. *)

val make : ?capacity:int -> unit -> t
(** [capacity] (default 1024) bounds the entry count; 0 disables
    storing. *)

val install : t -> unit
(** Make [t] the store every subsequent [sat_elim] pass consults, until
    {!uninstall}. *)

val uninstall : unit -> unit

val active : unit -> t option
(** The installed store, if any ([None] is the default everywhere). *)

val circuit_digest : Circuit.t -> string
(** Digest of a full serialization of the circuit's cells and output
    bits — everything a pass reads.  Distinct circuits serialize
    distinctly, so only a digest collision could replay wrongly; equal
    circuits always digest equally (cell ids ascending, canonical cell
    encoding, output bits in port order). *)

val key : Config.t -> Circuit.t -> string
(** The cache key of a pass over the circuit under the config: its
    {!circuit_digest} plus {!Config.fingerprint}. *)

val find : t -> string -> entry option
(** Bumps the hit/miss counters. *)

val store : t -> string -> entry -> unit
(** Insert (first writer wins); evicts FIFO beyond capacity.  The
    entry's edit cells are deep-copied in. *)

val copy_edits : (int * Cell.t) list -> (int * Cell.t) list
(** Deep-copy an edit list's cells — apply replayed edits through this
    so a later in-place rewrite can't corrupt the cache. *)

val to_json : t -> Obs.Json.t
(** [{"hits","misses","evictions","entries","capacity","hit_rate"}] —
    the serve report's [replay] section. *)
