(** Continuous benchmarking: a statistical runner, a committed baseline
    store, and a regression gate over the bench harness's measurements.

    The pipeline is: {!Measure} runs a case [R] times on the monotonic
    clock and {!Stat} condenses the repetitions into median/min/MAD;
    {!Schema} fixes the versioned on-disk document ([smartly-bench-v1])
    each bench section emits; {!Store} reads and writes those documents
    under [bench/baselines/]; {!Compare} diffs a fresh document against
    the committed one, classifying every metric with per-kind noise
    thresholds; {!Gate} folds the diffs of a whole run into one
    pass/fail verdict with a printable report. *)

(** Robust summary statistics over repeated measurements.  Median and
    median-absolute-deviation rather than mean/stddev: one preempted
    repetition must not move the committed number. *)
module Stat : sig
  type summary = {
    median : float;
    min : float;
    mad : float;  (** median absolute deviation around the median *)
    runs : int;
  }

  val median : float array -> float
  (** Of a non-empty array; the mean of the middle pair for even sizes.
      0 for an empty array.  Does not mutate its argument. *)

  val summarize : float list -> summary
  (** [runs]=0 summary (all zeros) for the empty list. *)
end

(** The repetition runner: time a thunk [reps] times on {!Obs.Clock},
    with GC accounting bracketed around the final repetition. *)
module Measure : sig
  type timed = { wall : Stat.summary; gc : Obs.Metrics.gc_delta }

  val repeat :
    reps:int -> ?prepare:(unit -> unit) -> (unit -> 'a) -> 'a * timed
  (** Run [f] [max 1 reps] times, returning the {e last} repetition's
      result.  [prepare] runs before every repetition, outside the timed
      region — the bench uses it to zero metrics so counters read after
      [repeat] describe exactly one run. *)
end

(** The versioned benchmark document: what a bench section measured, for
    which cases, in which environment. *)
module Schema : sig
  val version : string
  (** ["smartly-bench-v1"]. *)

  (** The metric's noise model.  [Area] and [Count] are deterministic
      (same seed, same binary => same value) and compare exactly; [Time]
      and [Gc] are noisy and compare within a relative band. *)
  type kind = Area | Count | Time | Gc

  val kind_name : kind -> string
  val kind_of_name : string -> kind option

  type direction = Lower_better | Higher_better

  type metric = {
    name : string;
    kind : kind;
    direction : direction;
    value : float;  (** the committed figure; median when [runs > 1] *)
    min : float option;  (** fastest repetition, [Time] metrics *)
    mad : float option;
    runs : int option;
  }

  val scalar :
    ?direction:direction -> name:string -> kind:kind -> float -> metric
  (** A deterministic single measurement; [direction] defaults to
      [Lower_better]. *)

  val timing : name:string -> Stat.summary -> metric
  (** A [Time]/[Lower_better] metric carrying median, min, MAD and the
      repetition count. *)

  type case = { name : string; metrics : metric list }

  (** Where the numbers came from: compared documents print their
      fingerprints side by side so a cross-machine diff is never
      mistaken for a regression. *)
  type env = {
    hostname : string;
    ocaml_version : string;
    git_rev : string;
    repetitions : int;
    created : string;  (** UTC [YYYY-MM-DD] *)
  }

  val fingerprint : reps:int -> env
  (** Of the running process; [git_rev] is ["unknown"] outside a git
      checkout. *)

  val env_to_json : env -> Obs.Json.t
  (** The ["env"] object of {!to_json}, standalone — the run-ledger
      manifest ({!Obs.Ledger}) reuses the same fingerprint shape. *)

  type doc = { section : string; env : env; cases : case list }

  val to_json : doc -> Obs.Json.t
  val of_json : Obs.Json.t -> (doc, string) result
  (** Rejects documents whose [schema] field is not {!version}. *)

  val to_string : doc -> string
  (** Pretty JSON, trailing newline; what {!Store.save} writes. *)

  val of_string : string -> (doc, string) result
end

(** Classify a fresh document against a baseline, metric by metric. *)
module Compare : sig
  type status =
    | Improved
    | Regressed
    | Unchanged
    | New_metric  (** in the current document only *)
    | Missing_metric  (** in the baseline only *)

  val status_name : status -> string

  val classify :
    ?scale:float ->
    kind:Schema.kind ->
    direction:Schema.direction ->
    float ->
    float ->
    status
  (** [classify ~kind ~direction base cur].
      [Area]/[Count] compare exactly; [Time] within a 25% band, [Gc]
      within 30%, both relative to the smaller of [base] and [cur] (so a
      fall leaves the band as readily as a rise) and with a small
      absolute floor so near-zero values don't amplify jitter.  [scale]
      multiplies the noisy-kind bands (CI passes a loose scale to absorb
      cross-machine variance); it never loosens the exact kinds. *)

  type metric_diff = {
    name : string;
    kind : Schema.kind;
    base : float option;
    cur : float option;
    delta_pct : float option;  (** [None] when either side is missing *)
    status : status;
  }

  type case_diff = { case : string; rows : metric_diff list }

  type t = {
    section : string;
    base_env : Schema.env;
    cur_env : Schema.env;
    cases : case_diff list;  (** baseline order; new cases appended *)
    missing_cases : string list;  (** in the baseline, not re-measured *)
    new_cases : string list;
  }

  val diff : ?scale:float -> baseline:Schema.doc -> Schema.doc -> t
  (** [diff ~baseline current]. *)

  val with_status : status -> t -> (string * metric_diff) list
  (** [(case, metric)] rows with the status. *)

  val regressions : t -> (string * metric_diff) list
  (** [with_status Regressed]. *)

  val render : ?all:bool -> t -> string
  (** The per-case/per-metric table via {!Report.Table} (colored when
      {!Report.Table.set_color} is on) plus a one-line summary.  By
      default only non-[Unchanged] rows print; [all] shows everything. *)

  val to_json : t -> Obs.Json.t
  (** Machine-readable diff ([smartly-bench-diff-v1]), for artifacts. *)
end

(** The on-disk baseline store: one document per bench section. *)
module Store : sig
  val default_dir : string
  (** ["bench/baselines"], relative to the repository root (bench runs
      from there under dune). *)

  val path : dir:string -> section:string -> string
  (** [dir/BENCH_<section>.json]. *)

  val save : dir:string -> Schema.doc -> string
  (** Write (creating [dir] if needed) and return the path. *)

  val load : dir:string -> section:string -> (Schema.doc, string) result
  (** [Error] distinguishes a missing file (advising [--update-baselines])
      from a malformed one. *)
end

(** Fold a whole bench run's diffs into one verdict. *)
module Gate : sig
  type outcome = {
    diffs : Compare.t list;
    missing_baselines : string list;  (** sections with no committed doc *)
    load_errors : (string * string) list;  (** section, message *)
  }

  val check : ?scale:float -> dir:string -> Schema.doc list -> outcome
  (** Diff every fresh document against its committed baseline. *)

  val ok : outcome -> bool
  (** Every metric within its band, better or worse (an improved one
      means a stale baseline to re-bless), no dropped cases, every
      baseline present and well-formed. *)

  val render : ?all:bool -> outcome -> string
  (** Diff tables for every section plus the verdict line naming each
      offending metric, an improved one as a stale baseline. *)
end
