(** Telemetry for the optimization flow: wall-clock span tracing, a
    process-wide metrics registry, and the minimal JSON support both need.

    Everything here is dependency-free (stdlib + unix for the clock) so any
    layer of the system can be instrumented without dune cycles.  The
    tracer is pay-for-what-you-use: with no {!Event} subscriber,
    {!Trace.with_span} is a direct call to the thunk and records nothing. *)

(** Monotonic time source for every measurement in the system.

    Backed by [clock_gettime(CLOCK_MONOTONIC)] (gettimeofday where the
    platform lacks it), so spans and benchmark baselines are immune to NTP
    slews and wall-clock jumps.  The epoch is arbitrary: readings are only
    meaningful subtracted from each other. *)
module Clock : sig
  val now_ns : unit -> int64
  (** Nanoseconds since an arbitrary origin; monotone non-decreasing. *)

  val now : unit -> float
  (** Same reading in seconds. *)

  val elapsed : int64 -> float
  (** [elapsed mark] is the seconds elapsed since [mark = now_ns ()]. *)
end

(** Minimal JSON: a locale-stable writer and a strict parser.

    The writer always uses ['.'] as the decimal separator and never emits
    [NaN]/[inf] (they become [null]), so output is loadable by any JSON
    consumer regardless of the process locale.  The parser exists so tests
    and the CI smoke step can check well-formedness without external
    tooling; it accepts exactly the JSON this module writes (objects,
    arrays, strings with the standard escapes, numbers, booleans, null). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val num_of_int : int -> t

  val to_string : ?pretty:bool -> t -> string
  (** [pretty] inserts newlines and two-space indentation. *)

  val parse : string -> (t, string) result
  (** [Error msg] carries a position-annotated description. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] on anything else. *)

  (** Shape accessors for schema decoding: the value if it has the asked
      shape, [None] otherwise.  [to_int] additionally requires the number
      to be integral and within OCaml's [int] range. *)

  val to_num : t -> float option
  val to_int : t -> int option
  val to_str : t -> string option
  val to_list : t -> t list option

  (** [mem_* key j] = [member key j] filtered through the accessor. *)

  val mem_num : string -> t -> float option
  val mem_int : string -> t -> int option
  val mem_str : string -> t -> string option
  val mem_list : string -> t -> t list option

  val parse_jsonl_partial : string -> (t * int) list * int option
  (** Tolerant JSONL reader for logs a killed process may have torn:
      every complete leading line as [(value, byte offset of line
      start)], and [Some offset] of the first malformed line (the torn
      tail), [None] when the whole text parsed.  Blank lines are
      skipped; the scan stops at the first damage rather than resyncing
      past it. *)
end

(** The unified event bus: one ordered stream of run, pass, span,
    provenance, SAT-query and budget events, fanned out to pluggable
    subscriber sinks.

    Two invariants hold by construction over the lifetime of a
    {!reset}: [seq] is gapless and strictly increasing, and [t_ns] is
    non-decreasing (monotonic clock readings, clamped).  A subscriber
    that raises is marked dead and skipped from then on — one failing
    sink never loses events for the others.  With no subscribers,
    {!emit} costs one list check. *)
module Event : sig
  type kind =
    | Run_start
    | Run_end
    | Pass_start  (** [name] = pass *)
    | Pass_end  (** closes the innermost open pass *)
    | Span_open  (** [name] = span, from {!Trace.with_span} *)
    | Span_close  (** [data] = [{"seconds"}] *)
    | Provenance  (** [data] = {!Provenance.event_to_json} *)
    | Sat_query
    | Budget_exceeded

  type t = {
    seq : int;  (** gapless, strictly increasing since {!reset} *)
    t_ns : int64;  (** monotonic stamp, non-decreasing along the stream *)
    kind : kind;
    name : string;  (** pass/span/query label; [""] when meaningless *)
    data : Json.t;  (** kind-specific payload; [Null] when none *)
  }

  val kind_name : kind -> string
  val kind_of_name : string -> kind option

  type subscription

  val subscribe : ?name:string -> (t -> unit) -> subscription
  (** Register a sink.  [name] labels it in {!failed_sinks}. *)

  val unsubscribe : subscription -> unit
  (** Remove the sink and run its close hook (file sinks close their
      channel). *)

  val record : ?name:string -> unit -> subscription * (unit -> t list)
  (** The in-memory sink: subscribe, and read back every event delivered
      to it so far, in stream order. *)

  val failed_sinks : unit -> (string * string) list
  (** Sinks disabled after raising, as [(name, first error)]. *)

  val enabled : unit -> bool
  (** [true] iff at least one subscriber is registered.  Guards payload
      construction on hot paths. *)

  val emit : ?name:string -> ?data:Json.t -> kind -> unit
  (** Stamp and deliver one event to every live subscriber; nothing
      without one. *)

  val reset : unit -> unit
  (** Drop all subscribers (running their close hooks) and restart [seq].
      Scopes the bus to one run, like {!Metrics.reset}. *)

  val to_json : t -> Json.t
  val of_json : Json.t -> (t, string) result

  val parse_jsonl_partial : string -> t list * int option
  (** Decode an [events.jsonl] stream tolerantly: all complete leading
      events, plus the byte offset of the torn tail if any. *)

  val attach_jsonl : path:string -> subscription
  (** Durable file sink: one compact JSON line per event, flushed per
      event.  Unsubscribing (or {!reset}) closes the file. *)

  val attach_progress : ?out:out_channel -> unit -> subscription
  (** Live TTY sink: one line per completed pass and per budget verdict,
      written to [out] (default [stderr]). *)
end

(** Nested wall-clock spans, as [Span_open]/[Span_close] bus events that
    a sink (or {!of_events}, over a recorded stream) pairs into a span
    when it {e completes} (exceptions included), with start, duration
    (from the events' stamps) and nesting depth.  Timestamps are
    microseconds relative to the sink's creation or the stream's first
    event, which is exactly the [ts] convention of the Chrome
    [trace_event] format, so the spans export directly to a file that
    [chrome://tracing] or Perfetto opens. *)
module Trace : sig
  type event = {
    name : string;
    ts_us : float;  (** start, microseconds since the sink was created *)
    dur_us : float;
    depth : int;  (** enclosing spans opened since {!install}; 0 = top *)
  }

  type sink

  val make_sink : unit -> sink

  val install : sink -> unit
  (** Subscribe the sink to the bus, replacing any installed one.
      Subsequent spans record into it; a close whose open came before the
      install is ignored. *)

  val uninstall : unit -> unit

  val with_span : string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a named span.  With no bus subscriber this is
      a direct call: no event is allocated or recorded.  Guard dynamic
      span names with {!Event.enabled}. *)

  val events : sink -> event list
  (** In start order (parents before their children). *)

  val event_count : sink -> int

  val of_events : Event.t list -> event list
  (** The spans of a recorded stream, as a sink installed before its
      first event would hold them, timed from that event. *)

  val to_chrome_json : event list -> Json.t
  (** [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one complete
      ("ph":"X") event per span. *)

  val write_chrome_json : path:string -> event list -> unit
end

(** Process-wide named counters and histograms.

    Handles are cheap records; [counter]/[histogram] get-or-create by
    name, so modules may resolve their instruments once at toplevel and
    bump them on hot paths with a single mutation.  {!reset} zeroes every
    registered instrument in place (handles stay valid), which is how the
    CLI and tests scope a measurement to one run. *)
module Metrics : sig
  type counter

  val counter : string -> counter
  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int

  type histogram

  val histogram : string -> histogram
  val observe : histogram -> float -> unit
  val observe_int : histogram -> int -> unit

  type histogram_stats = {
    count : int;
    sum : float;
    min_v : float;  (** 0 when empty *)
    max_v : float;  (** 0 when empty *)
    mean : float;  (** 0 when empty *)
    p50 : float;
        (** median over the retained sample window (the last 1024
            observations); 0 when empty *)
    p90 : float;  (** 90th percentile over the same window *)
  }

  val histogram_stats : histogram -> histogram_stats

  val counters : unit -> (string * int) list
  (** Sorted by name. *)

  val histograms : unit -> (string * histogram_stats) list
  (** Sorted by name. *)

  val reset : unit -> unit

  (** Allocation accounting for a measured region, via [Gc.quick_stat]
      deltas (no heap traversal, so marking is cheap enough for per-case
      benchmarking). *)

  type gc_mark

  val gc_mark : unit -> gc_mark

  type gc_delta = {
    minor_collections : int;
    major_collections : int;
    allocated_words : float;
        (** words allocated by the region: minor + major - promoted *)
    top_heap_words : int;
        (** peak heap words of the {e process} at delta time — a
            high-water mark, not a per-region figure *)
  }

  val gc_delta : gc_mark -> gc_delta

  val to_json : unit -> Json.t
  (** [{"counters": {...}, "histograms": {name: {count, sum, min, max,
      mean, p50, p90}}}]. *)
end

(** Optimization provenance: one typed event per netlist mutation, so a run
    can be replayed as "which mechanism removed which cell".

    Events travel on the bus ([Provenance] kind, {!event_to_json}
    payload); {!of_events} decodes them from a recorded stream.  They are
    serialized as JSONL (one compact JSON object per line) and aggregated
    into a per-mechanism area-attribution table mirroring the paper's
    ablation. *)
module Provenance : sig
  type mechanism =
    | Pruned  (** reachability pruning / dead-code removal *)
    | Rule of string  (** a named inference or folding rule *)
    | Sat  (** resolved by a SAT query *)
    | Restructure  (** muxtree restructuring *)

  type kind =
    | Cell_removed
    | Mux_bypassed
    | Const_resolved
    | Tree_rebuilt
    | Dead_branch

  type event = {
    kind : kind;
    cell : int;  (** netlist cell id *)
    pass : string;  (** emitting pass, e.g. ["sat_elim"] *)
    mechanism : mechanism;
    query : int option;  (** SAT query id when [mechanism] is [Sat] *)
    bits : int;  (** affected bit count (0 when not meaningful) *)
    area_delta : int;  (** estimated AIG-area change; negative = saved *)
  }

  val emit :
    kind:kind ->
    cell:int ->
    pass:string ->
    mechanism:mechanism ->
    ?query:int ->
    ?bits:int ->
    ?area_delta:int ->
    unit ->
    unit
  (** Emit one event on the bus; no-op without a bus subscriber. *)

  val of_events : Event.t list -> event list
  (** The provenance events of a stream, decoded, in stream order — what
      [opt --provenance] writes, and what [smartly explain] and the run
      report read from a ledger's [events.jsonl]. *)

  val kind_name : kind -> string
  val mechanism_name : mechanism -> string
  (** [Pruned -> "pruned"], [Rule r -> "rule:" ^ r], ... *)

  val mechanism_of_name : string -> mechanism option
  (** Inverse of {!mechanism_name}, ["rule:"] included. *)

  val event_to_json : event -> Json.t
  val event_of_json : Json.t -> (event, string) result

  val to_jsonl_string : event list -> string
  val write_jsonl : path:string -> event list -> unit

  val parse_jsonl : string -> (event list, string) result
  (** Strict: every non-blank line must be a well-formed event.  [Error]
      messages carry the 1-based line number. *)

  (** One row of the area-attribution table. *)
  type attribution = {
    mech : string;  (** {!mechanism_name} of the row's mechanism *)
    cells_removed : int;
    muxes_bypassed : int;
    consts_resolved : int;  (** constant-substituted bits *)
    trees_rebuilt : int;
    dead_branches : int;
    area_saved : int;  (** positive = AIG area removed *)
  }

  val attribute : event list -> attribution list
  (** Grouped by mechanism, sorted by cells removed then area saved. *)

  val attribution_to_json : attribution -> Json.t

  val summary_json : event list -> Json.t
  (** [{"events", "cells_removed", "area_saved", "by_mechanism": [...]}] —
      the [provenance_summary] section of the run report. *)
end

(** The run report ([smartly-report-v4]): the one document [opt --json]
    prints over the live stream and [smartly report] prints over a
    ledger's [events.jsonl]. *)
module Run_report : sig
  val of_events : ?manifest:Json.t -> ?torn_at:int -> Event.t list -> Json.t
  (** Sections, each read from the stream:
      - [source], [flow]: from [Run_start];
      - [area {before, after}] ([Run_start]/[Run_end] areas) and
        [reduction_pct];
      - [wall_seconds], [iterations], [sat_log], [metrics]: from
        [Run_end] (the metrics registry's counters and histograms);
      - [passes]: [Pass_end] totals (name, calls, seconds, last cells,
        and [counters], the sum of its [Pass_end] counter deltas), in
        first-seen order;
      - [in_flight_pass]: the innermost [Pass_start] the stream never
        closed — where a run that died stopped — or [null];
      - [spans]: [Span_close] totals (name, calls, seconds), by name;
      - [sat_queries]: the number of [Sat_query] events;
      - [budget]: the [Budget_exceeded] payloads;
      - [cells_removed]: the number of [Cell_removed] provenance events;
      - [provenance_summary]: {!Provenance.summary_json};
      - [events {count, ordered, torn_at}]: [ordered] checks the stream
        invariants ([seq] increasing, [t_ns] non-decreasing).
      The ledger context — [status] (the manifest's) and [manifest] — is
      [null] when not given, as over a live stream.  A
      section whose event is missing (an interrupted run has no
      [Run_end]) is [null]. *)
end

(** Per-run ledger directory: [.smartly/runs/<run-id>/] with a manifest,
    the ordered event stream, and every artifact the run produces.

    The manifest is written at creation with status ["running"] and
    rewritten by {!finish}; a run that died unobserved leaves the
    ["running"] status and its [events.jsonl], flushed per event — enough
    for [smartly report] to name the pass it died in without the writing
    process. *)
module Ledger : sig
  type t

  val default_root : string
  (** [".smartly/runs"], relative to the working directory. *)

  val fresh_run_id : unit -> string
  (** UTC timestamp plus pid, e.g. ["20260808-142233-91021"]. *)

  val create :
    ?root:string ->
    ?run_id:string ->
    ?attach_events:bool ->
    argv:string list ->
    env:Json.t ->
    unit ->
    t
  (** Make the run directory (suffixing the id on collision), write the
      initial manifest and — unless [attach_events:false] (bench
      measurement runs, where per-event file I/O would perturb timings) —
      attach an [events.jsonl] sink to the bus.  [env] is the caller's environment fingerprint (the CLI
      passes [Perf.Schema]'s). *)

  val dir : t -> string
  val run_id : t -> string

  val path : t -> string -> string
  (** [path t name] is [dir t ^ "/" ^ name] — where runs place their
      trace, provenance, SAT-dump and report artifacts. *)

  val finish : ?extra:(string * Json.t) list -> status:string -> t -> unit
  (** Detach the [events.jsonl] sink (closing it) and rewrite the
      manifest with [status], an end timestamp, any [extra] summary
      fields and, when a bus sink raised, [sink_errors] ({!Event.failed_sinks}
      as [{sink, error}] objects).  Idempotent: only the first call acts.
      Safe to call from a signal handler (OCaml runs handlers at safe
      points). *)
end
