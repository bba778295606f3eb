(** Batch optimization daemon: JSONL jobs over a channel pair.

    [smartly serve] wraps this over stdio or a Unix socket.  Each
    [optimize] request loads a circuit (through the caller-supplied
    loader — this library never depends on the HDL frontend), runs the
    smartly flow with per-job {!Engine.Sat_log}/{!Budget} scoping, and
    answers with a [smartly-job-v1] job report.  The warm state that
    persists across jobs is the {!Replay} pass cache: a recurring design
    — stamped-out variants of one source — replays whole [sat_elim]
    passes from their recorded edits without walking.  That cross-job
    state is the effect the [jobs_per_sec] bench section measures.

    Protocol (one JSON object per line, one response per line):
    {v
    {"op":"optimize","id":ID?,"kind":K?,"source":S,
     "budget_ms":B?}                            -> job report
    {"op":"ping"}                               -> {"op":"ping","status":"ok"}
    {"op":"stats"}                              -> counters + replay state
    {"op":"shutdown"}                           -> ack, then the loop returns
    v}
    A [budget_ms] that is not a non-negative integer is answered with an
    error naming the field.  Other fields of an [optimize] request are
    ignored, so older clients'
    ["jobs"] and ["portfolio"] fields are accepted and have no effect.
    Malformed lines get [{"status":"error",...}] and the daemon keeps
    serving — one bad job must not take down the batch. *)

open Netlist

type load = kind:string -> string -> (Circuit.t, string) result
(** Resolve an [optimize] request's [kind]/[source] pair to a circuit.
    The CLI's loader accepts kind ["profile"] (workload profile name)
    and ["verilog"] (path to a source file). *)

type t
(** A daemon instance: base config, loader, warm replay store, job
    counters. *)

val create : ?cfg:Config.t -> load:load -> unit -> t
(** [cfg] (default {!Config.default}) is the base for every job;
    requests override [pass_budget_ms] per job. *)

val handle : t -> string -> Obs.Json.t * bool
(** Process one request line.  Returns the response and whether to keep
    serving ([false] only after [shutdown]).  Exposed for tests. *)

val run : t -> in_channel -> out_channel -> bool
(** Serve requests until EOF or [shutdown], flushing one response line
    per request.  [true] when the client asked for shutdown — the
    socket accept loop's cue to stop accepting (plain EOF just ends the
    connection). *)
