(* Batch optimization daemon: JSONL jobs over a channel pair.

   One request per line, one response per line.  The payoff over looping
   `smartly opt` in a shell is the warm state a process boundary would
   throw away: a single pass-replay store ({!Replay}) stays installed
   for the daemon's lifetime, so a recurring design — overwhelmingly
   common when a batch stamps out variants of the same design — replays
   whole [sat_elim] passes in later jobs.  The jobs_per_sec bench
   section measures exactly this effect.

   The daemon is transport-agnostic: it reads requests from an
   [in_channel] and writes responses to an [out_channel], so the CLI can
   run it over stdio or over accepted Unix-socket connections, and tests
   can drive it over a socketpair.  Circuit loading is a callback so
   this library never depends on the HDL frontend; the CLI supplies a
   loader that resolves workload profile names and Verilog sources.

   Protocol (one JSON object per line):
     {"op":"optimize","id":...,"kind":...,"source":...,
      "budget_ms":B?}               -> smartly-job-v1 job report
                                       (B a non-negative integer)
     {"op":"ping"}                  -> {"op":"ping","status":"ok"}
     {"op":"stats"}                 -> daemon counters + replay state
     {"op":"shutdown"}              -> {"op":"shutdown","status":"ok"}, stop
   Malformed lines get {"status":"error",...} and the daemon keeps
   serving: one bad job must not take down the batch. *)

open Netlist

type load = kind:string -> string -> (Circuit.t, string) result

type t = {
  load : load;
  base_cfg : Config.t;
  replays : Replay.t;
      (* pass-replay cache: whole sat_elim passes recur across a batch
         of stamped-out variants and replay from their recorded edits *)
  started : float;
  mutable jobs_ok : int;
  mutable jobs_failed : int;
}

let create ?(cfg = Config.default) ~load () =
  {
    load;
    base_cfg = cfg;
    replays = Replay.make ();
    started = Obs.Clock.now ();
    jobs_ok = 0;
    jobs_failed = 0;
  }

let error_response ?id msg : Obs.Json.t =
  let open Obs.Json in
  Obj
    ((match id with Some i -> [ ("id", Str i) ] | None -> [])
    @ [ ("status", Str "error"); ("error", Str msg) ])

let m_sat_queries = Obs.Metrics.counter "engine.sat_queries"

(* One job: load, scope the per-job telemetry, run the smartly flow
   under the warm store, report.  [Sat_log]/[Budget] are reset per job
   and the SAT query count is the job's change in the counter, so the
   report describes this job alone while the registry keeps the batch's
   totals; the replay section is the warm store's cumulative state — its
   hit rate rising across jobs is the daemon's reason to exist. *)
let optimize t ~id ~kind ~source ~budget_ms : Obs.Json.t =
  match t.load ~kind source with
  | Error msg ->
    t.jobs_failed <- t.jobs_failed + 1;
    error_response ~id msg
  | Ok c -> (
    let cfg =
      {
        t.base_cfg with
        Config.pass_budget_ms =
          (match budget_ms with
          | Some _ -> budget_ms
          | None -> t.base_cfg.Config.pass_budget_ms);
      }
    in
    Engine.Sat_log.reset ();
    Budget.reset ();
    Replay.install t.replays;
    let queries0 = Obs.Metrics.value m_sat_queries in
    (* the whole job runs under the guard: a netlist the loader let
       through can still fail the area measurement, not only the flow *)
    match
      let area0 = Aiger.Aigmap.aig_area c in
      let t0 = Obs.Clock.now () in
      let result = Driver.smartly ~cfg c in
      let dt = Obs.Clock.now () -. t0 in
      (area0, result, dt, Aiger.Aigmap.aig_area c)
    with
    | exception e ->
      t.jobs_failed <- t.jobs_failed + 1;
      error_response ~id ("job failed: " ^ Printexc.to_string e)
    | area0, result, dt, area1 ->
      t.jobs_ok <- t.jobs_ok + 1;
      let open Obs.Json in
      Obj
        [
          ("schema", Str "smartly-job-v1");
          ("op", Str "optimize");
          ("id", Str id);
          ("status", Str "ok");
          ("source", Str source);
          ("area", Obj [ ("before", num_of_int area0); ("after", num_of_int area1) ]);
          ( "reduction_pct",
            Num
              (if area0 = 0 then 0.0
               else
                 100.0 *. float_of_int (area0 - area1) /. float_of_int area0)
          );
          ("wall_seconds", Num dt);
          ("iterations", num_of_int result.Driver.iterations);
          ( "sat_queries",
            num_of_int (Obs.Metrics.value m_sat_queries - queries0) );
          ("replay", Replay.to_json t.replays);
          ( "budget",
            List (List.map Budget.overrun_to_json result.Driver.overruns) );
        ])

let stats t : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("op", Str "stats");
      ("status", Str "ok");
      ("jobs_ok", num_of_int t.jobs_ok);
      ("jobs_failed", num_of_int t.jobs_failed);
      ("uptime_seconds", Num (Obs.Clock.now () -. t.started));
      ("replay", Replay.to_json t.replays);
    ]

(* Handle one request line; [false] means shutdown was requested. *)
let handle t (line : string) : Obs.Json.t * bool =
  match Obs.Json.parse line with
  | Error msg -> (error_response ("parse error: " ^ msg), true)
  | Ok req -> (
    let id =
      Option.value (Obs.Json.mem_str "id" req)
        ~default:(Printf.sprintf "job-%d" (t.jobs_ok + t.jobs_failed))
    in
    match Obs.Json.mem_str "op" req with
    | Some "ping" ->
      (Obs.Json.Obj [ ("op", Str "ping"); ("status", Str "ok") ], true)
    | Some "stats" -> (stats t, true)
    | Some "shutdown" ->
      (Obs.Json.Obj [ ("op", Str "shutdown"); ("status", Str "ok") ], false)
    | Some "optimize" -> (
      (* absent is no budget; present, it must be a non-negative integer *)
      let budget_ms =
        match Obs.Json.member "budget_ms" req with
        | None -> Ok None
        | Some b -> (
          match Obs.Json.to_int b with
          | Some ms when ms >= 0 -> Ok (Some ms)
          | _ -> Error "optimize: \"budget_ms\" must be a non-negative integer")
      in
      match Obs.Json.mem_str "source" req, budget_ms with
      | None, _ -> (error_response ~id "optimize: missing \"source\"", true)
      | Some _, Error msg -> (error_response ~id msg, true)
      | Some source, Ok budget_ms ->
        let kind =
          Option.value (Obs.Json.mem_str "kind" req) ~default:"profile"
        in
        (optimize t ~id ~kind ~source ~budget_ms, true))
    | Some op -> (error_response ~id ("unknown op: " ^ op), true)
    | None -> (error_response ~id "missing \"op\"", true))

(* Serve a channel pair until EOF or shutdown.  Responses are flushed
   per line so a pipelining client can read each report as its job
   finishes.  Returns [true] when the client requested shutdown — the
   socket accept loop's signal to stop accepting, as opposed to a
   client merely hanging up. *)
let run t (ic : in_channel) (oc : out_channel) : bool =
  let respond j =
    output_string oc (Obs.Json.to_string j);
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> false
    | line when String.trim line = "" -> loop ()
    | line ->
      let resp, continue = handle t line in
      respond resp;
      if continue then loop () else true
  in
  loop ()
