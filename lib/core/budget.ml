(* Per-pass resource watchdog.

   The driver arms it before each pass with the configured wall-time /
   allocation limits, the expensive inner loops (the Engine sim-vs-SAT
   ladder, the SAT solver's search loop, the Restructure root walk) poll
   [exhausted] and degrade gracefully — stop the SAT call, forgo the
   query, skip the tree — and the driver disarms it after the pass,
   collecting an overrun record if the budget tripped.

   The design constraint is the poll: [exhausted] sits inside
   Engine.determine and runs at every solver conflict and decision, so
   with no budget armed it must reduce to one ref read, and
   with one armed to a clock read and a compare.  Once a limit trips the
   verdict is sticky until [disarm] — a pass that has blown its budget
   stays truncated rather than flapping. *)

type overrun = {
  pass : string;
  budget_ms : int option;
  elapsed_ms : float;
  alloc_budget_mw : float option;
  alloc_mw : float;  (* millions of words allocated while armed *)
  truncated : int;  (* work items abandoned after the budget tripped *)
}

type armed = {
  a_pass : string;
  a_deadline : int64 option;  (* Clock.now_ns at which the pass is over *)
  a_alloc_limit : float option;  (* minor-words reading not to exceed *)
  a_start_ns : int64;
  a_start_words : float;
  mutable a_tripped : bool;
  mutable a_truncated : int;
}

let state : armed option ref = ref None

let m_exceeded = Obs.Metrics.counter "budget.exceeded"
let m_truncated = Obs.Metrics.counter "budget.truncated"

let arm ?(cfg = Config.default) ~pass () =
  match cfg.Config.pass_budget_ms, cfg.Config.pass_alloc_budget_mw with
  | None, None -> state := None
  | wall_ms, alloc_mw ->
    let now = Obs.Clock.now_ns () in
    let words = Gc.minor_words () in
    state :=
      Some
        {
          a_pass = pass;
          a_deadline =
            Option.map
              (fun ms -> Int64.add now (Int64.of_int (ms * 1_000_000)))
              wall_ms;
          a_alloc_limit = Option.map (fun mw -> words +. (mw *. 1e6)) alloc_mw;
          a_start_ns = now;
          a_start_words = words;
          a_tripped = false;
          a_truncated = 0;
        }

let armed () = !state <> None

let exhausted () =
  match !state with
  | None -> false
  | Some a ->
    a.a_tripped
    || begin
         let over =
           (match a.a_deadline with
           | Some d -> Int64.compare (Obs.Clock.now_ns ()) d > 0
           | None -> false)
           ||
           match a.a_alloc_limit with
           | Some limit -> Gc.minor_words () > limit
           | None -> false
         in
         if over then begin
           a.a_tripped <- true;
           Obs.Metrics.incr m_exceeded
         end;
         over
       end

let note_truncation () =
  match !state with
  | None -> ()
  | Some a ->
    a.a_truncated <- a.a_truncated + 1;
    Obs.Metrics.incr m_truncated

let disarm () =
  match !state with
  | None -> None
  | Some a ->
    state := None;
    if not a.a_tripped then None
    else begin
      let cfg_ms =
        Option.map
          (fun d ->
            Int64.to_int (Int64.div (Int64.sub d a.a_start_ns) 1_000_000L))
          a.a_deadline
      in
      let cfg_mw =
        Option.map (fun l -> (l -. a.a_start_words) /. 1e6) a.a_alloc_limit
      in
      Some
        {
          pass = a.a_pass;
          budget_ms = cfg_ms;
          elapsed_ms =
            Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) a.a_start_ns)
            /. 1e6;
          alloc_budget_mw = cfg_mw;
          alloc_mw = (Gc.minor_words () -. a.a_start_words) /. 1e6;
          truncated = a.a_truncated;
        }
    end

let reset () = state := None

let overrun_to_json (o : overrun) : Obs.Json.t =
  Obs.Json.Obj
    ([ "pass", Obs.Json.Str o.pass ]
    @ (match o.budget_ms with
      | Some ms -> [ "budget_ms", Obs.Json.num_of_int ms ]
      | None -> [])
    @ [ "elapsed_ms", Obs.Json.Num o.elapsed_ms ]
    @ (match o.alloc_budget_mw with
      | Some mw -> [ "alloc_budget_mw", Obs.Json.Num mw ]
      | None -> [])
    @ [
        "alloc_mw", Obs.Json.Num o.alloc_mw;
        "truncated", Obs.Json.num_of_int o.truncated;
      ])
