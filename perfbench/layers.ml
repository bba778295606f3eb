(* Traced-run span capture.

   A traced run records the spans the program already opens through
   [Obs.Trace] (one per pass, per flow, per AIG mapping) plus the spans
   the benchmark opens around its own calls into each layer.  Every
   measured call gets a fresh sink, so the call's own events come back to
   the caller for per-layer sums; all of them are also kept in memory and
   written out once, when the run ends, as one Chrome trace_event file.

   With tracing off, [capture] calls the thunk directly: no sink is
   installed and nothing is recorded, so the untraced run measures the
   program exactly as a user runs it. *)

let enabled = ref false

(* run origin, so captures line up on one time axis in the trace file *)
let origin = Obs.Clock.now ()

(* (offset of the capture's sink in microseconds, its events), newest
   first *)
let captured : (float * Obs.Trace.event list) list ref = ref []

let capture name f =
  if not !enabled then (f (), [])
  else begin
    let sink = Obs.Trace.make_sink () in
    let offset = (Obs.Clock.now () -. origin) *. 1e6 in
    Obs.Trace.install sink;
    let r =
      Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
          Obs.Trace.with_span name f)
    in
    let events = Obs.Trace.events sink in
    captured := (offset, events) :: !captured;
    (r, events)
  end

(* total seconds of the spans named [name] among [events] *)
let seconds events name =
  List.fold_left
    (fun acc (e : Obs.Trace.event) ->
      if e.Obs.Trace.name = name then acc +. (e.Obs.Trace.dur_us /. 1e6)
      else acc)
    0.0 events

(* Self time of every span (its duration minus the part its direct
   children cover), summed per span name.  [Obs.Trace.events] lists a
   capture parents-first, so the open ancestors at each depth form a
   stack. *)
let self_times () =
  let totals = Hashtbl.create 32 in
  let add name us =
    Hashtbl.replace totals name
      (us +. Option.value (Hashtbl.find_opt totals name) ~default:0.0)
  in
  List.iter
    (fun (_, events) ->
      let open_at = Hashtbl.create 8 in
      List.iter
        (fun (e : Obs.Trace.event) ->
          add e.Obs.Trace.name e.Obs.Trace.dur_us;
          (match Hashtbl.find_opt open_at (e.Obs.Trace.depth - 1) with
          | Some parent -> add parent (-.e.Obs.Trace.dur_us)
          | None -> ());
          Hashtbl.replace open_at e.Obs.Trace.depth e.Obs.Trace.name)
        events)
    !captured;
  Hashtbl.fold (fun name us acc -> (name, us /. 1e6) :: acc) totals []
  |> List.sort compare

let write ~path =
  let open Obs.Json in
  let events =
    List.concat_map
      (fun (offset, events) ->
        List.map
          (fun (e : Obs.Trace.event) ->
            Obj
              [
                ("name", Str e.Obs.Trace.name);
                ("ph", Str "X");
                ("ts", Num (offset +. e.Obs.Trace.ts_us));
                ("dur", Num e.Obs.Trace.dur_us);
                ("pid", num_of_int 1);
                ("tid", num_of_int 1);
              ])
          events)
      (List.rev !captured)
  in
  let self =
    Obj (List.map (fun (name, s) -> (name, Num s)) (self_times ()))
  in
  let doc =
    Obj
      [
        ("traceEvents", List events);
        ("displayTimeUnit", Str "ms");
        ("otherData", Obj [ ("self_seconds", self) ]);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string doc);
      output_char oc '\n')
