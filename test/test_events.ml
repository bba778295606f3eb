(* Tests for the unified event bus, the run ledger, and the
   resource-budget watchdog: the observability path a dead process leaves
   behind must be ordered, parseable, and truthful about what was in
   flight. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

(* every test owns the process-global bus *)
let with_bus f =
  Obs.Event.reset ();
  Fun.protect ~finally:Obs.Event.reset f

(* --- bus ordering --- *)

let assert_stream_ordered (evs : Obs.Event.t list) =
  ignore
    (List.fold_left
       (fun prev (e : Obs.Event.t) ->
         (match prev with
         | None -> ()
         | Some (p : Obs.Event.t) ->
           check_bool "seq strictly increasing" true
             (e.Obs.Event.seq > p.Obs.Event.seq);
           check_bool "timestamps non-decreasing" true
             (Int64.compare e.Obs.Event.t_ns p.Obs.Event.t_ns >= 0));
         Some e)
       None evs)

let test_bus_ordering_interleaved_spans () =
  with_bus @@ fun () ->
  let _, events = Obs.Event.record () in
  (* interleave span traffic with pass boundaries and manual emits: the
     stream must come out gaplessly sequenced and time-ordered whatever
     the nesting *)
  Obs.Event.emit ~name:"p1" Obs.Event.Pass_start;
  Obs.Trace.with_span "outer" (fun () ->
      Obs.Event.emit ~name:"q0" Obs.Event.Sat_query;
      Obs.Trace.with_span "inner" (fun () ->
          Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:1
            ~pass:"p1" ~mechanism:Obs.Provenance.Pruned ()));
  Obs.Event.emit ~name:"p1" Obs.Event.Pass_end;
  let evs = events () in
  check_int "eight events" 8 (List.length evs);
  assert_stream_ordered evs;
  check_int "seq starts at 0" 0 (List.hd evs).Obs.Event.seq;
  let kinds = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.kind) evs in
  check_bool "span opens recorded" true
    (List.mem Obs.Event.Span_open kinds && List.mem Obs.Event.Span_close kinds);
  (* spans nest: inner closes before outer *)
  let names_of k =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        if e.Obs.Event.kind = k then Some e.Obs.Event.name else None)
      evs
  in
  check_bool "open order" true (names_of Obs.Event.Span_open = [ "outer"; "inner" ]);
  check_bool "close order" true
    (names_of Obs.Event.Span_close = [ "inner"; "outer" ])

let test_bus_jsonl_roundtrip () =
  with_bus @@ fun () ->
  let _, events = Obs.Event.record () in
  Obs.Event.emit ~name:"p" Obs.Event.Pass_start;
  Obs.Event.emit ~name:"q7"
    ~data:(Obs.Json.Obj [ "conflicts", Obs.Json.num_of_int 3 ])
    Obs.Event.Sat_query;
  Obs.Event.emit ~name:"p" Obs.Event.Pass_end;
  let evs = events () in
  let text =
    String.concat ""
      (List.map
         (fun e -> Obs.Json.to_string (Obs.Event.to_json e) ^ "\n")
         evs)
  in
  let back, torn = Obs.Event.parse_jsonl_partial text in
  check_bool "no torn tail" true (torn = None);
  check_bool "roundtrips" true (back = evs)

(* The Trace sink is a fold over the bus: it records one span per close
   a recording sees, and [Trace.of_events] over the recording pairs the
   same spans. *)
let test_sinks_fold_the_bus () =
  with_bus @@ fun () ->
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  let _, events = Obs.Event.record () in
  let trace = Obs.Trace.make_sink () in
  Obs.Trace.install trace;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
      ignore (Smartly.Driver.smartly c));
  let evs = events () in
  let closes =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) -> e.Obs.Event.kind = Obs.Event.Span_close)
         evs)
  in
  check_bool "spans on the bus" true (closes > 0);
  check_int "one span per close" closes (Obs.Trace.event_count trace);
  (* the two differ only in their time origin *)
  let shape =
    List.map (fun (e : Obs.Trace.event) ->
        e.Obs.Trace.name, e.Obs.Trace.depth, e.Obs.Trace.dur_us)
  in
  check_bool "of_events pairs the sink's spans" true
    (shape (Obs.Trace.of_events evs) = shape (Obs.Trace.events trace));
  check_bool "provenance on the bus" true (Obs.Provenance.of_events evs <> [])

(* --- the pass in flight, from the stream --- *)

let in_flight evs =
  Obs.Json.member "in_flight_pass" (Obs.Run_report.of_events evs)

let test_in_flight_pass () =
  with_bus @@ fun () ->
  let _, events = Obs.Event.record () in
  let after f =
    f ();
    in_flight (events ())
  in
  let start name () = Obs.Event.emit ~name Obs.Event.Pass_start in
  let stop name () = Obs.Event.emit ~name Obs.Event.Pass_end in
  check_bool "empty stream" true (after ignore = Some Obs.Json.Null);
  check_bool "unclosed pass" true
    (after (start "sat_elim") = Some (Obs.Json.Str "sat_elim"));
  check_bool "innermost of nested" true
    (after (start "nested") = Some (Obs.Json.Str "nested"));
  check_bool "inner closed" true
    (after (stop "nested") = Some (Obs.Json.Str "sat_elim"));
  check_bool "all closed" true (after (stop "sat_elim") = Some Obs.Json.Null);
  check_bool "a later unclosed pass" true
    (after (fun () ->
         start "opt_expr" ();
         stop "opt_expr" ();
         start "restructure" ())
    = Some (Obs.Json.Str "restructure"))

(* --- sink failure isolation --- *)

let test_sink_failure_isolation () =
  with_bus @@ fun () ->
  let seen_a = ref 0 and seen_c = ref 0 in
  let _a = Obs.Event.subscribe ~name:"a" (fun _ -> incr seen_a) in
  let _b =
    Obs.Event.subscribe ~name:"bad" (fun _ -> failwith "sink exploded")
  in
  let _c = Obs.Event.subscribe ~name:"c" (fun _ -> incr seen_c) in
  for i = 1 to 3 do
    Obs.Event.emit ~name:(Printf.sprintf "q%d" i) Obs.Event.Sat_query
  done;
  check_int "first sink got every event" 3 !seen_a;
  check_int "third sink got every event" 3 !seen_c;
  match Obs.Event.failed_sinks () with
  | [ (name, msg) ] ->
    check_string "failed sink named" "bad" name;
    check_bool "failure message kept" true
      (String.length msg > 0)
  | other ->
    Alcotest.failf "expected exactly one failed sink, got %d"
      (List.length other)

(* --- torn-tail JSONL recovery --- *)

let test_jsonl_torn_tail () =
  let good = {|{"a":1}
{"b":2}
|} in
  let torn = good ^ {|{"c":tru|} in
  let vals, off = Obs.Json.parse_jsonl_partial torn in
  check_int "complete records recovered" 2 (List.length vals);
  check_bool "offset names the torn line" true
    (off = Some (String.length good));
  let _, clean = Obs.Json.parse_jsonl_partial good in
  check_bool "clean input has no tear" true (clean = None);
  (* byte offsets of the recovered records *)
  (match vals with
  | [ (_, 0); (_, o2) ] -> check_int "second record offset" 8 o2
  | _ -> Alcotest.fail "unexpected offsets")

let test_event_stream_torn_tail () =
  with_bus @@ fun () ->
  let _, events = Obs.Event.record () in
  for i = 1 to 3 do
    Obs.Event.emit ~name:(Printf.sprintf "q%d" i) Obs.Event.Sat_query
  done;
  let lines =
    List.map
      (fun e -> Obs.Json.to_string (Obs.Event.to_json e) ^ "\n")
      (events ())
  in
  let text = String.concat "" lines in
  (* cut the final line mid-record, as a killed writer would *)
  let cut = String.sub text 0 (String.length text - 5) in
  let evs, off = Obs.Event.parse_jsonl_partial cut in
  check_int "two complete events" 2 (List.length evs);
  let expected_off =
    String.length (List.nth lines 0) + String.length (List.nth lines 1)
  in
  check_bool "tear at the last record" true (off = Some expected_off);
  assert_stream_ordered evs

(* Provenance lives in the event stream: a torn events.jsonl keeps every
   provenance event before the tear. *)
let test_provenance_torn_tail () =
  with_bus @@ fun () ->
  let _, events = Obs.Event.record () in
  Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:1
    ~pass:"test" ~mechanism:Obs.Provenance.Pruned ();
  Obs.Event.emit ~name:"q0" Obs.Event.Sat_query;
  Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:2
    ~pass:"test" ~mechanism:Obs.Provenance.Pruned ();
  let text =
    String.concat ""
      (List.map
         (fun e -> Obs.Json.to_string (Obs.Event.to_json e) ^ "\n")
         (events ()))
  in
  let evs, torn = Obs.Event.parse_jsonl_partial text in
  check_int "both decode" 2 (List.length (Obs.Provenance.of_events evs));
  check_bool "clean" true (torn = None);
  let cut = String.sub text 0 (String.length text - 3) in
  let evs', torn' = Obs.Event.parse_jsonl_partial cut in
  check_bool "first survives" true
    (List.map
       (fun (e : Obs.Provenance.event) -> e.Obs.Provenance.cell)
       (Obs.Provenance.of_events evs')
    = [ 1 ]);
  check_bool "tear reported" true (torn' <> None)

(* --- budget watchdog e2e --- *)

let test_budget_truncates_gracefully () =
  with_bus @@ fun () ->
  let _, events = Obs.Event.record () in
  let c0 = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  let c = Circuit.copy c0 in
  Smartly.Budget.reset ();
  let cfg =
    { Smartly.Config.default with Smartly.Config.pass_budget_ms = Some 0 }
  in
  let r = Smartly.Driver.smartly ~cfg c in
  (* a zero budget trips inside the SAT ladder and the rebuild loop, yet
     the flow completes and the netlist is still the same function *)
  check_bool "overruns recorded" true (r.Smartly.Driver.overruns <> []);
  List.iter
    (fun (o : Smartly.Budget.overrun) ->
      check_bool "overrun names its budget" true
        (o.Smartly.Budget.budget_ms = Some 0);
      check_bool "elapsed measured" true (o.Smartly.Budget.elapsed_ms >= 0.0))
    r.Smartly.Driver.overruns;
  let budget_evs =
    List.filter
      (fun (e : Obs.Event.t) ->
        e.Obs.Event.kind = Obs.Event.Budget_exceeded)
      (events ())
  in
  check_int "one event per overrun"
    (List.length r.Smartly.Driver.overruns)
    (List.length budget_evs);
  (match Equiv.check c c0 with
  | Equiv.Equivalent -> ()
  | Equiv.Not_equivalent o ->
    Alcotest.failf "truncated flow broke equivalence on %s" o
  | Equiv.Inconclusive -> Alcotest.fail "equivalence inconclusive");
  Smartly.Budget.reset ()

(* A starved sat_elim folds and bypasses nothing: the walk polls the
   watchdog before each data port and each tree.  An allocation budget of
   zero trips on the pass's first poll, so the outcome does not depend on
   the clock.  ind_00 at one block-mix copy is the scaled-down industrial
   design; its unbudgeted walk does fold data bits. *)
let test_budget_stops_folding () =
  with_bus @@ fun () ->
  Smartly.Budget.reset ();
  let p =
    match Workloads.Profiles.by_name "ind_00" with
    | Some p -> { p with Workloads.Profiles.repeat = 1 }
    | None -> Alcotest.fail "no ind_00 profile"
  in
  let c0 = Workloads.Profiles.circuit p in
  Obs.Metrics.reset ();
  ignore (Smartly.Driver.smartly (Circuit.copy c0));
  check_bool "the unbudgeted walk folds data bits" true
    (counter "sat_elim.data_bits_folded" > 0);
  let c = Circuit.copy c0 in
  let cfg =
    {
      Smartly.Config.default with
      Smartly.Config.pass_alloc_budget_mw = Some 0.0;
    }
  in
  Obs.Metrics.reset ();
  let _, events = Obs.Event.record () in
  let r = Smartly.Driver.smartly ~cfg c in
  check_bool "sat_elim ran" true
    (List.exists
       (fun (e : Obs.Event.t) ->
         e.Obs.Event.kind = Obs.Event.Pass_end && e.Obs.Event.name = "sat_elim")
       (events ()));
  check_int "no data bit folded" 0 (counter "sat_elim.data_bits_folded");
  check_int "no mux bypassed" 0 (counter "sat_elim.muxes_bypassed");
  (match
     List.find_opt
       (fun (o : Smartly.Budget.overrun) -> o.Smartly.Budget.pass = "sat_elim")
       r.Smartly.Driver.overruns
   with
  | Some o ->
    check_bool "skipped work counted" true (o.Smartly.Budget.truncated > 0)
  | None -> Alcotest.fail "sat_elim did not overrun");
  (match Equiv.check c c0 with
  | Equiv.Equivalent -> ()
  | Equiv.Not_equivalent o ->
    Alcotest.failf "starved flow broke equivalence on %s" o
  | Equiv.Inconclusive -> Alcotest.fail "equivalence inconclusive");
  Smartly.Budget.reset ()

(* A sat_elim pass stops soon after its wall-time budget trips: the walk
   polls the watchdog before each tree, each data-port fold and each
   ladder query, and the solver at every conflict and decision.  The
   full-size ind_03 walk takes seconds unbudgeted; at a 200 ms budget its
   overrun must stay well short of another 400 ms. *)
let test_budget_bounds_overrun () =
  Smartly.Budget.reset ();
  let p =
    match Workloads.Profiles.by_name "ind_03" with
    | Some p -> p
    | None -> Alcotest.fail "no ind_03 profile"
  in
  let c = Workloads.Profiles.circuit p in
  let cfg =
    { Smartly.Config.default with Smartly.Config.pass_budget_ms = Some 200 }
  in
  let r = Smartly.Driver.smartly ~cfg c in
  let overruns =
    List.filter
      (fun (o : Smartly.Budget.overrun) -> o.Smartly.Budget.pass = "sat_elim")
      r.Smartly.Driver.overruns
  in
  check_bool "sat_elim overran" true (overruns <> []);
  List.iter
    (fun (o : Smartly.Budget.overrun) ->
      if o.Smartly.Budget.elapsed_ms >= 600.0 then
        Alcotest.failf "sat_elim ran %.1f ms on a 200 ms budget"
          o.Smartly.Budget.elapsed_ms)
    overruns;
  Smartly.Budget.reset ()

let test_budget_unarmed_is_free () =
  Smartly.Budget.reset ();
  check_bool "not armed" true (not (Smartly.Budget.armed ()));
  check_bool "never exhausted unarmed" true (not (Smartly.Budget.exhausted ()));
  (* no budgets configured: arming is a no-op *)
  Smartly.Budget.arm ~pass:"p" ();
  check_bool "still not armed" true (not (Smartly.Budget.armed ()));
  check_bool "disarm yields nothing" true (Smartly.Budget.disarm () = None)

(* --- runs that died: the ledger's stream names the pass in flight --- *)

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A fresh ledger under a per-test root, removed afterwards. *)
let with_ledger tag f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smartly_test_%s_%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists root then rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  f
    (Obs.Ledger.create ~root
       ~argv:[ "smartly"; "opt"; tag ]
       ~env:(Obs.Json.Obj [ "hostname", Obs.Json.Str "test" ])
       ())

(* What [smartly report] reads, cold, after the writing process is gone. *)
let read_manifest l =
  match
    Obs.Json.parse (read_file (Filename.concat (Obs.Ledger.dir l) "manifest.json"))
  with
  | Ok j -> j
  | Error e -> Alcotest.failf "manifest does not parse: %s" e

let cold_report l =
  let evs, torn_at =
    Obs.Event.parse_jsonl_partial
      (read_file (Filename.concat (Obs.Ledger.dir l) "events.jsonl"))
  in
  evs, Obs.Run_report.of_events ~manifest:(read_manifest l) ?torn_at evs

let test_sabotaged_run_crash_record () =
  with_bus @@ fun () ->
  with_ledger "sabotaged" @@ fun l ->
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  (* the invariant-checker seat: raise while sat_elim is still the open
     pass, as a failed invariant (or a crash in the pass body) would *)
  let after_pass name _ =
    if name = "sat_elim" then failwith "sabotage"
  in
  (* what [opt] does when the flow raises *)
  (try ignore (Smartly.Driver.smartly ~after_pass c)
   with e ->
     Obs.Ledger.finish ~status:"crashed"
       ~extra:[ "reason", Obs.Json.Str (Printexc.to_string e) ]
       l);
  let manifest = read_manifest l in
  check_bool "status recorded" true
    (Obs.Json.mem_str "status" manifest = Some "crashed");
  check_bool "reason recorded" true
    (Obs.Json.mem_str "reason" manifest = Some "Failure(\"sabotage\")");
  check_bool "argv recorded" true
    (Obs.Json.mem_list "argv" manifest <> None);
  let evs, report = cold_report l in
  check_bool "event stream complete" true
    (Option.bind (Obs.Json.member "events" report) (Obs.Json.member "torn_at")
    = Some Obs.Json.Null);
  check_bool "events flushed" true (List.length evs > 0);
  assert_stream_ordered evs;
  check_bool "the stream names the pass in flight" true
    (Obs.Json.mem_str "in_flight_pass" report = Some "sat_elim");
  check_bool "the report carries the status" true
    (Obs.Json.mem_str "status" report = Some "crashed");
  check_bool "provenance in the event stream" true
    (Obs.Provenance.of_events evs <> []);
  (* the stream and the manifest are the whole record: no second copy *)
  check_bool "ledger holds the manifest and the stream alone" true
    (List.sort compare (Array.to_list (Sys.readdir (Obs.Ledger.dir l)))
    = [ "events.jsonl"; "manifest.json" ])

(* A SIGKILLed run never finishes its ledger: the manifest still says
   "running" and the last line of events.jsonl is torn mid-record.  The
   report still names the pass the stream ends in. *)
let test_killed_run_in_flight () =
  with_bus @@ fun () ->
  with_ledger "killed" @@ fun l ->
  Obs.Event.emit ~name:"k" ~data:(Obs.Json.Obj [ "area", Obs.Json.num_of_int 9 ])
    Obs.Event.Run_start;
  Obs.Event.emit ~name:"opt_expr" Obs.Event.Pass_start;
  Obs.Event.emit ~name:"opt_expr" Obs.Event.Pass_end;
  Obs.Event.emit ~name:"sat_elim" Obs.Event.Pass_start;
  Obs.Event.emit ~name:"q0" Obs.Event.Sat_query;
  (* the process dies: nothing finishes the ledger, and the write of the
     next event stops part-way *)
  Obs.Event.reset ();
  let path = Filename.concat (Obs.Ledger.dir l) "events.jsonl" in
  let whole = String.length (read_file path) in
  Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
      output_string oc {|{"seq":5,"t_ns":12|});
  let evs, report = cold_report l in
  check_int "complete events recovered" 5 (List.length evs);
  check_bool "torn tail located" true
    (Option.bind (Obs.Json.member "events" report) (Obs.Json.mem_int "torn_at")
    = Some whole);
  check_bool "still running" true
    (Obs.Json.mem_str "status" report = Some "running");
  check_bool "the pass in flight" true
    (Obs.Json.mem_str "in_flight_pass" report = Some "sat_elim");
  check_bool "no Run_end" true (Obs.Json.member "wall_seconds" report = Some Obs.Json.Null)

(* A sink that raised stopped receiving events; the finished manifest
   says which one and why. *)
let test_sink_errors_in_manifest () =
  with_bus @@ fun () ->
  with_ledger "sinkerr" @@ fun l ->
  ignore (Obs.Event.subscribe ~name:"full-disk" (fun _ -> failwith "ENOSPC"));
  Obs.Event.emit ~name:"q0" Obs.Event.Sat_query;
  Obs.Ledger.finish ~status:"ok" l;
  match Obs.Json.mem_list "sink_errors" (read_manifest l) with
  | Some [ e ] ->
    check_bool "sink named" true (Obs.Json.mem_str "sink" e = Some "full-disk");
    check_bool "error kept" true
      (Obs.Json.mem_str "error" e = Some "Failure(\"ENOSPC\")")
  | _ -> Alcotest.fail "expected one sink error in the manifest"

(* --- one run report --- *)

(* The run report over a live recording equals the report over the same
   stream written to events.jsonl and read back cold, and it counts every
   removed cell. *)
let test_report_from_ledger () =
  with_bus @@ fun () ->
  Obs.Metrics.reset ();
  Smartly.Engine.Sat_log.reset ();
  let path = Filename.temp_file "smartly_report" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let file = Obs.Event.attach_jsonl ~path in
  let recording, recorded = Obs.Event.record () in
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  let area c = Obs.Json.num_of_int (Aiger.Aigmap.aig_area c) in
  Obs.Event.emit ~name:"mux_chain"
    ~data:
      (Obs.Json.Obj
         [
           "source", Obs.Json.Str "mux_chain";
           "flow", Obs.Json.Str "smartly";
           "area", area c;
         ])
    Obs.Event.Run_start;
  let r = Smartly.Driver.smartly c in
  Obs.Event.emit ~name:"mux_chain"
    ~data:
      (Obs.Json.Obj
         [
           "area", area c;
           "iterations", Obs.Json.num_of_int r.Smartly.Driver.iterations;
           "sat_log", Smartly.Engine.Sat_log.to_json ();
           "metrics", Obs.Metrics.to_json ();
         ])
    Obs.Event.Run_end;
  Obs.Event.unsubscribe recording;
  Obs.Event.unsubscribe file;
  let live = Obs.Run_report.of_events (recorded ()) in
  let evs, torn_at = Obs.Event.parse_jsonl_partial (read_file path) in
  check_bool "no torn tail" true (torn_at = None);
  check_string "the same document"
    (Obs.Json.to_string ~pretty:true live)
    (Obs.Json.to_string ~pretty:true (Obs.Run_report.of_events ?torn_at evs));
  check_bool "schema" true
    (Obs.Json.mem_str "schema" live = Some "smartly-report-v4");
  check_bool "a finished run has no pass in flight" true
    (Obs.Json.member "in_flight_pass" live = Some Obs.Json.Null);
  check_bool "metrics carried" true
    (Option.bind (Obs.Json.member "metrics" live) (Obs.Json.member "counters")
     <> None);
  let removed = Obs.Metrics.value (Obs.Metrics.counter "flow.cells_removed") in
  check_bool "cells removed" true (removed > 0);
  check_bool "cells_removed = flow.cells_removed" true
    (Obs.Json.mem_int "cells_removed" live = Some removed);
  let per_iter =
    Obs.Metrics.histogram_stats
      (Obs.Metrics.histogram "driver.cells_removed_per_iter")
  in
  check_int "cells_removed_per_iter sums to flow.cells_removed" removed
    (int_of_float per_iter.Obs.Metrics.sum)

(* --- one pass record --- *)

(* Each pass's numbers live only in the metrics registry, and each
   Pass_end carries the counters its pass body moved, so over a recorded
   flow every counter the passes move is the sum of its Pass_end deltas,
   and so are the run report's per-pass sums.  Only driver.iterations is
   counted outside a pass. *)
let test_pass_end_counters () =
  List.iter
    (fun (profile, flow, run) ->
      with_bus @@ fun () ->
      let p =
        match Workloads.Profiles.by_name profile with
        | Some p -> p
        | None -> Alcotest.failf "no %s profile" profile
      in
      let c = Workloads.Profiles.circuit p in
      Obs.Metrics.reset ();
      let _, events = Obs.Event.record () in
      run c;
      let evs = events () in
      let what name = Printf.sprintf "%s %s: %s" profile flow name in
      let sum_of objects =
        let sums = Hashtbl.create 32 in
        List.iter
          (function
            | Some (Obs.Json.Obj kvs) ->
              List.iter
                (fun (k, v) ->
                  let n = Option.get (Obs.Json.to_int v) in
                  Hashtbl.replace sums k
                    (n + Option.value (Hashtbl.find_opt sums k) ~default:0))
                kvs
            | _ -> Alcotest.fail "a pass without a counters object")
          objects;
        fun name -> Option.value (Hashtbl.find_opt sums name) ~default:0
      in
      let pass_ends =
        sum_of
          (List.filter_map
             (fun (e : Obs.Event.t) ->
               if e.Obs.Event.kind = Obs.Event.Pass_end then
                 Some (Obs.Json.member "counters" e.Obs.Event.data)
               else None)
             evs)
      in
      let rows =
        sum_of
          (List.map (Obs.Json.member "counters")
             (Option.get
                (Obs.Json.mem_list "passes" (Obs.Run_report.of_events evs))))
      in
      check_bool (what "cells removed") true
        (counter "flow.cells_removed" > 0);
      List.iter
        (fun (name, v) ->
          if name <> "driver.iterations" then begin
            check_int (what name ^ " = its Pass_end sum") v (pass_ends name);
            check_int (what name ^ " = its report rows' sum") v (rows name)
          end)
        (Obs.Metrics.counters ()))
    [
      ("mux_chain", "smartly", fun c -> ignore (Smartly.Driver.smartly c));
      ("mux_chain", "yosys", fun c -> ignore (Smartly.Driver.yosys c));
      ("wb_dma", "smartly", fun c -> ignore (Smartly.Driver.smartly c));
      ("wb_dma", "yosys", fun c -> ignore (Smartly.Driver.yosys c));
    ]

(* --- ledger lifecycle --- *)

let test_ledger_collision_and_finish () =
  with_bus @@ fun () ->
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smartly_test_ledger2_%d" (Unix.getpid ()))
  in
  if Sys.file_exists root then rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root)
  @@ fun () ->
  let mk () =
    Obs.Ledger.create ~root ~run_id:"fixed" ~attach_events:false
      ~argv:[ "x" ] ~env:Obs.Json.Null ()
  in
  let a = mk () and b = mk () in
  check_string "first claims the id" "fixed" (Obs.Ledger.run_id a);
  check_string "second gets a suffix" "fixed-1" (Obs.Ledger.run_id b);
  Obs.Ledger.finish ~status:"ok" a;
  Obs.Ledger.finish ~status:"interrupted" a;
  (* idempotent: the second finish must not overwrite the first *)
  match
    Obs.Json.parse
      (read_file (Filename.concat (Obs.Ledger.dir a) "manifest.json"))
  with
  | Ok m ->
    check_bool "first finish wins" true
      (Obs.Json.mem_str "status" m = Some "ok");
    check_bool "end stamped" true (Obs.Json.member "ended_unix" m <> None);
    Obs.Ledger.finish ~status:"ok" b
  | Error e -> Alcotest.failf "manifest: %s" e

let () =
  Alcotest.run "events"
    [
      ( "bus",
        [
          Alcotest.test_case "ordering under interleaved spans" `Quick
            test_bus_ordering_interleaved_spans;
          Alcotest.test_case "jsonl roundtrip" `Quick test_bus_jsonl_roundtrip;
          Alcotest.test_case "in-flight pass" `Quick test_in_flight_pass;
          Alcotest.test_case "sink failure isolation" `Quick
            test_sink_failure_isolation;
          Alcotest.test_case "sinks fold the bus" `Quick
            test_sinks_fold_the_bus;
        ] );
      ( "torn tails",
        [
          Alcotest.test_case "json lines" `Quick test_jsonl_torn_tail;
          Alcotest.test_case "event stream" `Quick test_event_stream_torn_tail;
          Alcotest.test_case "provenance stream" `Quick
            test_provenance_torn_tail;
        ] );
      ( "budget",
        [
          Alcotest.test_case "graceful truncation" `Quick
            test_budget_truncates_gracefully;
          Alcotest.test_case "unarmed is free" `Quick
            test_budget_unarmed_is_free;
          Alcotest.test_case "starved walk stops folding" `Quick
            test_budget_stops_folding;
          Alcotest.test_case "ind_03 overrun bounded" `Quick
            test_budget_bounds_overrun;
        ] );
      ( "pass record",
        [
          Alcotest.test_case "Pass_end counters sum to the registry" `Quick
            test_pass_end_counters;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "sabotaged run crash record" `Quick
            test_sabotaged_run_crash_record;
          Alcotest.test_case "killed run in flight" `Quick
            test_killed_run_in_flight;
          Alcotest.test_case "sink errors in manifest" `Quick
            test_sink_errors_in_manifest;
          Alcotest.test_case "collision and finish" `Quick
            test_ledger_collision_and_finish;
          Alcotest.test_case "report from ledger" `Quick
            test_report_from_ledger;
        ] );
    ]
