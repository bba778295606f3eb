(* Tests for the unified event bus, the flight-recorder ring, the run
   ledger, and the resource-budget watchdog: the observability path a
   dead process leaves behind must be ordered, parseable, and truthful
   about what was in flight. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* every test owns the process-global bus *)
let with_bus f =
  Obs.Event.reset ();
  Fun.protect ~finally:Obs.Event.reset f

let collect () =
  let evs = ref [] in
  let sub = Obs.Event.subscribe (fun e -> evs := e :: !evs) in
  sub, fun () -> List.rev !evs

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
  let _, events = collect () in
  (* interleave span traffic with pass boundaries and manual emits: the
     stream must come out gaplessly sequenced and time-ordered whatever
     the nesting *)
  Obs.Event.emit ~name:"p1" Obs.Event.Pass_start;
  Obs.Trace.with_span "outer" (fun () ->
      Obs.Event.emit ~name:"m1" Obs.Event.Metric;
      Obs.Trace.with_span "inner" (fun () ->
          Obs.Event.emit ~name:"note" Obs.Event.Note));
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
  let _, events = collect () in
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

(* --- current-pass stack --- *)

let test_current_pass_stack () =
  with_bus @@ fun () ->
  (* truthful even with zero subscribers *)
  check_bool "idle" true (Obs.Event.current_pass () = None);
  Obs.Event.emit ~name:"sat_elim" Obs.Event.Pass_start;
  check_bool "in pass" true (Obs.Event.current_pass () = Some "sat_elim");
  Obs.Event.emit ~name:"nested" Obs.Event.Pass_start;
  check_bool "innermost wins" true
    (Obs.Event.current_pass () = Some "nested");
  Obs.Event.emit ~name:"nested" Obs.Event.Pass_end;
  check_bool "popped" true (Obs.Event.current_pass () = Some "sat_elim");
  Obs.Event.emit ~name:"sat_elim" Obs.Event.Pass_end;
  check_bool "idle again" true (Obs.Event.current_pass () = None)

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
    Obs.Event.emit ~name:(Printf.sprintf "n%d" i) Obs.Event.Note
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

(* --- flight-recorder ring --- *)

let test_ring_wraparound () =
  with_bus @@ fun () ->
  let r = Obs.Ring.create ~capacity:8 () in
  ignore (Obs.Ring.attach r);
  for i = 1 to 20 do
    Obs.Event.emit ~name:(Printf.sprintf "e%d" i) Obs.Event.Note
  done;
  Obs.Ring.detach r;
  Obs.Event.emit ~name:"after-detach" Obs.Event.Note;
  check_int "capacity" 8 (Obs.Ring.capacity r);
  check_int "seen counts drops" 20 (Obs.Ring.seen r);
  let names =
    List.map (fun (e : Obs.Event.t) -> e.Obs.Event.name) (Obs.Ring.events r)
  in
  check_bool "retains the last 8, oldest first" true
    (names = [ "e13"; "e14"; "e15"; "e16"; "e17"; "e18"; "e19"; "e20" ]);
  (* the dump document *)
  Obs.Event.emit ~name:"p" Obs.Event.Pass_start;
  let j = Obs.Ring.to_json ~reason:"test" r in
  check_bool "reason" true (Obs.Json.mem_str "reason" j = Some "test");
  check_bool "current pass" true
    (Obs.Json.mem_str "current_pass" j = Some "p");
  check_bool "seen" true (Obs.Json.mem_int "seen" j = Some 20);
  check_bool "retained" true (Obs.Json.mem_int "retained" j = Some 8)

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
  let _, events = collect () in
  for i = 1 to 3 do
    Obs.Event.emit ~name:(Printf.sprintf "n%d" i) Obs.Event.Note
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

let test_provenance_torn_tail () =
  with_bus @@ fun () ->
  let sink = Obs.Provenance.make_sink () in
  Obs.Provenance.install sink;
  Fun.protect ~finally:Obs.Provenance.uninstall (fun () ->
      Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:1
        ~pass:"test" ~mechanism:Obs.Provenance.Pruned ();
      Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:2
        ~pass:"test" ~mechanism:Obs.Provenance.Pruned ());
  let text = Obs.Provenance.to_jsonl_string sink in
  let evs, torn = Obs.Provenance.parse_jsonl_partial text in
  check_int "both parse" 2 (List.length evs);
  check_bool "clean" true (torn = None);
  let cut = String.sub text 0 (String.length text - 3) in
  let evs', torn' = Obs.Provenance.parse_jsonl_partial cut in
  check_int "first survives" 1 (List.length evs');
  check_bool "tear reported" true (torn' <> None)

(* --- budget watchdog e2e --- *)

let test_budget_truncates_gracefully () =
  with_bus @@ fun () ->
  let _, events = collect () in
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
  let folded (r : Smartly.Driver.result) =
    List.fold_left
      (fun acc (s : Smartly.Sat_elim.report) ->
        acc + s.Smartly.Sat_elim.data_bits_folded)
      0 r.Smartly.Driver.sat_reports
  in
  let free = Smartly.Driver.smartly (Circuit.copy c0) in
  check_bool "the unbudgeted walk folds data bits" true (folded free > 0);
  let c = Circuit.copy c0 in
  let cfg =
    {
      Smartly.Config.default with
      Smartly.Config.pass_alloc_budget_mw = Some 0.0;
    }
  in
  let r = Smartly.Driver.smartly ~cfg c in
  check_bool "sat_elim ran" true (r.Smartly.Driver.sat_reports <> []);
  List.iter
    (fun (s : Smartly.Sat_elim.report) ->
      check_int "no data bit folded" 0 s.Smartly.Sat_elim.data_bits_folded;
      check_int "no mux bypassed" 0 s.Smartly.Sat_elim.muxes_bypassed)
    r.Smartly.Driver.sat_reports;
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

(* --- sabotaged run: the flight recorder names the in-flight pass --- *)

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

let test_sabotaged_run_flight_dump () =
  with_bus @@ fun () ->
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smartly_test_ledger_%d" (Unix.getpid ()))
  in
  if Sys.file_exists root then rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root)
  @@ fun () ->
  let l =
    Obs.Ledger.create ~root ~ring_capacity:32
      ~argv:[ "smartly"; "opt"; "sabotaged" ]
      ~env:(Obs.Json.Obj [ "hostname", Obs.Json.Str "test" ])
      ()
  in
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  let died_in = ref None in
  (* the invariant-checker seat: raise while sat_elim is still the open
     pass, as a failed invariant (or a crash in the pass body) would *)
  let after_pass name _ =
    if name = "sat_elim" then failwith "sabotage"
  in
  (try ignore (Smartly.Driver.smartly ~after_pass c)
   with Failure _ -> died_in := Obs.Event.current_pass ());
  check_bool "bus names the in-flight pass" true
    (!died_in = Some "sat_elim");
  ignore (Obs.Ledger.dump_flight ~reason:"exception: sabotage" l);
  Obs.Ledger.finish ~status:"crashed" l;
  (* everything below reads the directory cold, as [smartly report]
     would after the writing process is gone *)
  let dir = Obs.Ledger.dir l in
  let manifest =
    match Obs.Json.parse (read_file (Filename.concat dir "manifest.json")) with
    | Ok j -> j
    | Error e -> Alcotest.failf "manifest does not parse: %s" e
  in
  check_bool "status recorded" true
    (Obs.Json.mem_str "status" manifest = Some "crashed");
  check_bool "argv recorded" true
    (Obs.Json.mem_list "argv" manifest <> None);
  let evs, torn =
    Obs.Event.parse_jsonl_partial
      (read_file (Filename.concat dir "events.jsonl"))
  in
  check_bool "event stream complete" true (torn = None);
  check_bool "events flushed" true (List.length evs > 0);
  assert_stream_ordered evs;
  (* sat_elim opened but never closed *)
  let count k name =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) ->
           e.Obs.Event.kind = k && e.Obs.Event.name = name)
         evs)
  in
  check_int "sat_elim opened" 1 (count Obs.Event.Pass_start "sat_elim");
  check_int "sat_elim never closed" 0 (count Obs.Event.Pass_end "sat_elim");
  let flight =
    match
      Obs.Json.parse (read_file (Filename.concat dir "flightrec.json"))
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "flight dump does not parse: %s" e
  in
  check_bool "flight names the in-flight pass" true
    (Obs.Json.mem_str "current_pass" flight = Some "sat_elim");
  check_bool "flight says why" true
    (Obs.Json.mem_str "reason" flight = Some "exception: sabotage");
  check_bool "flight retained a window" true
    (match Obs.Json.mem_int "retained" flight with
    | Some n -> n > 0 && n <= 32
    | None -> false)

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
          Alcotest.test_case "current-pass stack" `Quick
            test_current_pass_stack;
          Alcotest.test_case "sink failure isolation" `Quick
            test_sink_failure_isolation;
        ] );
      ( "ring",
        [ Alcotest.test_case "wraparound" `Quick test_ring_wraparound ] );
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
      ( "ledger",
        [
          Alcotest.test_case "sabotaged run flight dump" `Quick
            test_sabotaged_run_flight_dump;
          Alcotest.test_case "collision and finish" `Quick
            test_ledger_collision_and_finish;
        ] );
    ]
