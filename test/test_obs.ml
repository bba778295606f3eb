(* Tests for the telemetry library: span tracing, metrics, JSON. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Json --- *)

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        "null", Null;
        "t", Bool true;
        "f", Bool false;
        "i", num_of_int 42;
        "neg", num_of_int (-7);
        "frac", Num 3.25;
        "s", Str "he said \"hi\"\n\ttab \\ slash";
        "xs", List [ num_of_int 1; Str "two"; Null ];
        "empty_obj", Obj [];
        "empty_list", List [];
      ]
  in
  (match parse (to_string v) with
  | Ok v' -> check_bool "compact roundtrip" true (v = v')
  | Error e -> Alcotest.failf "compact parse failed: %s" e);
  match parse (to_string ~pretty:true v) with
  | Ok v' -> check_bool "pretty roundtrip" true (v = v')
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_json_locale_stable () =
  let open Obs.Json in
  (* integral floats print without a decimal point; fractional ones
     always use '.', never ',' *)
  check_string "integral" "42" (to_string (Num 42.0));
  check_string "fraction" "0.5" (to_string (Num 0.5));
  check_bool "no comma" true
    (not (String.contains (to_string (Num 1234.5678)) ','));
  (* non-finite numbers degrade to null rather than emitting 'nan' *)
  check_string "nan" "null" (to_string (Num Float.nan));
  check_string "inf" "null" (to_string (Num Float.infinity))

let test_json_parse_errors () =
  let open Obs.Json in
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %S" s)
    bad

let test_json_member () =
  let open Obs.Json in
  let v = Obj [ "a", num_of_int 1; "b", Str "x" ] in
  check_bool "hit" true (member "b" v = Some (Str "x"));
  check_bool "miss" true (member "c" v = None);
  check_bool "non-obj" true (member "a" (List []) = None);
  (* integers decode only when integral and within OCaml's int range *)
  check_bool "int" true (mem_int "a" v = Some 1);
  check_bool "fraction" true (to_int (Num 2.5) = None);
  check_bool "huge" true (to_int (Num 1e300) = None);
  check_bool "2^62" true (to_int (Num 0x1p62) = None);
  check_bool "-2^62" true (to_int (Num (-0x1p62)) = Some min_int);
  check_bool "parsed 2^62" true
    (Result.map to_int (parse "4611686018427387904") = Ok None)

(* --- Trace --- *)

let test_span_nesting () =
  let s = Obs.Trace.make_sink () in
  Obs.Trace.install s;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
      Obs.Trace.with_span "outer" (fun () ->
          Obs.Trace.with_span "inner1" (fun () -> ());
          Obs.Trace.with_span "inner2" (fun () ->
              Obs.Trace.with_span "leaf" (fun () -> ()))));
  let evs = Obs.Trace.events s in
  check_int "four spans" 4 (List.length evs);
  check_int "count matches" 4 (Obs.Trace.event_count s);
  let find name =
    List.find (fun (e : Obs.Trace.event) -> e.name = name) evs
  in
  check_int "outer depth" 0 (find "outer").Obs.Trace.depth;
  check_int "inner1 depth" 1 (find "inner1").Obs.Trace.depth;
  check_int "inner2 depth" 1 (find "inner2").Obs.Trace.depth;
  check_int "leaf depth" 2 (find "leaf").Obs.Trace.depth;
  (* events come back in start order: parents before children *)
  check_string "first is outer" "outer"
    (List.hd evs).Obs.Trace.name;
  (* a sink installed inside an open span records the inner spans from
     depth 0 and ignores the close of the span it never saw open *)
  let late = Obs.Trace.make_sink () in
  let bus = Obs.Event.subscribe (fun _ -> ()) in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.uninstall ();
      Obs.Event.unsubscribe bus)
    (fun () ->
      Obs.Trace.with_span "before-install" (fun () ->
          Obs.Trace.install late;
          Obs.Trace.with_span "inner" (fun () ->
              Obs.Trace.with_span "leaf" (fun () -> ()))));
  let evs = Obs.Trace.events late in
  check_bool "outer close ignored" true
    (List.map (fun (e : Obs.Trace.event) -> e.name, e.depth) evs
    = [ "inner", 0; "leaf", 1 ]);
  check_int "late count" 2 (Obs.Trace.event_count late)

let test_span_timing_monotone () =
  let s = Obs.Trace.make_sink () in
  Obs.Trace.install s;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
      Obs.Trace.with_span "parent" (fun () ->
          Obs.Trace.with_span "child" (fun () ->
              (* make sure the child takes measurable time *)
              let x = ref 0 in
              for i = 1 to 100_000 do
                x := !x + i
              done;
              ignore !x)));
  let evs = Obs.Trace.events s in
  let find name =
    List.find (fun (e : Obs.Trace.event) -> e.name = name) evs
  in
  let p = find "parent" and c = find "child" in
  check_bool "timestamps nonneg" true
    (p.Obs.Trace.ts_us >= 0.0 && c.Obs.Trace.ts_us >= 0.0);
  check_bool "durations nonneg" true
    (p.Obs.Trace.dur_us >= 0.0 && c.Obs.Trace.dur_us >= 0.0);
  check_bool "child starts after parent" true
    (c.Obs.Trace.ts_us >= p.Obs.Trace.ts_us);
  (* the parent interval contains the child interval (allow float slack) *)
  check_bool "child contained" true
    (c.Obs.Trace.ts_us +. c.Obs.Trace.dur_us
     <= p.Obs.Trace.ts_us +. p.Obs.Trace.dur_us +. 1.0);
  check_bool "parent >= child duration" true
    (p.Obs.Trace.dur_us +. 1.0 >= c.Obs.Trace.dur_us)

let test_span_exception_safety () =
  let s = Obs.Trace.make_sink () in
  Obs.Trace.install s;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
      (try
         Obs.Trace.with_span "raising" (fun () -> failwith "boom")
       with Failure _ -> ());
      (* depth unwound: a later span records at depth 0 *)
      Obs.Trace.with_span "after" (fun () -> ()));
  let evs = Obs.Trace.events s in
  check_int "both recorded" 2 (List.length evs);
  let find name =
    List.find (fun (e : Obs.Trace.event) -> e.name = name) evs
  in
  check_int "raising at depth 0" 0 (find "raising").Obs.Trace.depth;
  check_int "after at depth 0" 0 (find "after").Obs.Trace.depth

let test_no_sink_fast_path () =
  (* with no sink installed with_span is a direct call: nothing is
     recorded anywhere, and a previously uninstalled sink stays frozen *)
  let s = Obs.Trace.make_sink () in
  Obs.Trace.install s;
  Obs.Trace.with_span "while-installed" (fun () -> ());
  Obs.Trace.uninstall ();
  check_bool "no bus subscriber" true (not (Obs.Event.enabled ()));
  let n = Obs.Trace.event_count s in
  let r = Obs.Trace.with_span "while-uninstalled" (fun () -> 17) in
  check_int "thunk result passes through" 17 r;
  check_int "no event recorded" n (Obs.Trace.event_count s);
  (* and the fast path does not allocate: measure minor words around a
     pre-allocated thunk *)
  let thunk () = () in
  Obs.Trace.with_span "warmup" thunk;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.Trace.with_span "hot" thunk
  done;
  let dw = Gc.minor_words () -. w0 in
  (* allow a little slack for instrumentation noise; a per-call event
     record would cost thousands of words *)
  check_bool "fast path allocation-free" true (dw < 256.0);
  (* provenance emission with no subscriber builds no event either *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:1 ~pass:"p"
      ~mechanism:Obs.Provenance.Pruned ~bits:2 ()
  done;
  let dw = Gc.minor_words () -. w0 in
  check_bool "provenance fast path allocation-free" true (dw < 256.0)

let test_chrome_trace_json () =
  let s = Obs.Trace.make_sink () in
  Obs.Trace.install s;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
      Obs.Trace.with_span "a" (fun () ->
          Obs.Trace.with_span "b" (fun () -> ())));
  let j = Obs.Trace.to_chrome_json (Obs.Trace.events s) in
  (* must parse back through our own strict parser *)
  (match Obs.Json.parse (Obs.Json.to_string ~pretty:true j) with
  | Ok j' -> check_bool "parses back" true (j = j')
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e);
  match Obs.Json.member "traceEvents" j with
  | Some (Obs.Json.List evs) ->
    check_int "two events" 2 (List.length evs);
    List.iter
      (fun ev ->
        let has k =
          match Obs.Json.member k ev with
          | Some _ -> true
          | None -> false
        in
        check_bool "name" true (has "name");
        check_bool "ph" true (Obs.Json.member "ph" ev = Some (Obs.Json.Str "X"));
        check_bool "ts" true (has "ts");
        check_bool "dur" true (has "dur");
        check_bool "pid" true (has "pid");
        check_bool "tid" true (has "tid"))
      evs
  | _ -> Alcotest.fail "missing traceEvents array"

(* --- Metrics --- *)

let test_counters () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.c1" in
  let c' = Obs.Metrics.counter "test.c1" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c' 4;
  check_int "shared by name" 5 (Obs.Metrics.value c);
  let listed = Obs.Metrics.counters () in
  check_bool "listed" true (List.mem_assoc "test.c1" listed);
  check_int "listed value" 5 (List.assoc "test.c1" listed);
  Obs.Metrics.reset ();
  (* handles stay valid across reset *)
  check_int "reset to zero" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  check_int "still usable" 1 (Obs.Metrics.value c)

let test_histograms () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.h1" in
  Obs.Metrics.observe h 1.0;
  Obs.Metrics.observe h 3.0;
  Obs.Metrics.observe_int h 8;
  let st = Obs.Metrics.histogram_stats h in
  check_int "count" 3 st.Obs.Metrics.count;
  check_bool "sum" true (st.Obs.Metrics.sum = 12.0);
  check_bool "min" true (st.Obs.Metrics.min_v = 1.0);
  check_bool "max" true (st.Obs.Metrics.max_v = 8.0);
  check_bool "mean" true (st.Obs.Metrics.mean = 4.0);
  Obs.Metrics.reset ();
  let st0 = Obs.Metrics.histogram_stats h in
  check_int "empty count" 0 st0.Obs.Metrics.count;
  check_bool "empty mean" true (st0.Obs.Metrics.mean = 0.0)

let test_metrics_json () =
  Obs.Metrics.reset ();
  Obs.Metrics.add (Obs.Metrics.counter "test.c2") 3;
  Obs.Metrics.observe (Obs.Metrics.histogram "test.h2") 2.5;
  let j = Obs.Metrics.to_json () in
  (match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok j' -> check_bool "parses back" true (j = j')
  | Error e -> Alcotest.failf "metrics json: %s" e);
  (match Obs.Json.member "counters" j with
  | Some (Obs.Json.Obj kvs) ->
    check_bool "counter present" true
      (List.mem_assoc "test.c2" kvs)
  | _ -> Alcotest.fail "missing counters");
  match Obs.Json.member "histograms" j with
  | Some (Obs.Json.Obj kvs) ->
    check_bool "histogram present" true (List.mem_assoc "test.h2" kvs)
  | _ -> Alcotest.fail "missing histograms"


(* --- satellite: Json.parse edge cases --- *)

let test_json_escapes () =
  let open Obs.Json in
  (* standard escapes *)
  (match parse {|"a\"b\\c\/d\n\t\r\b\f"|} with
  | Ok (Str got) -> check_string "escapes" "a\"b\\c/d\n\t\r\b\012" got
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.failf "escape parse failed: %s" e);
  (* \u escapes: ASCII range must decode; a lone surrogate or truncated
     sequence must be rejected, not crash *)
  (match parse {|"\u0041\u005a"|} with
  | Ok (Str got) -> check_string "unicode ascii" "AZ" got
  | Ok _ -> Alcotest.fail "not a string"
  | Error _ -> ());
  List.iter
    (fun bad ->
      match parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %S" bad)
    [ {|"\u00"|}; {|"\uZZZZ"|}; {|"\q"|} ]

let test_json_deep_nesting () =
  let open Obs.Json in
  (* a few hundred levels must roundtrip without stack overflow *)
  let depth = 400 in
  let rec build n = if n = 0 then num_of_int 7 else List [ build (n - 1) ] in
  let v = build depth in
  (match parse (to_string v) with
  | Ok v' -> check_bool "deep list roundtrip" true (v = v')
  | Error e -> Alcotest.failf "deep parse failed: %s" e);
  let rec build_obj n =
    if n = 0 then Null else Obj [ ("k", build_obj (n - 1)) ]
  in
  let o = build_obj depth in
  match parse (to_string o) with
  | Ok o' -> check_bool "deep obj roundtrip" true (o = o')
  | Error e -> Alcotest.failf "deep obj parse failed: %s" e

let test_json_truncated () =
  let open Obs.Json in
  (* every strict prefix of a valid document must fail to parse *)
  let doc = {|{"a":[1,2.5,true,null,"x\n"],"b":{"c":false}}|} in
  for len = 0 to String.length doc - 1 do
    match parse (String.sub doc 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted truncated prefix of length %d" len
  done

(* --- satellite: histogram percentiles --- *)

let test_histogram_percentiles () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.pct" in
  for i = 1 to 100 do
    Obs.Metrics.observe_int h i
  done;
  let st = Obs.Metrics.histogram_stats h in
  check_bool "p50" true (st.Obs.Metrics.p50 = 50.0);
  check_bool "p90" true (st.Obs.Metrics.p90 = 90.0);
  check_bool "max" true (st.Obs.Metrics.max_v = 100.0);
  (* single observation: every percentile is that value *)
  Obs.Metrics.reset ();
  Obs.Metrics.observe h 7.0;
  let st1 = Obs.Metrics.histogram_stats h in
  check_bool "single p50" true (st1.Obs.Metrics.p50 = 7.0);
  check_bool "single p90" true (st1.Obs.Metrics.p90 = 7.0);
  (* more observations than the sample window: percentiles come from the
     retained window, still within the observed range *)
  Obs.Metrics.reset ();
  for i = 1 to 5000 do
    Obs.Metrics.observe_int h i
  done;
  let stw = Obs.Metrics.histogram_stats h in
  check_int "count over window" 5000 stw.Obs.Metrics.count;
  check_bool "windowed p50 in range" true
    (stw.Obs.Metrics.p50 >= 1.0 && stw.Obs.Metrics.p50 <= 5000.0);
  check_bool "p50 <= p90" true (stw.Obs.Metrics.p50 <= stw.Obs.Metrics.p90)

(* --- satellite: cross-run metric isolation (the bench contamination
   regression: a second measurement scoped by [reset] must not see the
   first one's observations) --- *)

let test_metrics_reset_isolation () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.case_counter" in
  let h = Obs.Metrics.histogram "test.case_hist" in
  (* case 1 *)
  Obs.Metrics.add c 100;
  Obs.Metrics.observe h 1000.0;
  (* case 2, scoped by reset as bench/main.ml does between cases *)
  Obs.Metrics.reset ();
  Obs.Metrics.add c 3;
  Obs.Metrics.observe h 2.0;
  check_int "counter sees only case 2" 3 (Obs.Metrics.value c);
  let st = Obs.Metrics.histogram_stats h in
  check_int "histogram sees only case 2" 1 st.Obs.Metrics.count;
  check_bool "no stale max" true (st.Obs.Metrics.max_v = 2.0);
  check_bool "no stale p90" true (st.Obs.Metrics.p90 = 2.0)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "locale stable" `Quick test_json_locale_stable;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "escape sequences" `Quick test_json_escapes;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          Alcotest.test_case "truncated input" `Quick test_json_truncated;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "timing monotone" `Quick test_span_timing_monotone;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "no-sink fast path" `Quick test_no_sink_fast_path;
          Alcotest.test_case "chrome trace json" `Quick test_chrome_trace_json;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "json export" `Quick test_metrics_json;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "reset isolation" `Quick
            test_metrics_reset_isolation;
        ] );
    ]
