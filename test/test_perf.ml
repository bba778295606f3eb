(* Tests for the continuous-benchmarking library: robust statistics,
   the versioned schema, threshold classification, the baseline store,
   and the regression gate. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let check_float name expected got =
  if abs_float (expected -. got) > 1e-9 then
    Alcotest.failf "%s: expected %g, got %g" name expected got

(* --- Stat --- *)

let test_median () =
  check_float "odd" 2.0 (Perf.Stat.median [| 3.0; 1.0; 2.0 |]);
  check_float "even" 2.5 (Perf.Stat.median [| 4.0; 1.0; 2.0; 3.0 |]);
  check_float "single" 7.0 (Perf.Stat.median [| 7.0 |]);
  check_float "empty" 0.0 (Perf.Stat.median [||]);
  (* median must not mutate its argument *)
  let a = [| 3.0; 1.0; 2.0 |] in
  ignore (Perf.Stat.median a);
  check_bool "no mutation" true (a = [| 3.0; 1.0; 2.0 |])

let test_summarize () =
  let s = Perf.Stat.summarize [ 1.0; 2.0; 3.0; 4.0; 100.0 ] in
  check_float "median outlier-resistant" 3.0 s.Perf.Stat.median;
  check_float "min" 1.0 s.Perf.Stat.min;
  (* deviations from 3: [2;1;0;1;97] -> median 1 *)
  check_float "mad" 1.0 s.Perf.Stat.mad;
  check_int "runs" 5 s.Perf.Stat.runs;
  let empty = Perf.Stat.summarize [] in
  check_int "empty runs" 0 empty.Perf.Stat.runs

(* --- Measure --- *)

let test_repeat () =
  let prepared = ref 0 and ran = ref 0 in
  let v, timed =
    Perf.Measure.repeat ~reps:3
      ~prepare:(fun () -> incr prepared)
      (fun () ->
        incr ran;
        !ran)
  in
  check_int "prepare per rep" 3 !prepared;
  check_int "ran" 3 !ran;
  check_int "last result" 3 v;
  check_int "summary runs" 3 timed.Perf.Measure.wall.Perf.Stat.runs;
  check_bool "non-negative wall" true (timed.Perf.Measure.wall.Perf.Stat.min >= 0.0);
  (* reps is clamped to at least one *)
  let v0, t0 = Perf.Measure.repeat ~reps:0 (fun () -> 42) in
  check_int "clamped result" 42 v0;
  check_int "clamped runs" 1 t0.Perf.Measure.wall.Perf.Stat.runs

(* --- Clock / Gc instrumentation --- *)

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now_ns () in
    check_bool "non-decreasing" true (Int64.compare t !prev >= 0);
    prev := t
  done

let test_gc_delta () =
  let mark = Obs.Metrics.gc_mark () in
  let acc = ref [] in
  for i = 1 to 10_000 do
    acc := string_of_int i :: !acc
  done;
  ignore (Sys.opaque_identity !acc);
  let d = Obs.Metrics.gc_delta mark in
  check_bool "allocated" true (d.Obs.Metrics.allocated_words > 0.0);
  check_bool "minor collections non-negative" true
    (d.Obs.Metrics.minor_collections >= 0);
  check_bool "top heap positive" true (d.Obs.Metrics.top_heap_words > 0)

(* --- Schema --- *)

let sample_doc ?(section = "unit") ?(smartly_area = 554.0)
    ?(cells_removed = 71.0) ?(t_median = 0.5) () =
  let open Perf.Schema in
  {
    section;
    env = fingerprint ~reps:3;
    cases =
      [
        {
          name = "case_a";
          metrics =
            [
              scalar ~name:"smartly_area" ~kind:Area smartly_area;
              scalar ~direction:Higher_better ~name:"cells_removed"
                ~kind:Count cells_removed;
              timing ~name:"t_full"
                (Perf.Stat.summarize [ t_median; t_median; t_median ]);
              scalar ~name:"gc_minor_collections" ~kind:Gc 12.0;
            ];
        };
      ];
  }

let test_schema_roundtrip () =
  let doc = sample_doc () in
  match Perf.Schema.of_string (Perf.Schema.to_string doc) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok doc' ->
    check_string "section" doc.Perf.Schema.section doc'.Perf.Schema.section;
    check_bool "cases equal" true
      (doc.Perf.Schema.cases = doc'.Perf.Schema.cases);
    check_bool "env equal" true (doc.Perf.Schema.env = doc'.Perf.Schema.env)

let test_schema_rejects_bad_version () =
  let doc = sample_doc () in
  let json = Perf.Schema.to_string doc in
  (* forge a different schema tag *)
  let forged =
    let sub = "smartly-bench-v1" and by = "smartly-bench-v999" in
    let buf = Buffer.create (String.length json) in
    let n = String.length sub and m = String.length json in
    let i = ref 0 in
    while !i < m do
      if !i + n <= m && String.sub json !i n = sub then begin
        Buffer.add_string buf by;
        i := !i + n
      end
      else begin
        Buffer.add_char buf json.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  match Perf.Schema.of_string forged with
  | Ok _ -> Alcotest.fail "accepted forged schema version"
  | Error msg ->
    check_bool "message mentions schema" true
      (String.length msg > 0)

let test_schema_rejects_garbage () =
  check_bool "not json" true
    (Result.is_error (Perf.Schema.of_string "not json at all"));
  check_bool "json, wrong shape" true
    (Result.is_error (Perf.Schema.of_string "{\"schema\":\"smartly-bench-v1\"}"))

(* --- Compare.classify --- *)

let test_classify_exact_kinds () =
  let open Perf.Schema in
  let c = Perf.Compare.classify ~kind:Area ~direction:Lower_better in
  check_bool "equal unchanged" true (c 554.0 554.0 = Perf.Compare.Unchanged);
  check_bool "one more regresses" true (c 554.0 555.0 = Perf.Compare.Regressed);
  check_bool "one less improves" true (c 554.0 553.0 = Perf.Compare.Improved);
  (* scale must never loosen the exact kinds *)
  check_bool "scale stays exact" true
    (Perf.Compare.classify ~scale:100.0 ~kind:Area ~direction:Lower_better
       554.0 555.0
    = Perf.Compare.Regressed)

let test_classify_direction () =
  let open Perf.Schema in
  let c = Perf.Compare.classify ~kind:Count ~direction:Higher_better in
  check_bool "more is better" true (c 71.0 80.0 = Perf.Compare.Improved);
  check_bool "fewer regresses" true (c 71.0 60.0 = Perf.Compare.Regressed)

let test_classify_noisy_kinds () =
  let open Perf.Schema in
  let t = Perf.Compare.classify ~kind:Time ~direction:Lower_better in
  (* within the 25% band *)
  check_bool "10% slower unchanged" true (t 1.0 1.1 = Perf.Compare.Unchanged);
  check_bool "2x slower regresses" true (t 1.0 2.0 = Perf.Compare.Regressed);
  check_bool "2x faster improves" true (t 1.0 0.5 = Perf.Compare.Improved);
  (* the absolute floor protects near-zero baselines from huge
     relative jitter *)
  check_bool "zero baseline, tiny delta" true
    (t 0.0 0.01 = Perf.Compare.Unchanged);
  check_bool "zero baseline, real delta" true
    (t 0.0 5.0 = Perf.Compare.Regressed);
  (* scale widens the band *)
  check_bool "2x slower, scale 10" true
    (Perf.Compare.classify ~scale:10.0 ~kind:Time ~direction:Lower_better 1.0
       2.0
    = Perf.Compare.Unchanged);
  (* the band is relative to the smaller value, so at bench-check's scale
     4 (+-100%) a fall past half leaves it as a rise past double does:
     a time that fell to a ninth, or a throughput that collapsed, is no
     longer "unchanged" *)
  let t4 = Perf.Compare.classify ~scale:4.0 ~kind:Time in
  check_bool "table2 top_cache_axi t_smartly 42.98 -> 4.53 s" true
    (t4 ~direction:Lower_better 42.98 4.53 = Perf.Compare.Improved);
  check_bool "jobs_per_sec jps_warm 14.44 -> 0.10 jobs/s" true
    (t4 ~direction:Higher_better 14.44 0.10 = Perf.Compare.Regressed);
  check_bool "a fall to half stays inside, scale 4" true
    (t4 ~direction:Lower_better 8.0 4.0 = Perf.Compare.Unchanged)

(* --- Compare.diff --- *)

let test_diff_missing_and_new () =
  let open Perf.Schema in
  let base = sample_doc () in
  let cur =
    {
      (sample_doc ()) with
      cases =
        [
          {
            name = "case_a";
            metrics =
              [
                scalar ~name:"smartly_area" ~kind:Area 554.0;
                (* cells_removed dropped; a brand-new metric appears *)
                scalar ~name:"brand_new" ~kind:Count 1.0;
              ];
          };
          { name = "case_b"; metrics = [] };
        ];
    }
  in
  let d = Perf.Compare.diff ~baseline:base cur in
  check_bool "new case listed" true (d.Perf.Compare.new_cases = [ "case_b" ]);
  check_bool "no missing cases" true (d.Perf.Compare.missing_cases = []);
  let rows =
    List.concat_map (fun c -> c.Perf.Compare.rows) d.Perf.Compare.cases
  in
  let status_of name =
    (List.find (fun (r : Perf.Compare.metric_diff) -> r.Perf.Compare.name = name) rows)
      .Perf.Compare.status
  in
  check_bool "dropped metric flagged" true
    (status_of "cells_removed" = Perf.Compare.Missing_metric);
  check_bool "new metric flagged" true
    (status_of "brand_new" = Perf.Compare.New_metric);
  check_bool "unchanged metric" true
    (status_of "smartly_area" = Perf.Compare.Unchanged)

let test_diff_missing_case () =
  let base = sample_doc () in
  let cur = { base with Perf.Schema.cases = [] } in
  let d = Perf.Compare.diff ~baseline:base cur in
  check_bool "case_a missing" true
    (d.Perf.Compare.missing_cases = [ "case_a" ])

let test_diff_render_names_regression () =
  let base = sample_doc () in
  let cur = sample_doc ~smartly_area:918.0 ~cells_removed:0.0 () in
  let d = Perf.Compare.diff ~baseline:base cur in
  let regs = Perf.Compare.regressions d in
  check_int "two regressions" 2 (List.length regs);
  let out = Perf.Compare.render d in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "table names smartly_area" true (contains "smartly_area" out);
  check_bool "table names cells_removed" true (contains "cells_removed" out);
  check_bool "status printed" true (contains "REGRESSED" out)

(* --- Store + Gate: the sabotaged-regression end-to-end test --- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "perf_test_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let test_store_roundtrip () =
  with_temp_dir (fun dir ->
      let doc = sample_doc () in
      let path = Perf.Store.save ~dir doc in
      check_bool "file exists" true (Sys.file_exists path);
      match Perf.Store.load ~dir ~section:"unit" with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok doc' ->
        check_bool "roundtrip" true
          (doc.Perf.Schema.cases = doc'.Perf.Schema.cases))

let test_store_missing_advises_update () =
  with_temp_dir (fun dir ->
      match Perf.Store.load ~dir ~section:"nonexistent" with
      | Ok _ -> Alcotest.fail "loaded a baseline that does not exist"
      | Error msg ->
        let contains sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        check_bool "advises --update-baselines" true
          (contains "--update-baselines" msg))

let test_gate_clean_and_sabotaged () =
  with_temp_dir (fun dir ->
      let baseline = sample_doc () in
      ignore (Perf.Store.save ~dir baseline);
      (* clean rerun: identical deterministic metrics, slightly noisy
         timing well inside the band *)
      let clean = sample_doc ~t_median:0.55 () in
      let good = Perf.Gate.check ~dir [ clean ] in
      check_bool "clean run passes" true (Perf.Gate.ok good);
      (* sabotage: the optimizer "stops working" — area balloons and no
         cells are removed.  The gate must fail and name the metric. *)
      let bad = sample_doc ~smartly_area:918.0 ~cells_removed:0.0 () in
      let outcome = Perf.Gate.check ~dir [ bad ] in
      check_bool "sabotaged run fails" true (not (Perf.Gate.ok outcome));
      let verdict = Perf.Gate.render outcome in
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      check_bool "verdict says FAIL" true (contains "FAIL" verdict);
      check_bool "verdict names smartly_area" true
        (contains "smartly_area" verdict);
      check_bool "verdict names cells_removed" true
        (contains "cells_removed" verdict);
      (* a time far better than its baseline fails too, named as a stale
         baseline to re-bless *)
      ignore (Perf.Store.save ~dir (sample_doc ~t_median:5.0 ()));
      let stale = Perf.Gate.check ~dir [ sample_doc ~t_median:1.0 () ] in
      check_bool "stale baseline fails" true (not (Perf.Gate.ok stale));
      let verdict = Perf.Gate.render stale in
      check_bool "verdict names the stale row" true
        (contains "unit/case_a/t_full" verdict
        && contains "stale baseline" verdict))

let test_gate_missing_baseline_fails () =
  with_temp_dir (fun dir ->
      let outcome = Perf.Gate.check ~dir [ sample_doc () ] in
      check_bool "missing baseline fails the gate" true
        (not (Perf.Gate.ok outcome));
      check_bool "section listed" true
        (outcome.Perf.Gate.missing_baselines = [ "unit" ]))

(* --- colored table stays rectangular --- *)

let test_colored_table_rectangular () =
  Report.Table.set_color true;
  Fun.protect ~finally:(fun () -> Report.Table.set_color false)
    (fun () ->
      let base = sample_doc () in
      let cur = sample_doc ~smartly_area:918.0 () in
      let out = Perf.Compare.render (Perf.Compare.diff ~baseline:base cur) in
      check_bool "contains escape" true (String.contains out '\027');
      let border_widths =
        String.split_on_char '\n' out
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '+')
        |> List.map String.length
      in
      check_bool "borders same width" true
        (match border_widths with
        | [] -> false
        | w :: ws -> List.for_all (( = ) w) ws);
      (* every cell row's visible width matches the border width *)
      let visible = Report.Table.visible_length in
      let rows =
        String.split_on_char '\n' out
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '|')
      in
      check_bool "rows align visibly" true
        (rows <> []
        && List.for_all
             (fun r -> visible r = List.hd border_widths)
             rows))

let () =
  Alcotest.run "perf"
    [
      ( "stat",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "summarize" `Quick test_summarize;
        ] );
      ( "measure",
        [
          Alcotest.test_case "repeat" `Quick test_repeat;
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "gc delta" `Quick test_gc_delta;
        ] );
      ( "schema",
        [
          Alcotest.test_case "roundtrip" `Quick test_schema_roundtrip;
          Alcotest.test_case "rejects bad version" `Quick
            test_schema_rejects_bad_version;
          Alcotest.test_case "rejects garbage" `Quick
            test_schema_rejects_garbage;
        ] );
      ( "compare",
        [
          Alcotest.test_case "exact kinds" `Quick test_classify_exact_kinds;
          Alcotest.test_case "direction" `Quick test_classify_direction;
          Alcotest.test_case "noisy kinds" `Quick test_classify_noisy_kinds;
          Alcotest.test_case "missing and new metrics" `Quick
            test_diff_missing_and_new;
          Alcotest.test_case "missing case" `Quick test_diff_missing_case;
          Alcotest.test_case "render names regressions" `Quick
            test_diff_render_names_regression;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "missing advises update" `Quick
            test_store_missing_advises_update;
        ] );
      ( "gate",
        [
          Alcotest.test_case "clean and sabotaged" `Quick
            test_gate_clean_and_sabotaged;
          Alcotest.test_case "missing baseline" `Quick
            test_gate_missing_baseline_fails;
        ] );
      ( "render",
        [
          Alcotest.test_case "colored table rectangular" `Quick
            test_colored_table_rectangular;
        ] );
    ]
