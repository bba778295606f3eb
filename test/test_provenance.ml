(* Provenance subsystem tests: JSONL roundtrip, aggregation, the
   every-removal-is-explained identity on the smoke profile, and
   hardest-SAT-query capture/replay. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_sink f =
  let s = Obs.Provenance.make_sink () in
  Obs.Provenance.install s;
  Fun.protect ~finally:Obs.Provenance.uninstall (fun () -> f ());
  s

(* --- serialization --- *)

let test_jsonl_roundtrip () =
  let s =
    with_sink (fun () ->
        Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:3
          ~pass:"opt_expr" ~mechanism:(Obs.Provenance.Rule "const_fold")
          ~area_delta:(-12) ();
        Obs.Provenance.emit ~kind:Obs.Provenance.Mux_bypassed ~cell:7
          ~pass:"sat_elim" ~mechanism:Obs.Provenance.Sat ~query:5 ();
        Obs.Provenance.emit ~kind:Obs.Provenance.Const_resolved ~cell:9
          ~pass:"sat_elim" ~mechanism:(Obs.Provenance.Rule "or") ~bits:4 ();
        Obs.Provenance.emit ~kind:Obs.Provenance.Tree_rebuilt ~cell:11
          ~pass:"restructure" ~mechanism:Obs.Provenance.Restructure
          ~area_delta:(-30) ();
        Obs.Provenance.emit ~kind:Obs.Provenance.Dead_branch ~cell:13
          ~pass:"sat_elim" ~mechanism:Obs.Provenance.Pruned ())
  in
  check_int "count" 5 (Obs.Provenance.count s);
  let text = Obs.Provenance.to_jsonl_string s in
  match Obs.Provenance.parse_jsonl text with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok evs ->
    check_bool "events equal" true (evs = Obs.Provenance.events s);
    (* aggregate: one row per mechanism, counts by kind *)
    let rows = Obs.Provenance.attribute evs in
    check_int "mechanisms" 5 (List.length rows);
    let find m =
      List.find (fun (a : Obs.Provenance.attribution) -> a.mech = m) rows
    in
    check_int "sat bypass" 1 (find "sat").Obs.Provenance.muxes_bypassed;
    check_int "const bits" 4 (find "rule:or").Obs.Provenance.consts_resolved;
    check_int "pruned dead" 1 (find "pruned").Obs.Provenance.dead_branches;
    check_int "restructure saved" 42
      ((find "rule:const_fold").Obs.Provenance.area_saved
      + (find "restructure").Obs.Provenance.area_saved)

let test_parse_errors () =
  (match Obs.Provenance.parse_jsonl "{\"kind\":\"cell_removed\"}\n" with
  | Error msg ->
    check_bool "line number in error" true
      (String.length msg > 0
      && String.contains msg '1')
  | Ok _ -> Alcotest.fail "accepted event with missing fields");
  (match
     Obs.Provenance.parse_jsonl
       "{\"kind\":\"cell_removed\",\"cell\":1,\"pass\":\"p\",\"mechanism\":\"bogus\"}"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown mechanism");
  match Obs.Provenance.parse_jsonl "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty input should give zero events"

let test_mechanism_names () =
  let mechs =
    [
      Obs.Provenance.Pruned; Obs.Provenance.Rule "x"; Obs.Provenance.Sat;
      Obs.Provenance.Restructure; Obs.Provenance.Analysis;
    ]
  in
  List.iter
    (fun m ->
      match Obs.Provenance.mechanism_of_name (Obs.Provenance.mechanism_name m)
      with
      | Some m' -> check_bool "name roundtrip" true (m = m')
      | None -> Alcotest.fail "mechanism name did not round-trip")
    mechs;
  check_bool "unknown rejected" true
    (Obs.Provenance.mechanism_of_name "nope" = None)

(* --- the acceptance identity: on the smoke profile, every removed cell
   is explained by exactly one Cell_removed event --- *)

let cells_removed_counter = Obs.Metrics.counter "flow.cells_removed"

let test_mux_chain_identity () =
  Obs.Metrics.reset ();
  Smartly.Engine.Sat_log.reset ();
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  let s = with_sink (fun () -> ignore (Smartly.Driver.smartly c)) in
  let evs = Obs.Provenance.events s in
  let removed_events =
    List.length
      (List.filter
         (fun (e : Obs.Provenance.event) ->
           e.Obs.Provenance.kind = Obs.Provenance.Cell_removed)
         evs)
  in
  let removed_counter = Obs.Metrics.value cells_removed_counter in
  check_bool "some cells removed" true (removed_counter > 0);
  check_int "every removal explained by exactly one event" removed_counter
    removed_events;
  (* and the aggregated table sums to the same total *)
  let rows = Obs.Provenance.attribute evs in
  let table_total =
    List.fold_left
      (fun acc (a : Obs.Provenance.attribution) ->
        acc + a.Obs.Provenance.cells_removed)
      0 rows
  in
  check_int "explain table total" removed_counter table_total

(* --- which rule a real fold reports --- *)

(* Y = S ? {x, S, S|R} : A.  Under S = 1 the walk folds S|R by the $or
   rule and S by reading the path fact itself; x stays free. *)
let test_fold_rule_attribution () =
  let open Netlist in
  let c = Circuit.create "fold_rules" in
  let s = Circuit.bit_of_wire (Circuit.add_input c "S" ~width:1) in
  let r = Circuit.bit_of_wire (Circuit.add_input c "R" ~width:1) in
  let x = Circuit.bit_of_wire (Circuit.add_input c "X" ~width:1) in
  let a = Circuit.sig_of_wire (Circuit.add_input c "A" ~width:3) in
  let s_or_r = Circuit.mk_or c s r in
  let y = Circuit.add_output c "Y" ~width:3 in
  let mux =
    Circuit.add_cell c
      (Cell.Mux { a; b = [| s_or_r; s; x |]; s; y = Circuit.sig_of_wire y })
  in
  let report = ref None in
  let sink =
    with_sink (fun () ->
        report := Some (Smartly.Sat_elim.run Smartly.Config.default c))
  in
  (match !report with
  | Some r -> check_int "two bits folded" 2 r.Smartly.Sat_elim.data_bits_folded
  | None -> Alcotest.fail "no report");
  let resolved =
    List.filter_map
      (fun (e : Obs.Provenance.event) ->
        if e.Obs.Provenance.kind = Obs.Provenance.Const_resolved then begin
          check_int "owner is the mux" mux e.Obs.Provenance.cell;
          Some (Obs.Provenance.mechanism_name e.Obs.Provenance.mechanism)
        end
        else None)
      (Obs.Provenance.events sink)
  in
  check_bool "S|R by the or rule, S by the path fact" true
    (List.sort compare resolved = [ "rule:$or"; "rule:identical_signal" ])

(* --- hardest-query capture and replay --- *)

let solve_dimacs (text : string) : Cdcl.Solver.result =
  let cnf, _comments = Cdcl.Dimacs.parse_string_ext text in
  let s = Cdcl.Solver.create () in
  for _ = 1 to cnf.Cdcl.Dimacs.num_vars do
    ignore (Cdcl.Solver.new_var s)
  done;
  List.iter
    (fun cl -> Cdcl.Solver.add_clause s (List.map Cdcl.Lit.of_dimacs cl))
    cnf.Cdcl.Dimacs.clauses;
  Cdcl.Solver.solve s

let test_sat_capture_replay () =
  Obs.Metrics.reset ();
  Smartly.Engine.Sat_log.reset ();
  (* disabling exhaustive simulation forces the ladder's small queries to
     SAT, so even the smoke profile records captures *)
  let cfg = { Smartly.Config.default with Smartly.Config.sim_input_threshold = 0 } in
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  ignore (Smartly.Driver.smartly ~cfg c);
  check_bool "queries recorded" true (Smartly.Engine.Sat_log.query_count () > 0);
  let hardest = Smartly.Engine.Sat_log.hardest () in
  check_bool "hardest buffer non-empty" true (hardest <> []);
  check_bool "buffer bounded" true (List.length hardest <= 8);
  List.iter
    (fun (e : Smartly.Engine.Sat_log.entry) ->
      let dimacs = e.Smartly.Engine.Sat_log.dimacs () in
      (* metadata comment carries the recorded outcome *)
      check_bool "metadata line" true
        (String.length dimacs > 0 && String.sub dimacs 0 1 = "c");
      match e.Smartly.Engine.Sat_log.solve with
      | Cdcl.Solver.Unknown -> () (* budget exhaustion is not replayable *)
      | (Cdcl.Solver.Sat | Cdcl.Solver.Unsat) as recorded ->
        let got = solve_dimacs dimacs in
        check_string
          (Printf.sprintf "query %d verdict reproduced"
             e.Smartly.Engine.Sat_log.id)
          (Smartly.Engine.Sat_log.solve_name recorded)
          (Smartly.Engine.Sat_log.solve_name got))
    hardest

let test_sat_log_reset () =
  Smartly.Engine.Sat_log.reset ~keep:2 ();
  check_int "empty after reset" 0 (Smartly.Engine.Sat_log.query_count ());
  check_bool "no hardest" true (Smartly.Engine.Sat_log.hardest () = []);
  (* keep bound respected *)
  Obs.Metrics.reset ();
  let cfg = { Smartly.Config.default with Smartly.Config.sim_input_threshold = 0 } in
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  ignore (Smartly.Driver.smartly ~cfg c);
  check_bool "keep=2 bound" true
    (List.length (Smartly.Engine.Sat_log.hardest ()) <= 2);
  Smartly.Engine.Sat_log.reset ()

(* --- no-sink discipline: emission without a sink records nothing and the
   flow still works --- *)

let test_no_sink () =
  check_bool "disabled" true (not (Obs.Provenance.enabled ()));
  Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:1 ~pass:"p"
    ~mechanism:Obs.Provenance.Pruned ();
  let s = with_sink (fun () -> ()) in
  check_int "uninstalled sink empty" 0 (Obs.Provenance.count s)

let () =
  Alcotest.run "provenance"
    [
      ( "serialization",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "mechanism names" `Quick test_mechanism_names;
        ] );
      ( "flow",
        [
          Alcotest.test_case "mux_chain identity" `Quick
            test_mux_chain_identity;
          Alcotest.test_case "no sink" `Quick test_no_sink;
          Alcotest.test_case "fold rule attribution" `Quick
            test_fold_rule_attribution;
        ] );
      ( "sat_log",
        [
          Alcotest.test_case "capture and replay" `Quick
            test_sat_capture_replay;
          Alcotest.test_case "reset and keep" `Quick test_sat_log_reset;
        ] );
    ]
