(* Provenance subsystem tests: JSONL roundtrip, aggregation, the
   every-removal-is-explained identity on the smoke profile, and
   hardest-SAT-query capture/replay. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The provenance events [f] puts on the bus, decoded from a recording. *)
let provenance_of f =
  let sub, recorded = Obs.Event.record () in
  Fun.protect ~finally:(fun () -> Obs.Event.unsubscribe sub) f;
  Obs.Provenance.of_events (recorded ())

(* --- serialization --- *)

let test_jsonl_roundtrip () =
  let s =
    provenance_of (fun () ->
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
  check_int "count" 5 (List.length s);
  let text = Obs.Provenance.to_jsonl_string s in
  match Obs.Provenance.parse_jsonl text with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok evs ->
    check_bool "events equal" true (evs = s);
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
  (* a number that is not an integer fails the line, whether the field
     is required (cell) or optional (query, bits, area_delta) *)
  List.iter
    (fun fields ->
      match
        Obs.Provenance.parse_jsonl
          (Printf.sprintf
             "{\"kind\":\"mux_bypassed\",\"pass\":\"p\",\"mechanism\":\"sat\",%s}"
             fields)
      with
      | Error msg ->
        check_bool (fields ^ " names line 1") true
          (String.starts_with ~prefix:"line 1: " msg)
      | Ok _ -> Alcotest.failf "accepted %s" fields)
    [
      "\"cell\":1.5";
      "\"cell\":1,\"query\":-0.25";
      "\"cell\":1,\"bits\":1e300";
      "\"cell\":1,\"area_delta\":4611686018427387904";
    ];
  match Obs.Provenance.parse_jsonl "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty input should give zero events"

let test_mechanism_names () =
  let mechs =
    [
      Obs.Provenance.Pruned; Obs.Provenance.Rule "x"; Obs.Provenance.Sat;
      Obs.Provenance.Restructure;
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

(* Every event survives the bus payload codec; a sink decodes what
   [emit] encodes, so a gap here would drop events silently. *)
let gen_event =
  QCheck.Gen.(
    let name = oneof [ return ""; string_size ~gen:char (int_range 1 8) ] in
    let int30 = int_range (-(1 lsl 30)) (1 lsl 30) in
    let* kind =
      oneofl
        Obs.Provenance.
          [
            Cell_removed; Mux_bypassed; Const_resolved; Tree_rebuilt;
            Dead_branch;
          ]
    in
    let* mechanism =
      oneof
        [
          oneofl Obs.Provenance.[ Pruned; Sat; Restructure ];
          map (fun r -> Obs.Provenance.Rule r) name;
        ]
    in
    let* cell = int30 in
    let* pass = name in
    let* query = opt int30 in
    let* bits = int30 in
    let* area_delta = int30 in
    return
      { Obs.Provenance.kind; cell; pass; mechanism; query; bits; area_delta })

let prop_codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"event codec roundtrip"
    (QCheck.make
       ~print:(fun e ->
         Obs.Json.to_string (Obs.Provenance.event_to_json e))
       gen_event)
    (fun e ->
      Obs.Provenance.event_of_json (Obs.Provenance.event_to_json e) = Ok e)

(* --- the acceptance identity: on the smoke profile, every removed cell
   is explained by exactly one Cell_removed event --- *)

let cells_removed_counter = Obs.Metrics.counter "flow.cells_removed"

let iterations_counter = Obs.Metrics.counter "driver.iterations"

let removal_identity flow =
  Obs.Metrics.reset ();
  Smartly.Engine.Sat_log.reset ();
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  let evs = provenance_of (fun () -> flow c) in
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

(* both flows: the Yosys one through the driver's shared pass loop, which
   counts its iterations *)
let test_mux_chain_identity () =
  removal_identity (fun c -> ignore (Smartly.Driver.smartly c));
  removal_identity (fun c ->
      let r = Smartly.Driver.yosys c in
      check_int "yosys iterations counted by the driver loop"
        r.Smartly.Driver.iterations
        (Obs.Metrics.value iterations_counter))

(* --- what the Yosys walk counts as a constant --- *)

(* Y = S ? {child, S} : {Z, Z} with child = S ? 1 : X.  Under S = 1
   opt_muxtree bypasses the child, landing on its literal 1, and resolves
   the S bit by the path fact: one bypass and one constant.  The literal
   is the bypass's doing, not a fold, so it has no Const_resolved of its
   own. *)
let test_bypass_onto_constant () =
  let open Netlist in
  let c = Circuit.create "bypass_const" in
  let s = Circuit.bit_of_wire (Circuit.add_input c "S" ~width:1) in
  let x = Circuit.bit_of_wire (Circuit.add_input c "X" ~width:1) in
  let z = Circuit.bit_of_wire (Circuit.add_input c "Z" ~width:1) in
  let child = Circuit.mk_mux c ~a:[| x |] ~b:[| Bits.C1 |] ~s in
  let y = Circuit.add_output c "Y" ~width:2 in
  let root =
    Circuit.add_cell c
      (Cell.Mux
         { a = [| z; z |]; b = [| child.(0); s |]; s; y = Circuit.sig_of_wire y })
  in
  let evs = provenance_of (fun () -> ignore (Rtl_opt.Opt_muxtree.run c)) in
  let of_kind k =
    List.filter
      (fun (e : Obs.Provenance.event) -> e.Obs.Provenance.kind = k)
      evs
  in
  check_int "one bypass" 1 (List.length (of_kind Obs.Provenance.Mux_bypassed));
  match of_kind Obs.Provenance.Const_resolved with
  | [ e ] -> check_int "the S bit, on the root" root e.Obs.Provenance.cell
  | l -> Alcotest.failf "%d Const_resolved events, not 1" (List.length l)

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
  Obs.Metrics.reset ();
  let evs =
    provenance_of (fun () ->
        ignore (Smartly.Sat_elim.run Smartly.Config.default c))
  in
  check_int "two bits folded" 2
    (Obs.Metrics.value (Obs.Metrics.counter "sat_elim.data_bits_folded"));
  let resolved =
    List.filter_map
      (fun (e : Obs.Provenance.event) ->
        if e.Obs.Provenance.kind = Obs.Provenance.Const_resolved then begin
          check_int "owner is the mux" mux e.Obs.Provenance.cell;
          Some (Obs.Provenance.mechanism_name e.Obs.Provenance.mechanism)
        end
        else None)
      evs
  in
  check_bool "S|R by the or rule, S by the path fact" true
    (List.sort compare resolved = [ "rule:$or"; "rule:identical_signal" ])

(* --- hardest-query capture and replay --- *)

let solve_dimacs (text : string) : Cdcl.Solver.result =
  let cnf, _comments = Result.get_ok (Cdcl.Dimacs.parse_string_ext text) in
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
  check_bool "queries counted" true
    (Obs.Json.mem_int "total" (Smartly.Engine.Sat_log.to_json ())
    |> Option.fold ~none:false ~some:(fun n -> n > 0));
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
  check_bool "no bus subscriber" true (not (Obs.Event.enabled ()));
  Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:1 ~pass:"p"
    ~mechanism:Obs.Provenance.Pruned ();
  check_int "a later recording is empty" 0
    (List.length (provenance_of (fun () -> ())))

let () =
  Alcotest.run "provenance"
    [
      ( "serialization",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "mechanism names" `Quick test_mechanism_names;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        ] );
      ( "flow",
        [
          Alcotest.test_case "mux_chain identity" `Quick
            test_mux_chain_identity;
          Alcotest.test_case "no sink" `Quick test_no_sink;
          Alcotest.test_case "fold rule attribution" `Quick
            test_fold_rule_attribution;
          Alcotest.test_case "bypass onto a constant" `Quick
            test_bypass_onto_constant;
        ] );
      ( "sat_log",
        [
          Alcotest.test_case "capture and replay" `Quick
            test_sat_capture_replay;
          Alcotest.test_case "reset and keep" `Quick test_sat_log_reset;
        ] );
    ]
