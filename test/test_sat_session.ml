(* Differential harness for the incremental SAT session.

   The session path (one persistent Cdcl.Session shared by every query)
   must be observationally identical to the fresh path (a new solver per
   query).  The property test below generates random small netlists with
   random known facts and runs every determine query through both paths —
   twice through the session, so the second answer runs on the learned
   clauses the first one left behind — and asserts identical verdicts.
   Directed cases then pin down the session-mode DIMACS dumps (replay
   round-trip) and the budget interrupt of a running SAT call. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- building circuits from integer specs ---

   A spec is shrink-friendly: every operand is an index resolved modulo
   the number of nodes built so far, so QCheck can drop ops or shrink
   integers without ever producing a dangling reference. *)

type spec = {
  n_inputs : int;  (* 1..5, from a small_nat *)
  ops : (int * int * int * int) list;  (* kind, a, b, c *)
  knowns : (int * bool) list;  (* node index, value *)
  target : int;  (* node index *)
}

let build_spec (s : spec) : Circuit.t * (Bits.bit * bool) list * Bits.bit =
  let c = Circuit.create "spec" in
  let n_inputs = 1 + (s.n_inputs mod 5) in
  let nodes = ref [] in
  let n_nodes = ref 0 in
  let push b =
    nodes := b :: !nodes;
    incr n_nodes
  in
  for i = 0 to n_inputs - 1 do
    push (Circuit.bit_of_wire (Circuit.add_input c (Printf.sprintf "i%d" i) ~width:1))
  done;
  let node i = List.nth !nodes (!n_nodes - 1 - (i mod !n_nodes)) in
  List.iter
    (fun (kind, a, b, sel) ->
      let x = node a and y = node b and z = node sel in
      let r =
        match kind mod 5 with
        | 0 -> Circuit.mk_and c x y
        | 1 -> Circuit.mk_or c x y
        | 2 -> Circuit.mk_xor c x y
        | 3 -> Circuit.mk_not c x
        | _ -> (Circuit.mk_mux c ~a:[| x |] ~b:[| y |] ~s:z).(0)
      in
      push r)
    s.ops;
  let target = node s.target in
  (* drop facts on the target itself and keep the first value when the
     generator names one bit twice: a path holds one value per bit *)
  let seen = Hashtbl.create 8 in
  let knowns =
    List.filter_map
      (fun (i, v) ->
        let b = node i in
        if b = target || Hashtbl.mem seen b then None
        else begin
          Hashtbl.add seen b ();
          Some (b, v)
        end)
      s.knowns
  in
  c, knowns, target

let mk_known (facts : (Bits.bit * bool) list) : Smartly.Inference.known =
  let k : Smartly.Inference.known = Bits.Bit_tbl.create 8 in
  List.iter (fun (b, v) -> Bits.Bit_tbl.replace k b v) facts;
  k

let determine ?session cfg sg facts target =
  let stats = Smartly.Engine.fresh_stats () in
  Smartly.Engine.determine ?session cfg stats sg (mk_known facts) ~target

(* --- the differential property --- *)

let verdict_name = function
  | Smartly.Engine.Forced true -> "forced_true"
  | Smartly.Engine.Forced false -> "forced_false"
  | Smartly.Engine.Free -> "free"
  | Smartly.Engine.Unreachable -> "unreachable"
  | Smartly.Engine.Unknown -> "unknown"

(* Two ladder shapes: the default (rules, then sim, SAT held in reserve)
   and a SAT-only variant (rules and simulation both disabled) so the
   session machinery is exercised on every query, not only on the
   cones the cheaper rungs fail to crack. *)
let cfg_variants =
  [
    "default", Smartly.Config.default;
    ( "sat-only",
      { Smartly.Config.default with
        Smartly.Config.enable_inference_rules = false;
        Smartly.Config.sim_input_threshold = 0 } );
  ]

let arb_spec =
  let open QCheck in
  let arb =
    quad small_nat
      (list_of_size (Gen.int_range 0 12)
         (quad small_nat small_nat small_nat small_nat))
      (small_list (pair small_nat bool))
      small_nat
  in
  map ~rev:(fun s -> s.n_inputs, s.ops, s.knowns, s.target)
    (fun (n_inputs, ops, knowns, target) -> { n_inputs; ops; knowns; target })
    arb

let prop_session_matches_fresh =
  (* one shared session serves every session-path query of the whole
     run, exactly like a sat_elim sweep; the fresh path rebuilds the
     world per query *)
  let session = Cdcl.Session.create () in
  QCheck.Test.make ~count:600 ~name:"session = fresh per query" arb_spec
    (fun spec ->
      let c, facts, target = build_spec spec in
      (* one kernel serves every query on the circuit, as in a pass *)
      let sg = Smartly.Subgraph.create c (Index.build c) in
      List.for_all
        (fun (_, cfg) ->
          let fresh = determine cfg sg facts target in
          let sess1 = determine ~session cfg sg facts target in
          (* second run: same query again, on warm learned clauses *)
          let sess2 = determine ~session cfg sg facts target in
          if sess1 <> fresh || sess2 <> fresh then
            QCheck.Test.fail_reportf
              "verdict mismatch: fresh=%s session1=%s session2=%s"
              (verdict_name fresh) (verdict_name sess1) (verdict_name sess2)
          else true)
        cfg_variants)

(* --- directed cases --- *)

(* a 3-input xor cone: no inference rule cracks it, so with one input
   known the engine must reach the sim/SAT rungs *)
let xor3 () =
  let c = Circuit.create "xor3" in
  let a = Circuit.add_input c "a" ~width:1 in
  let b = Circuit.add_input c "b" ~width:1 in
  let d = Circuit.add_input c "d" ~width:1 in
  let x1 = Circuit.mk_xor c (Circuit.bit_of_wire a) (Circuit.bit_of_wire b) in
  let y = Circuit.mk_xor c x1 (Circuit.bit_of_wire d) in
  c, Circuit.bit_of_wire a, y

(* the cells of the distance-6 cones of [bits], drivers first *)
let cone_cells c bits =
  let sg = Smartly.Subgraph.create c (Index.build c) in
  Smartly.Subgraph.start sg;
  List.iter (Smartly.Subgraph.add_cone sg ~k:6) bits;
  Array.to_list (Smartly.Subgraph.ordered_cells sg)

(* --- session-mode DIMACS dumps replay round-trip (satellite: the
   sat-dump fix) ---

   A session query's clause database holds guarded clause groups for
   cells outside the query, and its verdict depends on assumption
   literals a bare DIMACS file knows nothing about.  The dump must
   therefore be self-contained: assumptions (path facts, activation
   guards) and the final target polarity appear as unit clauses, so a
   from-scratch solver on the dumped file alone reproduces the recorded
   final solve result. *)

let test_session_dump_replays () =
  Obs.Metrics.reset ();
  Smartly.Engine.Sat_log.reset ();
  let c, a, y = xor3 () in
  let cfg =
    { Smartly.Config.default with
      Smartly.Config.enable_inference_rules = false;
      Smartly.Config.sim_input_threshold = 0 }
  in
  let session = Cdcl.Session.create () in
  let sg = Smartly.Subgraph.create c (Index.build c) in
  let v = determine ~session cfg sg [ a, true ] y in
  check_bool "sat resolved it" true (v = Smartly.Engine.Free);
  let entries = Smartly.Engine.Sat_log.hardest () in
  check_bool "queries were logged" true (entries <> []);
  List.iter
    (fun (e : Smartly.Engine.Sat_log.entry) ->
      check_string "session mode recorded" "session" e.Smartly.Engine.Sat_log.mode;
      let cnf, comments =
        Cdcl.Dimacs.parse_string_ext
          (e.Smartly.Engine.Sat_log.dimacs ())
      in
      check_bool "metadata comment present" true
        (List.exists
           (fun l ->
             let p = "smartly-sat-query" in
             let n = String.length p in
             String.length l >= n && String.sub l 0 n = p)
           comments);
      let s = Cdcl.Dimacs.load cnf in
      let replayed = Cdcl.Solver.solve s in
      check_string "replay reproduces the recorded solve"
        (Smartly.Engine.Sat_log.solve_name e.Smartly.Engine.Sat_log.solve)
        (Smartly.Engine.Sat_log.solve_name replayed))
    entries

(* --- an armed pass budget interrupts a running SAT call ---

   With one xor3 input known, each polarity solve needs a decision, so
   a budget that has already expired must stop the call at its first
   decision: the verdict is [Unknown], where the unarmed query proves
   the cone free. *)

let test_budget_interrupts_sat () =
  Smartly.Budget.reset ();
  Smartly.Engine.Sat_log.reset ();
  let c, a, y = xor3 () in
  let cells = cone_cells c [ y; a ] in
  let query () =
    verdict_name
      (Smartly.Engine.query_sat c ~cells ~facts:[ a, true ] ~budget:4000
         ~target:y)
  in
  let expired =
    { Smartly.Config.default with Smartly.Config.pass_budget_ms = Some 0 }
  in
  Smartly.Budget.arm ~cfg:expired ~pass:"sat_elim" ();
  Unix.sleepf 0.002;
  let starved = query () in
  ignore (Smartly.Budget.disarm ());
  check_string "expired budget interrupts the call" "unknown" starved;
  check_string "unarmed query decides" "free" (query ())

let () =
  Alcotest.run "sat_session"
    [
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_session_matches_fresh ] );
      ( "replay",
        [
          Alcotest.test_case "session dumps replay" `Quick
            test_session_dump_replays;
        ] );
      ( "budget",
        [
          Alcotest.test_case "expired budget interrupts SAT" `Quick
            test_budget_interrupts_sat;
        ] );
    ]
