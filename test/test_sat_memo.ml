(* Differential harness for the SAT session + verdict memoization.

   The memoized/incremental fast path (one persistent Cdcl.Session, the
   global Memo cache consulted before sim/SAT) must be observationally
   identical to the slow path (fresh solver per query, cache disabled).
   The property tests below generate random small netlists with random
   known facts and run every determine query through both paths — twice
   through the fast path, so the second run exercises cache hits — and
   assert identical verdicts.  Directed cases then pin down the cache-key
   semantics (alpha-equivalence hits, different-target separation,
   irrelevant-known exclusion), the session-mode DIMACS dumps (replay
   round-trip), and the end-to-end flow (memo on vs off must produce the
   same final netlist, cell for cell). *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
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
     generator names one bit twice — Inference.set raises on a
     contradictory insert, which is the caller's bug, not a query *)
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
  List.iter (fun (b, v) -> ignore (Smartly.Inference.set k b v)) facts;
  k

let determine ?session cfg c facts target =
  let index = Index.build c in
  let stats = Smartly.Engine.fresh_stats () in
  Smartly.Engine.determine ?session cfg stats c index (mk_known facts) ~target

(* --- the differential property --- *)

let fast_cfg cfg = { cfg with Smartly.Config.enable_sat_memo = true }

let slow_cfg cfg = { cfg with Smartly.Config.enable_sat_memo = false }

let verdict_name = function
  | Smartly.Engine.Forced true -> "forced_true"
  | Smartly.Engine.Forced false -> "forced_false"
  | Smartly.Engine.Free -> "free"
  | Smartly.Engine.Unreachable -> "unreachable"
  | Smartly.Engine.Unknown -> "unknown"

(* Two ladder shapes: the default (rules, then sim, SAT held in reserve)
   and a SAT-only variant (rules and simulation both disabled) so the
   session/memo machinery is exercised on every query, not only on the
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

let prop_memo_matches_fresh =
  (* one shared session + the process-global memo serve every fast-path
     query of the whole run, exactly like a sat_elim sweep; the fresh
     path rebuilds the world per query *)
  let session = Cdcl.Session.create () in
  Smartly.Memo.reset ();
  QCheck.Test.make ~count:600 ~name:"memoized session = fresh per query"
    arb_spec (fun spec ->
      let c, facts, target = build_spec spec in
      List.for_all
        (fun (_, cfg) ->
          let fresh = determine (slow_cfg cfg) c facts target in
          let fast1 = determine ~session (fast_cfg cfg) c facts target in
          (* second run: same query again, now warm in the cache *)
          let fast2 = determine ~session (fast_cfg cfg) c facts target in
          if fast1 <> fresh || fast2 <> fresh then
            QCheck.Test.fail_reportf
              "verdict mismatch: fresh=%s fast1=%s fast2=%s"
              (verdict_name fresh) (verdict_name fast1) (verdict_name fast2)
          else true)
        cfg_variants)

(* --- directed cache-key cases --- *)

(* a 3-input xor cone: no inference rule cracks it, so with one input
   known the engine must reach the memo-fronted sim/SAT rungs *)
let xor3 ?(pad = 0) () =
  let c = Circuit.create "xor3" in
  (* pad shifts every wire id so the two circuits are alpha-equivalent
     but share no concrete ids *)
  for i = 0 to pad - 1 do
    ignore (Circuit.add_input c (Printf.sprintf "pad%d" i) ~width:1)
  done;
  let a = Circuit.add_input c "a" ~width:1 in
  let b = Circuit.add_input c "b" ~width:1 in
  let d = Circuit.add_input c "d" ~width:1 in
  let x1 = Circuit.mk_xor c (Circuit.bit_of_wire a) (Circuit.bit_of_wire b) in
  let y = Circuit.mk_xor c x1 (Circuit.bit_of_wire d) in
  c, Circuit.bit_of_wire a, y

let determine_how cfg c facts target =
  let index = Index.build c in
  let stats = Smartly.Engine.fresh_stats () in
  let v, how =
    Smartly.Engine.determine_how cfg stats c index (mk_known facts) ~target
  in
  v, how, stats

let test_alpha_equivalent_hit () =
  Smartly.Memo.reset ();
  let c1, a1, y1 = xor3 () in
  let c2, a2, y2 = xor3 ~pad:7 () in
  let cfg = Smartly.Config.default in
  let v1, how1, _ = determine_how cfg c1 [ a1, true ] y1 in
  let v2, how2, st2 = determine_how cfg c2 [ a2, true ] y2 in
  check_string "first query missed" "sim" (Smartly.Engine.source_name how1);
  check_string "alpha-equivalent query hit" "memo"
    (Smartly.Engine.source_name how2);
  check_int "hit counted" 1 st2.Smartly.Engine.memo_hits;
  check_bool "same verdict" true (v1 = v2);
  check_bool "xor cone is free" true (v1 = Smartly.Engine.Free)

let subgraph_view c targets knowns =
  let index = Index.build c in
  let sg = Smartly.Subgraph.create c index in
  List.iter (fun t -> Smartly.Subgraph.add_cone sg ~k:6 t) (targets @ knowns);
  Smartly.Subgraph.view sg

let test_key_alpha_equivalence () =
  (* same structure, disjoint wire ids: identical keys *)
  let c1, a1, y1 = xor3 () in
  let c2, a2, y2 = xor3 ~pad:7 () in
  let k1 = Smartly.Memo.key c1 (subgraph_view c1 [ y1 ] [ a1 ]) (
      let k = Bits.Bit_tbl.create 4 in Bits.Bit_tbl.replace k a1 true; k)
      ~target:y1
  in
  let k2 = Smartly.Memo.key c2 (subgraph_view c2 [ y2 ] [ a2 ]) (
      let k = Bits.Bit_tbl.create 4 in Bits.Bit_tbl.replace k a2 true; k)
      ~target:y2
  in
  check_string "alpha-equivalent keys collide (by design)" k1 k2

let test_key_distinguishes_target () =
  (* two structurally identical gates in one circuit: the key must keep
     their queries apart even though the serialized shapes agree *)
  let c = Circuit.create "twins" in
  let a = Circuit.add_input c "a" ~width:1 in
  let b = Circuit.add_input c "b" ~width:1 in
  let d = Circuit.add_input c "d" ~width:1 in
  let ab = Bits.Of_wire (a.Circuit.wire_id, 0) in
  let bb = Bits.Of_wire (b.Circuit.wire_id, 0) in
  let db = Bits.Of_wire (d.Circuit.wire_id, 0) in
  let y1 = Circuit.mk_and c ab bb in
  let y2 = Circuit.mk_and c ab db in
  let known = Bits.Bit_tbl.create 4 in
  Bits.Bit_tbl.replace known ab true;
  let k1 = Smartly.Memo.key c (subgraph_view c [ y1; y2 ] [ ab ]) known ~target:y1 in
  let k2 = Smartly.Memo.key c (subgraph_view c [ y1; y2 ] [ ab ]) known ~target:y2 in
  (* y1's cone is and(a,b), y2's is and(a,d): alpha-equivalent shapes,
     but the shared known on [a] anchors different positions *)
  check_bool "keys may collide only when verdicts agree" true
    (k1 = k2
    || (k1 <> k2
       && (let v1, _, _ = determine_how Smartly.Config.default c [ ab, true ] y1 in
           let v2, _, _ = determine_how Smartly.Config.default c [ ab, true ] y2 in
           v1 = Smartly.Engine.Free && v2 = Smartly.Engine.Free)));
  (* the decisive separation: same cone, opposite known value *)
  let known_f = Bits.Bit_tbl.create 4 in
  Bits.Bit_tbl.replace known_f ab false;
  let k3 = Smartly.Memo.key c (subgraph_view c [ y1 ] [ ab ]) known_f ~target:y1 in
  check_bool "known value separates keys" true (k1 <> k3)

let test_key_excludes_irrelevant_knowns () =
  let c, a, y = xor3 () in
  let z = Circuit.add_input c "z" ~width:1 in
  let zb = Circuit.bit_of_wire z in
  let view = subgraph_view c [ y ] [ a ] in
  let k_base = Bits.Bit_tbl.create 4 in
  Bits.Bit_tbl.replace k_base a true;
  let key_base = Smartly.Memo.key c view k_base ~target:y in
  let k_extra = Bits.Bit_tbl.create 4 in
  Bits.Bit_tbl.replace k_extra a true;
  Bits.Bit_tbl.replace k_extra zb false;
  let key_extra = Smartly.Memo.key c view k_extra ~target:y in
  check_string "disconnected known excluded from key" key_base key_extra

(* Three knowns on y = (a xor not b) xor d: [a] and [d] are both view
   sources, so their cone fingerprints are equal and only their values
   order them; [not b] is computed inside the view. *)
let three_knowns ?(pad = 0) ?(swap = false) order =
  let c = Circuit.create "three" in
  for i = 0 to pad - 1 do
    ignore (Circuit.add_input c (Printf.sprintf "pad%d" i) ~width:1)
  done;
  (* [swap] declares d before a, reversing their wire-id order *)
  let input name = Circuit.bit_of_wire (Circuit.add_input c name ~width:1) in
  let first = input (if swap then "d" else "a") in
  let b = input "b" in
  let last = input (if swap then "a" else "d") in
  let a, d = if swap then (last, first) else (first, last) in
  let nb = Circuit.mk_not c b in
  let y = Circuit.mk_xor c (Circuit.mk_xor c a nb) d in
  let facts = [| a, true; d, false; nb, true |] in
  let known = Bits.Bit_tbl.create 4 in
  List.iter
    (fun i ->
      let bit, v = facts.(i) in
      Bits.Bit_tbl.replace known bit v)
    order;
  Smartly.Memo.key c (subgraph_view c [ y ] [ a; d; nb ]) known ~target:y

let test_key_known_order_invariant () =
  let base = three_knowns [ 0; 1; 2 ] in
  let count_knowns key =
    List.length (String.split_on_char '|' key) - 1
  in
  check_int "all three knowns in the key" 3 (count_knowns base);
  List.iter
    (fun (pad, swap, order) ->
      check_string
        (Printf.sprintf "pad %d, swap %b, insertion order %s" pad swap
           (String.concat "," (List.map string_of_int order)))
        base (three_knowns ~pad ~swap order))
    [
      (0, false, [ 2; 1; 0 ]);
      (0, false, [ 1; 2; 0 ]);
      (0, true, [ 0; 1; 2 ]);
      (5, false, [ 0; 1; 2 ]);
      (5, true, [ 2; 0; 1 ]);
      (13, false, [ 1; 0; 2 ]);
    ]

let test_memo_store_semantics () =
  Smartly.Memo.reset ();
  check_bool "miss on empty" true (Smartly.Memo.find "k" = None);
  Smartly.Memo.store "k" (Smartly.Memo.Forced true);
  check_bool "hit after store" true
    (Smartly.Memo.find "k" = Some (Smartly.Memo.Forced true));
  (* first writer wins *)
  Smartly.Memo.store "k" Smartly.Memo.Free;
  check_bool "first writer kept" true
    (Smartly.Memo.find "k" = Some (Smartly.Memo.Forced true));
  (* FIFO eviction at tiny capacity *)
  Smartly.Memo.reset ~capacity:2 ();
  Smartly.Memo.store "a" Smartly.Memo.Free;
  Smartly.Memo.store "b" Smartly.Memo.Free;
  Smartly.Memo.store "c" Smartly.Memo.Free;
  check_int "capacity bounds entries" 2 (Smartly.Memo.size ());
  check_bool "oldest evicted" true (Smartly.Memo.find "a" = None);
  check_bool "newest kept" true (Smartly.Memo.find "c" <> None);
  Smartly.Memo.reset ()

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
  Smartly.Memo.reset ();
  Smartly.Engine.Sat_log.reset ();
  let c, a, y = xor3 () in
  let cfg =
    { Smartly.Config.default with
      Smartly.Config.enable_inference_rules = false;
      Smartly.Config.sim_input_threshold = 0;
      Smartly.Config.enable_sat_memo = false }
  in
  let session = Cdcl.Session.create () in
  let index = Index.build c in
  let stats = Smartly.Engine.fresh_stats () in
  let v =
    Smartly.Engine.determine ~session cfg stats c index (mk_known [ a, true ])
      ~target:y
  in
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
  let view = subgraph_view c [ y ] [ a ] in
  let query () =
    verdict_name
      (Smartly.Engine.query_sat c view (mk_known [ a, true ]) ~budget:4000
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

(* --- end-to-end: memo on vs off produce the identical netlist --- *)

let run_smartly ~memo ~check_invariants c =
  Obs.Metrics.reset ();
  Smartly.Memo.reset ();
  Smartly.Engine.Sat_log.reset ();
  let cfg = { Smartly.Config.default with Smartly.Config.enable_sat_memo = memo } in
  if check_invariants then begin
    let inv = Lint.Invariant.create ~equiv:true c in
    ignore (Smartly.Driver.smartly ~cfg ~after_pass:(Lint.Invariant.after_pass inv) c);
    check_bool "invariants hold" true (Lint.Invariant.ok inv);
    check_bool "invariants actually ran" true (Lint.Invariant.checks_run inv > 0)
  end
  else ignore (Smartly.Driver.smartly ~cfg c)

let assert_same_netlist name c0 ~check_invariants =
  let c_on = Circuit.copy c0 in
  let c_off = Circuit.copy c0 in
  run_smartly ~memo:true ~check_invariants c_on;
  run_smartly ~memo:false ~check_invariants c_off;
  check_string
    (name ^ ": memo on/off netlists identical")
    (Netlist.Pp.to_string c_off) (Netlist.Pp.to_string c_on)

let test_e2e_fig3_identical () =
  (* the paper's Fig. 3 nested-mux example, invariant-checked after
     every sub-pass in both runs *)
  let c = Circuit.create "fig3" in
  let s = Circuit.add_input c "S" ~width:1 in
  let r = Circuit.add_input c "R" ~width:1 in
  let a = Circuit.add_input c "A" ~width:4 in
  let b = Circuit.add_input c "B" ~width:4 in
  let cc = Circuit.add_input c "C" ~width:4 in
  let sb = Circuit.bit_of_wire s in
  let s_or_r = Circuit.mk_or c sb (Circuit.bit_of_wire r) in
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire b) ~b:(Circuit.sig_of_wire a)
      ~s:s_or_r
  in
  let outer = Circuit.mk_mux c ~a:(Circuit.sig_of_wire cc) ~b:inner ~s:sb in
  let yw = Circuit.add_output c "Y" ~width:4 in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = outer; b = Bits.all_zero ~width:4;
            y = Circuit.sig_of_wire yw }));
  assert_same_netlist "fig3" c ~check_invariants:true

let test_e2e_mux_chain_identical () =
  (* the CI smoke profile: mux-heavy, resolves real queries through the
     engine ladder *)
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  assert_same_netlist "mux_chain" c ~check_invariants:false

let () =
  Alcotest.run "sat_memo"
    [
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_memo_matches_fresh ] );
      ( "cache-key",
        [
          Alcotest.test_case "alpha-equivalent query hits" `Quick
            test_alpha_equivalent_hit;
          Alcotest.test_case "alpha-equivalent keys equal" `Quick
            test_key_alpha_equivalence;
          Alcotest.test_case "target/known separate keys" `Quick
            test_key_distinguishes_target;
          Alcotest.test_case "irrelevant knowns excluded" `Quick
            test_key_excludes_irrelevant_knowns;
          Alcotest.test_case "known order and wire ids ignored" `Quick
            test_key_known_order_invariant;
          Alcotest.test_case "store semantics" `Quick test_memo_store_semantics;
        ] );
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
      ( "e2e",
        [
          Alcotest.test_case "fig3 memo on/off identical" `Quick
            test_e2e_fig3_identical;
          Alcotest.test_case "mux_chain memo on/off identical" `Slow
            test_e2e_mux_chain_identical;
        ] );
    ]
