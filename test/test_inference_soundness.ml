(* Soundness of the inference engine, checked against brute force.

   For random circuits and random *consistent* known-value sets (values
   observed in a real execution), every value derived by the inference
   rules must hold in every input assignment compatible with the knowns,
   and every Engine verdict must match the brute-force answer.  This is
   the property that keeps the SAT-elimination pass sound.  The sub-graph
   kernel is also checked against the reference implementations it
   replaced. *)

open Netlist

(* random gate-level circuit over n 1-bit inputs *)
let gen_circuit seed n_inputs n_gates =
  let c = Circuit.create "rand" in
  let ins =
    List.init n_inputs (fun i ->
        Circuit.add_input c (Printf.sprintf "i%d" i) ~width:1)
  in
  let pool = ref (List.map Circuit.bit_of_wire ins) in
  let st = ref (seed * 7 + 3) in
  let next () =
    st := (!st * 1103515245) + 12345;
    (!st lsr 16) land 0xFFFF
  in
  for _ = 1 to n_gates do
    let pick () = List.nth !pool (next () mod List.length !pool) in
    let a = pick () and b = pick () in
    let bit =
      match next () mod 7 with
      | 0 -> Circuit.mk_and c a b
      | 1 -> Circuit.mk_or c a b
      | 2 -> Circuit.mk_xor c a b
      | 3 -> Circuit.mk_not c a
      | 4 -> (Circuit.mk_binary c Cell.Xnor [| a |] [| b |]).(0)
      | 5 -> (Circuit.mk_binary c Cell.Eq [| a; b |] [| pick (); pick () |]).(0)
      | _ -> (Circuit.mk_mux c ~a:[| a |] ~b:[| b |] ~s:(pick ())).(0)
    in
    pool := bit :: !pool
  done;
  c, ins, !pool

(* evaluate all bits under one input assignment *)
let eval_all c ins assignment =
  let inputs =
    List.mapi
      (fun i w ->
        ( Circuit.bit_of_wire w,
          if (assignment lsr i) land 1 = 1 then Rtl_sim.Value.V1
          else Rtl_sim.Value.V0 ))
      ins
  in
  Rtl_sim.Eval.run c ~inputs ()

let bit_value env b =
  match Rtl_sim.Eval.read env b with
  | Rtl_sim.Value.V1 -> true
  | Rtl_sim.Value.V0 -> false
  | Rtl_sim.Value.Vx -> false

(* pick a consistent known set: values of [k] random bits under a random
   assignment (so a satisfying execution exists by construction) *)
let pick_knowns st pool env k =
  let next () =
    st := (!st * 48271) mod 0x7FFFFFFF;
    !st
  in
  List.init k (fun _ ->
      let b = List.nth pool (next () mod List.length pool) in
      b, bit_value env b)

let prop_inference_sound =
  QCheck.Test.make ~count:120 ~name:"inference rules are sound"
    QCheck.(pair (int_bound 100000) (int_range 1 3))
    (fun (seed, k) ->
      let n_inputs = 5 in
      let c, ins, pool = gen_circuit seed n_inputs 14 in
      let witness = seed land ((1 lsl n_inputs) - 1) in
      let env_w = eval_all c ins witness in
      let st = ref (seed + 11) in
      let knowns = pick_knowns st pool env_w k in
      let known : Smartly.Inference.known = Bits.Bit_tbl.create 8 in
      List.iter (fun (b, v) -> Bits.Bit_tbl.replace known b v) knowns;
      let facts = Smartly.Inference.Dense.create c in
      Smartly.Inference.Dense.load facts known;
      (match
         Smartly.Inference.Dense.propagate facts c
           (Array.of_list (Circuit.cell_ids c))
       with
      | () -> ()
      | exception Smartly.Inference.Contradiction ->
        (* cannot happen: the knowns have a witness *)
        QCheck.Test.fail_report "contradiction on satisfiable knowns");
      (* every inferred value must hold in every compatible assignment;
         every cell reads and drives only bits of [pool] *)
      let ok = ref true in
      for a = 0 to (1 lsl n_inputs) - 1 do
        let env = eval_all c ins a in
        let compatible =
          List.for_all (fun (b, v) -> bit_value env b = v) knowns
        in
        if compatible then
          List.iter
            (fun b ->
              match Smartly.Inference.Dense.read facts b with
              | Some v -> if bit_value env b <> v then ok := false
              | None -> ())
            pool
      done;
      !ok)

(* --- the sub-graph kernel against the reference path ---

   The walk's kernel ([Subgraph]: a per-pass cone index and the dense
   fact store [Inference.Dense]) answers every fold and every ladder
   query.  Its oracles live here: a recursive cone extraction over hash
   tables, and Table I's rules on a hash-table fact store.  On random circuits with multi-bit, mux, pmux and dff cells,
   and on known sets that are consistent and sets that are not, both
   must extract the same cells, derive the same value for every bit, and
   agree on whether the facts contradict. *)

(* the combinational cells within distance [k] above any of [bits], by
   id: a cell seen again at a smaller depth is revisited *)
let reference_cone c index ~k bits =
  let depth_of = Hashtbl.create 64 in
  let rec up depth b =
    if depth < k then
      match Index.driving_cell index b with
      | None -> ()
      | Some (id, _) -> (
        match Circuit.cell_opt c id with
        | Some cell when Cell.is_combinational cell ->
          let seen_better =
            match Hashtbl.find_opt depth_of id with
            | Some d -> d <= depth
            | None -> false
          in
          if not seen_better then begin
            Hashtbl.replace depth_of id depth;
            List.iter (up (depth + 1)) (Cell.input_bits cell)
          end
        | Some _ | None -> ())
  in
  List.iter (up 0) bits;
  List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) depth_of [])

module Ref = Smartly.Inference.Rules (struct
  type t = Smartly.Inference.known

  let find = Bits.Bit_tbl.find_opt
  let add = Bits.Bit_tbl.replace
end)

(* the rules on a copy of [known], swept over [cells] to their fixpoint
   @raise Smartly.Inference.Contradiction *)
let reference_propagate c known cells =
  let local = Bits.Bit_tbl.copy known in
  let rec sweep () =
    if
      List.fold_left
        (fun progress id -> Ref.step local (Circuit.cell c id) || progress)
        false cells
    then sweep ()
  in
  sweep ();
  local

(* random circuit of [n_cells] cells over four inputs of width 1..3, with
   the multi-bit, pmux and (unless [dffs] is false) dff cells
   [gen_circuit] lacks *)
let gen_wide_circuit ?(dffs = true) seed n_cells =
  let c = Circuit.create "wide" in
  let st = ref ((seed * 13) + 5) in
  let next () =
    st := (!st * 1103515245) + 12345;
    (!st lsr 16) land 0xFFFF
  in
  let sigs =
    ref
      (List.init 4 (fun i ->
           Circuit.sig_of_wire
             (Circuit.add_input c (Printf.sprintf "i%d" i)
                ~width:(1 + (next () mod 3)))))
  in
  let pick_bit () =
    if next () mod 9 = 0 then Bits.const_of_bool (next () mod 2 = 0)
    else
      let s = List.nth !sigs (next () mod List.length !sigs) in
      s.(next () mod Array.length s)
  in
  let pick w = Array.init w (fun _ -> pick_bit ()) in
  for _ = 1 to n_cells do
    let w = 1 + (next () mod 3) in
    let binary ops =
      Circuit.mk_binary c (List.nth ops (next () mod List.length ops))
        (pick w) (pick w)
    in
    let y =
      match next () mod 10 with
      | 0 | 1 -> binary Cell.[ And; Or; Xor; Xnor ]
      | 2 -> binary Cell.[ Eq; Ne; Logic_and; Logic_or ]
      | 3 -> binary Cell.[ Add; Sub ]
      | 4 ->
        let ops =
          Cell.[ Not; Logic_not; Reduce_and; Reduce_or; Reduce_xor; Reduce_bool ]
        in
        Circuit.mk_unary c (List.nth ops (next () mod 6)) (pick w)
      | 5 | 6 -> Circuit.mk_mux c ~a:(pick w) ~b:(pick w) ~s:(pick_bit ())
      | 7 | 8 ->
        let n = 1 + (next () mod 3) in
        Circuit.mk_pmux c ~a:(pick w) ~b:(pick (w * n)) ~s:(pick n)
      | _ when dffs -> Circuit.mk_dff c ~d:(pick w)
      | _ -> Circuit.mk_mux c ~a:(pick w) ~b:(pick w) ~s:(pick_bit ())
    in
    sigs := y :: !sigs
  done;
  c, List.concat_map Array.to_list !sigs

(* [n] facts: the values of random bits under one random input
   assignment (consistent) or random values (often not) *)
let gen_known c bits ~consistent ~seed n =
  let st = ref ((seed * 31) + 7) in
  let next () =
    st := (!st * 48271) mod 0x7FFFFFFF;
    !st
  in
  let env =
    Rtl_sim.Eval.run c
      ~inputs:
        (List.concat_map
           (fun w ->
             Array.to_list
               (Array.map
                  (fun b -> (b, Rtl_sim.Value.of_bool (next () mod 2 = 0)))
                  (Circuit.sig_of_wire w)))
           (Circuit.inputs c))
      ()
  in
  let known : Smartly.Inference.known = Bits.Bit_tbl.create 8 in
  for _ = 1 to n do
    let b = List.nth bits (next () mod List.length bits) in
    let v =
      if consistent then Rtl_sim.Value.to_bool (Rtl_sim.Eval.read env b)
      else Some (next () mod 2 = 0)
    in
    match b, v with
    | Bits.Of_wire _, Some v -> Bits.Bit_tbl.replace known b v
    | _, _ -> ()
  done;
  known

let wire_bits bits =
  List.sort_uniq Bits.bit_compare
    (List.filter (fun b -> not (Bits.is_const b)) bits)

let prop_cones_and_store_agree =
  QCheck.Test.make ~count:150
    ~name:"cone index and dense store agree with the reference"
    QCheck.(pair (int_bound 100000) (int_range 1 6))
    (fun (seed, k) ->
      let c, bits =
        if seed mod 3 = 0 then
          let c, _, pool = gen_circuit seed 5 14 in
          c, pool
        else gen_wide_circuit seed 24
      in
      let index = Index.build c in
      let sg = Smartly.Subgraph.create c index in
      let facts = Smartly.Subgraph.facts sg in
      let all = wire_bits bits in
      (* one kernel serves every trial, as in a pass *)
      List.for_all
        (fun trial ->
          let known =
            gen_known c bits ~consistent:(trial mod 2 = 0)
              ~seed:(seed + trial) (1 + (trial mod 5))
          in
          let seeds = Bits.Bit_tbl.fold (fun b _ acc -> b :: acc) known [] in
          let extra = List.nth all ((seed + trial) mod List.length all) in
          let ref_cells = reference_cone c index ~k (extra :: seeds) in
          Smartly.Subgraph.start sg;
          List.iter
            (Smartly.Subgraph.add_cone sg ~k)
            (List.rev (extra :: seeds));
          let cells = Smartly.Subgraph.ordered_cells sg in
          if Smartly.Subgraph.size sg <> List.length ref_cells then
            QCheck.Test.fail_report "cone sizes differ";
          if List.sort compare (Array.to_list cells) <> ref_cells then
            QCheck.Test.fail_report "cone cell sets differ";
          let local, ref_ok =
            match reference_propagate c known ref_cells with
            | local -> (local, true)
            | exception Smartly.Inference.Contradiction -> (known, false)
          in
          Smartly.Inference.Dense.load facts known;
          let ok =
            match Smartly.Inference.Dense.propagate facts c cells with
            | () -> true
            | exception Smartly.Inference.Contradiction -> false
          in
          if ok <> ref_ok then
            QCheck.Test.fail_report "contradiction verdicts differ";
          (not ok)
          || List.for_all
               (fun b ->
                 Ref.read local b = Smartly.Inference.Dense.read facts b)
               all)
        [ 0; 1; 2; 3; 4; 5 ])

(* the walk's fold of one port, rebuilt from the reference path *)
let reference_fold (cfg : Smartly.Config.t) c index known port =
  let cells =
    reference_cone c index ~k:cfg.Smartly.Config.distance_k
      (Bits.Bit_tbl.fold (fun b _ acc -> b :: acc) known []
      @ Array.to_list port)
  in
  let local =
    if
      Bits.Bit_tbl.length known = 0
      || List.length cells > cfg.Smartly.Config.max_subgraph_cells
    then known
    else
      match reference_propagate c known cells with
      | local -> local
      | exception Smartly.Inference.Contradiction -> known
  in
  Array.map
    (fun b ->
      match Smartly.Inference.read local b with
      | Some v -> Bits.const_of_bool v
      | None -> b)
    port

let with_provenance f =
  let sink = Obs.Provenance.make_sink () in
  Obs.Provenance.install sink;
  let r = Fun.protect ~finally:Obs.Provenance.uninstall f in
  r, Obs.Provenance.events sink

let const_resolved evs =
  List.length
    (List.filter
       (fun (e : Obs.Provenance.event) ->
         e.Obs.Provenance.kind = Obs.Provenance.Const_resolved)
       evs)

let prop_fold_agrees =
  QCheck.Test.make ~count:150 ~name:"fold kernel agrees with the reference"
    QCheck.(triple (int_bound 100000) (int_range 1 6) (int_range 1 40))
    (fun (seed, k, max_cells) ->
      let c, bits = gen_wide_circuit seed 24 in
      let index = Index.build c in
      let cfg =
        {
          Smartly.Config.default with
          Smartly.Config.distance_k = k;
          max_subgraph_cells = max_cells;
        }
      in
      let sg = Smartly.Subgraph.create c index in
      List.for_all
        (fun trial ->
          let known =
            gen_known c bits ~consistent:(trial mod 2 = 0)
              ~seed:(seed + trial) (trial mod 5)
          in
          let port =
            Array.init (1 + (trial mod 4)) (fun i ->
                List.nth bits ((seed + (7 * trial) + i) mod List.length bits))
          in
          let expected = reference_fold cfg c index known port in
          let (out, n), evs =
            with_provenance (fun () ->
                Smartly.Sat_elim.fold_port cfg sg known ~owner:0 port)
          in
          let changed = ref 0 in
          Array.iter2
            (fun a b -> if not (Bits.bit_equal a b) then incr changed)
            port out;
          Bits.equal out expected && n = !changed && const_resolved evs = n)
        [ 0; 1; 2; 3; 4; 5 ])

(* each input assignment of a combinational circuit, as a bit reader *)
let input_rows c =
  let ins =
    List.concat_map
      (fun w -> Array.to_list (Circuit.sig_of_wire w))
      (Circuit.inputs c)
  in
  List.init
    (1 lsl List.length ins)
    (fun a ->
      bit_value
        (Rtl_sim.Eval.run c
           ~inputs:
             (List.mapi
                (fun i b -> (b, Rtl_sim.Value.of_bool ((a lsr i) land 1 = 1)))
                ins)
           ()))

(* Engine verdicts against brute force over every input assignment, on
   1-bit gate circuits and on multi-bit circuits of every combinational
   cell kind.  The wide circuits have no flip-flop: the engine treats a
   flip-flop output as a free source, which a combinational brute force
   does not.  One kernel serves a case's queries, as in a pass, and every
   other query skips simulation so that SAT answers what the rules and
   rung zero leave open. *)
let prop_engine_sound =
  QCheck.Test.make ~count:80 ~name:"engine verdicts match brute force"
    QCheck.(pair (int_bound 100000) (int_range 1 3))
    (fun (seed, k) ->
      let c, bits =
        if seed mod 2 = 0 then
          let c, _, pool = gen_circuit seed 5 12 in
          c, pool
        else gen_wide_circuit ~dffs:false seed 16
      in
      let rows = input_rows c in
      let all = wire_bits bits in
      let sg = Smartly.Subgraph.create c (Index.build c) in
      let cfg =
        { Smartly.Config.default with Smartly.Config.distance_k = 32 }
      in
      let sat_cfg = { cfg with Smartly.Config.sim_input_threshold = 0 } in
      let stats = Smartly.Engine.fresh_stats () in
      List.for_all
        (fun trial ->
          let cfg = if trial mod 2 = 0 then cfg else sat_cfg in
          let known =
            gen_known c bits ~consistent:true ~seed:(seed + trial) k
          in
          let target =
            List.nth all ((seed + (7 * trial)) mod List.length all)
          in
          Bits.Bit_tbl.length known = 0
          ||
          let verdict = Smartly.Engine.determine cfg stats sg known ~target in
          let saw_true = ref false and saw_false = ref false in
          List.iter
            (fun row ->
              if Bits.Bit_tbl.fold (fun b v ok -> ok && row b = v) known true
              then if row target then saw_true := true else saw_false := true)
            rows;
          match verdict with
          | Smartly.Engine.Forced true -> !saw_true && not !saw_false
          | Smartly.Engine.Forced false -> !saw_false && not !saw_true
          | Smartly.Engine.Free -> !saw_true && !saw_false
          | Smartly.Engine.Unreachable -> (not !saw_true) && not !saw_false
          | Smartly.Engine.Unknown -> true (* giving up is always sound *))
        [ 0; 1; 2; 3 ])

(* Y = S ? Q : M and M = T ? B : P, with P = R & Q and R = U | V.  The
   walk may bypass P to R, which is already in M's fanin cone.  Under
   S = 0, T = 0 and U = 1 at distance 2, M's output folds to 1 after that
   edit, because M's cone then holds R's cell.  A kernel that kept M's
   pass-start fanin would extract P's cell instead and fold nothing. *)
let test_fold_forgets_replaced_fanin () =
  let c = Circuit.create "replace" in
  let input name = Circuit.bit_of_wire (Circuit.add_input c name ~width:1) in
  let s = input "S" and t = input "T" and u = input "U" and v = input "V" in
  let q = input "Q" and b = input "B" in
  let r = Circuit.mk_or c u v in
  let p = Circuit.mk_and c r q in
  let m_out = Circuit.fresh_bit c in
  let m =
    Circuit.add_cell c
      (Cell.Mux { a = [| p |]; b = [| b |]; s = t; y = [| m_out |] })
  in
  let y = Circuit.mk_mux c ~a:[| m_out |] ~b:[| q |] ~s in
  ignore y;
  let index = Index.build c in
  let cfg = { Smartly.Config.default with Smartly.Config.distance_k = 2 } in
  let sg = Smartly.Subgraph.create c index in
  let known : Smartly.Inference.known = Bits.Bit_tbl.create 4 in
  List.iter
    (fun (bit, value) -> Bits.Bit_tbl.replace known bit value)
    [ (s, false); (t, false); (u, true) ];
  let port = [| m_out |] in
  let before, n0 = Smartly.Sat_elim.fold_port cfg sg known ~owner:0 port in
  Alcotest.(check int) "P is unknown before the edit" 0 n0;
  Alcotest.(check bool) "port unchanged" true (Bits.equal before port);
  Smartly.Subgraph.replace sg m
    (Cell.Mux { a = [| r |]; b = [| b |]; s = t; y = [| m_out |] });
  let after, n1 = Smartly.Sat_elim.fold_port cfg sg known ~owner:0 port in
  let expected = reference_fold cfg c index known port in
  Alcotest.(check bool) "reference folds M to 1" true
    (Bits.equal expected [| Bits.C1 |]);
  Alcotest.(check int) "kernel folds one bit" 1 n1;
  Alcotest.(check bool) "kernel agrees" true (Bits.equal after expected)

let test_fold_constant_port () =
  let c = Circuit.create "consts" in
  let s = Circuit.bit_of_wire (Circuit.add_input c "S" ~width:1) in
  let y = Circuit.mk_mux c ~a:[| Bits.C0; Bits.Cx |] ~b:[| Bits.C1; s |] ~s in
  ignore y;
  let sg = Smartly.Subgraph.create c (Index.build c) in
  let known : Smartly.Inference.known = Bits.Bit_tbl.create 4 in
  Bits.Bit_tbl.replace known s true;
  let port = [| Bits.C0; Bits.C1; Bits.Cx |] in
  let (out, n), evs =
    with_provenance (fun () ->
        Smartly.Sat_elim.fold_port Smartly.Config.default sg known ~owner:0
          port)
  in
  Alcotest.(check bool) "unchanged" true (Bits.equal out port);
  Alcotest.(check int) "nothing folded" 0 n;
  Alcotest.(check int) "no Const_resolved event" 0 (const_resolved evs)

let () =
  Alcotest.run "inference_soundness"
    [
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_inference_sound;
            prop_engine_sound;
            prop_cones_and_store_agree;
            prop_fold_agrees;
          ] );
      ( "fold kernel",
        [
          Alcotest.test_case "replaced mux fanin" `Quick
            test_fold_forgets_replaced_fanin;
          Alcotest.test_case "constant port" `Quick test_fold_constant_port;
        ] );
    ]
