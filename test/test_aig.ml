(* Tests for the AIG package and the aigmap conversion. *)

open Netlist
module A = Aiger.Aig

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_constants () =
  let g = A.create () in
  let x = A.new_pi g "x" in
  check_bool "x & 0 = 0" true (A.and_ g x A.false_lit = A.false_lit);
  check_bool "x & 1 = x" true (A.and_ g x A.true_lit = x);
  check_bool "x & x = x" true (A.and_ g x x = x);
  check_bool "x & ~x = 0" true (A.and_ g x (A.negate x) = A.false_lit)

let test_strash () =
  let g = A.create () in
  let x = A.new_pi g "x" and y = A.new_pi g "y" in
  let a1 = A.and_ g x y in
  let a2 = A.and_ g y x in
  check_bool "commutative sharing" true (a1 = a2);
  check_int "one and node" 1 (A.num_ands g)

let test_area_counts_live_only () =
  let g = A.create () in
  let x = A.new_pi g "x" and y = A.new_pi g "y" in
  let live = A.and_ g x y in
  let _dead = A.and_ g x (A.negate y) in
  A.add_po g "o" live;
  check_int "all ands" 2 (A.num_ands g);
  check_int "live area" 1 (A.area g)

let test_simulate () =
  let g = A.create () in
  let x = A.new_pi g "x" and y = A.new_pi g "y" in
  let o = A.xor_ g x y in
  A.add_po g "o" o;
  (* lanes: x = 0101, y = 0011 -> xor = 0110 *)
  let values = A.simulate g [| 0b0101; 0b0011 |] in
  check_int "xor lanes" 0b0110 (A.lit_value values o land 0xF)

let test_mux_semantics () =
  let g = A.create () in
  let s = A.new_pi g "s" and a = A.new_pi g "a" and b = A.new_pi g "b" in
  let o = A.mux_ g ~s ~a ~b in
  (* s=1 selects b *)
  let values = A.simulate g [| 0b11_00; 0b01_01; 0b00_11 |] in
  (* lanes (lsb first): s=0011..., enumerate 4 lanes:
     lane0: s=0,a=1,b=1 -> 1; lane1: s=0,a=0,b=1 -> 0;
     lane2: s=1,a=1,b=0 -> 0; lane3: s=1,a=0,b=0 -> 0 *)
  check_int "mux lanes" 0b0001 (A.lit_value values o land 0xF)

(* --- aigmap --- *)

let test_aigmap_add () =
  (* 4-bit adder mapped to AIG must agree with integer addition *)
  let c = Circuit.create "adder" in
  let a = Circuit.add_input c "a" ~width:4 in
  let b = Circuit.add_input c "b" ~width:4 in
  let sum =
    Circuit.mk_binary c Cell.Add (Circuit.sig_of_wire a) (Circuit.sig_of_wire b)
  in
  let y = Circuit.add_output c "y" ~width:4 in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = sum; b = Bits.all_zero ~width:4;
            y = Circuit.sig_of_wire y }));
  let m = Aiger.Aigmap.map c in
  let g = m.Aiger.Aigmap.aig in
  (* drive pi lanes with all 16x16 combinations split over multiple sims *)
  let ok = ref true in
  for va = 0 to 15 do
    for vb = 0 to 15 do
      let pi_words =
        List.map
          (fun (name, _) ->
            (* name like a[i] or b[i] *)
            let base = name.[0] in
            let idx = Char.code name.[2] - Char.code '0' in
            let v = if base = 'a' then va else vb in
            if (v lsr idx) land 1 = 1 then 1 else 0)
          (A.pis g)
        |> Array.of_list
      in
      let values = A.simulate g pi_words in
      let out = ref 0 in
      List.iteri
        (fun i (_, l) -> if A.lit_value values l land 1 = 1 then out := !out lor (1 lsl i))
        (A.pos g);
      if !out <> (va + vb) land 15 then ok := false
    done
  done;
  check_bool "adder correct over all inputs" true !ok

let test_aigmap_dff_excluded () =
  let c = Circuit.create "seq" in
  let a = Circuit.add_input c "a" ~width:2 in
  let q = Circuit.mk_dff c ~d:(Circuit.sig_of_wire a) in
  let y = Circuit.add_output c "y" ~width:2 in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = q; b = Bits.all_zero ~width:2;
            y = Circuit.sig_of_wire y }));
  (* pure wiring through a dff: zero AND gates *)
  check_int "no area" 0 (Aiger.Aigmap.aig_area c);
  let g = (Aiger.Aigmap.map c).Aiger.Aigmap.aig in
  check_int "pis: 2 input + 2 dffq" 4 (A.num_pis g);
  check_int "pos: 2 output + 2 dffd" 4 (A.num_pos g)

(* property: aigmap agrees with the 3-valued evaluator on random circuits *)
let gen_rand_circuit seed =
  let c = Circuit.create "rand" in
  let ins = List.init 4 (fun i -> Circuit.add_input c (Printf.sprintf "i%d" i) ~width:1) in
  let pool = ref (List.map Circuit.bit_of_wire ins) in
  let st = ref (seed + 1) in
  let next () =
    st := (!st * 1103515245) + 12345;
    (!st lsr 16) land 0xFFF
  in
  for _ = 1 to 15 do
    let pick () = List.nth !pool (next () mod List.length !pool) in
    let a = pick () and b = pick () in
    let bit =
      match next () mod 6 with
      | 0 -> Circuit.mk_and c a b
      | 1 -> Circuit.mk_or c a b
      | 2 -> Circuit.mk_xor c a b
      | 3 -> Circuit.mk_not c a
      | 4 -> (Circuit.mk_binary c Cell.Xnor [| a |] [| b |]).(0)
      | _ -> (Circuit.mk_mux c ~a:[| a |] ~b:[| b |] ~s:(pick ())).(0)
    in
    pool := bit :: !pool
  done;
  let y = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = [| List.hd !pool |]; b = [| Bits.C0 |];
            y = [| Circuit.bit_of_wire y |] }));
  c, ins

let prop_aigmap_matches_eval =
  QCheck.Test.make ~count:150 ~name:"aigmap = netlist eval"
    QCheck.(pair (int_bound 100000) (int_bound 15))
    (fun (seed, input_bits) ->
      let c, ins = gen_rand_circuit seed in
      let inputs =
        List.mapi
          (fun i w ->
            ( Circuit.bit_of_wire w,
              if (input_bits lsr i) land 1 = 1 then Rtl_sim.Value.V1
              else Rtl_sim.Value.V0 ))
          ins
      in
      let env = Rtl_sim.Eval.run c ~inputs () in
      let y = List.hd (Circuit.outputs c) in
      let expect = Rtl_sim.Eval.read env (Bits.Of_wire (y.Circuit.wire_id, 0)) in
      let g = (Aiger.Aigmap.map c).Aiger.Aigmap.aig in
      let pi_words =
        List.map
          (fun (name, _) ->
            let idx = Char.code name.[1] - Char.code '0' in
            (input_bits lsr idx) land 1)
          (A.pis g)
        |> Array.of_list
      in
      let values = A.simulate g pi_words in
      let got =
        match A.pos g with
        | [ (_, l) ] -> A.lit_value values l land 1
        | _ -> -1
      in
      match expect with
      | Rtl_sim.Value.V0 -> got = 0
      | Rtl_sim.Value.V1 -> got = 1
      | Rtl_sim.Value.Vx -> false)

(* --- CEC --- *)

let test_cec_positive_negative () =
  let mk neg =
    let c = Circuit.create "m" in
    let a = Circuit.add_input c "a" ~width:1 in
    let b = Circuit.add_input c "b" ~width:1 in
    let ab = Circuit.bit_of_wire a and bb = Circuit.bit_of_wire b in
    (* demorgan: ~(a & b) vs ~a | ~b; the negative case drops a negation *)
    let v =
      if neg then Circuit.mk_or c (Circuit.mk_not c ab) bb
      else Circuit.mk_or c (Circuit.mk_not c ab) (Circuit.mk_not c bb)
    in
    let y = Circuit.add_output c "y" ~width:1 in
    ignore
      (Circuit.add_cell c
         (Cell.Binary
            { op = Cell.Or; a = [| v |]; b = [| Bits.C0 |];
              y = [| Circuit.bit_of_wire y |] }));
    c
  in
  let c1 = mk false in
  let c2 = Circuit.create "m" in
  let a = Circuit.add_input c2 "a" ~width:1 in
  let b = Circuit.add_input c2 "b" ~width:1 in
  let nand =
    Circuit.mk_not c2
      (Circuit.mk_and c2 (Circuit.bit_of_wire a) (Circuit.bit_of_wire b))
  in
  let y = Circuit.add_output c2 "y" ~width:1 in
  ignore
    (Circuit.add_cell c2
       (Cell.Binary
          { op = Cell.Or; a = [| nand |]; b = [| Bits.C0 |];
            y = [| Circuit.bit_of_wire y |] }));
  check_bool "demorgan equiv" true (Equiv.is_equivalent c1 c2);
  check_bool "broken not equiv" false (Equiv.is_equivalent (mk true) c2)

let () =
  Alcotest.run "aig"
    [
      ( "aig",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "strash" `Quick test_strash;
          Alcotest.test_case "area live only" `Quick test_area_counts_live_only;
          Alcotest.test_case "simulate" `Quick test_simulate;
          Alcotest.test_case "mux semantics" `Quick test_mux_semantics;
        ] );
      ( "aigmap",
        [
          Alcotest.test_case "adder exhaustive" `Quick test_aigmap_add;
          Alcotest.test_case "dff excluded" `Quick test_aigmap_dff_excluded;
          QCheck_alcotest.to_alcotest prop_aigmap_matches_eval;
        ] );
      ( "cec",
        [ Alcotest.test_case "positive/negative" `Quick test_cec_positive_negative ] );
    ]
