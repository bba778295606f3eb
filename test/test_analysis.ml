(* Differential soundness of the value-analysis fixpoint.

   The abstract state must over-approximate every concrete execution:
   for random mixed-width circuits and random concrete inputs, every
   simulated bit must be contained in its ternary abstract value and
   every simulated vector must lie inside its interval — unseeded, and
   seeded with facts observed in a real execution (so a witness exists
   by construction and Contradiction is unsound).  Derived cell facts
   (the NL010..NL013 backend) are checked against brute force over all
   input assignments. *)

open Netlist

(* --- random mixed-width circuits --- *)

let n_bits1 = 4 (* four 1-bit inputs, assignment bits 0..3 *)
let n_ins3 = 2 (* two 3-bit inputs, assignment bits 4..9 *)
let total_input_bits = n_bits1 + (3 * n_ins3)

(* Random circuit over the fixed input set: 1-bit gate soup plus
   add/sub/eq/pmux islands over 3-bit vectors, with occasional constant
   operands so the interval domain has something to narrow. *)
let gen_circuit seed =
  let c = Circuit.create "rand" in
  let ins1 =
    List.init n_bits1 (fun i ->
        Circuit.add_input c (Printf.sprintf "i%d" i) ~width:1)
  in
  let ins3 =
    List.init n_ins3 (fun i ->
        Circuit.add_input c (Printf.sprintf "v%d" i) ~width:3)
  in
  let pool1 = ref (List.map Circuit.bit_of_wire ins1) in
  let pool3 = ref (List.map Circuit.sig_of_wire ins3) in
  let st = ref ((seed * 7) + 3) in
  let next () =
    st := (!st * 1103515245) + 12345;
    (!st lsr 16) land 0xFFFF
  in
  let pick1 () = List.nth !pool1 (next () mod List.length !pool1) in
  let pick3 () =
    if next () mod 4 = 0 then Bits.of_int ~width:3 (next () mod 8)
    else List.nth !pool3 (next () mod List.length !pool3)
  in
  let pick3_wire () = List.nth !pool3 (next () mod List.length !pool3) in
  let n_gates = 12 + (seed mod 8) in
  for _ = 1 to n_gates do
    match next () mod 12 with
    | 0 -> pool1 := Circuit.mk_and c (pick1 ()) (pick1 ()) :: !pool1
    | 1 -> pool1 := Circuit.mk_or c (pick1 ()) (pick1 ()) :: !pool1
    | 2 -> pool1 := Circuit.mk_xor c (pick1 ()) (pick1 ()) :: !pool1
    | 3 -> pool1 := Circuit.mk_not c (pick1 ()) :: !pool1
    | 4 ->
      pool3 := Circuit.mk_binary c Cell.Add (pick3 ()) (pick3 ()) :: !pool3
    | 5 ->
      pool3 := Circuit.mk_binary c Cell.Sub (pick3 ()) (pick3 ()) :: !pool3
    | 6 ->
      let op =
        match next () mod 3 with
        | 0 -> Cell.And
        | 1 -> Cell.Or
        | _ -> Cell.Xor
      in
      pool3 := Circuit.mk_binary c op (pick3 ()) (pick3 ()) :: !pool3
    | 7 ->
      let op = if next () mod 2 = 0 then Cell.Eq else Cell.Ne in
      pool1 := (Circuit.mk_binary c op (pick3 ()) (pick3 ())).(0) :: !pool1
    | 8 ->
      let op =
        match next () mod 3 with
        | 0 -> Cell.Reduce_or
        | 1 -> Cell.Reduce_and
        | _ -> Cell.Reduce_xor
      in
      pool1 := (Circuit.mk_unary c op (pick3 ())).(0) :: !pool1
    | 9 ->
      pool3 :=
        Circuit.mk_mux c ~a:(pick3_wire ()) ~b:(pick3_wire ()) ~s:(pick1 ())
        :: !pool3
    | 10 ->
      (* pmux, two branches: b is their concatenation, LSB branch first *)
      let b = Bits.concat [ pick3_wire (); pick3_wire () ] in
      pool3 :=
        Circuit.mk_pmux c ~a:(pick3_wire ()) ~b ~s:[| pick1 (); pick1 () |]
        :: !pool3
    | _ ->
      pool1 :=
        (Circuit.mk_mux c ~a:[| pick1 () |] ~b:[| pick1 () |] ~s:(pick1 ())).(0)
        :: !pool1
  done;
  (c, ins1, ins3, !pool1)

(* evaluate all bits under one packed input assignment *)
let eval_all c ins1 ins3 assignment =
  let bit_of i = (assignment lsr i) land 1 = 1 in
  let value_of i = if bit_of i then Rtl_sim.Value.V1 else Rtl_sim.Value.V0 in
  let inputs =
    List.mapi (fun i w -> (Circuit.bit_of_wire w, value_of i)) ins1
    @ List.concat
        (List.mapi
           (fun j w ->
             let s = Circuit.sig_of_wire w in
             List.init 3 (fun k -> (s.(k), value_of (n_bits1 + (j * 3) + k))))
           ins3)
  in
  Rtl_sim.Eval.run c ~inputs ()

let bit_value env b =
  match Rtl_sim.Eval.read env b with
  | Rtl_sim.Value.V1 -> true
  | Rtl_sim.Value.V0 -> false
  | Rtl_sim.Value.Vx -> false

(* every simulated bit inside its tern, every vector inside its interval *)
let containment_ok (c : Circuit.t) (st : Analysis.Absval.state) env =
  let ok = ref true in
  Hashtbl.iter
    (fun _ (w : Circuit.wire) ->
      let s = Circuit.sig_of_wire w in
      Array.iter
        (fun b ->
          match (Rtl_sim.Eval.read env b, Analysis.Absval.read st b) with
          | Rtl_sim.Value.V1, Analysis.Absval.Zero
          | Rtl_sim.Value.V0, Analysis.Absval.One -> ok := false
          | _ -> ())
        s;
      match Analysis.Absval.get_itv st s with
      | Some itv -> (
        match Rtl_sim.Eval.read_int env s with
        | Some v ->
          if v < itv.Analysis.Absval.lo || v > itv.Analysis.Absval.hi then
            ok := false
        | None -> ())
      | None -> ())
    c.Circuit.wires;
  !ok

let fixpoint c ?seeds () =
  Analysis.Fixpoint.run ?seeds c (Topo.sort c)

let prop_unseeded_containment =
  QCheck.Test.make ~count:300 ~name:"unseeded abstract values contain sim"
    QCheck.(pair (int_bound 1000000) (int_bound 1023))
    (fun (seed, assignment) ->
      let c, ins1, ins3, _ = gen_circuit seed in
      match fixpoint c () with
      | Analysis.Fixpoint.Contradiction ->
        QCheck.Test.fail_report "contradiction with no seeds"
      | Analysis.Fixpoint.Converged o ->
        let env = eval_all c ins1 ins3 assignment in
        containment_ok c o.Analysis.Fixpoint.state env)

let pick_knowns st pool env k =
  let next () =
    st := (!st * 48271) mod 0x7FFFFFFF;
    !st
  in
  List.init k (fun _ ->
      let b = List.nth pool (next () mod List.length pool) in
      (b, bit_value env b))

let prop_seeded_containment =
  QCheck.Test.make ~count:150
    ~name:"seeded abstract values contain every compatible execution"
    QCheck.(pair (int_bound 1000000) (int_range 1 3))
    (fun (seed, k) ->
      let c, ins1, ins3, pool1 = gen_circuit seed in
      (* seed the fixpoint with facts observed in a real execution, so a
         witness exists and Contradiction would be unsound *)
      let witness = seed land ((1 lsl total_input_bits) - 1) in
      let env_w = eval_all c ins1 ins3 witness in
      let st = ref (seed + 17) in
      let seeds = pick_knowns st pool1 env_w k in
      match fixpoint c ~seeds () with
      | Analysis.Fixpoint.Contradiction ->
        QCheck.Test.fail_report "contradiction on satisfiable seeds"
      | Analysis.Fixpoint.Converged o ->
        let ok = ref true in
        for a = 0 to (1 lsl total_input_bits) - 1 do
          let env = eval_all c ins1 ins3 a in
          let compatible =
            List.for_all (fun (b, v) -> bit_value env b = v) seeds
          in
          if compatible && not (containment_ok c o.Analysis.Fixpoint.state env)
          then ok := false
        done;
        !ok)

(* --- derived facts against brute force --- *)

let sig_value env s =
  match Rtl_sim.Eval.read_int env s with
  | Some v -> v
  | None -> Alcotest.fail "x bit in a fully-driven circuit"

(* does pmux branch [i] win under this environment? lowest set index *)
let pmux_branch_wins env (s : Bits.sigspec) i =
  bit_value env s.(i)
  && not (Array.exists (fun b -> bit_value env b) (Array.sub s 0 i))

let fact_holds c env fact =
  let cell = Circuit.cell c (Analysis.Facts.fact_cell fact) in
  match fact with
  | Analysis.Facts.Comparison_const { value; _ } ->
    bit_value env (Cell.output cell).(0) = value
  | Analysis.Facts.Foldable { value; _ } -> (
    match value with
    | Some v -> sig_value env (Cell.output cell) = v
    | None -> true)
  | Analysis.Facts.Always_wraps { op; _ } -> (
    match cell with
    | Cell.Binary { a; b; y; _ } ->
      let va = sig_value env a and vb = sig_value env b in
      if op = "$add" then va + vb >= 1 lsl Array.length y else va < vb
    | _ -> true)
  | Analysis.Facts.Dead_branch { branch; _ } -> (
    match cell with
    | Cell.Mux { s; _ } ->
      (* "a branch dead" claims the select is always one, and vice versa *)
      let sel = bit_value env s in
      let claims_a_dead =
        String.length branch >= 5 && String.sub branch 4 1 = "a"
      in
      if claims_a_dead then sel else not sel
    | Cell.Pmux { s; _ } ->
      if branch = "the pmux default branch" then
        Array.exists (fun b -> bit_value env b) s
      else
        let i =
          int_of_string
            (String.sub branch 12 (String.length branch - 12))
        in
        not (pmux_branch_wins env s i)
    | _ -> true)

let prop_facts_sound =
  QCheck.Test.make ~count:100 ~name:"derived facts hold under brute force"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let c, ins1, ins3, _ = gen_circuit seed in
      match fixpoint c () with
      | Analysis.Fixpoint.Contradiction ->
        QCheck.Test.fail_report "contradiction with no seeds"
      | Analysis.Fixpoint.Converged o ->
        let facts = Analysis.Facts.derive c o.Analysis.Fixpoint.state in
        let ok = ref true in
        for a = 0 to (1 lsl total_input_bits) - 1 do
          let env = eval_all c ins1 ins3 a in
          List.iter
            (fun f -> if not (fact_holds c env f) then ok := false)
            facts
        done;
        !ok)

let () =
  Alcotest.run "analysis"
    [
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_unseeded_containment; prop_seeded_containment;
            prop_facts_sound;
          ] );
    ]
