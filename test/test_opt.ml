(* Tests for the baseline passes: opt_expr, opt_merge, opt_muxtree (and
   the muxtree walk it shares with sat_elim), opt_clean, and the combined
   flow.  Every transformation is checked for functional equivalence via
   CEC. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* drive a value into an output port *)
let expose c name (v : Bits.sigspec) =
  let y = Circuit.add_output c name ~width:(Bits.width v) in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = v; b = Bits.all_zero ~width:(Bits.width v);
            y = Circuit.sig_of_wire y }))

let preserved name f =
  Alcotest.test_case name `Quick (fun () ->
      let c = f () in
      let orig = Circuit.copy c in
      ignore (Smartly.Driver.yosys c);
      check_bool "well-formed" true (Validate.is_well_formed c);
      check_bool "equivalent" true (Equiv.is_equivalent orig c))

(* --- opt_expr --- *)

let test_const_fold () =
  let c = Circuit.create "cf" in
  let a = Circuit.add_input c "a" ~width:4 in
  (* (a & 0) | 5 = 5 *)
  let z =
    Circuit.mk_binary c Cell.And (Circuit.sig_of_wire a)
      (Bits.all_zero ~width:4)
  in
  let v = Circuit.mk_binary c Cell.Or z (Bits.of_int ~width:4 5) in
  expose c "y" v;
  ignore (Rtl_opt.Opt_expr.run c);
  ignore (Rtl_opt.Opt_clean.run c);
  (* only the port buffer remains, now driven by the constant *)
  check_int "one buffer cell" 1 (Circuit.cell_count c);
  let env = Rtl_sim.Eval.run c ~inputs:[] () in
  let y = List.hd (Circuit.outputs c) in
  check_int "value" 5 (Option.get (Rtl_sim.Eval.read_int env (Circuit.sig_of_wire y)))

let test_mux_const_select () =
  let c = Circuit.create "ms" in
  let a = Circuit.add_input c "a" ~width:4 in
  let b = Circuit.add_input c "b" ~width:4 in
  let v =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire a) ~b:(Circuit.sig_of_wire b)
      ~s:Bits.C1
  in
  expose c "y" v;
  ignore (Rtl_opt.Opt_expr.run c);
  ignore (Rtl_opt.Opt_clean.run c);
  check_int "mux gone" 1 (Circuit.cell_count c)

let test_mux_equal_branches () =
  let c = Circuit.create "mb" in
  let a = Circuit.add_input c "a" ~width:4 in
  let s = Circuit.add_input c "s" ~width:1 in
  let v =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire a) ~b:(Circuit.sig_of_wire a)
      ~s:(Circuit.bit_of_wire s)
  in
  expose c "y" v;
  ignore (Rtl_opt.Opt_expr.run c);
  ignore (Rtl_opt.Opt_clean.run c);
  check_int "mux folded" 1 (Circuit.cell_count c)

let test_eq_same_signal () =
  let c = Circuit.create "eq" in
  let a = Circuit.add_input c "a" ~width:4 in
  let v = Circuit.mk_binary c Cell.Eq (Circuit.sig_of_wire a) (Circuit.sig_of_wire a) in
  expose c "y" v;
  ignore (Rtl_opt.Opt_expr.run c);
  ignore (Rtl_opt.Opt_clean.run c);
  let env = Rtl_sim.Eval.run c ~inputs:[] () in
  let y = List.hd (Circuit.outputs c) in
  check_int "a==a is 1" 1
    (Option.get (Rtl_sim.Eval.read_int env (Circuit.sig_of_wire y)))

(* --- opt_merge --- *)

let test_merge_duplicates () =
  let c = Circuit.create "dup" in
  let a = Circuit.add_input c "a" ~width:4 in
  let b = Circuit.add_input c "b" ~width:4 in
  let x1 = Circuit.mk_binary c Cell.And (Circuit.sig_of_wire a) (Circuit.sig_of_wire b) in
  let x2 = Circuit.mk_binary c Cell.And (Circuit.sig_of_wire a) (Circuit.sig_of_wire b) in
  (* commuted operands also merge *)
  let x3 = Circuit.mk_binary c Cell.And (Circuit.sig_of_wire b) (Circuit.sig_of_wire a) in
  let v1 = Circuit.mk_binary c Cell.Xor x1 x2 in
  let v2 = Circuit.mk_binary c Cell.Xor v1 x3 in
  expose c "y" v2;
  let merged = Rtl_opt.Opt_merge.run c in
  check_bool "merged at least 2" true (merged >= 2)

(* --- opt_clean --- *)

let test_clean_dead_cells () =
  let c = Circuit.create "dead" in
  let a = Circuit.add_input c "a" ~width:4 in
  let _dead = Circuit.mk_unary c Cell.Not (Circuit.sig_of_wire a) in
  let live = Circuit.mk_binary c Cell.Xor (Circuit.sig_of_wire a) (Circuit.sig_of_wire a) in
  expose c "y" live;
  let removed = Rtl_opt.Opt_clean.run c in
  check_int "one dead removed" 1 removed

let test_clean_keeps_dff () =
  let c = Circuit.create "seq" in
  let a = Circuit.add_input c "a" ~width:2 in
  (* dff whose q is unread still stays (it is a state element) *)
  ignore (Circuit.mk_dff c ~d:(Circuit.sig_of_wire a));
  let removed = Rtl_opt.Opt_clean.run c in
  check_int "nothing removed" 0 removed

(* --- opt_muxtree: the two Yosys rules --- *)

let fig1_circuit () =
  (* Y = S ? (S ? A : B) : C, 4 bits *)
  let c = Circuit.create "fig1" in
  let s = Circuit.add_input c "S" ~width:1 in
  let a = Circuit.add_input c "A" ~width:4 in
  let b = Circuit.add_input c "B" ~width:4 in
  let cc = Circuit.add_input c "C" ~width:4 in
  let sb = Circuit.bit_of_wire s in
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire b) ~b:(Circuit.sig_of_wire a) ~s:sb
  in
  let outer = Circuit.mk_mux c ~a:(Circuit.sig_of_wire cc) ~b:inner ~s:sb in
  expose c "Y" outer;
  c

let test_muxtree_fig1 () =
  let c = fig1_circuit () in
  let orig = Circuit.copy c in
  ignore (Smartly.Driver.yosys c);
  let st = Stats.of_circuit c in
  check_int "one mux left" 1 st.Stats.muxes;
  check_bool "equiv" true (Equiv.is_equivalent orig c)

let fig2_circuit () =
  (* Y = S ? (A ? S : B) : C, 1 bit: data port carries the ancestor ctrl *)
  let c = Circuit.create "fig2" in
  let s = Circuit.add_input c "S" ~width:1 in
  let a = Circuit.add_input c "A" ~width:1 in
  let b = Circuit.add_input c "B" ~width:1 in
  let cc = Circuit.add_input c "C" ~width:1 in
  let sb = Circuit.bit_of_wire s in
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire b) ~b:[| sb |]
      ~s:(Circuit.bit_of_wire a)
  in
  let outer = Circuit.mk_mux c ~a:(Circuit.sig_of_wire cc) ~b:inner ~s:sb in
  expose c "Y" outer;
  c

let test_muxtree_fig2 () =
  let c = fig2_circuit () in
  let orig = Circuit.copy c in
  ignore (Rtl_opt.Opt_muxtree.run c);
  (* the inner mux's b data bit S must now be the constant 1 *)
  let found_const = ref false in
  Circuit.iter_cells
    (fun _ cell ->
      match cell with
      | Cell.Mux { b; _ } ->
        if Array.exists (Bits.bit_equal Bits.C1) b then found_const := true
      | Cell.Unary _ | Cell.Binary _ | Cell.Pmux _ | Cell.Dff _ -> ())
    c;
  check_bool "data bit folded to 1" true !found_const;
  check_bool "equiv" true (Equiv.is_equivalent orig c)

let test_muxtree_shared_child_untouched () =
  (* a mux read from two different parents must not be specialized *)
  let c = Circuit.create "shared" in
  let s = Circuit.add_input c "S" ~width:1 in
  let t = Circuit.add_input c "T" ~width:1 in
  let a = Circuit.add_input c "A" ~width:2 in
  let b = Circuit.add_input c "B" ~width:2 in
  let sb = Circuit.bit_of_wire s and tb = Circuit.bit_of_wire t in
  let shared =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire a) ~b:(Circuit.sig_of_wire b) ~s:sb
  in
  let o1 = Circuit.mk_mux c ~a:(Circuit.sig_of_wire a) ~b:shared ~s:sb in
  let o2 = Circuit.mk_mux c ~a:shared ~b:(Circuit.sig_of_wire b) ~s:tb in
  expose c "Y1" o1;
  expose c "Y2" o2;
  let orig = Circuit.copy c in
  ignore (Smartly.Driver.yosys c);
  check_bool "equiv" true (Equiv.is_equivalent orig c)

(* pmux: default branch known selects-all-zero *)
let test_muxtree_pmux () =
  let c = Circuit.create "pm" in
  let s = Circuit.add_input c "S" ~width:2 in
  let a = Circuit.add_input c "A" ~width:2 in
  let b = Circuit.add_input c "B" ~width:2 in
  let sbits = Circuit.sig_of_wire s in
  (* default value contains a mux controlled by s[0]: under the default
     branch s[0]=0 is known, so it collapses *)
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire a) ~b:(Circuit.sig_of_wire b)
      ~s:sbits.(0)
  in
  let p =
    Circuit.mk_pmux c ~a:inner
      ~b:(Bits.concat [ Circuit.sig_of_wire b; Circuit.sig_of_wire a ])
      ~s:sbits
  in
  expose c "Y" p;
  let orig = Circuit.copy c in
  ignore (Smartly.Driver.yosys c);
  let st = Stats.of_circuit c in
  check_bool "inner mux eliminated" true (st.Stats.muxes = 0);
  check_bool "equiv" true (Equiv.is_equivalent orig c)

(* A 14-part pmux whose part 13 is a dedicated child mux selected by s_0.
   Part 13 is taken only with s_0 = 0, so the child always passes X; only
   a walk that assumes all 13 earlier selects 0 sees it (paper Fig. 1). *)
let pmux14_circuit () =
  let c = Circuit.create "pmux14" in
  let s = Circuit.sig_of_wire (Circuit.add_input c "S" ~width:14) in
  let d = Circuit.sig_of_wire (Circuit.add_input c "D" ~width:13) in
  let x = Circuit.sig_of_wire (Circuit.add_input c "X" ~width:1) in
  let z = Circuit.sig_of_wire (Circuit.add_input c "Z" ~width:1) in
  let a = Circuit.sig_of_wire (Circuit.add_input c "A" ~width:1) in
  let child = Circuit.mk_mux c ~a:x ~b:z ~s:s.(0) in
  expose c "Y" (Circuit.mk_pmux c ~a ~b:(Bits.concat [ d; child ]) ~s);
  (c, x.(0))

let part13 c =
  let found = ref None in
  Circuit.iter_cells
    (fun _ cell ->
      match cell with
      | Cell.Pmux { b; _ } -> found := Some b.(13)
      | Cell.Mux _ | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> ())
    c;
  Option.get !found

(* Both flows walk with every earlier select 0, so both bypass it. *)
let test_muxtree_pmux_part_facts () =
  let c, x = pmux14_circuit () in
  let orig = Circuit.copy c in
  ignore (Rtl_opt.Opt_muxtree.run c);
  check_bool "opt_muxtree: child bypassed onto X" true
    (Bits.bit_equal (part13 c) x);
  check_bool "equiv" true (Equiv.is_equivalent orig c);
  let c, x = pmux14_circuit () in
  let r = Smartly.Sat_elim.run Smartly.Config.default c in
  check_int "sat_elim bypasses the child" 1 r.Smartly.Sat_elim.muxes_bypassed;
  check_bool "sat_elim: child bypassed onto X" true
    (Bits.bit_equal (part13 c) x);
  check_bool "sat_elim equiv" true (Equiv.is_equivalent orig c)

(* --- property: baseline flow preserves semantics on generated RTL --- *)

let prop_baseline_preserves =
  QCheck.Test.make ~count:12 ~name:"baseline flow preserves semantics"
    QCheck.(int_bound 10000)
    (fun seed ->
      let p =
        {
          Workloads.Profiles.name = "prop";
          seed;
          style = (if seed mod 2 = 0 then `Chain else `Pmux);
          repeat = 2;
          mix =
            [
              Workloads.Profiles.Case
                { sel_width = 3; items = 6; width = 4; distinct = 3 };
              Workloads.Profiles.Correlated_ifs { depth = 2; width = 4 };
              Workloads.Profiles.Redundant_nest { width = 4 };
              Workloads.Profiles.Datapath { width = 4; ops = 2 };
            ];
          register_fraction = 0;
        }
      in
      let c = Workloads.Profiles.circuit p in
      let orig = Circuit.copy c in
      ignore (Smartly.Driver.yosys c);
      Validate.is_well_formed c && Equiv.is_equivalent orig c)

let () =
  Alcotest.run "opt"
    [
      ( "opt_expr",
        [
          Alcotest.test_case "const fold" `Quick test_const_fold;
          Alcotest.test_case "mux const select" `Quick test_mux_const_select;
          Alcotest.test_case "mux equal branches" `Quick test_mux_equal_branches;
          Alcotest.test_case "eq same signal" `Quick test_eq_same_signal;
        ] );
      ( "opt_merge",
        [ Alcotest.test_case "duplicates" `Quick test_merge_duplicates ] );
      ( "opt_clean",
        [
          Alcotest.test_case "dead cells" `Quick test_clean_dead_cells;
          Alcotest.test_case "keeps dff" `Quick test_clean_keeps_dff;
        ] );
      ( "opt_muxtree",
        [
          Alcotest.test_case "fig1 same ctrl" `Quick test_muxtree_fig1;
          Alcotest.test_case "fig2 data port" `Quick test_muxtree_fig2;
          Alcotest.test_case "shared child" `Quick test_muxtree_shared_child_untouched;
          Alcotest.test_case "pmux default" `Quick test_muxtree_pmux;
          Alcotest.test_case "pmux part facts" `Quick
            test_muxtree_pmux_part_facts;
        ] );
      ( "flow",
        [
          preserved "fig1 flow" fig1_circuit;
          preserved "fig2 flow" fig2_circuit;
          QCheck_alcotest.to_alcotest prop_baseline_preserves;
        ] );
    ]
