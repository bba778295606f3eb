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

(* A self-loop [y = y | 0] is removed (its substitution is an identity
   pair, so resolving it cannot loop). *)
let test_expr_self_loop () =
  let c = Circuit.create "loop" in
  let y = Circuit.fresh_sig c ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Binary { op = Cell.Or; a = y; b = [| Bits.C0 |]; y }));
  check_int "removed" 1 (Rtl_opt.Opt_expr.run c);
  check_int "no cells" 0 (Circuit.cell_count c)

(* The cleanup sweeps rewire once per sweep, not once per removed cell:
   4000 removals of 8-bit cells must stay far below the seconds a scan of
   every cell per removal takes (9 s and 16 s on a 2-vCPU VM). *)
let within_2s what f =
  let t0 = Unix.gettimeofday () in
  let n = f () in
  let dt = Unix.gettimeofday () -. t0 in
  check_int what 4000 n;
  if dt >= 2.0 then Alcotest.failf "%s took %.2f s on 4000 cells" what dt

let test_expr_linear () =
  let c = Circuit.create "chain" in
  let x = Circuit.sig_of_wire (Circuit.add_input c "x" ~width:8) in
  let zero = Bits.all_zero ~width:8 in
  let rec chain i s =
    if i = 0 then s else chain (i - 1) (Circuit.mk_binary c Cell.Or s zero)
  in
  expose c "y" (chain 4000 x);
  within_2s "opt_expr removed" (fun () -> Rtl_opt.Opt_expr.run c)

let test_merge_linear () =
  let c = Circuit.create "dups" in
  let a = Circuit.sig_of_wire (Circuit.add_input c "a" ~width:8) in
  let b = Circuit.sig_of_wire (Circuit.add_input c "b" ~width:8) in
  let dups = List.init 4001 (fun _ -> Circuit.mk_binary c Cell.And a b) in
  expose c "y" (Circuit.mk_unary c Cell.Reduce_xor (Bits.concat dups));
  within_2s "opt_merge merged" (fun () -> Rtl_opt.Opt_merge.run c)

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
  Obs.Metrics.reset ();
  ignore (Smartly.Sat_elim.run Smartly.Config.default c);
  check_int "sat_elim bypasses the child" 1
    (Obs.Metrics.value (Obs.Metrics.counter "sat_elim.muxes_bypassed"));
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

(* --- property: the deferred rewrite is sound on raw netlists --- *)

(* A random well-formed netlist of 2-bit signals that forces what a
   sweep's pending substitution must get right: a chain of passthrough and
   constant-folding cells whose links run both ways in id order, duplicate
   cells driving output ports, and dff feedback.  The other cells are
   generated in topological order and added in a shuffled one. *)
let random_raw seed =
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let pick a = a.(int (Array.length a)) in
  let c = Circuit.create "raw" in
  let inputs =
    List.init (1 + int 3) (fun i ->
        Circuit.sig_of_wire (Circuit.add_input c (Fmt.str "i%d" i) ~width:2))
  in
  let qs = Array.init (1 + int 2) (fun _ -> Circuit.fresh_sig c ~width:2) in
  let pool =
    ref
      (Array.of_list
         (Bits.C0 :: Bits.C1
         :: List.concat_map Array.to_list (Array.to_list qs @ inputs)))
  in
  let bits w = Array.init w (fun _ -> pick !pool) in
  let zero = Bits.all_zero ~width:2 in
  let outputs = ref 0 in
  let output () =
    incr outputs;
    Circuit.sig_of_wire (Circuit.add_output c (Fmt.str "o%d" !outputs) ~width:2)
  in
  (* a removable cell: passthrough, constant or identity *)
  let removable a y =
    match int 5 with
    | 0 -> Cell.Binary { op = Cell.Or; a; b = zero; y }
    | 1 -> Cell.Binary { op = Cell.And; a = [| Bits.C1; Bits.C1 |]; b = a; y }
    | 2 -> Cell.Binary { op = Cell.And; a; b = zero; y }
    | 3 -> Cell.Mux { a; b = a; s = pick !pool; y }
    | _ -> Cell.Mux { a = bits 2; b = a; s = Bits.C1; y }
  in
  let kept a y =
    match int 4 with
    | 0 -> Cell.Binary { op = Cell.Xor; a; b = bits 2; y }
    | 1 -> Cell.Unary { op = Cell.Not; a; y }
    | 2 -> Cell.Mux { a; b = bits 2; s = pick !pool; y }
    | _ -> Cell.Binary { op = Cell.And; a = bits 2; b = a; y }
  in
  let made = ref [] in
  let make ?(y = Circuit.fresh_sig c ~width:2) cell =
    let cell = cell y in
    made := cell :: !made;
    pool := Array.append !pool (Cell.output cell);
    cell
  in
  (* the chain, added as [p1; p0; p2; p3]: p0 -> p1 runs down in id
     order, p1 -> p2 and p2 -> p3 up *)
  let p0 = make (removable (bits 2)) in
  let p1 = make (removable (Cell.output p0)) in
  let p2 = make (removable (Cell.output p1)) in
  let p3 = make (removable (Cell.output p2)) in
  List.iter (fun cell -> ignore (Circuit.add_cell c cell)) [ p1; p0; p2; p3 ];
  made := [];
  (* dff feedback: q0 -> f -> d0 *)
  let f = make (kept qs.(0)) in
  for _ = 1 to 4 + int 12 do
    let a = bits 2 in
    let y = if int 5 = 0 then Some (output ()) else None in
    ignore
      (match int 4 with
      | 0 -> make ?y (removable a)
      | 1 -> make ?y (kept a)
      | 2 when !made <> [] ->
        (* a duplicate of an earlier cell *)
        make ?y (fun y ->
            match pick (Array.of_list !made) with
            | Cell.Unary u -> Cell.Unary { u with y }
            | Cell.Binary b -> Cell.Binary { b with y }
            | Cell.Mux m -> Cell.Mux { m with y }
            | Cell.Pmux p -> Cell.Pmux { p with y }
            | Cell.Dff _ -> kept a y)
      | _ -> make ?y (kept a))
  done;
  (* duplicates driving output ports *)
  let a = bits 2 and b = bits 2 in
  ignore (make ~y:(output ()) (fun y -> Cell.Binary { op = Cell.And; a; b; y }));
  ignore (make ~y:(output ()) (fun y -> Cell.Binary { op = Cell.And; a = b; b = a; y }));
  Array.iteri
    (fun i q ->
      let d = if i = 0 then Cell.output f else bits 2 in
      made := Cell.Dff { d; q } :: !made)
    qs;
  (* shuffle the rest into the circuit *)
  let rest = Array.of_list !made in
  for i = Array.length rest - 1 downto 1 do
    let j = int (i + 1) in
    let t = rest.(i) in
    rest.(i) <- rest.(j);
    rest.(j) <- t
  done;
  Array.iter (fun cell -> ignore (Circuit.add_cell c cell)) rest;
  c

(* [opt_expr] then [opt_merge] on such a netlist leave it well-formed and
   equivalent, and [opt_expr] at its fixpoint.  (The fixpoint is checked
   before the merge: merging two duplicates [x] and [x'] can turn a
   [mux s x x'] into the equal-branch mux that [opt_expr] folds.) *)
let prop_deferred_rewrite_sound =
  QCheck.Test.make ~count:200 ~name:"deferred rewrite is sound"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = random_raw seed in
      let orig = Circuit.copy c in
      Validate.is_well_formed orig
      &&
      (ignore (Rtl_opt.Opt_expr.run c);
       let again = Rtl_opt.Opt_expr.run c in
       ignore (Rtl_opt.Opt_merge.run c);
       again = 0 && Validate.is_well_formed c && Equiv.is_equivalent orig c))

let () =
  Alcotest.run "opt"
    [
      ( "opt_expr",
        [
          Alcotest.test_case "const fold" `Quick test_const_fold;
          Alcotest.test_case "mux const select" `Quick test_mux_const_select;
          Alcotest.test_case "mux equal branches" `Quick test_mux_equal_branches;
          Alcotest.test_case "eq same signal" `Quick test_eq_same_signal;
          Alcotest.test_case "self loop" `Quick test_expr_self_loop;
          Alcotest.test_case "linear" `Quick test_expr_linear;
        ] );
      ( "opt_merge",
        [
          Alcotest.test_case "duplicates" `Quick test_merge_duplicates;
          Alcotest.test_case "linear" `Quick test_merge_linear;
        ] );
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
          QCheck_alcotest.to_alcotest prop_deferred_rewrite_sound;
        ] );
    ]
