(* Tests for the smaRTLy core: the sub-graph kernel, inference rules, the
   sim/SAT engine, SAT-based redundancy elimination, and muxtree
   restructuring.  Every optimized circuit is CEC'd against the original. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let expose c name (v : Bits.sigspec) =
  let y = Circuit.add_output c name ~width:(Bits.width v) in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = v; b = Bits.all_zero ~width:(Bits.width v);
            y = Circuit.sig_of_wire y }))

(* --- inference rules (Table I and friends) --- *)

let known_of knowns : Smartly.Inference.known =
  let k = Bits.Bit_tbl.create 8 in
  List.iter (fun (b, v) -> Bits.Bit_tbl.replace k b v) knowns;
  k

(* the rules on the walk's fact store, swept over every cell *)
let propagate_all c knowns =
  let facts = Smartly.Inference.Dense.create c in
  Smartly.Inference.Dense.load facts (known_of knowns);
  Smartly.Inference.Dense.propagate facts c
    (Array.of_list (Circuit.cell_ids c));
  facts

let infer_1bit build exp_value =
  (* build: c -> (cells-built target bit, known setup) *)
  let c = Circuit.create "inf" in
  let target, knowns = build c in
  let facts = propagate_all c knowns in
  check_bool "inferred" true
    (Smartly.Inference.Dense.read facts target = exp_value)

let test_or_rules () =
  (* a=1 -> a|b = 1 *)
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:1 in
      let b = Circuit.add_input c "b" ~width:1 in
      let y = Circuit.mk_or c (Circuit.bit_of_wire a) (Circuit.bit_of_wire b) in
      y, [ Circuit.bit_of_wire a, true ])
    (Some true);
  (* a|b=0 -> a = 0 *)
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:1 in
      let b = Circuit.add_input c "b" ~width:1 in
      let y = Circuit.mk_or c (Circuit.bit_of_wire a) (Circuit.bit_of_wire b) in
      Circuit.bit_of_wire a, [ y, false ])
    (Some false);
  (* a|b=1, a=0 -> b = 1 *)
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:1 in
      let b = Circuit.add_input c "b" ~width:1 in
      let y = Circuit.mk_or c (Circuit.bit_of_wire a) (Circuit.bit_of_wire b) in
      Circuit.bit_of_wire b, [ y, true; Circuit.bit_of_wire a, false ])
    (Some true)

let test_and_not_rules () =
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:1 in
      let b = Circuit.add_input c "b" ~width:1 in
      let y = Circuit.mk_and c (Circuit.bit_of_wire a) (Circuit.bit_of_wire b) in
      Circuit.bit_of_wire b, [ y, true ])
    (Some true);
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:1 in
      let y = Circuit.mk_not c (Circuit.bit_of_wire a) in
      y, [ Circuit.bit_of_wire a, true ])
    (Some false)

let test_eq_rules () =
  (* (a == 5) = 1 implies every bit of a *)
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:3 in
      let e = Circuit.mk_eq_const c (Circuit.sig_of_wire a) 5 in
      Bits.Of_wire (a.Circuit.wire_id, 1), [ e, true ])
    (Some false);
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:3 in
      let e = Circuit.mk_eq_const c (Circuit.sig_of_wire a) 5 in
      Bits.Of_wire (a.Circuit.wire_id, 2), [ e, true ])
    (Some true)

let test_mux_backward () =
  (* y known and y <> a forces s=1 *)
  infer_1bit
    (fun c ->
      let s = Circuit.add_input c "s" ~width:1 in
      let y =
        Circuit.mk_mux c ~a:[| Bits.C0 |] ~b:[| Bits.C1 |]
          ~s:(Circuit.bit_of_wire s)
      in
      Circuit.bit_of_wire s, [ y.(0), true ])
    (Some true)

let test_xor_reduce_rules () =
  (* xor: two of three known determine the third *)
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:1 in
      let b = Circuit.add_input c "b" ~width:1 in
      let y = Circuit.mk_xor c (Circuit.bit_of_wire a) (Circuit.bit_of_wire b) in
      Circuit.bit_of_wire b, [ y, true; Circuit.bit_of_wire a, false ])
    (Some true);
  (* reduce_or = 0 forces every input low *)
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:3 in
      let y = (Circuit.mk_unary c Cell.Reduce_or (Circuit.sig_of_wire a)).(0) in
      Bits.Of_wire (a.Circuit.wire_id, 1), [ y, false ])
    (Some false);
  (* reduce_and = 1 forces every input high *)
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:3 in
      let y = (Circuit.mk_unary c Cell.Reduce_and (Circuit.sig_of_wire a)).(0) in
      Bits.Of_wire (a.Circuit.wire_id, 2), [ y, true ])
    (Some true);
  (* reduce_or = 1 with all but one input known low forces the last high *)
  infer_1bit
    (fun c ->
      let a = Circuit.add_input c "a" ~width:3 in
      let y = (Circuit.mk_unary c Cell.Reduce_or (Circuit.sig_of_wire a)).(0) in
      ( Bits.Of_wire (a.Circuit.wire_id, 2),
        [
          y, true;
          Bits.Of_wire (a.Circuit.wire_id, 0), false;
          Bits.Of_wire (a.Circuit.wire_id, 1), false;
        ] ))
    (Some true)

let test_pmux_rules () =
  (* all selects known false: output links to the default *)
  infer_1bit
    (fun c ->
      let s = Circuit.add_input c "s" ~width:2 in
      let d = Circuit.add_input c "d" ~width:1 in
      let p =
        Circuit.mk_pmux c ~a:(Circuit.sig_of_wire d)
          ~b:(Bits.of_int ~width:2 3)
          ~s:(Circuit.sig_of_wire s)
      in
      ( p.(0),
        [
          Bits.Of_wire (s.Circuit.wire_id, 0), false;
          Bits.Of_wire (s.Circuit.wire_id, 1), false;
          Circuit.bit_of_wire d, true;
        ] ))
    (Some true);
  (* first select known true: output links to part 0 (constant 1 here) *)
  infer_1bit
    (fun c ->
      let s = Circuit.add_input c "s" ~width:2 in
      let d = Circuit.add_input c "d" ~width:1 in
      let p =
        Circuit.mk_pmux c ~a:(Circuit.sig_of_wire d)
          ~b:(Bits.of_int ~width:2 1)
          ~s:(Circuit.sig_of_wire s)
      in
      p.(0), [ Bits.Of_wire (s.Circuit.wire_id, 0), true ])
    (Some true)

let test_contradiction () =
  let c = Circuit.create "contra" in
  let a = Circuit.add_input c "a" ~width:1 in
  let b = Circuit.add_input c "b" ~width:1 in
  let y = Circuit.mk_and c (Circuit.bit_of_wire a) (Circuit.bit_of_wire b) in
  check_bool "contradiction raised" true
    (match propagate_all c [ y, true; Circuit.bit_of_wire a, false ] with
    | _ -> false
    | exception Smartly.Inference.Contradiction -> true)

(* --- the sub-graph kernel --- *)

let kernel c = Smartly.Subgraph.create c (Index.build c)

(* a kernel holding the cones of [bits] *)
let cones c ~k bits =
  let sg = kernel c in
  Smartly.Subgraph.start sg;
  List.iter (Smartly.Subgraph.add_cone sg ~k) bits;
  sg

let test_subgraph_cone_depth () =
  (* chain of 5 nots; distance k=3 catches only 3 of them *)
  let c = Circuit.create "chain" in
  let a = Circuit.add_input c "a" ~width:1 in
  let rec chain b n = if n = 0 then b else chain (Circuit.mk_not c b) (n - 1) in
  let top = chain (Circuit.bit_of_wire a) 5 in
  let sg = cones c ~k:3 [ top ] in
  check_int "3 cells" 3 (Smartly.Subgraph.size sg);
  (* a new set on the same kernel starts empty *)
  Smartly.Subgraph.start sg;
  Smartly.Subgraph.add_cone sg ~k:10 top;
  check_int "all 5" 5 (Smartly.Subgraph.size sg)

let test_subgraph_disjoint_cones_kept () =
  (* two disconnected cones: the set keeps both, because every cell of a
     query's sub-graph came from the cone of one of its relevant bits *)
  let c = Circuit.create "two" in
  let a = Circuit.add_input c "a" ~width:1 in
  let b = Circuit.add_input c "b" ~width:1 in
  let x = Circuit.add_input c "x" ~width:1 in
  let y = Circuit.add_input c "y" ~width:1 in
  let t1 = Circuit.mk_and c (Circuit.bit_of_wire a) (Circuit.bit_of_wire b) in
  let t2 = Circuit.mk_or c (Circuit.bit_of_wire x) (Circuit.bit_of_wire y) in
  let sg = cones c ~k:4 [ t1; t2 ] in
  check_int "both kept" 2 (Array.length (Smartly.Subgraph.ordered_cells sg));
  check_bool "t1 computed" true (Smartly.Subgraph.computes sg t1);
  check_bool "t2 computed" true (Smartly.Subgraph.computes sg t2)

let test_subgraph_no_common_descendant_link () =
  (* s and t only share a *descendant*: the join is in neither cone, so
     the set holds the two nots and nothing else *)
  let c = Circuit.create "desc" in
  let s = Circuit.add_input c "s" ~width:1 in
  let t = Circuit.add_input c "t" ~width:1 in
  let join = Circuit.mk_and c (Circuit.bit_of_wire s) (Circuit.bit_of_wire t) in
  let s2 = Circuit.mk_not c (Circuit.bit_of_wire s) in
  let t2 = Circuit.mk_not c (Circuit.bit_of_wire t) in
  let sg = cones c ~k:4 [ s2; t2 ] in
  check_int "the two nots" 2 (Smartly.Subgraph.size sg);
  check_bool "join left out" false (Smartly.Subgraph.computes sg join)

let test_subgraph_drivers_first () =
  (* a diamond a -> {n1, n2} -> x -> y: every cell comes after the set's
     cells that drive its inputs *)
  let c = Circuit.create "diamond" in
  let a = Circuit.bit_of_wire (Circuit.add_input c "a" ~width:1) in
  let n1 = Circuit.mk_not c a in
  let n2 = Circuit.mk_not c n1 in
  let x = Circuit.mk_xor c n1 n2 in
  let y = Circuit.mk_and c x a in
  let index = Index.build c in
  let sg = cones c ~k:6 [ y ] in
  let cells = Array.to_list (Smartly.Subgraph.ordered_cells sg) in
  check_int "all four cells" 4 (List.length cells);
  let pos = Hashtbl.create 8 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) cells;
  List.iter
    (fun id ->
      List.iter
        (fun b ->
          match Index.driving_cell index b with
          | Some (did, _) when Hashtbl.mem pos did ->
            check_bool "driver before reader" true
              (Hashtbl.find pos did < Hashtbl.find pos id)
          | Some _ | None -> ())
        (Cell.input_bits (Circuit.cell c id)))
    cells

let test_subgraph_sources_exact () =
  (* sources are exactly the bits read but not driven inside: the free
     inputs and the boundary bit where k cuts a cone -- never a constant,
     never an internal bit.  A cell reading only constants is kept and
     adds no source. *)
  let c = Circuit.create "srcs" in
  let a = Circuit.bit_of_wire (Circuit.add_input c "a" ~width:1) in
  let b = Circuit.bit_of_wire (Circuit.add_input c "b" ~width:1) in
  let d = Circuit.bit_of_wire (Circuit.add_input c "d" ~width:1) in
  let beyond = Circuit.mk_not c d in
  let deep = Circuit.mk_not c beyond in
  let cut = Circuit.mk_not c deep in
  let kc = Circuit.mk_and c Bits.C1 Bits.C0 in
  let ab = Circuit.mk_or c a b in
  let y = Circuit.mk_xor c (Circuit.mk_and c ab kc) cut in
  (* depths from y: the and and [cut] at 1; [ab], [kc] and [deep] at 2;
     [beyond] at 3, outside k = 3 *)
  let sg = cones c ~k:3 [ y ] in
  check_int "six cells" 6 (Smartly.Subgraph.size sg);
  check_bool "constant-input cell kept" true (Smartly.Subgraph.computes sg kc);
  let sorted l = List.sort compare l in
  check_bool "sources are a, b and the cut bit, each once" true
    (sorted (Smartly.Subgraph.sources sg) = sorted [ a; b; beyond ]);
  List.iter
    (fun bit ->
      check_bool "computed inside" true (Smartly.Subgraph.computes sg bit))
    [ ab; deep; cut; kc; y ];
  List.iter
    (fun bit ->
      check_bool "sources, constants and unread bits are not computed" false
        (Smartly.Subgraph.computes sg bit))
    [ a; b; beyond; Bits.C1; Bits.C0; d ]

(* --- engine --- *)

let engine_determine ?(cfg = Smartly.Config.default) c knowns target =
  let stats = Smartly.Engine.fresh_stats () in
  Smartly.Engine.determine cfg stats (kernel c) (known_of knowns) ~target

let test_engine_fig3 () =
  (* target = s|r under s=1: forced true (paper Fig. 3) *)
  let c = Circuit.create "fig3" in
  let s = Circuit.add_input c "s" ~width:1 in
  let r = Circuit.add_input c "r" ~width:1 in
  let y = Circuit.mk_or c (Circuit.bit_of_wire s) (Circuit.bit_of_wire r) in
  check_bool "forced" true
    (engine_determine c [ Circuit.bit_of_wire s, true ] y
    = Smartly.Engine.Forced true)

let test_engine_free () =
  let c = Circuit.create "free" in
  let s = Circuit.add_input c "s" ~width:1 in
  let r = Circuit.add_input c "r" ~width:1 in
  let y = Circuit.mk_or c (Circuit.bit_of_wire s) (Circuit.bit_of_wire r) in
  check_bool "free" true
    (engine_determine c [ Circuit.bit_of_wire s, false ] y
    = Smartly.Engine.Free)

let test_engine_unreachable () =
  (* know both x and ~x: contradiction -> dead path *)
  let c = Circuit.create "dead" in
  let x = Circuit.add_input c "x" ~width:1 in
  let nx = Circuit.mk_not c (Circuit.bit_of_wire x) in
  let y = Circuit.mk_or c (Circuit.bit_of_wire x) nx in
  check_bool "unreachable" true
    (engine_determine c [ Circuit.bit_of_wire x, true; nx, true ] y
    = Smartly.Engine.Unreachable)

(* a parity cone the inference rules cannot crack: needs sim or SAT *)
let parity_circuit n =
  let c = Circuit.create "parity" in
  let ins = List.init n (fun i -> Circuit.add_input c (Printf.sprintf "i%d" i) ~width:1) in
  let xors =
    List.fold_left
      (fun acc w -> Circuit.mk_xor c acc (Circuit.bit_of_wire w))
      Bits.C0 ins
  in
  (* target = parity | ~parity ... make something forced but non-trivial:
     y = xors ^ xors = 0 structured as two separate cones *)
  let y = Circuit.mk_xor c xors xors in
  c, y

let test_engine_simulation_path () =
  (* few inputs: exhaustive simulation proves y == 0 with no knowns...
     engine requires known facts, so give an irrelevant one *)
  let c, y = parity_circuit 4 in
  let aux = Circuit.add_input c "aux" ~width:1 in
  let cfg = { Smartly.Config.default with Smartly.Config.sat_input_threshold = 0 } in
  (* sat disabled by threshold: must go through simulation *)
  check_bool "sim forced false" true
    (engine_determine ~cfg c [ Circuit.bit_of_wire aux, true ] y
    = Smartly.Engine.Forced false)

let test_engine_sat_path () =
  let c, y = parity_circuit 4 in
  let aux = Circuit.add_input c "aux" ~width:1 in
  let cfg = { Smartly.Config.default with Smartly.Config.sim_input_threshold = 0 } in
  (* sim disabled: must go through SAT *)
  check_bool "sat forced false" true
    (engine_determine ~cfg c [ Circuit.bit_of_wire aux, true ] y
    = Smartly.Engine.Forced false)

let test_engine_forgone () =
  let c, y = parity_circuit 6 in
  let aux = Circuit.add_input c "aux" ~width:1 in
  let cfg =
    { Smartly.Config.default with
      Smartly.Config.sim_input_threshold = 0;
      Smartly.Config.sat_input_threshold = 0 }
  in
  check_bool "forgone -> unknown" true
    (engine_determine ~cfg c [ Circuit.bit_of_wire aux, true ] y
    = Smartly.Engine.Unknown)

(* --- sat_elim pass --- *)

let fig3_circuit () =
  let c = Circuit.create "fig3" in
  let s = Circuit.add_input c "S" ~width:1 in
  let r = Circuit.add_input c "R" ~width:1 in
  let a = Circuit.add_input c "A" ~width:4 in
  let b = Circuit.add_input c "B" ~width:4 in
  let cc = Circuit.add_input c "C" ~width:4 in
  let sb = Circuit.bit_of_wire s and rb = Circuit.bit_of_wire r in
  let s_or_r = Circuit.mk_or c sb rb in
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire b) ~b:(Circuit.sig_of_wire a)
      ~s:s_or_r
  in
  let outer = Circuit.mk_mux c ~a:(Circuit.sig_of_wire cc) ~b:inner ~s:sb in
  expose c "Y" outer;
  c

let test_sat_elim_fig3 () =
  let c = fig3_circuit () in
  let orig = Circuit.copy c in
  let r = Smartly.Sat_elim.run Smartly.Config.default c in
  check_bool "bypassed inner mux" true (r.Smartly.Sat_elim.muxes_bypassed >= 1);
  ignore (Rtl_opt.Opt_clean.run c);
  let st = Stats.of_circuit c in
  check_int "one mux left" 1 st.Stats.muxes;
  check_bool "equiv" true (Equiv.is_equivalent orig c)

let test_sat_elim_baseline_cannot () =
  let c = fig3_circuit () in
  ignore (Rtl_opt.Flow.baseline c);
  let st = Stats.of_circuit c in
  check_int "yosys keeps both muxes" 2 st.Stats.muxes

let test_sat_elim_contradicted_inner () =
  (* inner control = !S under branch S=1: forced false *)
  let c = Circuit.create "neg" in
  let s = Circuit.add_input c "S" ~width:1 in
  let a = Circuit.add_input c "A" ~width:2 in
  let b = Circuit.add_input c "B" ~width:2 in
  let cc = Circuit.add_input c "C" ~width:2 in
  let sb = Circuit.bit_of_wire s in
  let ns = Circuit.mk_not c sb in
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire b) ~b:(Circuit.sig_of_wire a) ~s:ns
  in
  let outer = Circuit.mk_mux c ~a:(Circuit.sig_of_wire cc) ~b:inner ~s:sb in
  expose c "Y" outer;
  let orig = Circuit.copy c in
  let r = Smartly.Sat_elim.run Smartly.Config.default c in
  check_bool "bypassed" true (r.Smartly.Sat_elim.muxes_bypassed >= 1);
  check_bool "equiv" true (Equiv.is_equivalent orig c)

(* --- restructure --- *)

let case_chain_circuit ?(width = 8) () =
  Hdl.Elaborate.elaborate_string ~style:`Chain
    (Printf.sprintf
       {|
module m(input [1:0] s, input [%d:0] p0, input [%d:0] p1,
         input [%d:0] p2, input [%d:0] p3, output reg [%d:0] y);
  always @* begin
    case (s)
      2'b00: y = p0;
      2'b01: y = p1;
      2'b10: y = p2;
      default: y = p3;
    endcase
  end
endmodule
|}
       (width - 1) (width - 1) (width - 1) (width - 1) (width - 1))

let test_restructure_listing1 () =
  let c = case_chain_circuit () in
  let orig = Circuit.copy c in
  ignore (Rtl_opt.Opt_expr.run c);
  let r = Smartly.Restructure.run_once c in
  check_int "one tree rebuilt" 1 r.Smartly.Restructure.rebuilt;
  (* paper Fig. 7: exactly 3 muxes, controlled by s bits directly *)
  check_int "3 muxes" 3 r.Smartly.Restructure.muxes_after;
  ignore (Rtl_opt.Opt_clean.run c);
  let st = Stats.of_circuit c in
  check_int "eq gates gone" 0 st.Stats.eqs;
  check_bool "equiv" true (Equiv.is_equivalent orig c)

let test_restructure_listing2_good_assignment () =
  (* paper: good assignment = 3 muxes, poor = 7 *)
  let c =
    Hdl.Elaborate.elaborate_string ~style:`Chain
      {|
module m(input [2:0] s, input [7:0] p0, input [7:0] p1,
         input [7:0] p2, input [7:0] p3, output reg [7:0] y);
  always @* begin
    casez (s)
      3'b1zz: y = p0;
      3'b01z: y = p1;
      3'b001: y = p2;
      default: y = p3;
    endcase
  end
endmodule
|}
  in
  let orig = Circuit.copy c in
  ignore (Rtl_opt.Opt_expr.run c);
  let r = Smartly.Restructure.run_once c in
  check_int "rebuilt" 1 r.Smartly.Restructure.rebuilt;
  check_int "3 muxes (greedy = optimal)" 3 r.Smartly.Restructure.muxes_after;
  ignore (Rtl_opt.Opt_clean.run c);
  check_bool "equiv" true (Equiv.is_equivalent orig c)

let test_restructure_skips_when_unprofitable () =
  (* eq outputs also feed other logic: removal impossible, 1-bit data;
     rebuilding would not pay *)
  let c = Circuit.create "shared_eq" in
  let s = Circuit.add_input c "s" ~width:2 in
  let p = Circuit.add_input c "p" ~width:4 in
  let pb = Circuit.sig_of_wire p in
  let e0 = Circuit.mk_eq_const c (Circuit.sig_of_wire s) 0 in
  let e1 = Circuit.mk_eq_const c (Circuit.sig_of_wire s) 1 in
  let m1 = Circuit.mk_mux c ~a:[| pb.(0) |] ~b:[| pb.(1) |] ~s:e1 in
  let m0 = Circuit.mk_mux c ~a:m1 ~b:[| pb.(2) |] ~s:e0 in
  expose c "Y" m0;
  (* keep the eqs alive elsewhere *)
  expose c "E" [| Circuit.mk_and c e0 e1 |];
  let orig = Circuit.copy c in
  let r = Smartly.Restructure.run_once c in
  check_int "no rebuild" 0 r.Smartly.Restructure.rebuilt;
  check_bool "equiv (untouched)" true (Equiv.is_equivalent orig c)

let test_restructure_pmux_tree () =
  let c =
    Hdl.Elaborate.elaborate_string ~style:`Pmux
      {|
module m(input [2:0] s, input [7:0] p0, input [7:0] p1, output reg [7:0] y);
  always @* begin
    case (s)
      3'd0: y = p0;
      3'd1: y = p1;
      3'd2: y = p0;
      3'd3: y = p1;
      3'd4: y = p0;
      default: y = p1;
    endcase
  end
endmodule
|}
  in
  let orig = Circuit.copy c in
  ignore (Rtl_opt.Opt_expr.run c);
  let r = Smartly.Restructure.run_once c in
  check_int "rebuilt" 1 r.Smartly.Restructure.rebuilt;
  ignore (Rtl_opt.Opt_clean.run c);
  check_bool "equiv" true (Equiv.is_equivalent orig c);
  (* with only 2 distinct leaves alternating on s[0]... the tree is tiny *)
  let st = Stats.of_circuit c in
  check_bool "small tree" true (st.Stats.muxes <= 3)

(* --- full driver on generated workloads: equivalence property --- *)

let prop_smartly_preserves =
  QCheck.Test.make ~count:10 ~name:"smartly flow preserves semantics"
    QCheck.(int_bound 10000)
    (fun seed ->
      let p =
        {
          Workloads.Profiles.name = "prop";
          seed;
          style = (match seed mod 3 with 0 -> `Chain | 1 -> `Balanced | _ -> `Pmux);
          repeat = 2;
          mix =
            [
              Workloads.Profiles.Case
                { sel_width = 3; items = 6; width = 4; distinct = 2 };
              Workloads.Profiles.Correlated_ifs { depth = 2; width = 4 };
              Workloads.Profiles.Crossbar_port { n_grants = 3; width = 4 };
              Workloads.Profiles.Datapath { width = 4; ops = 2 };
            ];
          register_fraction = 5;
        }
      in
      let c = Workloads.Profiles.circuit p in
      let orig = Circuit.copy c in
      ignore (Smartly.Driver.smartly c);
      Validate.is_well_formed c && Equiv.is_equivalent orig c)

let prop_smartly_never_worse =
  QCheck.Test.make ~count:8 ~name:"smartly area <= yosys area"
    QCheck.(int_bound 10000)
    (fun seed ->
      let p =
        {
          Workloads.Profiles.name = "prop2";
          seed = seed + 17;
          style = `Chain;
          repeat = 2;
          mix =
            [
              Workloads.Profiles.Case
                { sel_width = 4; items = 12; width = 6; distinct = 3 };
              Workloads.Profiles.Correlated_ifs { depth = 3; width = 6 };
              Workloads.Profiles.Redundant_nest { width = 6 };
            ];
          register_fraction = 0;
        }
      in
      let c = Workloads.Profiles.circuit p in
      let cy = Circuit.copy c in
      ignore (Smartly.Driver.yosys cy);
      ignore (Smartly.Driver.smartly c);
      Aiger.Aigmap.aig_area c <= Aiger.Aigmap.aig_area cy)

let () =
  Alcotest.run "smartly"
    [
      ( "inference",
        [
          Alcotest.test_case "or rules (Table I)" `Quick test_or_rules;
          Alcotest.test_case "and/not rules" `Quick test_and_not_rules;
          Alcotest.test_case "eq rules" `Quick test_eq_rules;
          Alcotest.test_case "mux backward" `Quick test_mux_backward;
          Alcotest.test_case "xor/reduce rules" `Quick test_xor_reduce_rules;
          Alcotest.test_case "pmux rules" `Quick test_pmux_rules;
          Alcotest.test_case "contradiction" `Quick test_contradiction;
        ] );
      ( "subgraph",
        [
          Alcotest.test_case "cone depth" `Quick test_subgraph_cone_depth;
          Alcotest.test_case "disjoint cones kept" `Quick
            test_subgraph_disjoint_cones_kept;
          Alcotest.test_case "no common-descendant link" `Quick
            test_subgraph_no_common_descendant_link;
          Alcotest.test_case "drivers first" `Quick test_subgraph_drivers_first;
          Alcotest.test_case "sources exact" `Quick test_subgraph_sources_exact;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fig3 forced" `Quick test_engine_fig3;
          Alcotest.test_case "free" `Quick test_engine_free;
          Alcotest.test_case "unreachable" `Quick test_engine_unreachable;
          Alcotest.test_case "simulation path" `Quick test_engine_simulation_path;
          Alcotest.test_case "sat path" `Quick test_engine_sat_path;
          Alcotest.test_case "forgone" `Quick test_engine_forgone;
        ] );
      ( "sat_elim",
        [
          Alcotest.test_case "fig3 eliminated" `Quick test_sat_elim_fig3;
          Alcotest.test_case "baseline cannot" `Quick test_sat_elim_baseline_cannot;
          Alcotest.test_case "negated control" `Quick test_sat_elim_contradicted_inner;
        ] );
      ( "restructure",
        [
          Alcotest.test_case "listing1 -> 3 muxes" `Quick test_restructure_listing1;
          Alcotest.test_case "listing2 greedy" `Quick
            test_restructure_listing2_good_assignment;
          Alcotest.test_case "unprofitable skipped" `Quick
            test_restructure_skips_when_unprofitable;
          Alcotest.test_case "pmux tree" `Quick test_restructure_pmux_tree;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_smartly_preserves; prop_smartly_never_worse ] );
    ]
