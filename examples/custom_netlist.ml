(* Using the libraries programmatically, without the Verilog frontend:
   build a netlist with the Circuit API, query the inference engine
   directly, and run individual passes.

     dune exec examples/custom_netlist.exe *)

open Netlist

let () =
  (* Fig. 3 of the paper: Y = S ? ((S|R) ? A : B) : C *)
  let c = Circuit.create "fig3" in
  let s = Circuit.add_input c "S" ~width:1 in
  let r = Circuit.add_input c "R" ~width:1 in
  let a = Circuit.add_input c "A" ~width:8 in
  let b = Circuit.add_input c "B" ~width:8 in
  let cc = Circuit.add_input c "C" ~width:8 in
  let sb = Circuit.bit_of_wire s and rb = Circuit.bit_of_wire r in
  let s_or_r = Circuit.mk_or c sb rb in
  let inner =
    Circuit.mk_mux c ~a:(Circuit.sig_of_wire b) ~b:(Circuit.sig_of_wire a)
      ~s:s_or_r
  in
  let outer = Circuit.mk_mux c ~a:(Circuit.sig_of_wire cc) ~b:inner ~s:sb in
  let y = Circuit.add_output c "Y" ~width:8 in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = outer; b = Bits.all_zero ~width:8;
            y = Circuit.sig_of_wire y }));
  Validate.check_exn c;
  Printf.printf "built %s: %d cells, %d wires, logic depth %d\n"
    c.Circuit.name (Circuit.cell_count c) (Circuit.wire_count c)
    (Topo.logic_depth c);

  (* ask the engine directly: is the inner control forced when S = 1? *)
  let kernel = Smartly.Subgraph.create c (Index.build c) in
  let known : Smartly.Inference.known = Bits.Bit_tbl.create 4 in
  Bits.Bit_tbl.replace known sb true;
  let stats = Smartly.Engine.fresh_stats () in
  let verdict =
    Smartly.Engine.determine Smartly.Config.default stats kernel known
      ~target:s_or_r
  in
  Printf.printf "engine: under S=1, S|R is %s (rule hits %d)\n"
    (match verdict with
    | Smartly.Engine.Forced true -> "forced to 1"
    | Smartly.Engine.Forced false -> "forced to 0"
    | Smartly.Engine.Free -> "free"
    | Smartly.Engine.Unreachable -> "on a dead path"
    | Smartly.Engine.Unknown -> "undetermined")
    stats.Smartly.Engine.rule_hits;

  (* run just the SAT-elimination pass and see the mux disappear *)
  let original = Circuit.copy c in
  let report = Smartly.Sat_elim.run Smartly.Config.default c in
  ignore (Rtl_opt.Opt_clean.run c);
  Fmt.pr "sat_elim: %a@." Smartly.Sat_elim.pp_report report;
  let st = Stats.of_circuit c in
  Printf.printf "after the pass: %d mux cells (was 2), AIG area %d (was %d)\n"
    st.Stats.muxes
    (Aiger.Aigmap.aig_area c)
    (Aiger.Aigmap.aig_area original);
  Fmt.pr "equivalence check: %a@." Equiv.pp_verdict (Equiv.check original c);

  (* simulate both versions on a concrete vector: S=1, A=0x42 *)
  let inputs =
    (sb, Rtl_sim.Value.V1) :: (rb, Rtl_sim.Value.V0)
    :: List.concat_map
         (fun (w, v) ->
           List.init 8 (fun i ->
               ( Bits.Of_wire (w.Circuit.wire_id, i),
                 if (v lsr i) land 1 = 1 then Rtl_sim.Value.V1
                 else Rtl_sim.Value.V0 )))
         [ a, 0x42; b, 0x13; cc, 0x99 ]
  in
  let env = Rtl_sim.Eval.run c ~inputs () in
  match Rtl_sim.Eval.read_int env (Circuit.sig_of_wire y) with
  | Some v -> Printf.printf "simulation: S=1 -> Y = 0x%02x (expected 0x42)\n" v
  | None -> print_endline "simulation: Y undefined?"
