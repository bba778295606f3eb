(* Instruction-decoder restructuring: the workload the paper's introduction
   motivates.  A RISC-style opcode decoder written as a casez priority
   ladder elaborates into a long eq+mux chain; the restructuring pass
   rebuilds it as a small decision tree over the opcode bits.

     dune exec examples/decoder_rebuild.exe *)

open Netlist

let decoder =
  {|
module decoder(input [6:0] opcode, input [15:0] alu_r, input [15:0] mem_r,
               input [15:0] imm_r, input [15:0] br_r, output reg [15:0] wb);
  always @* begin
    // RV32 opcodes all end in 2'b11; decode the 5 significant bits
    case (opcode[6:2])
      5'b01100: wb = alu_r;   // OP
      5'b00100: wb = alu_r;   // OP-IMM
      5'b00000: wb = mem_r;   // LOAD
      5'b01000: wb = mem_r;   // STORE
      5'b01101: wb = imm_r;   // LUI
      5'b00101: wb = imm_r;   // AUIPC
      5'b11000: wb = br_r;    // BRANCH
      5'b11011: wb = br_r;    // JAL
      5'b11001: wb = br_r;    // JALR
      default:    wb = alu_r;
    endcase
  end
endmodule
|}

let () =
  let circuit = Hdl.Elaborate.elaborate_string ~style:`Chain decoder in
  let original = Circuit.copy circuit in
  let st0 = Stats.of_circuit circuit in
  Printf.printf "decoder as elaborated: %d muxes, %d eq gates, AIG area %d\n"
    st0.Stats.muxes st0.Stats.eqs
    (Aiger.Aigmap.aig_area circuit);

  (* what would Yosys do? *)
  let yosys_version = Circuit.copy circuit in
  ignore (Smartly.Driver.yosys yosys_version);
  Printf.printf "after the Yosys baseline:  AIG area %d (structure kept)\n"
    (Aiger.Aigmap.aig_area yosys_version);

  (* inspect the restructuring decision before committing to it *)
  ignore (Rtl_opt.Opt_expr.run circuit);
  let index = Index.build circuit in
  (match Smartly.Muxtree.find_all circuit index with
  | [ flat ] ->
    let d = Smartly.Restructure.evaluate circuit index flat in
    Printf.printf
      "muxtree found: %d rows over %d opcode bits; greedy ADD tree: %d \
       muxes,\nheight %d, %d eq gates removable, est. saving %d AIG nodes\n"
      (List.length flat.Smartly.Muxtree.rows)
      (Bits.width flat.Smartly.Muxtree.selector)
      d.Smartly.Restructure.new_muxes d.Smartly.Restructure.height
      (List.length d.Smartly.Restructure.removable)
      d.Smartly.Restructure.saved_cost
  | trees -> Printf.printf "found %d muxtrees\n" (List.length trees));

  (* run the full flow and compare *)
  ignore (Smartly.Driver.smartly circuit);
  let st1 = Stats.of_circuit circuit in
  Printf.printf
    "after smaRTLy: %d muxes, %d eq gates, AIG area %d\n"
    st1.Stats.muxes st1.Stats.eqs
    (Aiger.Aigmap.aig_area circuit);
  Fmt.pr "equivalence check: %a@." Equiv.pp_verdict
    (Equiv.check original circuit)
