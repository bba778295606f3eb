(* Bus arbiter with correlated controls: the wb_conmax-style scenario where
   SAT-based redundancy elimination shines.

   A priority arbiter grants the bus to the highest-priority requester; the
   datapath then re-tests the very request lines the grant was derived
   from.  Those inner muxes are redundant — their controls are implied by
   the grant — but only logic inference can see it: the control signals are
   *different* wires, so the Yosys baseline keeps everything.

     dune exec examples/bus_arbiter.exe *)

let arbiter =
  {|
module arbiter(input req0, input req1, input req2,
               input [7:0] d0, input [7:0] d1, input [7:0] d2,
               output reg [7:0] bus);
  wire g0;
  wire g1;
  wire g2;
  assign g0 = req0;                    // highest priority
  assign g1 = !req0 && req1;
  assign g2 = !req0 && !req1 && req2;
  always @* begin
    bus = 8'd0;
    if (g0) begin
      // inside the g0 branch, req0 is known to be 1: this test is dead
      if (req0) bus = d0; else bus = 8'd255;
    end
    if (g1) begin
      // g1 implies req0 = 0 and req1 = 1: both tests below are forced
      if (req0) bus = 8'd255; else begin
        if (req1) bus = d1; else bus = 8'd254;
      end
    end
    if (g2) begin
      if (req2) bus = d2; else bus = 8'd253;
    end
  end
endmodule
|}

let () =
  let circuit = Hdl.Elaborate.elaborate_string ~style:`Chain arbiter in
  let original = Netlist.Circuit.copy circuit in
  Printf.printf "arbiter as written: AIG area %d\n"
    (Aiger.Aigmap.aig_area circuit);

  let yosys_version = Netlist.Circuit.copy circuit in
  ignore (Smartly.Driver.yosys yosys_version);
  Printf.printf "Yosys baseline:     AIG area %d\n"
    (Aiger.Aigmap.aig_area yosys_version);

  Obs.Metrics.reset ();
  ignore (Smartly.Driver.smartly circuit);
  Printf.printf "smaRTLy:            AIG area %d\n"
    (Aiger.Aigmap.aig_area circuit);

  (* how were the redundancies found?  The passes count it in the
     metrics registry *)
  let counter name = Obs.Metrics.value (Obs.Metrics.counter name) in
  Printf.printf "  sat_elim: bypassed=%d data_folded=%d dead=%d\n"
    (counter "sat_elim.muxes_bypassed")
    (counter "sat_elim.data_bits_folded")
    (counter "sat_elim.dead_branches");
  Fmt.pr "equivalence check: %a@." Equiv.pp_verdict
    (Equiv.check original circuit)
