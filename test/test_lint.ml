(* Tests for the lint subsystem: every shipped rule gets a positive and a
   negative case, plus the diagnostic plumbing (werror/waivers, JSON
   report) and the per-pass invariant checker. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let hdl_diags src = Lint.Rules_hdl.check (Hdl.Parser.parse_string src)
let full_diags src = Lint.Engine.lint_source src

let rules ds = List.map (fun d -> d.Lint.Diag.rule) ds
let has_rule r ds = List.mem r (rules ds)
let count_rule r ds = List.length (List.filter (( = ) r) (rules ds))

let find_rule r ds = List.find (fun d -> d.Lint.Diag.rule = r) ds

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- registry discipline --- *)

let test_registry_ids_unique () =
  let ids = List.map (fun r -> r.Lint.Registry.id) Lint.Registry.all in
  check_int "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  check_bool "find known" true (Lint.Registry.find "HDL001" <> None);
  check_bool "find unknown" true (Lint.Registry.find "XYZ999" = None)

let test_emitted_rules_are_registered () =
  (* a source tripping many rules: every emitted id must be registered *)
  let ds =
    full_diags
      "module m(input [7:0] a, input unused, output [3:0] y, output reg t);\n\
      \  assign y = a;\n\
      \  always @* t = a[0];\n\
      \  always @* t = a[1];\n\
       endmodule"
  in
  check_bool "nonempty" true (ds <> []);
  List.iter
    (fun d ->
      check_bool ("registered: " ^ d.Lint.Diag.rule) true
        (Lint.Registry.is_known d.Lint.Diag.rule))
    ds

(* --- HDL000: frontend failures become diagnostics --- *)

let test_hdl000_parse_error () =
  let ds = full_diags "module m(input a, output y);\n  assign y = ;\nendmodule" in
  check_int "one diag" 1 (List.length ds);
  let d = List.hd ds in
  check_bool "rule" true (d.Lint.Diag.rule = "HDL000");
  check_bool "severity" true (d.Lint.Diag.severity = Lint.Diag.Error);
  check_bool "located on line 2" true
    (match d.Lint.Diag.span with
    | Some sp -> sp.Hdl.Loc.s.Hdl.Loc.line = 2
    | None -> false)

let test_hdl000_lex_error () =
  let ds = full_diags "module m;\n  %" in
  check_bool "lex error bridged" true (has_rule "HDL000" ds)

let test_hdl000_elab_error () =
  let ds =
    full_diags "module m(input a, output y);\n  assign y = nope;\nendmodule"
  in
  check_bool "elab error bridged" true (has_rule "HDL000" ds);
  (* AST rules still ran before elaboration failed *)
  check_bool "errors only from frontend" true
    (Lint.Diag.has_errors ds)

(* --- HDL001: incomplete case --- *)

let incomplete_case =
  "module m(input [1:0] s, output reg y);\n\
  \  always @* begin\n\
  \    case (s)\n\
  \      2'b00: y = 1'b0;\n\
  \      2'b01: y = 1'b1;\n\
  \    endcase\n\
  \  end\n\
   endmodule"

let test_hdl001_positive () =
  let ds = hdl_diags incomplete_case in
  check_bool "flagged" true (has_rule "HDL001" ds);
  let d = find_rule "HDL001" ds in
  (* the message carries the feedback reg and an example value *)
  check_bool "names the latched reg" true (contains d.Lint.Diag.message "'y'")

let test_hdl001_negative_default () =
  let ds =
    hdl_diags
      "module m(input [1:0] s, output reg y);\n\
      \  always @* begin\n\
      \    case (s)\n\
      \      2'b00: y = 1'b0;\n\
      \      default: y = 1'b1;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  check_bool "default arm silences" false (has_rule "HDL001" ds)

let test_hdl001_negative_full_coverage () =
  let ds =
    hdl_diags
      "module m(input s, output reg y);\n\
      \  always @* begin\n\
      \    case (s)\n\
      \      1'b0: y = 1'b0;\n\
      \      1'b1: y = 1'b1;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  check_bool "full coverage silences" false (has_rule "HDL001" ds)

let test_hdl001_negative_preassigned () =
  let ds =
    hdl_diags
      "module m(input [1:0] s, output reg y);\n\
      \  always @* begin\n\
      \    y = 1'b0;\n\
      \    case (s)\n\
      \      2'b01: y = 1'b1;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  check_bool "pre-assignment silences" false (has_rule "HDL001" ds)

let test_hdl001_negative_sequential () =
  (* holding state through an uncovered case is idiomatic in a clocked
     block *)
  let ds =
    hdl_diags
      "module m(input clk, input [1:0] s, output reg y);\n\
      \  always @(posedge clk) begin\n\
      \    case (s)\n\
      \      2'b01: y <= 1'b1;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  check_bool "sequential hold silences" false (has_rule "HDL001" ds)

(* --- HDL002: unreachable / overlapping case items --- *)

let test_hdl002_unreachable () =
  let ds =
    hdl_diags
      "module m(input [1:0] s, output reg y);\n\
      \  always @* begin\n\
      \    case (s)\n\
      \      2'b00: y = 1'b0;\n\
      \      2'b00: y = 1'b1;\n\
      \      default: y = 1'b1;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  let d = find_rule "HDL002" ds in
  check_bool "warning severity" true (d.Lint.Diag.severity = Lint.Diag.Warning);
  check_bool "located on the dead item" true
    (match d.Lint.Diag.span with
    | Some sp -> sp.Hdl.Loc.s.Hdl.Loc.line = 5
    | None -> false)

let test_hdl002_overlap_info () =
  let ds =
    hdl_diags
      "module m(input [1:0] s, output reg y);\n\
      \  always @* begin\n\
      \    casez (s)\n\
      \      2'bz1: y = 1'b0;\n\
      \      2'b1z: y = 1'b1;\n\
      \      default: y = 1'b0;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  let d = find_rule "HDL002" ds in
  (* 2'b1z overlaps 2'bz1 on value 11 but still matches 10: info, not a
     dead item *)
  check_bool "info severity" true (d.Lint.Diag.severity = Lint.Diag.Info)

let test_hdl002_never_matches () =
  (* a pattern with a 1 beyond the subject width can never match *)
  let ds =
    hdl_diags
      "module m(input s, output reg y);\n\
      \  always @* begin\n\
      \    case (s)\n\
      \      2'b10: y = 1'b0;\n\
      \      default: y = 1'b1;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  check_bool "flagged" true (has_rule "HDL002" ds)

let test_hdl002_negative () =
  let ds =
    hdl_diags
      "module m(input [1:0] s, output reg y);\n\
      \  always @* begin\n\
      \    casez (s)\n\
      \      2'bz1: y = 1'b0;\n\
      \      2'b10: y = 1'b1;\n\
      \      default: y = 1'b0;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  check_bool "disjoint items are quiet" false (has_rule "HDL002" ds)

(* --- HDL003: multiple drivers --- *)

let test_hdl003_positive () =
  let ds =
    hdl_diags
      "module m(input a, output reg y);\n\
      \  always @* y = a;\n\
      \  always @* y = ~a;\n\
       endmodule"
  in
  let d = find_rule "HDL003" ds in
  check_bool "error severity" true (d.Lint.Diag.severity = Lint.Diag.Error)

let test_hdl003_assign_vs_always () =
  let ds =
    hdl_diags
      "module m(input a, output y);\n\
      \  reg t;\n\
      \  assign y = t;\n\
      \  assign y = a;\n\
       endmodule"
  in
  check_bool "two assigns flagged" true (has_rule "HDL003" ds)

let test_hdl003_negative () =
  let ds =
    hdl_diags
      "module m(input a, output reg y, output z);\n\
      \  assign z = a;\n\
      \  always @* y = ~a;\n\
       endmodule"
  in
  check_bool "distinct targets are quiet" false (has_rule "HDL003" ds)

(* --- HDL004: width truncation --- *)

let test_hdl004_positive () =
  let ds =
    hdl_diags
      "module m(input [7:0] a, output [3:0] y);\n\
      \  assign y = a;\n\
       endmodule"
  in
  let d = find_rule "HDL004" ds in
  check_bool "mentions widths" true (contains d.Lint.Diag.message "8-bit")

let test_hdl004_negative_slice () =
  let ds =
    hdl_diags
      "module m(input [7:0] a, output [3:0] y);\n\
      \  assign y = a[3:0];\n\
       endmodule"
  in
  check_bool "slice fits" false (has_rule "HDL004" ds)

let test_hdl004_negative_unsized_literal () =
  (* unsized decimals parse as 32-bit constants; only significant bits
     count, so this must not warn *)
  let ds =
    hdl_diags
      "module m(input [3:0] a, output reg [3:0] y);\n\
      \  always @* y = a & 12;\n\
       endmodule"
  in
  check_bool "small literal fits" false (has_rule "HDL004" ds)

let test_hdl004_positive_large_literal () =
  let ds =
    hdl_diags
      "module m(output [3:0] y);\n\
      \  assign y = 250;\n\
       endmodule"
  in
  check_bool "large literal flagged" true (has_rule "HDL004" ds)

let test_hdl004_negative_counter_idiom () =
  let ds =
    hdl_diags
      "module m(input clk, output reg [3:0] q);\n\
      \  always @(posedge clk) q <= q + 1;\n\
       endmodule"
  in
  check_bool "wraparound increment is quiet" false (has_rule "HDL004" ds)

(* --- HDL005: read before write in always @* --- *)

let test_hdl005_positive () =
  let ds =
    hdl_diags
      "module m(input a, output reg y);\n\
      \  reg t;\n\
      \  always @* begin\n\
      \    y = t;\n\
      \    t = a;\n\
      \  end\n\
       endmodule"
  in
  let d = find_rule "HDL005" ds in
  check_bool "located on the read" true
    (match d.Lint.Diag.span with
    | Some sp -> sp.Hdl.Loc.s.Hdl.Loc.line = 4
    | None -> false)

let test_hdl005_branch_intersection () =
  (* t is only assigned on one path before the read *)
  let ds =
    hdl_diags
      "module m(input a, input b, output reg y);\n\
      \  reg t;\n\
      \  always @* begin\n\
      \    if (a) t = b; else y = b;\n\
      \    y = t;\n\
      \    t = 1'b0;\n\
      \  end\n\
       endmodule"
  in
  check_bool "flagged" true (has_rule "HDL005" ds)

let test_hdl005_negative () =
  let ds =
    hdl_diags
      "module m(input a, output reg y);\n\
      \  reg t;\n\
      \  always @* begin\n\
      \    t = a;\n\
      \    y = t;\n\
      \  end\n\
       endmodule"
  in
  check_bool "write-then-read is quiet" false (has_rule "HDL005" ds)

let test_hdl005_negative_both_branches () =
  let ds =
    hdl_diags
      "module m(input a, input b, output reg y);\n\
      \  reg t;\n\
      \  always @* begin\n\
      \    if (a) t = b; else t = ~b;\n\
      \    y = t;\n\
      \  end\n\
       endmodule"
  in
  check_bool "both branches assign" false (has_rule "HDL005" ds)

(* --- netlist rules --- *)

let test_nl001_constant_select () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:1 in
  let b = Circuit.add_input c "b" ~width:1 in
  let y =
    Circuit.mk_mux c
      ~a:(Circuit.sig_of_wire a)
      ~b:(Circuit.sig_of_wire b)
      ~s:Bits.C1
  in
  let out = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary { op = Cell.Not; a = y; y = Circuit.sig_of_wire out }));
  check_bool "flagged" true (has_rule "NL001" (Lint.Rules_netlist.structural c))

let test_nl002_identical_branches () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:1 in
  let s = Circuit.add_input c "s" ~width:1 in
  let y =
    Circuit.mk_mux c
      ~a:(Circuit.sig_of_wire a)
      ~b:(Circuit.sig_of_wire a)
      ~s:(Circuit.bit_of_wire s)
  in
  let out = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary { op = Cell.Not; a = y; y = Circuit.sig_of_wire out }));
  let ds = Lint.Rules_netlist.structural c in
  check_bool "flagged" true (has_rule "NL002" ds)

let test_nl002_duplicate_pmux_select () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:1 in
  let b = Circuit.add_input c "b" ~width:2 in
  let s = Circuit.add_input c "s" ~width:1 in
  let sb = Circuit.bit_of_wire s in
  let y =
    Circuit.mk_pmux c
      ~a:(Circuit.sig_of_wire a)
      ~b:(Circuit.sig_of_wire b)
      ~s:[| sb; sb |]
  in
  let out = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary { op = Cell.Not; a = y; y = Circuit.sig_of_wire out }));
  check_bool "flagged" true (has_rule "NL002" (Lint.Rules_netlist.structural c))

let test_nl003_duplicate_eq () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let e1 = Circuit.mk_eq_const c (Circuit.sig_of_wire a) 3 in
  let e2 = Circuit.mk_eq_const c (Circuit.sig_of_wire a) 3 in
  let y = Circuit.mk_and c e1 e2 in
  let out = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary { op = Cell.Not; a = [| y |]; y = Circuit.sig_of_wire out }));
  let ds = Lint.Rules_netlist.structural c in
  let d = find_rule "NL003" ds in
  check_bool "info severity" true (d.Lint.Diag.severity = Lint.Diag.Info)

let test_nl003_negative_different_consts () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let e1 = Circuit.mk_eq_const c (Circuit.sig_of_wire a) 3 in
  let e2 = Circuit.mk_eq_const c (Circuit.sig_of_wire a) 5 in
  let y = Circuit.mk_and c e1 e2 in
  let out = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary { op = Cell.Not; a = [| y |]; y = Circuit.sig_of_wire out }));
  check_bool "distinct constants quiet" false
    (has_rule "NL003" (Lint.Rules_netlist.structural c))

let test_nl004_floating_input () =
  let c = Circuit.create "t" in
  let _unused = Circuit.add_input c "spare" ~width:1 in
  let a = Circuit.add_input c "a" ~width:1 in
  let out = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary
          { op = Cell.Not; a = Circuit.sig_of_wire a;
            y = Circuit.sig_of_wire out }));
  let ds = Lint.Rules_netlist.structural c in
  check_int "one floating input" 1 (count_rule "NL004" ds)

let test_nl004_clock_exempt () =
  let c = Circuit.create "t" in
  let _clk = Circuit.add_input c "clk" ~width:1 in
  let a = Circuit.add_input c "a" ~width:1 in
  let out = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Dff { d = Circuit.sig_of_wire a; q = Circuit.sig_of_wire out }));
  check_bool "clk exempt" false
    (has_rule "NL004" (Lint.Rules_netlist.structural c))

(* --- NL010..NL013: semantic rules backed by the value analysis --- *)

(* [a | 8] over 4 bits: interval [8, 15], MSB pinned to one — derived,
   not syntactically constant, so the semantic rules (and not opt_expr's
   territory) are what can see through it. *)
let or_high c (w : Circuit.wire) =
  Circuit.mk_binary c Cell.Or (Circuit.sig_of_wire w) (Bits.of_int ~width:4 8)

let drive_output c name (s : Bits.sigspec) =
  let out = Circuit.add_output c name ~width:(Array.length s) in
  ignore
    (Circuit.add_cell c
       (Cell.Unary { op = Cell.Not; a = s; y = Circuit.sig_of_wire out }))

let test_nl010_comparison_always_false () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let hi = or_high c a in
  let e = Circuit.mk_binary c Cell.Eq hi (Bits.of_int ~width:4 0) in
  drive_output c "y" e;
  let ds = Lint.Rules_netlist.structural c in
  let d = find_rule "NL010" ds in
  check_bool "warning severity" true (d.Lint.Diag.severity = Lint.Diag.Warning);
  check_bool "says false" true (contains d.Lint.Diag.message "false")

let test_nl010_negative_free_comparison () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let e = Circuit.mk_binary c Cell.Eq (Circuit.sig_of_wire a)
      (Bits.of_int ~width:4 3)
  in
  drive_output c "y" e;
  check_bool "free comparison quiet" false
    (has_rule "NL010" (Lint.Rules_netlist.structural c))

let test_nl011_dead_mux_branch () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let p = Circuit.add_input c "p" ~width:1 in
  let q = Circuit.add_input c "q" ~width:1 in
  (* reduce_or of [a | 8] is provably one: the b branch always wins *)
  let s = Circuit.mk_unary c Cell.Reduce_or (or_high c a) in
  let y =
    Circuit.mk_mux c
      ~a:(Circuit.sig_of_wire p)
      ~b:(Circuit.sig_of_wire q)
      ~s:s.(0)
  in
  drive_output c "y" y;
  let ds = Lint.Rules_netlist.structural c in
  check_bool "flagged" true (has_rule "NL011" ds)

let test_nl011_dead_pmux_default () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let p = Circuit.add_input c "p" ~width:1 in
  let q = Circuit.add_input c "q" ~width:1 in
  let s = Circuit.mk_unary c Cell.Reduce_or (or_high c a) in
  let y =
    Circuit.mk_pmux c
      ~a:(Circuit.sig_of_wire p)
      ~b:(Circuit.sig_of_wire q)
      ~s:[| s.(0) |]
  in
  drive_output c "y" y;
  let ds = Lint.Rules_netlist.structural c in
  let d = find_rule "NL011" ds in
  check_bool "names the default" true (contains d.Lint.Diag.message "default")

let test_nl011_negative_free_select () =
  let c = Circuit.create "t" in
  let p = Circuit.add_input c "p" ~width:1 in
  let q = Circuit.add_input c "q" ~width:1 in
  let s = Circuit.add_input c "s" ~width:1 in
  let y =
    Circuit.mk_mux c
      ~a:(Circuit.sig_of_wire p)
      ~b:(Circuit.sig_of_wire q)
      ~s:(Circuit.bit_of_wire s)
  in
  drive_output c "y" y;
  check_bool "free select quiet" false
    (has_rule "NL011" (Lint.Rules_netlist.structural c))

let test_nl012_foldable_cell () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  (* a & 0 is zero for every a, but the cell's inputs are not all
     syntactic constants, so this is the analysis' catch, not NL001's *)
  let y =
    Circuit.mk_binary c Cell.And (Circuit.sig_of_wire a)
      (Bits.of_int ~width:4 0)
  in
  drive_output c "y" y;
  let ds = Lint.Rules_netlist.structural c in
  let d = find_rule "NL012" ds in
  check_bool "info severity" true (d.Lint.Diag.severity = Lint.Diag.Info);
  check_bool "names the value" true (contains d.Lint.Diag.message "0")

let test_nl012_negative_free_cell () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let b = Circuit.add_input c "b" ~width:4 in
  let y =
    Circuit.mk_binary c Cell.And (Circuit.sig_of_wire a)
      (Circuit.sig_of_wire b)
  in
  drive_output c "y" y;
  check_bool "free cell quiet" false
    (has_rule "NL012" (Lint.Rules_netlist.structural c))

let test_nl013_add_always_wraps () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let b = Circuit.add_input c "b" ~width:4 in
  (* [8,15] + [8,15] is at least 16: wraps for every input *)
  let y = Circuit.mk_binary c Cell.Add (or_high c a) (or_high c b) in
  drive_output c "y" y;
  let ds = Lint.Rules_netlist.structural c in
  let d = find_rule "NL013" ds in
  check_bool "warning severity" true (d.Lint.Diag.severity = Lint.Diag.Warning)

let test_nl013_sub_always_borrows () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let b = Circuit.add_input c "b" ~width:4 in
  let small =
    Circuit.mk_binary c Cell.And (Circuit.sig_of_wire a)
      (Bits.of_int ~width:4 7)
  in
  (* [0,7] - [8,15] borrows for every input *)
  let y = Circuit.mk_binary c Cell.Sub small (or_high c b) in
  drive_output c "y" y;
  check_bool "flagged" true (has_rule "NL013" (Lint.Rules_netlist.structural c))

let test_nl013_negative_free_add () =
  let c = Circuit.create "t" in
  let a = Circuit.add_input c "a" ~width:4 in
  let b = Circuit.add_input c "b" ~width:4 in
  let y =
    Circuit.mk_binary c Cell.Add (Circuit.sig_of_wire a)
      (Circuit.sig_of_wire b)
  in
  drive_output c "y" y;
  check_bool "free add quiet" false
    (has_rule "NL013" (Lint.Rules_netlist.structural c))

let test_validate_bridge_rules () =
  (* a combinational loop: bridged as an NL009 error with a witness *)
  let c = Circuit.create "cyc" in
  let w1 = Circuit.add_wire c ~width:1 () in
  let w2 = Circuit.add_wire c ~width:1 () in
  let b1 = Circuit.bit_of_wire w1 and b2 = Circuit.bit_of_wire w2 in
  ignore
    (Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| b1 |]; y = [| b2 |] }));
  ignore
    (Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| b2 |]; y = [| b1 |] }));
  let ds = Lint.Rules_netlist.check c in
  let d = find_rule "NL009" ds in
  check_bool "error severity" true (d.Lint.Diag.severity = Lint.Diag.Error);
  check_bool "witness in message" true (contains d.Lint.Diag.message "->")

let test_clean_circuit_is_quiet () =
  let c =
    Hdl.Elaborate.elaborate_string
      "module m(input [1:0] s, input [3:0] a, input [3:0] b, output reg [3:0] y);\n\
      \  always @* begin\n\
      \    case (s)\n\
      \      2'b00: y = a;\n\
      \      2'b01: y = b;\n\
      \      2'b10: y = a & b;\n\
      \      default: y = a | b;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  check_bool "no diagnostics" true (Lint.Rules_netlist.check c = [])

(* --- diagnostic plumbing --- *)

let test_werror_and_waivers () =
  let ds = hdl_diags incomplete_case in
  check_bool "warning present" true (has_rule "HDL001" ds);
  check_bool "no errors yet" false (Lint.Diag.has_errors ds);
  let upgraded = Lint.Diag.apply ~werror:true ds in
  check_bool "werror upgrades" true (Lint.Diag.has_errors upgraded);
  let waived = Lint.Diag.apply ~waive:[ "HDL001" ] ds in
  check_bool "waiver drops" false (has_rule "HDL001" waived);
  (* waive + werror: waiving first means nothing left to upgrade *)
  let both = Lint.Diag.apply ~werror:true ~waive:[ "HDL001" ] ds in
  check_bool "waive beats werror" false (Lint.Diag.has_errors both)

let test_json_report_roundtrip () =
  let results =
    [ "good", full_diags "module m(input a, output y); assign y = a; endmodule";
      "bad", full_diags incomplete_case ]
  in
  let text = Obs.Json.to_string ~pretty:true (Lint.Engine.report_json results) in
  match Obs.Json.parse text with
  | Error msg -> Alcotest.fail ("report does not re-parse: " ^ msg)
  | Ok json ->
    check_bool "schema" true
      (Obs.Json.member "schema" json = Some (Obs.Json.Str "smartly-lint-v1"));
    check_bool "sources listed" true
      (match Obs.Json.member "sources" json with
      | Some (Obs.Json.List [ _; _ ]) -> true
      | _ -> false)

let test_diag_ordering () =
  let mk sev rule = Lint.Diag.make ~rule ~severity:sev "m" in
  let sorted =
    Lint.Diag.sort
      [ mk Lint.Diag.Info "NL003"; mk Lint.Diag.Error "NL005";
        mk Lint.Diag.Warning "HDL001" ]
  in
  check_bool "errors first" true
    (List.map (fun d -> d.Lint.Diag.rule) sorted = [ "NL005"; "HDL001"; "NL003" ])

(* --- invariant checker --- *)

let small_module =
  "module m(input a, input b, output y);\n\
  \  assign y = a & b;\n\
   endmodule"

let test_invariant_clean_flow () =
  let c = Hdl.Elaborate.elaborate_string small_module in
  let t = Lint.Invariant.create c in
  ignore
    (Smartly.Driver.yosys
       ~after_pass:(fun name circuit -> Lint.Invariant.after_pass t name circuit)
       c);
  check_bool "ok" true (Lint.Invariant.ok t);
  check_bool "checks ran" true (Lint.Invariant.checks_run t >= 4)

(* The smaRTLy flow under the same checker, as `opt --check-invariants`
   runs it: every sat_elim and restructure pass must leave a valid,
   lint-clean, equivalent netlist. *)
let test_invariant_clean_smartly_flow () =
  let c = Workloads.Profiles.circuit Workloads.Profiles.mux_chain in
  let t = Lint.Invariant.create c in
  ignore
    (Smartly.Driver.smartly
       ~after_pass:(fun name circuit -> Lint.Invariant.after_pass t name circuit)
       c);
  check_bool "ok" true (Lint.Invariant.ok t);
  check_bool "checks ran" true (Lint.Invariant.checks_run t >= 4)

let test_invariant_catches_equiv_break () =
  let c = Hdl.Elaborate.elaborate_string small_module in
  let t = Lint.Invariant.create c in
  Lint.Invariant.after_pass t "harmless" c;
  check_bool "still ok" true (Lint.Invariant.ok t);
  (* the evil pass: flip the And to an Or, a well-formed but wrong rewrite *)
  let flips =
    Circuit.fold_cells
      (fun id cell acc ->
        match cell with
        | Cell.Binary { op = Cell.And; a; b; y } ->
          (id, Cell.Binary { op = Cell.Or; a; b; y }) :: acc
        | _ -> acc)
      c []
  in
  check_bool "found the and gate" true (flips <> []);
  List.iter (fun (id, cell) -> Circuit.replace_cell c id cell) flips;
  Lint.Invariant.after_pass t "evil_flip" c;
  Lint.Invariant.after_pass t "later_pass" c;
  match Lint.Invariant.failure t with
  | None -> Alcotest.fail "expected a failure"
  | Some f ->
    check_bool "first offender named" true (f.Lint.Invariant.pass = "evil_flip");
    check_bool "equivalence cited" true
      (contains f.Lint.Invariant.detail "not equivalent")

let test_invariant_catches_validation_break () =
  let c = Hdl.Elaborate.elaborate_string small_module in
  let t = Lint.Invariant.create c in
  (* the evil pass: drop the cell driving the output, leaving it undriven *)
  let idx = Index.build c in
  (match Circuit.output_bits c with
  | ob :: _ -> (
    match Index.driving_cell idx ob with
    | Some (id, _) -> Circuit.remove_cell c id
    | None -> Alcotest.fail "output should be driven")
  | [] -> Alcotest.fail "module has an output");
  Lint.Invariant.after_pass t "evil_drop" c;
  match Lint.Invariant.failure t with
  | None -> Alcotest.fail "expected a failure"
  | Some f ->
    check_bool "pass named" true (f.Lint.Invariant.pass = "evil_drop");
    check_bool "diags carried" true (f.Lint.Invariant.diags <> []);
    check_bool "undriven bit cited" true
      (List.exists (fun d -> d.Lint.Diag.rule = "NL006") f.Lint.Invariant.diags)

let test_invariant_through_real_flow () =
  (* sabotage the circuit inside the opt_muxtree hook of the real baseline
     flow: the checker must name opt_muxtree, not a later pass *)
  let c =
    Hdl.Elaborate.elaborate_string
      "module m(input [1:0] s, input [3:0] a, input [3:0] b, output reg [3:0] y);\n\
      \  always @* begin\n\
      \    case (s)\n\
      \      2'b00: y = a;\n\
      \      2'b01: y = b;\n\
      \      default: y = a ^ b;\n\
      \    endcase\n\
      \  end\n\
       endmodule"
  in
  let t = Lint.Invariant.create c in
  let sabotaged = ref false in
  let hook name circuit =
    if name = "opt_muxtree" && not !sabotaged then begin
      sabotaged := true;
      let idx = Index.build circuit in
      match Circuit.output_bits circuit with
      | ob :: _ -> (
        match Index.driving_cell idx ob with
        | Some (id, _) -> Circuit.remove_cell circuit id
        | None -> ())
      | [] -> ()
    end;
    Lint.Invariant.after_pass t name circuit
  in
  ignore (Smartly.Driver.yosys ~after_pass:hook c);
  match Lint.Invariant.failure t with
  | None -> Alcotest.fail "expected a failure"
  | Some f ->
    check_bool "opt_muxtree named" true
      (f.Lint.Invariant.pass = "opt_muxtree")

let () =
  Alcotest.run "lint"
    [
      ( "registry",
        [
          Alcotest.test_case "unique ids" `Quick test_registry_ids_unique;
          Alcotest.test_case "emitted rules registered" `Quick
            test_emitted_rules_are_registered;
        ] );
      ( "hdl000",
        [
          Alcotest.test_case "parse error" `Quick test_hdl000_parse_error;
          Alcotest.test_case "lex error" `Quick test_hdl000_lex_error;
          Alcotest.test_case "elab error" `Quick test_hdl000_elab_error;
        ] );
      ( "hdl001",
        [
          Alcotest.test_case "positive" `Quick test_hdl001_positive;
          Alcotest.test_case "default silences" `Quick
            test_hdl001_negative_default;
          Alcotest.test_case "full coverage silences" `Quick
            test_hdl001_negative_full_coverage;
          Alcotest.test_case "pre-assignment silences" `Quick
            test_hdl001_negative_preassigned;
          Alcotest.test_case "sequential hold silences" `Quick
            test_hdl001_negative_sequential;
        ] );
      ( "hdl002",
        [
          Alcotest.test_case "unreachable item" `Quick test_hdl002_unreachable;
          Alcotest.test_case "overlap is info" `Quick test_hdl002_overlap_info;
          Alcotest.test_case "never matches" `Quick test_hdl002_never_matches;
          Alcotest.test_case "negative" `Quick test_hdl002_negative;
        ] );
      ( "hdl003",
        [
          Alcotest.test_case "two always blocks" `Quick test_hdl003_positive;
          Alcotest.test_case "two assigns" `Quick test_hdl003_assign_vs_always;
          Alcotest.test_case "negative" `Quick test_hdl003_negative;
        ] );
      ( "hdl004",
        [
          Alcotest.test_case "positive" `Quick test_hdl004_positive;
          Alcotest.test_case "slice fits" `Quick test_hdl004_negative_slice;
          Alcotest.test_case "unsized literal" `Quick
            test_hdl004_negative_unsized_literal;
          Alcotest.test_case "large literal" `Quick
            test_hdl004_positive_large_literal;
          Alcotest.test_case "counter idiom" `Quick
            test_hdl004_negative_counter_idiom;
        ] );
      ( "hdl005",
        [
          Alcotest.test_case "positive" `Quick test_hdl005_positive;
          Alcotest.test_case "branch intersection" `Quick
            test_hdl005_branch_intersection;
          Alcotest.test_case "negative" `Quick test_hdl005_negative;
          Alcotest.test_case "both branches" `Quick
            test_hdl005_negative_both_branches;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "constant select" `Quick test_nl001_constant_select;
          Alcotest.test_case "identical branches" `Quick
            test_nl002_identical_branches;
          Alcotest.test_case "duplicate pmux select" `Quick
            test_nl002_duplicate_pmux_select;
          Alcotest.test_case "duplicate eq" `Quick test_nl003_duplicate_eq;
          Alcotest.test_case "distinct eq consts" `Quick
            test_nl003_negative_different_consts;
          Alcotest.test_case "floating input" `Quick test_nl004_floating_input;
          Alcotest.test_case "clock exempt" `Quick test_nl004_clock_exempt;
          Alcotest.test_case "comparison always false" `Quick
            test_nl010_comparison_always_false;
          Alcotest.test_case "free comparison quiet" `Quick
            test_nl010_negative_free_comparison;
          Alcotest.test_case "dead mux branch" `Quick
            test_nl011_dead_mux_branch;
          Alcotest.test_case "dead pmux default" `Quick
            test_nl011_dead_pmux_default;
          Alcotest.test_case "free select quiet" `Quick
            test_nl011_negative_free_select;
          Alcotest.test_case "foldable cell" `Quick test_nl012_foldable_cell;
          Alcotest.test_case "free cell quiet" `Quick
            test_nl012_negative_free_cell;
          Alcotest.test_case "add always wraps" `Quick
            test_nl013_add_always_wraps;
          Alcotest.test_case "sub always borrows" `Quick
            test_nl013_sub_always_borrows;
          Alcotest.test_case "free add quiet" `Quick
            test_nl013_negative_free_add;
          Alcotest.test_case "validate bridge" `Quick test_validate_bridge_rules;
          Alcotest.test_case "clean circuit quiet" `Quick
            test_clean_circuit_is_quiet;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "werror + waivers" `Quick test_werror_and_waivers;
          Alcotest.test_case "json roundtrip" `Quick test_json_report_roundtrip;
          Alcotest.test_case "ordering" `Quick test_diag_ordering;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean flow" `Quick test_invariant_clean_flow;
          Alcotest.test_case "clean smartly flow" `Slow
            test_invariant_clean_smartly_flow;
          Alcotest.test_case "equivalence break" `Quick
            test_invariant_catches_equiv_break;
          Alcotest.test_case "validation break" `Quick
            test_invariant_catches_validation_break;
          Alcotest.test_case "real flow names pass" `Quick
            test_invariant_through_real_flow;
        ] );
    ]
