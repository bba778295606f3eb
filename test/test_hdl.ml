(* Tests for the HDL frontend: lexer, parser, elaboration semantics. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- lexer --- *)

let test_lex_sized_literals () =
  let toks = Hdl.Lexer.tokenize "4'b10z1 8'hff 3'd5 2'b?1" in
  let consts =
    List.filter_map
      (function Hdl.Lexer.SIZED c, _ -> Some c | _ -> None)
      toks
  in
  check_int "four literals" 4 (List.length consts);
  (match consts with
  | [ c1; c2; c3; c4 ] ->
    (* 4'b10z1, LSB first: [1; z; 0; 1] *)
    check_bool "b literal" true
      (c1.Hdl.Ast.cbits = Hdl.Ast.[ B1; Bz; B0; B1 ]);
    check_int "hff width" 8 c2.Hdl.Ast.cwidth;
    check_bool "hff bits" true
      (List.for_all (( = ) Hdl.Ast.B1) c2.Hdl.Ast.cbits);
    check_bool "d5" true (c3.Hdl.Ast.cbits = Hdl.Ast.[ B1; B0; B1 ]);
    check_bool "? wildcard" true (c4.Hdl.Ast.cbits = Hdl.Ast.[ B1; Bz ])
  | _ -> Alcotest.fail "wrong structure");
  (* comments are skipped *)
  let toks2 = Hdl.Lexer.tokenize "a // line\n/* block\n */ b" in
  check_int "two idents + eof" 3 (List.length toks2)

let test_lex_errors () =
  check_bool "bad char" true
    (match Hdl.Lexer.tokenize "a % b" with
    | _ -> false
    | exception Hdl.Lexer.Lex_error _ -> true)

(* Numeric literals end in a value or a located error. *)
let lex_error src =
  match Hdl.Lexer.tokenize src with
  | _ -> None
  | exception Hdl.Lexer.Lex_error (msg, pos) -> Some (msg, pos.Hdl.Loc.col)

let sized src =
  match Hdl.Lexer.tokenize src with
  | [ (Hdl.Lexer.SIZED c, _); (Hdl.Lexer.EOF, _) ] -> c
  | _ -> Alcotest.failf "%s: not one sized literal" src

(* the indices of the set bits, LSB first *)
let ones (c : Hdl.Ast.constant) =
  List.concat (List.mapi (fun i b -> if b = Hdl.Ast.B1 then [ i ] else []) c.Hdl.Ast.cbits)

let test_lex_numeric_literals () =
  check_bool "unsized decimal too large" true
    (lex_error "a == 99999999999999999999"
    = Some ("decimal literal too large", 6));
  check_bool "literal width too large" true
    (lex_error "99999999999999999999'b0"
    = Some ("literal width above 65536 bits", 1));
  check_bool "width 65537 rejected" true
    (lex_error "65537'b0" = Some ("literal width above 65536 bits", 1));
  check_int "width 65536 accepted" 65536 (sized "65536'h1").Hdl.Ast.cwidth;
  check_bool "width 0 rejected" true
    (lex_error "a | 0'b1" = Some ("zero-width literal", 5));
  check_bool "width 0 rejected in decimal" true
    (lex_error "0'd0" = Some ("zero-width literal", 1));
  check_bool "no OCaml prefix in a decimal" true
    (lex_error "8'd0x10" = Some ("bad decimal digit 'x'", 1));
  check_bool "nor an empty one" true (lex_error "8'd_" = Some ("bad decimal literal", 1));
  check_bool "2^64 - 1" true
    (ones (sized "64'd18446744073709551615") = List.init 64 Fun.id);
  check_bool "no wrap past bit 62" true (ones (sized "70'd5") = [ 0; 2 ]);
  check_bool "truncated to the width" true (ones (sized "4'd1_7") = [ 0 ]);
  check_bool "digits past the width" true
    (ones (sized "3'd123456789012345678901234567") = [ 0; 1; 2 ])

(* A random value written in decimal, hex and binary is one constant. *)
let prop_literal_bases_agree =
  let decimal msb_first =
    (* decimal digits, least significant first, doubled in per bit *)
    let rec double carry = function
      | [] -> if carry > 0 then [ carry ] else []
      | d :: rest ->
        let v = (2 * d) + carry in
        (v mod 10) :: double (v / 10) rest
    in
    match List.fold_left (fun ds b -> double (Bool.to_int b) ds) [] msb_first with
    | [] -> "0"
    | ds -> String.concat "" (List.rev_map string_of_int ds)
  in
  let hex msb_first =
    let pad = List.init ((4 - (List.length msb_first mod 4)) mod 4) (fun _ -> false) in
    let rec go = function
      | a :: b :: c :: d :: rest ->
        let v = List.fold_left (fun v x -> (2 * v) + Bool.to_int x) 0 [ a; b; c; d ] in
        Printf.sprintf "%x" v ^ go rest
      | _ -> ""
    in
    go (pad @ msb_first)
  in
  let binary msb_first =
    String.concat "" (List.map (fun b -> if b then "1" else "0") msb_first)
  in
  QCheck.Test.make ~count:300 ~name:"W'd, W'h and W'b lex to the same bits"
    QCheck.(pair (int_range 1 200) (list_of_size (Gen.return 200) bool))
    (fun (w, bits) ->
      let lsb_first = List.filteri (fun i _ -> i < w) bits in
      let expect = List.map (fun b -> if b then Hdl.Ast.B1 else Hdl.Ast.B0) lsb_first in
      let msb_first = List.rev lsb_first in
      List.for_all
        (fun (base, digits) ->
          (sized (Printf.sprintf "%d'%c%s" w base (digits msb_first))).Hdl.Ast.cbits
          = expect)
        [ 'd', decimal; 'h', hex; 'b', binary ])

let test_lex_token_positions () =
  (* tokens carry 1-based line/column of their first character *)
  match Hdl.Lexer.tokenize "a\n  wire b" with
  | (_, p1) :: (_, p2) :: (_, p3) :: _ ->
    check_int "a line" 1 p1.Hdl.Loc.line;
    check_int "a col" 1 p1.Hdl.Loc.col;
    check_int "wire line" 2 p2.Hdl.Loc.line;
    check_int "wire col" 3 p2.Hdl.Loc.col;
    check_int "b col" 8 p3.Hdl.Loc.col
  | _ -> Alcotest.fail "expected three tokens"

let test_lex_error_position () =
  match Hdl.Lexer.tokenize "module m;\n  %" with
  | _ -> Alcotest.fail "expected a lex error"
  | exception Hdl.Lexer.Lex_error (_, pos) ->
    check_int "line" 2 pos.Hdl.Loc.line;
    check_int "col" 3 pos.Hdl.Loc.col

let test_parse_error_position () =
  match
    Hdl.Parser.parse_string "module m(input a, output y);\n  assign y = ;\nendmodule"
  with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Hdl.Parser.Parse_error (_, pos) ->
    check_int "line" 2 pos.Hdl.Loc.line

let test_elab_error_span () =
  match
    Hdl.Elaborate.elaborate_string
      "module m(input a, output y);\n  assign y = nope;\nendmodule"
  with
  | _ -> Alcotest.fail "expected an elaboration error"
  | exception Hdl.Elaborate.Elab_error (_, sp) -> (
    match sp with
    | Some sp -> check_int "line" 2 sp.Hdl.Loc.s.Hdl.Loc.line
    | None -> Alcotest.fail "expected a source span")

let test_ast_spans () =
  let m =
    Hdl.Parser.parse_string
      "module m(input [1:0] s, output reg y);\n  always @* begin\n    case (s)\n      2'b00: y = 1'b0;\n      default: y = 1'b1;\n    endcase\n  end\nendmodule"
  in
  let case_item_line =
    List.find_map
      (function
        | Hdl.Ast.I_always { body; _ } ->
          List.find_map
            (fun (s : Hdl.Ast.stmt) ->
              match s.Hdl.Ast.sdesc with
              | Hdl.Ast.S_case { Hdl.Ast.items = it :: _; _ } ->
                Some it.Hdl.Ast.iloc.Hdl.Loc.s.Hdl.Loc.line
              | _ -> None)
            body
        | _ -> None)
      m.Hdl.Ast.items
  in
  check_bool "first case item on line 4" true (case_item_line = Some 4)

(* --- parser --- *)

let test_parse_module_structure () =
  let m =
    Hdl.Parser.parse_string
      {|
module m(input [3:0] a, b, input c, output reg [3:0] y);
  wire [3:0] t;
  assign t = a & b;
  always @* begin
    if (c) y = t; else y = a + b;
  end
endmodule
|}
  in
  check_int "items" 7 (List.length m.Hdl.Ast.items);
  check_bool "name" true (m.Hdl.Ast.mname = "m")

let test_parse_precedence () =
  (* a | b & c parses as a | (b & c) *)
  let m =
    Hdl.Parser.parse_string
      "module m(input a, input b, input c, output y); assign y = a | b & c; endmodule"
  in
  let found =
    List.exists
      (function
        | Hdl.Ast.I_assign
            {
              lhs = "y";
              rhs =
                Hdl.Ast.E_binary
                  ( Hdl.Ast.B_or,
                    Hdl.Ast.E_ident "a",
                    Hdl.Ast.E_binary (Hdl.Ast.B_and, _, _) );
              _;
            } -> true
        | _ -> false)
      m.Hdl.Ast.items
  in
  check_bool "or of and" true found

let test_parse_ternary_nests () =
  let m =
    Hdl.Parser.parse_string
      "module m(input a, input b, input c, output y); assign y = a ? b ? 1'd0 : 1'd1 : c; endmodule"
  in
  check_bool "parsed" true (m.Hdl.Ast.mname = "m")

let test_parse_errors () =
  let bad s =
    match Hdl.Parser.parse_string s with
    | _ -> false
    | exception Hdl.Parser.Parse_error _ -> true
  in
  check_bool "missing semi" true (bad "module m(input a); assign a = a endmodule");
  check_bool "bad case" true
    (bad "module m(input a); always @* case a endcase endmodule");
  check_bool "trailing" true (bad "module m(input a); endmodule garbage")

(* --- elaboration semantics: run compiled circuits on vectors --- *)

let eval_output ?(style = `Chain) src ~inputs:ivals =
  let c = Hdl.Elaborate.elaborate_string ~style src in
  let input_bits =
    List.concat_map
      (fun (name, v) ->
        let w =
          List.find (fun w -> w.Circuit.wire_name = name) (Circuit.inputs c)
        in
        List.init w.Circuit.width (fun i ->
            ( Bits.Of_wire (w.Circuit.wire_id, i),
              if (v lsr i) land 1 = 1 then Rtl_sim.Value.V1
              else Rtl_sim.Value.V0 )))
      ivals
  in
  let env = Rtl_sim.Eval.run c ~inputs:input_bits () in
  let y =
    List.find (fun w -> w.Circuit.wire_name = "y") (Circuit.outputs c)
  in
  Rtl_sim.Eval.read_int env (Circuit.sig_of_wire y)

let test_elab_operators () =
  let src =
    {|
module m(input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = (a & b) ^ (a + b) - (a | b);
endmodule
|}
  in
  let expect a b = (a land b) lxor (((a + b) - (a lor b)) land 255) in
  check_int "ops 1" (expect 170 85)
    (Option.get (eval_output src ~inputs:[ "a", 170; "b", 85 ]));
  check_int "ops 2" (expect 255 3)
    (Option.get (eval_output src ~inputs:[ "a", 255; "b", 3 ]))

let test_elab_concat_slice () =
  let src =
    {|
module m(input [7:0] a, output [7:0] y);
  assign y = {a[3:0], a[7:4]};
endmodule
|}
  in
  check_int "swap nibbles" 0x5A
    (Option.get (eval_output src ~inputs:[ "a", 0xA5 ]))

let test_elab_reduce_logic () =
  let src =
    {|
module m(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = {1'd0, 1'd0, (a == b) && (|a), (&a) || !b};
endmodule
|}
  in
  (* y bit1 = (a==b) && a!=0 ; y bit0 = (&a) || (b==0)  (concat is MSB first) *)
  check_int "case a=b=5" 0b10
    (Option.get (eval_output src ~inputs:[ "a", 5; "b", 5 ]));
  check_int "case a=15 b=0" 0b01
    (Option.get (eval_output src ~inputs:[ "a", 15; "b", 0 ]))

let test_elab_if_priority () =
  let src =
    {|
module m(input [1:0] c, input [7:0] d0, input [7:0] d1, output reg [7:0] y);
  always @* begin
    y = d0;
    if (c[0]) y = d1;
    if (c[1]) y = 8'd7;
  end
endmodule
|}
  in
  check_int "none" 11 (Option.get (eval_output src ~inputs:[ "c", 0; "d0", 11; "d1", 22 ]));
  check_int "c0" 22 (Option.get (eval_output src ~inputs:[ "c", 1; "d0", 11; "d1", 22 ]));
  check_int "c1 wins" 7 (Option.get (eval_output src ~inputs:[ "c", 3; "d0", 11; "d1", 22 ]))

let listing1 =
  {|
module m(input [1:0] s, input [7:0] p0, input [7:0] p1,
         input [7:0] p2, input [7:0] p3, output reg [7:0] y);
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

let test_elab_case_semantics () =
  List.iter
    (fun style ->
      List.iteri
        (fun s expect ->
          check_int
            (Printf.sprintf "s=%d" s)
            expect
            (Option.get
               (eval_output ~style listing1
                  ~inputs:[ "s", s; "p0", 10; "p1", 20; "p2", 30; "p3", 40 ])))
        [ 10; 20; 30; 40 ])
    [ `Chain; `Balanced; `Pmux ]

(* An unsized decimal keeps every bit of its value, in an expression and
   as a case pattern. *)
let test_elab_unsized_decimal () =
  let expr =
    {|
module m(input [39:0] a, output y);
  assign y = a == 4294967296;
endmodule
|}
  in
  let pattern =
    {|
module m(input [39:0] a, output reg y);
  always @* begin
    case (a)
      4294967296: y = 1'b1;
      default: y = 1'b0;
    endcase
  end
endmodule
|}
  in
  List.iter
    (fun (what, src) ->
      check_int (what ^ ": a = 2^32") 1
        (Option.get (eval_output src ~inputs:[ "a", 1 lsl 32 ]));
      check_int (what ^ ": a = 0") 0
        (Option.get (eval_output src ~inputs:[ "a", 0 ])))
    [ "expression", expr; "case pattern", pattern ]

let test_elab_casez_priority () =
  let src =
    {|
module m(input [2:0] s, input [7:0] p0, input [7:0] p1, output reg [7:0] y);
  always @* begin
    casez (s)
      3'b1zz: y = p0;
      3'b01z: y = p1;
      default: y = 8'd9;
    endcase
  end
endmodule
|}
  in
  let run s = Option.get (eval_output src ~inputs:[ "s", s; "p0", 50; "p1", 60 ]) in
  check_int "100" 50 (run 0b100);
  check_int "111" 50 (run 0b111);
  check_int "010" 60 (run 0b010);
  check_int "001" 9 (run 0b001)

let test_elab_styles_equivalent () =
  let chain = Hdl.Elaborate.elaborate_string ~style:`Chain listing1 in
  let bal = Hdl.Elaborate.elaborate_string ~style:`Balanced listing1 in
  let pm = Hdl.Elaborate.elaborate_string ~style:`Pmux listing1 in
  check_bool "chain=balanced" true (Equiv.is_equivalent chain bal);
  check_bool "chain=pmux" true (Equiv.is_equivalent chain pm)

let test_elab_errors () =
  let bad s =
    match Hdl.Elaborate.elaborate_string s with
    | _ -> false
    | exception Hdl.Elaborate.Elab_error _ -> true
  in
  check_bool "undeclared" true
    (bad "module m(output y); assign y = nope; endmodule");
  check_bool "duplicate" true
    (bad "module m(input a, input a, output y); assign y = a; endmodule");
  check_bool "oob select" true
    (bad "module m(input [3:0] a, output y); assign y = a[9]; endmodule")

let test_elab_blocking_raw () =
  (* blocking semantics: a read between two writes sees the first write *)
  let src =
    {|
module m(input [3:0] a, input [3:0] b, output [3:0] y);
  reg [3:0] t;
  reg [3:0] z;
  always @* begin
    t = a;
    z = t;
    t = b;
  end
  assign y = z;
endmodule
|}
  in
  check_int "z sees first write" 5
    (Option.get (eval_output src ~inputs:[ "a", 5; "b", 9 ]))

let test_elab_sequential () =
  (* posedge block infers dffs; non-blocking reads see pre-state *)
  let src =
    {|
module m(input clk, input [3:0] d, output [3:0] q1);
  reg [3:0] r0;
  reg [3:0] r1;
  always @(posedge clk) begin
    r0 <= d;
    r1 <= r0;
  end
  assign q1 = r1;
endmodule
|}
  in
  let c = Hdl.Elaborate.elaborate_string src in
  let st = Netlist.Stats.of_circuit c in
  check_int "two dffs" 2 st.Netlist.Stats.dffs;
  check_bool "valid" true (Validate.is_well_formed c);
  (* r1's next value must be the OLD r0, not d (non-blocking order) *)
  let wires = Hashtbl.fold (fun _ w acc -> w :: acc) c.Circuit.wires [] in
  let r0 = List.find (fun w -> w.Circuit.wire_name = "r0") wires in
  let state =
    List.init 4 (fun i ->
        ( Bits.Of_wire (r0.Circuit.wire_id, i),
          if (6 lsr i) land 1 = 1 then Rtl_sim.Value.V1 else Rtl_sim.Value.V0 ))
  in
  let env = Rtl_sim.Eval.run c ~state ~inputs:[] () in
  (* find the dff whose q is r1 and check its d equals old r0 = 6 *)
  let r1 = List.find (fun w -> w.Circuit.wire_name = "r1") wires in
  let next_r1 =
    Circuit.fold_cells
      (fun _ cell acc ->
        match cell with
        | Cell.Dff { d; q } when Bits.equal q (Circuit.sig_of_wire r1) ->
          Some d
        | _ -> acc)
      c None
  in
  (match next_r1 with
  | Some d ->
    check_int "r1' = old r0" 6 (Option.get (Rtl_sim.Eval.read_int env d))
  | None -> Alcotest.fail "no dff driving r1")

let test_verilog_roundtrip () =
  (* netlist -> Verilog -> netlist must be equivalent, all styles *)
  let src =
    {|
module rt(input clk, input [3:0] a, input [3:0] b, input [1:0] s,
          output [3:0] y);
  reg [3:0] acc;
  reg [3:0] r;
  always @* begin
    case (s)
      2'd0: r = a + b;
      2'd1: r = a - b;
      2'd2: r = a ^ b;
      default: r = a & b;
    endcase
  end
  always @(posedge clk) acc <= acc + r;
  assign y = acc ^ r;
endmodule
|}
  in
  List.iter
    (fun style ->
      let c1 = Hdl.Elaborate.elaborate_string ~style src in
      let text = Hdl.Verilog_out.write c1 in
      let c2 = Hdl.Elaborate.elaborate_string ~style:`Chain text in
      check_bool "roundtrip equivalent" true (Equiv.is_equivalent c1 c2))
    [ `Chain; `Balanced; `Pmux ]

let test_elab_well_formed () =
  List.iter
    (fun style ->
      let c = Hdl.Elaborate.elaborate_string ~style listing1 in
      check_bool "valid" true (Validate.is_well_formed c))
    [ `Chain; `Balanced; `Pmux ]

let () =
  Alcotest.run "hdl"
    [
      ( "lexer",
        [
          Alcotest.test_case "sized literals" `Quick test_lex_sized_literals;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          Alcotest.test_case "numeric literals" `Quick test_lex_numeric_literals;
          QCheck_alcotest.to_alcotest prop_literal_bases_agree;
          Alcotest.test_case "token positions" `Quick test_lex_token_positions;
          Alcotest.test_case "error position" `Quick test_lex_error_position;
        ] );
      ( "parser",
        [
          Alcotest.test_case "module structure" `Quick test_parse_module_structure;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "ternary" `Quick test_parse_ternary_nests;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
          Alcotest.test_case "ast spans" `Quick test_ast_spans;
          Alcotest.test_case "elab error span" `Quick test_elab_error_span;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "operators" `Quick test_elab_operators;
          Alcotest.test_case "concat/slice" `Quick test_elab_concat_slice;
          Alcotest.test_case "reduce/logic" `Quick test_elab_reduce_logic;
          Alcotest.test_case "if priority" `Quick test_elab_if_priority;
          Alcotest.test_case "case semantics" `Quick test_elab_case_semantics;
          Alcotest.test_case "casez priority" `Quick test_elab_casez_priority;
          Alcotest.test_case "unsized decimal keeps its bits" `Quick
            test_elab_unsized_decimal;
          Alcotest.test_case "styles equivalent" `Quick test_elab_styles_equivalent;
          Alcotest.test_case "blocking read-after-write" `Quick test_elab_blocking_raw;
          Alcotest.test_case "sequential always" `Quick test_elab_sequential;
          Alcotest.test_case "verilog roundtrip" `Quick test_verilog_roundtrip;
          Alcotest.test_case "errors" `Quick test_elab_errors;
          Alcotest.test_case "well-formed" `Quick test_elab_well_formed;
        ] );
    ]
