(* Tests for the netlist IR: bits, cells, circuit, indices, topo, validate. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Bits --- *)

let test_bits_of_to_int () =
  let s = Bits.of_int ~width:8 0xA5 in
  check_int "roundtrip" 0xA5 (Bits.to_int s);
  check_int "width" 8 (Bits.width s);
  check_bool "const" true (Bits.is_fully_const s)

let test_bits_slice_concat () =
  let s = Bits.of_int ~width:8 0xA5 in
  let lo = Bits.slice s ~off:0 ~len:4 in
  let hi = Bits.slice s ~off:4 ~len:4 in
  check_int "lo" 0x5 (Bits.to_int lo);
  check_int "hi" 0xA (Bits.to_int hi);
  check_int "concat" 0xA5 (Bits.to_int (Bits.concat [ lo; hi ]));
  Alcotest.check_raises "slice oob" (Invalid_argument "Bits.slice") (fun () ->
      ignore (Bits.slice s ~off:6 ~len:4))

let test_bits_extend () =
  let s = Bits.of_int ~width:4 0xF in
  check_int "zero extend" 0xF (Bits.to_int (Bits.extend s ~width:8));
  check_int "truncate" 0x3 (Bits.to_int (Bits.extend s ~width:2))

let test_bits_to_int_x () =
  Alcotest.check_raises "x bit" (Invalid_argument "Bits.to_int: non-binary bit")
    (fun () -> ignore (Bits.to_int [| Bits.Cx |]))

(* --- Cells --- *)

let test_cell_widths () =
  let a = Bits.of_int ~width:4 0 and y1 = Bits.of_int ~width:1 0 in
  (* bad: $not with different widths *)
  check_bool "not bad" true
    (match Cell.check_widths (Cell.Unary { op = Cell.Not; a; y = y1 }) with
    | () -> false
    | exception Cell.Width_error _ -> true);
  (* good: logic_not any width -> 1 *)
  Cell.check_widths (Cell.Unary { op = Cell.Logic_not; a; y = y1 });
  (* bad pmux: |b| <> |s|*|a| *)
  check_bool "pmux bad" true
    (match
       Cell.check_widths
         (Cell.Pmux
            {
              a;
              b = Bits.of_int ~width:4 0;
              s = Bits.of_int ~width:2 0;
              y = a;
            })
     with
    | () -> false
    | exception Cell.Width_error _ -> true)

let test_cell_ports () =
  let a = Bits.of_int ~width:2 1 and b = Bits.of_int ~width:2 2 in
  let y = Bits.of_int ~width:2 0 in
  let m = Cell.Mux { a; b; s = Bits.C1; y } in
  check_int "inputs" 5 (List.length (Cell.input_bits m));
  check_int "outputs" 2 (List.length (Cell.output_bits m));
  check_int "controls" 1 (List.length (Cell.control_bits m));
  check_bool "comb" true (Cell.is_combinational m);
  check_bool "dff not comb" false
    (Cell.is_combinational (Cell.Dff { d = a; q = y }))

(* --- Circuit + Index --- *)

let build_simple () =
  (* y = (a & b) | c *)
  let c = Circuit.create "simple" in
  let a = Circuit.add_input c "a" ~width:4 in
  let b = Circuit.add_input c "b" ~width:4 in
  let cc = Circuit.add_input c "c" ~width:4 in
  let ab =
    Circuit.mk_binary c Cell.And (Circuit.sig_of_wire a) (Circuit.sig_of_wire b)
  in
  let y = Circuit.add_output c "y" ~width:4 in
  ignore
    (Circuit.add_cell c
       (Cell.Binary
          { op = Cell.Or; a = ab; b = Circuit.sig_of_wire cc;
            y = Circuit.sig_of_wire y }));
  c

let test_circuit_basics () =
  let c = build_simple () in
  check_int "cells" 2 (Circuit.cell_count c);
  check_int "inputs" 3 (List.length (Circuit.inputs c));
  check_int "outputs" 1 (List.length (Circuit.outputs c));
  check_bool "well formed" true (Validate.is_well_formed c)

let test_index () =
  let c = build_simple () in
  let idx = Index.build c in
  let y = List.hd (Circuit.outputs c) in
  let yb = Bits.Of_wire (y.Circuit.wire_id, 0) in
  (match Index.driver idx yb with
  | Index.Driven_by (_, 0) -> ()
  | Index.Driven_by (_, _) | Index.Primary_input | Index.Undriven ->
    Alcotest.fail "expected cell driver at offset 0");
  let a = List.hd (Circuit.inputs c) in
  let ab = Bits.Of_wire (a.Circuit.wire_id, 0) in
  check_bool "input is PI" true (Index.driver idx ab = Index.Primary_input);
  check_int "a read by 1 cell" 1 (List.length (Index.readers idx ab))

(* One muxtree netlist with a child mux per kind of read: the index must
   name the (parent, side) of a child read only on one data-port side of
   one mux, and nothing for every other kind of read. *)
let test_index_dedicated_location () =
  let c = Circuit.create "readers" in
  let s = Circuit.sig_of_wire (Circuit.add_input c "s" ~width:12) in
  let d = Circuit.sig_of_wire (Circuit.add_input c "d" ~width:2) in
  let e = Circuit.sig_of_wire (Circuit.add_input c "e" ~width:2) in
  let mux ?y ~a ~b sel =
    let y =
      match y with
      | Some y -> y
      | None -> Circuit.fresh_sig c ~width:(Bits.width a)
    in
    (Circuit.add_cell c (Cell.Mux { a; b; s = sel; y }), y)
  in
  let child i = mux ~a:d ~b:e s.(i) in
  let on_a, ya = child 0 in
  let on_b, yb = child 1 in
  let parent, _ = mux ~a:ya ~b:yb s.(2) in
  let on_part, ypart = child 3 in
  let pmux =
    Circuit.add_cell c
      (Cell.Pmux
         { a = d; b = Bits.concat [ e; ypart ];
           s = [| s.(4); s.(5) |]; y = Circuit.fresh_sig c ~width:2 })
  in
  let as_select, ysel = mux ~a:[| d.(0) |] ~b:[| e.(0) |] s.(6) in
  ignore (mux ~a:d ~b:e ysel.(0));
  let by_logic, ylog = child 7 in
  let logic =
    Circuit.add_cell c
      (Cell.Binary
         { op = Cell.And; a = ylog; b = ylog; y = Circuit.fresh_sig c ~width:2 })
  in
  (* an output port, otherwise read only on one parent's a side *)
  let o = Circuit.sig_of_wire (Circuit.add_output c "o" ~width:2) in
  let exported, _ = mux ~y:o ~a:d ~b:e s.(8) in
  ignore (mux ~a:o ~b:e s.(9));
  let twice, ytw = child 10 in
  ignore (mux ~a:ytw ~b:e s.(11));
  ignore (mux ~a:ytw ~b:e s.(11));
  let unread, _ = child 11 in
  let idx = Index.build c in
  let location =
    let pp_side ppf = function
      | Index.Side_a -> Fmt.string ppf "a"
      | Index.Side_b i -> Fmt.pf ppf "b%d" i
    in
    Alcotest.(option (pair int (testable pp_side ( = ))))
  in
  let loc id = Index.dedicated_location idx (Circuit.cell c id) in
  Alcotest.check location "read on a" (Some (parent, Index.Side_a)) (loc on_a);
  Alcotest.check location "read on b" (Some (parent, Index.Side_b 0)) (loc on_b);
  Alcotest.check location "read on pmux part 1"
    (Some (pmux, Index.Side_b 1)) (loc on_part);
  List.iter
    (fun (what, id) -> Alcotest.check location what None (loc id))
    [ "read as a select", as_select; "read by a non-mux cell", by_logic;
      "exported", exported; "read at two locations", twice;
      "never read", unread ];
  Alcotest.(check (list int)) "a cell reading a bit twice is one reader"
    [ logic ] (Index.readers idx ylog.(0));
  let dr = Index.readers idx d.(0) in
  check_bool "readers distinct, ascending" true
    (dr = List.sort_uniq compare dr && List.length dr > 1);
  check_bool "output port exported" true (Index.is_exported idx o.(1));
  check_bool "inner bit not exported" false (Index.is_exported idx ya.(0));
  check_bool "input port not exported" false (Index.is_exported idx d.(0))

(* A random netlist of every cell kind.  Cells read input ports,
   constants, earlier outputs and a bit of a wire id the circuit never
   issued; some drive an output port or bits another cell drives too; one
   wire is mentioned by nothing and one read wire leaves the wire table. *)
let random_netlist seed =
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let pick a = a.(int (Array.length a)) in
  let c = Circuit.create "random" in
  let port add i = Circuit.sig_of_wire (add c (Fmt.str "p%d" i) ~width:(1 + int 3)) in
  let inputs = List.init (1 + int 3) (port Circuit.add_input) in
  let outputs = Array.init (1 + int 2) (fun i -> port Circuit.add_output (10 + i)) in
  ignore (Circuit.add_wire c ~width:2 ());
  let stray = Bits.Of_wire (c.Circuit.next_wire_id + 3, 1) in
  let pool =
    Bits.C0 :: Bits.C1 :: stray :: List.concat_map Array.to_list inputs
    |> Array.of_list |> ref
  in
  let driven = ref [||] in
  let bits w = Array.init w (fun _ -> pick !pool) in
  for _ = 1 to 4 + int 14 do
    let y =
      match int 8 with
      | 0 -> pick outputs
      | 1 when !driven <> [||] -> pick !driven
      | _ -> Circuit.fresh_sig c ~width:(1 + int 2)
    in
    let w = Bits.width y in
    let cell =
      match int 5 with
      | 0 -> Cell.Mux { a = bits w; b = bits w; s = pick !pool; y }
      | 1 ->
        let n = 1 + int 3 in
        Cell.Pmux { a = bits w; b = bits (n * w); s = bits n; y }
      | 2 -> Cell.Binary { op = Cell.And; a = bits w; b = bits w; y }
      | 3 -> Cell.Unary { op = Cell.Not; a = bits w; y }
      | _ -> Cell.Dff { d = bits w; q = y }
    in
    ignore (Circuit.add_cell c cell);
    driven := Array.append !driven [| y |];
    pool := Array.append !pool y
  done;
  (match Array.to_list !pool |> List.rev with
  | Bits.Of_wire (w, _) :: _ when int 2 = 0 -> Circuit.remove_wire c w
  | _ -> ());
  (c, stray)

(* The index answers what a scan of every cell and port answers. *)
let prop_index_matches_scan =
  QCheck.Test.make ~count:300 ~name:"index matches a scan"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c, stray = random_netlist seed in
      let idx = Index.build c in
      let cells = Circuit.fold_cells (fun id cell l -> (id, cell) :: l) c [] in
      let cell_reads cell =
        let port side s = List.map (fun bit -> (bit, side)) (Array.to_list s) in
        match cell with
        | Cell.Mux { a; b; s; _ } ->
          port (Some Index.Side_a) a @ port (Some (Index.Side_b 0)) b
          @ [ (s, None) ]
        | Cell.Pmux { a; b; s; _ } ->
          let w = Bits.width a in
          port (Some Index.Side_a) a
          @ List.mapi
              (fun i bit -> (bit, Some (Index.Side_b (i / w))))
              (Array.to_list b)
          @ port None s
        | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ ->
          List.map (fun bit -> (bit, None)) (Cell.input_bits cell)
      in
      let reads b =
        if Bits.is_const b then []
        else
          List.concat_map
            (fun (id, cell) ->
              List.filter_map
                (fun (bit, side) ->
                  if Bits.bit_equal bit b then Some (id, side) else None)
                (cell_reads cell))
            cells
      in
      let exported b = List.exists (Bits.bit_equal b) (Circuit.output_bits c) in
      let driver b =
        let d = ref Index.Undriven in
        if not (Bits.is_const b) then begin
          if List.exists (Bits.bit_equal b) (Circuit.input_bits c) then
            d := Index.Primary_input;
          (* cells in table order, the last writer of a bit wins *)
          Circuit.iter_cells
            (fun id cell ->
              Array.iteri
                (fun off y ->
                  if Bits.bit_equal y b then d := Index.Driven_by (id, off))
                (Cell.output cell))
            c
        end;
        !d
      in
      let location cell =
        let all = Array.to_list (Cell.output cell) |> List.concat_map reads in
        if Array.exists exported (Cell.output cell)
           || List.exists (fun (_, side) -> side = None) all
        then None
        else
          match List.sort_uniq compare all with
          | [ (id, Some side) ] -> Some (id, side)
          | _ -> None
      in
      let universe =
        [ Bits.Cx; Bits.Of_wire (-1, 0); stray ]
        @ List.concat_map
            (fun (_, cell) -> Array.to_list (Cell.output cell) @ Cell.input_bits cell)
            cells
        @ List.init c.Circuit.next_wire_id (fun w -> Bits.Of_wire (w, 0))
        @ List.init c.Circuit.next_wire_id (fun w -> Bits.Of_wire (w, 2))
      in
      List.iter
        (fun b ->
          let ids = List.sort_uniq compare (List.map fst (reads b)) in
          if Index.driver idx b <> driver b then
            QCheck.Test.fail_reportf "driver of %a" Bits.pp_bit b;
          if Index.readers idx b <> ids then
            QCheck.Test.fail_reportf "readers of %a" Bits.pp_bit b;
          if Index.is_exported idx b <> exported b then
            QCheck.Test.fail_reportf "is_exported %a" Bits.pp_bit b)
        universe;
      List.iter
        (fun (id, cell) ->
          if Index.dedicated_location idx cell <> location cell then
            QCheck.Test.fail_reportf "dedicated_location of cell %d" id)
        cells;
      true)

let test_topo_and_depth () =
  let c = build_simple () in
  let order = Topo.sort c in
  check_int "both cells ordered" 2 (List.length order);
  check_int "depth" 2 (Topo.logic_depth c);
  check_bool "acyclic" true (Topo.is_acyclic c)

let test_cycle_detection () =
  let c = Circuit.create "cyc" in
  let w1 = Circuit.add_wire c ~width:1 () in
  let w2 = Circuit.add_wire c ~width:1 () in
  let b1 = Circuit.bit_of_wire w1 and b2 = Circuit.bit_of_wire w2 in
  let id1 =
    Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| b1 |]; y = [| b2 |] })
  in
  let id2 =
    Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| b2 |]; y = [| b1 |] })
  in
  check_bool "cyclic" false (Topo.is_acyclic c);
  let cycles =
    List.filter_map
      (function Validate.Cyclic cells -> Some cells | _ -> None)
      (Validate.check c)
  in
  check_int "validate flags one cycle" 1 (List.length cycles);
  (* the witness is the concrete shortest cycle: both inverters *)
  check_int "witness length" 2 (List.length (List.hd cycles));
  check_bool "witness cells" true
    (List.sort compare (List.hd cycles) = List.sort compare [ id1; id2 ])

let test_dff_breaks_cycle () =
  let c = Circuit.create "seq" in
  let w1 = Circuit.add_wire c ~width:1 () in
  let w2 = Circuit.add_wire c ~width:1 () in
  let b1 = Circuit.bit_of_wire w1 and b2 = Circuit.bit_of_wire w2 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary { op = Cell.Not; a = [| b1 |]; y = [| b2 |] }));
  ignore (Circuit.add_cell c (Cell.Dff { d = [| b2 |]; q = [| b1 |] }));
  check_bool "dff breaks loop" true (Topo.is_acyclic c)

let test_validate_multiple_drivers () =
  let c = Circuit.create "md" in
  let a = Circuit.add_input c "a" ~width:1 in
  let y = Circuit.add_wire c ~width:1 () in
  let ab = Circuit.bit_of_wire a and yb = Circuit.bit_of_wire y in
  ignore
    (Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| ab |]; y = [| yb |] }));
  ignore
    (Circuit.add_cell c (Cell.Unary { op = Cell.Not; a = [| ab |]; y = [| yb |] }));
  check_bool "flagged" true
    (List.exists
       (function Validate.Multiple_drivers _ -> true | _ -> false)
       (Validate.check c))

let test_validate_dangling () =
  let c = Circuit.create "dangle" in
  let w = Circuit.add_wire c ~width:1 () in
  let y = Circuit.add_output c "y" ~width:1 in
  ignore
    (Circuit.add_cell c
       (Cell.Unary
          { op = Cell.Not; a = [| Circuit.bit_of_wire w |];
            y = [| Circuit.bit_of_wire y |] }));
  check_bool "flagged" true
    (List.exists
       (function Validate.Dangling_wire_bit _ -> true | _ -> false)
       (Validate.check c))

let test_validate_width_violation () =
  let c = Circuit.create "wv" in
  let a = Circuit.add_input c "a" ~width:1 in
  let y = Circuit.add_wire c ~width:2 () in
  let ys = Circuit.sig_of_wire y in
  (* bypass add_cell's width check to seed an ill-widthed cell, the way a
     buggy pass would corrupt the table in place *)
  let id = c.Circuit.next_cell_id in
  c.Circuit.next_cell_id <- id + 1;
  Hashtbl.replace c.Circuit.cells id
    (Cell.Unary { op = Cell.Not; a = [| Circuit.bit_of_wire a |]; y = ys });
  check_bool "flagged" true
    (List.exists
       (function Validate.Width_violation (cid, _) -> cid = id | _ -> false)
       (Validate.check c))

let test_validate_unknown_wire () =
  let c = Circuit.create "uw" in
  let a = Circuit.add_input c "a" ~width:1 in
  let y = Circuit.add_wire c ~width:1 () in
  ignore
    (Circuit.add_cell c
       (Cell.Unary
          { op = Cell.Not; a = [| Circuit.bit_of_wire a |];
            y = [| Circuit.bit_of_wire y |] }));
  Circuit.remove_wire c y.Circuit.wire_id;
  check_bool "flagged" true
    (List.exists
       (function Validate.Unknown_wire wid -> wid = y.Circuit.wire_id | _ -> false)
       (Validate.check c))

let test_cycle_witness_is_shortest () =
  (* a 3-ring w0 -> w1 -> w2 -> w0 plus a shortcut w1 -> w0: the shortest
     cycle is the 2-cell loop through the shortcut, and that is what the
     witness must report regardless of which loop the DFS tripped over *)
  let c = Circuit.create "loops" in
  let w = Array.init 3 (fun _ -> Circuit.add_wire c ~width:1 ()) in
  let b i = Circuit.bit_of_wire w.(i) in
  let inv a y = Cell.Unary { op = Cell.Not; a = [| a |]; y = [| y |] } in
  let a0 = Circuit.add_cell c (inv (b 0) (b 1)) in
  ignore (Circuit.add_cell c (inv (b 1) (b 2)));
  ignore (Circuit.add_cell c (inv (b 2) (b 0)));
  let shortcut = Circuit.add_cell c (inv (b 1) (b 0)) in
  let cycles =
    List.filter_map
      (function Validate.Cyclic cells -> Some cells | _ -> None)
      (Validate.check c)
  in
  check_int "one cycle reported" 1 (List.length cycles);
  check_int "witness is the short loop" 2 (List.length (List.hd cycles));
  check_bool "witness cells" true
    (List.sort compare (List.hd cycles) = List.sort compare [ a0; shortcut ])

(* --- Rewire --- *)

let test_rewire () =
  let c = build_simple () in
  (* replace input c with constant zero in the or cell *)
  let cc = List.nth (Circuit.inputs c) 2 in
  let p = Rewire.create c in
  Rewire.record p ~from_:(Circuit.sig_of_wire cc) ~to_:(Bits.all_zero ~width:4);
  Rewire.flush p;
  let ok = ref true in
  Circuit.iter_cells
    (fun _ cell ->
      List.iter
        (fun b ->
          match b with
          | Bits.Of_wire (wid, _) when wid = cc.Circuit.wire_id -> ok := false
          | _ -> ())
        (Cell.input_bits cell))
    c;
  check_bool "no reader of c left" true !ok;
  (* c is an input port: a buffer would be a second driver *)
  check_bool "validates clean" true (Validate.check c = [])

(* A pending substitution resolves chains, skips identity pairs, buffers
   output-port bits at once and rewires the rest on flush. *)
let test_rewire_pending () =
  let c = Circuit.create "pending" in
  let a = Circuit.sig_of_wire (Circuit.add_input c "a" ~width:1) in
  let y = Circuit.sig_of_wire (Circuit.add_output c "y" ~width:1) in
  let z = Circuit.sig_of_wire (Circuit.add_output c "z" ~width:1) in
  let w1 = Circuit.fresh_sig c ~width:1 and w2 = Circuit.fresh_sig c ~width:1 in
  let inv i o = Cell.Unary { op = Cell.Not; a = i; y = o } in
  let reader = Circuit.add_cell c (inv w1 y) in
  let p = Rewire.create c in
  Rewire.record p ~from_:w1 ~to_:w2;
  Rewire.record p ~from_:w2 ~to_:a;
  Rewire.record p ~from_:a ~to_:w1;
  check_bool "chain resolved" true (Rewire.cell p reader = Some (inv a y));
  Rewire.record p ~from_:z ~to_:w2;
  let buffer = Cell.Binary { op = Cell.Or; a; b = [| Bits.C0 |]; y = z } in
  check_bool "output port buffered" true (Circuit.cell c 1 = buffer);
  let late_y = Circuit.fresh_sig c ~width:1 in
  let late = Circuit.add_cell c (inv w2 late_y) in
  Rewire.flush p;
  check_bool "flush rewires" true (Circuit.cell c late = inv a late_y);
  check_int "cells" 3 (Circuit.cell_count c)

let test_stats () =
  let c = build_simple () in
  let s = Stats.of_circuit c in
  check_int "total" 2 s.Stats.total;
  check_int "bitwise" 2 s.Stats.bitwise;
  check_int "muxes" 0 s.Stats.muxes

let () =
  Alcotest.run "netlist"
    [
      ( "bits",
        [
          Alcotest.test_case "of/to int" `Quick test_bits_of_to_int;
          Alcotest.test_case "slice/concat" `Quick test_bits_slice_concat;
          Alcotest.test_case "extend" `Quick test_bits_extend;
          Alcotest.test_case "to_int x" `Quick test_bits_to_int_x;
        ] );
      ( "cells",
        [
          Alcotest.test_case "width checks" `Quick test_cell_widths;
          Alcotest.test_case "ports" `Quick test_cell_ports;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "basics" `Quick test_circuit_basics;
          Alcotest.test_case "index" `Quick test_index;
          Alcotest.test_case "index dedicated location" `Quick
            test_index_dedicated_location;
          QCheck_alcotest.to_alcotest prop_index_matches_scan;
          Alcotest.test_case "topo + depth" `Quick test_topo_and_depth;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "dff breaks cycle" `Quick test_dff_breaks_cycle;
          Alcotest.test_case "multiple drivers" `Quick test_validate_multiple_drivers;
          Alcotest.test_case "dangling bit" `Quick test_validate_dangling;
          Alcotest.test_case "width violation" `Quick test_validate_width_violation;
          Alcotest.test_case "unknown wire" `Quick test_validate_unknown_wire;
          Alcotest.test_case "cycle witness shortest" `Quick
            test_cycle_witness_is_shortest;
          Alcotest.test_case "rewire" `Quick test_rewire;
          Alcotest.test_case "rewire pending" `Quick test_rewire_pending;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
    ]
