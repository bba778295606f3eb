(* Insert flip-flop stages behind a fraction of combinational cells.

   Realistic designs are sequential; the optimizers treat dff boundaries
   as cut points and the AIG metric excludes the registers themselves, so
   staging changes nothing about the passes except making the sub-graphs
   and cones realistic (bounded by register boundaries). *)

open Netlist

let insert_registers (c : Circuit.t) ~seed ~percent =
  let rng = Rng.create ~seed in
  let stageable cell =
    (* only stage datapath cells: registering the middle of a muxtree or a
       select cone would break structures real RTL keeps combinational *)
    match cell with
    | Cell.Binary { op = Cell.And | Cell.Or | Cell.Xor | Cell.Xnor | Cell.Add | Cell.Sub; _ }
    | Cell.Unary { op = Cell.Not; _ } -> true
    | Cell.Binary { op = Cell.Eq | Cell.Ne | Cell.Logic_and | Cell.Logic_or; _ }
    | Cell.Unary
        { op = Cell.Logic_not | Cell.Reduce_and | Cell.Reduce_or
               | Cell.Reduce_xor | Cell.Reduce_bool; _ }
    | Cell.Mux _ | Cell.Pmux _ | Cell.Dff _ -> false
  in
  let candidates =
    List.filter
      (fun id ->
        let cell = Circuit.cell c id in
        stageable cell
        && not
             (Array.exists
                (fun b -> Rewire.is_output_bit c b)
                (Cell.output cell)))
      (Circuit.cell_ids c)
  in
  List.iter
    (fun id ->
      if Rng.chance rng percent then begin
        let cell = Circuit.cell c id in
        let y = Cell.output cell in
        (* repoint the cell at a fresh wire and register it into the old
           output, so every reader now sees the dff's q *)
        let staged = Circuit.fresh_sig c ~width:(Bits.width y) in
        let repointed =
          match cell with
          | Cell.Unary u -> Cell.Unary { u with y = staged }
          | Cell.Binary b -> Cell.Binary { b with y = staged }
          | Cell.Mux m -> Cell.Mux { m with y = staged }
          | Cell.Pmux p -> Cell.Pmux { p with y = staged }
          | Cell.Dff _ -> cell
        in
        Circuit.replace_cell c id repointed;
        ignore (Circuit.add_cell c (Cell.Dff { d = staged; q = y }))
      end)
    candidates
