(* Constant folding and wire-level simplification, a la Yosys `opt_expr`.

   - cells whose outputs are fully determined by constant inputs are
     replaced by constants;
   - transparent cells (or with 0, and with all-ones, xor with 0, mux with
     constant select or equal branches) are removed by rewiring readers;
   - $eq/$ne of syntactically identical operands fold to constants.

   Cells driving output ports are kept as buffers (free after aigmap). *)

open Netlist

let output_is_port (c : Circuit.t) (cell : Cell.t) =
  Array.exists (Rewire.is_output_bit c) (Cell.output cell)

(* Try to const-evaluate the cell with a 3-valued pass (non-constant inputs
   read as X).  Returns the constant output sigspec if fully determined. *)
let try_const_eval (cell : Cell.t) : Bits.sigspec option =
  let env = Rtl_sim.Eval.create_env () in
  Rtl_sim.Eval.eval_cell env cell;
  let y = Cell.output cell in
  let out =
    Array.map
      (fun b ->
        match Rtl_sim.Eval.read env b with
        | Rtl_sim.Value.V0 -> Some Bits.C0
        | Rtl_sim.Value.V1 -> Some Bits.C1
        | Rtl_sim.Value.Vx -> None)
      y
  in
  if Array.for_all Option.is_some out then
    Some (Array.map Option.get out)
  else None

(* A transparent replacement: the cell's output equals this input signal. *)
let try_passthrough (cell : Cell.t) : Bits.sigspec option =
  let all_const v s = Array.for_all (Bits.bit_equal v) s in
  match cell with
  | Cell.Binary { op = Cell.Or; a; b; _ } ->
    if all_const Bits.C0 b then Some a
    else if all_const Bits.C0 a then Some b
    else None
  | Cell.Binary { op = Cell.And; a; b; _ } ->
    if all_const Bits.C1 b then Some a
    else if all_const Bits.C1 a then Some b
    else None
  | Cell.Binary { op = Cell.Xor; a; b; _ } ->
    if all_const Bits.C0 b then Some a
    else if all_const Bits.C0 a then Some b
    else None
  | Cell.Binary { op = Cell.Add; a; b; _ } ->
    if all_const Bits.C0 b then Some a
    else if all_const Bits.C0 a then Some b
    else None
  | Cell.Binary { op = Cell.Sub; a; b; _ } ->
    if all_const Bits.C0 b then Some a else None
  | Cell.Mux { a; b; s; _ } -> (
    match s with
    | Bits.C0 -> Some a
    | Bits.C1 -> Some b
    | Bits.Cx | Bits.Of_wire _ -> if Bits.equal a b then Some a else None)
  | Cell.Pmux { a; b; s; _ } ->
    (* all selects constant zero: default; a constant-one select with all
       earlier selects zero: that part *)
    let w = Bits.width a in
    let rec scan i =
      if i >= Bits.width s then Some a
      else
        match s.(i) with
        | Bits.C0 -> scan (i + 1)
        | Bits.C1 -> Some (Bits.slice b ~off:(i * w) ~len:w)
        | Bits.Cx | Bits.Of_wire _ -> None
    in
    scan 0
  | Cell.Binary
      { op = Cell.Eq | Cell.Ne | Cell.Xnor | Cell.Logic_and | Cell.Logic_or; _ }
  | Cell.Unary _ | Cell.Dff _ -> None

(* Structural identities: eq/ne of identical signals. *)
let try_identity (cell : Cell.t) : Bits.sigspec option =
  match cell with
  | Cell.Binary { op = Cell.Eq; a; b; _ }
    when Bits.equal a b && not (Array.exists (Bits.bit_equal Bits.Cx) a) ->
    Some [| Bits.C1 |]
  | Cell.Binary { op = Cell.Ne; a; b; _ }
    when Bits.equal a b && not (Array.exists (Bits.bit_equal Bits.Cx) a) ->
    Some [| Bits.C0 |]
  | Cell.Binary _ | Cell.Unary _ | Cell.Mux _ | Cell.Pmux _ | Cell.Dff _ ->
    None

let m_cells_removed = Obs.Metrics.counter "flow.cells_removed"

let simplify_cell (pending : Rewire.t) (c : Circuit.t) id (cell : Cell.t) :
    bool =
  let y = Cell.output cell in
  let is_port = output_is_port c cell in
  let replace_with ~reason to_ =
    if is_port then begin
      (* ports cannot be renamed: normalize to a buffer driving the port *)
      let normalized =
        Cell.Binary
          { op = Cell.Or; a = to_; b = Bits.all_zero ~width:(Bits.width y); y }
      in
      if cell = normalized then false
      else begin
        (* readers other than the port itself can use [to_] directly *)
        Circuit.replace_cell c id normalized;
        true
      end
    end
    else begin
      Rewire.record pending ~from_:y ~to_;
      Circuit.remove_cell c id;
      Obs.Metrics.incr m_cells_removed;
      Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:id
        ~pass:"opt_expr" ~mechanism:(Obs.Provenance.Rule reason)
        ~area_delta:(-Stats.approx_cell_area cell) ();
      true
    end
  in
  match try_const_eval cell with
  | Some consts when Cell.is_combinational cell ->
    replace_with ~reason:"const_fold" consts
  | Some _ | None -> (
    match try_identity cell with
    | Some v -> replace_with ~reason:"identity" v
    | None -> (
      match try_passthrough cell with
      | Some v -> replace_with ~reason:"passthrough" v
      | None -> false))

let m_folded = Obs.Metrics.counter "opt_expr.folded"

(* Run to fixpoint; returns the number of removed cells.  A sweep visits
   the cells in ascending id order, each through the pending substitution,
   and rewires the readers of what it removed once, at its end. *)
let run (c : Circuit.t) : int =
  Obs.Trace.with_span "opt_expr.run" @@ fun () ->
  let pending = Rewire.create c in
  let total = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun id ->
        match Rewire.cell pending id with
        | Some cell ->
          if simplify_cell pending c id cell then begin
            incr total;
            progress := true
          end
        | None -> ())
      (Circuit.cell_ids c);
    Rewire.flush pending
  done;
  Obs.Metrics.add m_folded !total;
  !total
