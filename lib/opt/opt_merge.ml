(* Structural cell sharing, a la Yosys `opt_merge`: combinational cells with
   identical kind and identical input connections are merged; readers of the
   duplicate's outputs are rewired to the survivor. *)

open Netlist

(* A structural key for a cell: the cell itself with its output dropped
   ([Cell.check_widths] fixes the output width from the op and the inputs)
   and the operands of a commutative op in [compare] order. *)
let cell_key (cell : Cell.t) : Cell.t option =
  match cell with
  | Cell.Unary u -> Some (Cell.Unary { u with y = [||] })
  | Cell.Binary { op; a; b; y = _ } ->
    let commutative =
      match op with
      | Cell.And | Cell.Or | Cell.Xor | Cell.Xnor | Cell.Eq | Cell.Ne
      | Cell.Add | Cell.Logic_and | Cell.Logic_or -> true
      | Cell.Sub -> false
    in
    let a, b = if commutative && compare b a < 0 then b, a else a, b in
    Some (Cell.Binary { op; a; b; y = [||] })
  | Cell.Mux m -> Some (Cell.Mux { m with y = [||] })
  | Cell.Pmux p -> Some (Cell.Pmux { p with y = [||] })
  | Cell.Dff _ -> None

(* The polymorphic hash stops after 10 meaningful words, so [eq] cells that
   compare one selector against different constants would share a bucket;
   this one folds every input bit. *)
module Key_tbl = Hashtbl.Make (struct
  type t = Cell.t

  let equal = ( = )

  let hash_bit h (b : Bits.bit) =
    let v =
      match b with
      | Bits.C0 -> 0
      | Bits.C1 -> 1
      | Bits.Cx -> 2
      | Bits.Of_wire (w, o) -> 3 + (w lsl 8) + o
    in
    (h * 65599) + v

  let hash_bits h (s : Bits.sigspec) = Array.fold_left hash_bit h s

  let hash (cell : Cell.t) =
    match cell with
    | Cell.Unary { op; a; _ } -> hash_bits (Hashtbl.hash op) a
    | Cell.Binary { op; a; b; _ } ->
      hash_bits (hash_bits (Hashtbl.hash op + 16) a) b
    | Cell.Mux { a; b; s; _ } -> hash_bits (hash_bits (hash_bit 32 s) a) b
    | Cell.Pmux { a; b; s; _ } -> hash_bits (hash_bits (hash_bits 48 s) a) b
    | Cell.Dff { d; _ } -> hash_bits 64 d
end)

let m_cells_removed = Obs.Metrics.counter "flow.cells_removed"

(* One sweep in ascending id order; returns number of merged cells.  Each
   cell is read through the pending substitution, so its key sees the
   merges made earlier in the sweep; the readers are rewired at its end. *)
let run_once (c : Circuit.t) : int =
  let pending = Rewire.create c in
  let table = Key_tbl.create 64 in
  let merged = ref 0 in
  List.iter
    (fun id ->
      match Rewire.cell pending id with
      | None -> ()
      | Some cell -> (
        match cell_key cell with
        | None -> ()
        | Some key -> (
          match Key_tbl.find_opt table key with
          | None -> Key_tbl.replace table key id
          | Some survivor_id ->
            let survivor = Circuit.cell c survivor_id in
            let y_dup = Cell.output cell in
            Circuit.remove_cell c id;
            Obs.Metrics.incr m_cells_removed;
            Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:id
              ~pass:"opt_merge" ~mechanism:(Obs.Provenance.Rule "merge")
              ~area_delta:(-Stats.approx_cell_area cell) ();
            Rewire.record pending ~from_:y_dup ~to_:(Cell.output survivor);
            incr merged)))
    (Circuit.cell_ids c);
  Rewire.flush pending;
  !merged

let m_merged = Obs.Metrics.counter "opt_merge.merged"

let run (c : Circuit.t) : int =
  Obs.Trace.with_span "opt_merge.run" @@ fun () ->
  let total = ref 0 in
  let rec fix iter =
    if iter < 8 then begin
      let n = run_once c in
      total := !total + n;
      if n > 0 then fix (iter + 1)
    end
  in
  fix 0;
  Obs.Metrics.add m_merged !total;
  !total
