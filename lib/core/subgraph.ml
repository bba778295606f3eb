(* Sub-graph extraction for the SAT-based redundancy elimination.

   While traversing a muxtree, each encountered control port contributes the
   logic gates within distance [k] of it (transitive fanin, bounded depth).
   Sequential cells are excluded so the sub-graph remains a DAG; their
   outputs act as free sources.

   A query's sub-graph is built from the cones of exactly its relevant bits
   (the target or port bits and the known signals), so it is already the
   set Theorem II.1 keeps: every cell lies on a fanin path to a relevant
   bit and shares that bit's sources.  Only a cell whose whole fanin is
   constant could be grouped apart, and opt_expr folds those first. *)

open Netlist

type t = {
  circuit : Circuit.t;
  index : Index.t;
  cells : (int, unit) Hashtbl.t; (* accumulated sub-graph cells *)
  depth_of : (int, int) Hashtbl.t; (* cell -> best (smallest) depth seen *)
}

let create (circuit : Circuit.t) (index : Index.t) =
  { circuit; index; cells = Hashtbl.create 64; depth_of = Hashtbl.create 64 }

(* Add the bounded fanin cone of [bit] (gates within distance [k]). *)
let add_cone t ~k (bit : Bits.bit) =
  let rec up depth b =
    if depth < k then
      match Index.driving_cell t.index b with
      | None -> ()
      | Some (id, _) -> (
        match Circuit.cell_opt t.circuit id with
        | None -> ()
        | Some cell ->
          if Cell.is_combinational cell then begin
            let seen_better =
              match Hashtbl.find_opt t.depth_of id with
              | Some d -> d <= depth
              | None -> false
            in
            if not seen_better then begin
              Hashtbl.replace t.depth_of id depth;
              Hashtbl.replace t.cells id ();
              List.iter (up (depth + 1)) (Cell.input_bits cell)
            end
          end)
  in
  up 0 bit

let size t = Hashtbl.length t.cells

(* Topologically order the sub-graph cells (drivers first). *)
let ordered_cells t : int list =
  let state = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit id =
    match Hashtbl.find_opt state id with
    | Some _ -> ()
    | None ->
      Hashtbl.replace state id ();
      List.iter
        (fun b ->
          match Index.driving_cell t.index b with
          | Some (did, _) when Hashtbl.mem t.cells did -> visit did
          | Some _ | None -> ())
        (Cell.input_bits (Circuit.cell t.circuit id));
      order := id :: !order
  in
  List.iter visit (Hashtbl.fold (fun id () acc -> id :: acc) t.cells []);
  List.rev !order

(* A self-contained view ready for querying. *)
type view = {
  cells : int list; (* topologically ordered *)
  sources : Bits.bit list;
  source_set : unit Bits.Bit_tbl.t; (* [sources], for membership *)
  driver : int Bits.Bit_tbl.t; (* bit computed inside -> its cell *)
}

let view t : view =
  let cells = ordered_cells t in
  let driver = Bits.Bit_tbl.create 64 in
  List.iter
    (fun id ->
      List.iter
        (fun b -> Bits.Bit_tbl.replace driver b id)
        (Cell.output_bits (Circuit.cell t.circuit id)))
    cells;
  (* sources: bits read inside the sub-graph but not driven inside it *)
  let source_set = Bits.Bit_tbl.create 64 in
  List.iter
    (fun id ->
      List.iter
        (fun b ->
          if (not (Bits.is_const b)) && not (Bits.Bit_tbl.mem driver b) then
            Bits.Bit_tbl.replace source_set b ())
        (Cell.input_bits (Circuit.cell t.circuit id)))
    cells;
  let sources = Bits.Bit_tbl.fold (fun b () acc -> b :: acc) source_set [] in
  { cells; sources; source_set; driver }

let is_source (v : view) b = Bits.Bit_tbl.mem v.source_set b
let computes (v : view) b = Bits.Bit_tbl.mem v.driver b
