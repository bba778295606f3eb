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

(* --- per-pass cone index --- *)

(* The walk extracts one cell set per folded port, thousands per pass, on
   a circuit whose edits only substitute fanin bits.  [Cones] reproduces
   [create]/[add_cone]/[size]/[ordered_cells] from arrays over the
   pass-start cell ids: each cell's combinational drivers, filled on first
   use and forgotten by [invalidate]; stamp and best-depth marks in place
   of the two tables; and a pass-start topological rank in place of the
   per-call DFS.

   The rank stays topological for the whole pass because every edit
   replaces a fanin bit by a constant or by a bit already in that cell's
   transitive fanin (a bypassed mux's data input), whose driver ranks
   lower still. *)
module Cones = struct
  type t = {
    circuit : Circuit.t;
    index : Index.t;
    rank : int array; (* cell -> rank; negative off the combinational graph *)
    by_rank : int array; (* rank -> cell *)
    fanin : int array array; (* cell -> combinational drivers, or [unfilled] *)
    stamp : int array; (* cell -> the collection that last added it *)
    depth : int array; (* cell -> its best depth in that collection *)
    members : int array; (* the collection's cells, first [size] *)
    mutable gen : int;
    mutable size : int;
  }

  let unfilled : int array = [| -1 |]

  let create (circuit : Circuit.t) (index : Index.t) =
    let n = circuit.Circuit.next_cell_id in
    let rank = Array.make n (-1) in
    let by_rank = Array.make n (-1) in
    let next = ref 0 in
    (* post-order DFS over combinational drivers: -1 unvisited, -2 on the
       DFS path (an edge back to it is cut, as [ordered_cells] cuts it),
       -3 not a combinational cell *)
    let rec visit id =
      if rank.(id) = -1 then
        match Circuit.cell_opt circuit id with
        | Some cell when Cell.is_combinational cell ->
          rank.(id) <- -2;
          List.iter
            (fun b ->
              match Index.driving_cell index b with
              | Some (d, _) -> visit d
              | None -> ())
            (Cell.input_bits cell);
          rank.(id) <- !next;
          by_rank.(!next) <- id;
          incr next
        | Some _ | None -> rank.(id) <- -3
    in
    for id = 0 to n - 1 do
      visit id
    done;
    {
      circuit;
      index;
      rank;
      by_rank;
      fanin = Array.make n unfilled;
      stamp = Array.make n 0;
      depth = Array.make n 0;
      members = Array.make n 0;
      gen = 1;
      size = 0;
    }

  let invalidate t id = t.fanin.(id) <- unfilled

  let fanin t id =
    let f = t.fanin.(id) in
    if f != unfilled then f
    else begin
      let f =
        Cell.input_bits (Circuit.cell t.circuit id)
        |> List.filter_map (fun b ->
               match Index.driving_cell t.index b with
               | Some (d, _) when t.rank.(d) >= 0 -> Some d
               | Some _ | None -> None)
        |> List.sort_uniq Int.compare |> Array.of_list
      in
      t.fanin.(id) <- f;
      f
    end

  let start t =
    t.gen <- t.gen + 1;
    t.size <- 0

  let rec visit t ~k depth id =
    let fresh = t.stamp.(id) <> t.gen in
    if fresh || t.depth.(id) > depth then begin
      if fresh then begin
        t.stamp.(id) <- t.gen;
        t.members.(t.size) <- id;
        t.size <- t.size + 1
      end;
      t.depth.(id) <- depth;
      if depth + 1 < k then Array.iter (visit t ~k (depth + 1)) (fanin t id)
    end

  let add_cone t ~k (bit : Bits.bit) =
    if k > 0 then
      match Index.driving_cell t.index bit with
      | Some (id, _) when t.rank.(id) >= 0 -> visit t ~k 0 id
      | Some _ | None -> ()

  let size t = t.size

  let ordered_cells t =
    let ranks = Array.init t.size (fun i -> t.rank.(t.members.(i))) in
    Array.sort Int.compare ranks;
    Array.map (fun r -> t.by_rank.(r)) ranks
end
