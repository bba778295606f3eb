(* Sub-graph extraction for the SAT-based redundancy elimination.

   While traversing a muxtree, each encountered control port contributes the
   logic gates within distance [k] of it (transitive fanin, bounded depth).
   Sequential cells are excluded so the sub-graph remains a DAG; their
   outputs act as free sources.

   A query's sub-graph is built from the cones of exactly its relevant bits
   (the target or port bits and the known signals), so it is already the
   set Theorem II.1 keeps: every cell lies on a fanin path to a relevant
   bit and shares that bit's sources.  Only a cell whose whole fanin is
   constant could be grouped apart, and opt_expr folds those first.

   A walk extracts one cell set per folded port and per ladder query,
   thousands per pass, on a circuit whose edits only substitute fanin
   bits.  So the kernel keeps arrays over the creation-time cell ids: each
   cell's combinational drivers, filled on first use and forgotten by
   [replace]; stamp and best-depth marks for the current set; and a
   creation-time topological rank in place of a per-set DFS.

   The rank stays topological for the whole pass because every edit
   replaces a fanin bit by a constant or by a bit already in that cell's
   transitive fanin (a bypassed mux's data input), whose driver ranks
   lower still. *)

open Netlist

type t = {
  circuit : Circuit.t;
  index : Index.t;
  rank : int array; (* cell -> rank; negative off the combinational graph *)
  by_rank : int array; (* rank -> cell *)
  fanin : int array array; (* cell -> combinational drivers, or [unfilled] *)
  stamp : int array; (* cell -> the set that last added it *)
  depth : int array; (* cell -> its best depth in that set *)
  members : int array; (* the current set's cells, first [size] *)
  mutable gen : int;
  mutable size : int;
  facts : Inference.Dense.t;
}

let unfilled : int array = [| -1 |]

let create (circuit : Circuit.t) (index : Index.t) =
  let n = circuit.Circuit.next_cell_id in
  let rank = Array.make n (-1) in
  let by_rank = Array.make n (-1) in
  let next = ref 0 in
  (* post-order DFS over combinational drivers: -1 unvisited, -2 on the
     DFS path (an edge back to it is cut), -3 not a combinational cell *)
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
    facts = Inference.Dense.create circuit;
  }

let circuit t = t.circuit
let facts t = t.facts

let replace t id cell =
  Circuit.replace_cell t.circuit id cell;
  t.fanin.(id) <- unfilled

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

(* A cell seen again at a smaller depth is revisited, so the set holds
   every cell within [k] of the bit along some path. *)
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

let computes t b =
  match Index.driving_cell t.index b with
  | Some (id, _) -> t.stamp.(id) = t.gen
  | None -> false

let sources t =
  let acc = ref [] in
  for i = 0 to t.size - 1 do
    List.iter
      (fun b ->
        if not (Bits.is_const b || computes t b) then acc := b :: !acc)
      (Cell.input_bits (Circuit.cell t.circuit t.members.(i)))
  done;
  List.sort_uniq Bits.bit_compare !acc
