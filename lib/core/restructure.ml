(* Muxtree restructuring (Section III, Algorithm 1).

   For every rebuildable muxtree (single selector signal, eq/logic_not
   selects), [Add.of_rows] builds the rows into an ADD over the selector
   *bits* with the paper's greedy split ([Fewest_terminals]): at each node
   pick the bit that minimizes the total number of distinct terminals in
   the two children.  Identical subtrees are shared (hash-consing), so the
   result is a DAG of 2:1 muxes controlled directly by selector bits.

   The [Check] step decides whether rebuilding pays off, accounting for the
   data width (a w-bit mux becomes w single-bit muxes after techmapping)
   and for eq gates that must stay because other logic reads them. *)

open Netlist
module Add = Add_bdd.Add

(* --- cost model --- *)

(* Approximate AIG cost of the select cells (what removing them saves). *)
let select_cell_cost (cell : Cell.t) =
  match cell with
  | Cell.Binary { op = Cell.Eq; a; _ } -> (4 * Bits.width a) - 1
  | Cell.Unary { op = Cell.Logic_not; a; _ } -> Bits.width a
  | Cell.Binary { op = Cell.Or; _ } -> 1
  | Cell.Binary _ | Cell.Unary _ | Cell.Mux _ | Cell.Pmux _ | Cell.Dff _ -> 0

let mux_cost ~width = 3 * width

(* Muxes the original tree techmaps to. *)
let old_mux_count (c : Circuit.t) (flat : Muxtree.flat) =
  List.fold_left
    (fun acc id ->
      match Circuit.cell c id with
      | Cell.Mux _ -> acc + 1
      | Cell.Pmux { s; _ } -> acc + Bits.width s
      | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> acc)
    0 flat.Muxtree.tree_cells

(* Select cells whose outputs are read only inside this muxtree. *)
let removable_selects (c : Circuit.t) (index : Index.t)
    (flat : Muxtree.flat) : int list =
  let inside = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace inside id ()) flat.Muxtree.tree_cells;
  List.iter (fun id -> Hashtbl.replace inside id ()) flat.Muxtree.select_cells;
  List.filter
    (fun id ->
      let y = Cell.output (Circuit.cell c id) in
      (not (Array.exists (Index.is_exported index) y))
      && Array.for_all
           (fun b ->
             List.for_all
               (fun rid -> Hashtbl.mem inside rid)
               (Index.readers index b))
           y)
    flat.Muxtree.select_cells

type decision = {
  flat : Muxtree.flat;
  tree : Add.t;
  terminals : Bits.sigspec array; (* leaf sigspecs by terminal id *)
  new_muxes : int;
  old_muxes : int;
  removable : int list;
  saved_cost : int; (* positive = rebuild pays off *)
  height : int;
}

let rec height (t : Add.t) =
  match t.Add.node with
  | Add.Leaf _ -> 0
  | Add.Node { lo; hi; _ } -> 1 + max (height lo) (height hi)

(* Algorithm 1's Check. *)
let evaluate (c : Circuit.t) (index : Index.t) (flat : Muxtree.flat) :
    decision =
  (* terminal ids: distinct leaf sigspecs (default = id 0) *)
  let terminals = ref [ flat.Muxtree.default ] in
  let term_of (s : Bits.sigspec) =
    let rec find i = function
      | [] ->
        terminals := !terminals @ [ s ];
        i
      | t :: rest -> if Bits.equal t s then i else find (i + 1) rest
    in
    find 0 !terminals
  in
  let rows =
    List.map
      (fun (r : Muxtree.row) -> r.Muxtree.cube, term_of r.Muxtree.value)
      flat.Muxtree.rows
  in
  let tree =
    Add.of_rows (Add.manager ()) ~split:Add.Fewest_terminals
      ~num_vars:(Bits.width flat.Muxtree.selector) rows ~default:0
  in
  let new_muxes = Add.count_nodes tree in
  let old_muxes = old_mux_count c flat in
  let removable = removable_selects c index flat in
  let width = flat.Muxtree.width in
  let old_cost =
    (old_muxes * mux_cost ~width)
    + List.fold_left
        (fun acc id -> acc + select_cell_cost (Circuit.cell c id))
        0 removable
  in
  let new_cost = new_muxes * mux_cost ~width in
  {
    flat;
    tree;
    terminals = Array.of_list !terminals;
    new_muxes;
    old_muxes;
    removable;
    saved_cost = old_cost - new_cost;
    height = height tree;
  }

(* --- rebuild --- *)

let m_cells_removed = Obs.Metrics.counter "flow.cells_removed"

(* The lower nodes become fresh muxes; the top node takes over the old
   root's output bits, so every reader keeps reading the bits it read.
   A tree that is one leaf has no top mux: its readers, which the index
   (built for this tree) names exactly, are rewired to the leaf. *)
let rebuild (c : Circuit.t) (index : Index.t) (d : decision) =
  let flat = d.flat in
  let memo = Hashtbl.create 64 in
  let rec emit (t : Add.t) : Bits.sigspec =
    match Hashtbl.find_opt memo t.Add.id with
    | Some s -> s
    | None ->
      let s =
        match t.Add.node with
        | Add.Leaf term -> d.terminals.(term)
        | Add.Node { var; lo; hi } ->
          let lo_s = emit lo and hi_s = emit hi in
          Circuit.mk_mux c ~a:lo_s ~b:hi_s ~s:flat.Muxtree.selector.(var)
      in
      Hashtbl.replace memo t.Add.id s;
      s
  in
  let y = Cell.output (Circuit.cell c flat.Muxtree.root) in
  Circuit.remove_cell c flat.Muxtree.root;
  (match d.tree.Add.node with
  | Add.Node { var; lo; hi } ->
    let a = emit lo and b = emit hi in
    ignore
      (Circuit.add_cell c (Cell.Mux { a; b; s = flat.Muxtree.selector.(var); y }))
  | Add.Leaf term ->
    let subst = Rewire.create c in
    Rewire.record subst ~from_:y ~to_:d.terminals.(term);
    Array.iter
      (fun b ->
        List.iter (fun id -> ignore (Rewire.cell subst id)) (Index.readers index b))
      y);
  Obs.Metrics.incr m_cells_removed;
  Obs.Provenance.emit ~kind:Obs.Provenance.Tree_rebuilt
    ~cell:flat.Muxtree.root ~pass:"restructure"
    ~mechanism:Obs.Provenance.Restructure
    ~bits:flat.Muxtree.width ~area_delta:(-d.saved_cost) ();
  Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed
    ~cell:flat.Muxtree.root ~pass:"restructure"
    ~mechanism:Obs.Provenance.Restructure ()

(* --- the pass --- *)

let m_candidates = Obs.Metrics.counter "restructure.candidates"
let m_rebuilt = Obs.Metrics.counter "restructure.rebuilt"
let m_muxes_after = Obs.Metrics.counter "restructure.muxes_after"
let m_eq_removed = Obs.Metrics.counter "restructure.eq_removed"
let h_rows = Obs.Metrics.histogram "restructure.rows_per_tree"
let h_chain_len = Obs.Metrics.histogram "restructure.old_muxes_per_tree"
let h_height = Obs.Metrics.histogram "restructure.tree_height"

let run_once (c : Circuit.t) : int =
  Obs.Trace.with_span "restructure.run_once" @@ fun () ->
  (* candidates are discovered once; each is re-flattened against the
     current circuit just before rebuilding, since rebuilding one tree can
     refresh the data leaves of another *)
  let first = Index.build c in
  let roots =
    List.map (fun f -> f.Muxtree.root) (Muxtree.find_all c first)
  in
  Obs.Metrics.add m_candidates (List.length roots);
  let rebuilt = ref 0 in
  (* built when missing, dropped after each rebuilt tree: a rebuilt root
     may have been the other reader of a shared select *)
  let index = ref (Some first) in
  List.iter
    (fun root ->
      if Budget.exhausted () then
        (* pass budget blown: leave the remaining trees as they are *)
        Budget.note_truncation ()
      else
      let idx =
        match !index with
        | Some idx -> idx
        | None ->
          let idx = Index.build c in
          index := Some idx;
          idx
      in
      match Muxtree.flatten c idx root with
      | None -> ()
      | Some flat ->
        let d = evaluate c idx flat in
        Obs.Metrics.observe_int h_rows (List.length flat.Muxtree.rows);
        Obs.Metrics.observe_int h_chain_len d.old_muxes;
        Obs.Metrics.observe_int h_height d.height;
        if d.saved_cost > 0 then begin
          rebuild c idx d;
          index := None;
          incr rebuilt;
          Obs.Metrics.add m_muxes_after d.new_muxes;
          Obs.Metrics.add m_eq_removed (List.length d.removable)
        end
        else Obs.Metrics.add m_muxes_after d.old_muxes)
    roots;
  Obs.Metrics.add m_rebuilt !rebuilt;
  !rebuilt
