(* Muxtree restructuring (Section III, Algorithm 1).

   For every rebuildable muxtree (single selector signal, eq/logic_not
   selects), the rows are represented as an ADD and a decision tree over the
   selector *bits* is built with the paper's greedy heuristic: at each node
   pick the bit that minimizes the total number of distinct terminals in
   the two children.  Identical subtrees are shared (hash-consing), so the
   result is a DAG of 2:1 muxes controlled directly by selector bits.

   The [Check] step decides whether rebuilding pays off, accounting for the
   data width (a w-bit mux becomes w single-bit muxes after techmapping)
   and for eq gates that must stay because other logic reads them. *)

open Netlist

(* --- greedy decision tree with hash-consing --- *)

type tree = { tid : int; tnode : tnode }

and tnode =
  | T_leaf of int (* terminal index *)
  | T_node of { var : int; lo : tree; hi : tree }

type builder = {
  mutable next_tid : int;
  leaf_memo : (int, tree) Hashtbl.t;
  node_memo : (int * int * int, tree) Hashtbl.t;
}

let new_builder () =
  { next_tid = 0; leaf_memo = Hashtbl.create 16; node_memo = Hashtbl.create 64 }

let t_leaf bld v =
  match Hashtbl.find_opt bld.leaf_memo v with
  | Some t -> t
  | None ->
    let t = { tid = bld.next_tid; tnode = T_leaf v } in
    bld.next_tid <- bld.next_tid + 1;
    Hashtbl.replace bld.leaf_memo v t;
    t

let t_node bld ~var ~lo ~hi =
  if lo.tid = hi.tid then lo
  else begin
    let key = var, lo.tid, hi.tid in
    match Hashtbl.find_opt bld.node_memo key with
    | Some t -> t
    | None ->
      let t = { tid = bld.next_tid; tnode = T_node { var; lo; hi } } in
      bld.next_tid <- bld.next_tid + 1;
      Hashtbl.replace bld.node_memo key t;
      t
  end

let count_unique_nodes (t : tree) =
  let seen = Hashtbl.create 64 in
  let rec go t =
    if Hashtbl.mem seen t.tid then 0
    else begin
      Hashtbl.replace seen t.tid ();
      match t.tnode with
      | T_leaf _ -> 0
      | T_node { lo; hi; _ } -> 1 + go lo + go hi
    end
  in
  go t

let rec tree_height t =
  match t.tnode with
  | T_leaf _ -> 0
  | T_node { lo; hi; _ } -> 1 + max (tree_height lo) (tree_height hi)

(* Rows here use terminal ids. *)
type irow = { cube : Add_bdd.Add.pbit array; term : int }

let filter_rows rows var value =
  List.filter
    (fun r ->
      match r.cube.(var) with
      | Add_bdd.Add.Pz -> true
      | Add_bdd.Add.P0 -> value = false
      | Add_bdd.Add.P1 -> value = true)
    rows

(* Does some row match everything over [remaining] variables?  (sufficient
   check: an all-wildcard cube on those variables) *)
let covered rows remaining =
  List.exists
    (fun r ->
      List.for_all (fun v -> r.cube.(v) = Add_bdd.Add.Pz) remaining)
    rows

(* Distinct terminal values reachable from [rows] (+ default if some input
   combination can fall through). *)
let terminal_types rows remaining ~default =
  let tbl = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace tbl r.term ()) rows;
  if not (covered rows remaining) then Hashtbl.replace tbl default ();
  Hashtbl.length tbl

(* The paper's heuristic: choose the variable minimizing the total number
   of terminal types of the two children. *)
let build_greedy bld ~num_vars (rows : irow list) ~default : tree =
  let rec build avail rows =
    match rows with
    | [] -> t_leaf bld default
    | first :: _ ->
      if List.for_all (fun v -> first.cube.(v) = Add_bdd.Add.Pz) avail then
        t_leaf bld first.term
      else (
        match avail with
        | [] -> t_leaf bld first.term
        | _ ->
          let score v =
            let rem = List.filter (( <> ) v) avail in
            terminal_types (filter_rows rows v false) rem ~default
            + terminal_types (filter_rows rows v true) rem ~default
          in
          let best =
            List.fold_left
              (fun (bv, bs) v ->
                let s = score v in
                if s < bs then v, s else bv, bs)
              (-1, max_int) avail
            |> fst
          in
          let rem = List.filter (( <> ) best) avail in
          let lo = build rem (filter_rows rows best false) in
          let hi = build rem (filter_rows rows best true) in
          t_node bld ~var:best ~lo ~hi)
  in
  build (List.init num_vars (fun i -> i)) rows

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
      (not (Array.exists (Rewire.is_port_bit c) y))
      && Array.for_all
           (fun b ->
             List.for_all
               (fun rid -> Hashtbl.mem inside rid)
               (Index.readers index b))
           y)
    flat.Muxtree.select_cells

type decision = {
  flat : Muxtree.flat;
  tree : tree;
  new_muxes : int;
  old_muxes : int;
  removable : int list;
  saved_cost : int; (* positive = rebuild pays off *)
  height : int;
}

(* Algorithm 1's Check. *)
let evaluate (c : Circuit.t) (index : Index.t) (flat : Muxtree.flat) :
    decision =
  let bld = new_builder () in
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
      (fun (r : Muxtree.row) ->
        { cube = r.Muxtree.cube; term = term_of r.Muxtree.value })
      flat.Muxtree.rows
  in
  let num_vars = Bits.width flat.Muxtree.selector in
  let tree = build_greedy bld ~num_vars rows ~default:0 in
  let new_muxes = count_unique_nodes tree in
  let old_muxes = old_mux_count c flat in
  let removable = removable_selects c index flat in
  let width = flat.Muxtree.width in
  let old_cost =
    (old_mux_count c flat * mux_cost ~width)
    + List.fold_left
        (fun acc id -> acc + select_cell_cost (Circuit.cell c id))
        0 removable
  in
  let new_cost = new_muxes * mux_cost ~width in
  {
    flat;
    tree;
    new_muxes;
    old_muxes;
    removable;
    saved_cost = old_cost - new_cost;
    height = tree_height tree;
  }

(* --- rebuild --- *)

let m_cells_removed = Obs.Metrics.counter "flow.cells_removed"

(* Terminal sigspecs are captured before rewiring. *)
let rebuild (c : Circuit.t) (d : decision) =
  let flat = d.flat in
  (* recompute terminal list exactly as [evaluate] did *)
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
  List.iter
    (fun (r : Muxtree.row) -> ignore (term_of r.Muxtree.value))
    flat.Muxtree.rows;
  let term_sig i = List.nth !terminals i in
  let memo = Hashtbl.create 64 in
  let rec emit (t : tree) : Bits.sigspec =
    match Hashtbl.find_opt memo t.tid with
    | Some s -> s
    | None ->
      let s =
        match t.tnode with
        | T_leaf term -> term_sig term
        | T_node { var; lo; hi } ->
          let lo_s = emit lo and hi_s = emit hi in
          Circuit.mk_mux c ~a:lo_s ~b:hi_s ~s:flat.Muxtree.selector.(var)
      in
      Hashtbl.replace memo t.tid s;
      s
  in
  let new_out = emit d.tree in
  let old_root_cell = Circuit.cell c flat.Muxtree.root in
  let old_y = Cell.output old_root_cell in
  Circuit.remove_cell c flat.Muxtree.root;
  Obs.Metrics.incr m_cells_removed;
  Obs.Provenance.emit ~kind:Obs.Provenance.Tree_rebuilt
    ~cell:flat.Muxtree.root ~pass:"restructure"
    ~mechanism:Obs.Provenance.Restructure
    ~bits:flat.Muxtree.width ~area_delta:(-d.saved_cost) ();
  Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed
    ~cell:flat.Muxtree.root ~pass:"restructure"
    ~mechanism:Obs.Provenance.Restructure ();
  Rewire.replace_sig c ~from_:old_y ~to_:new_out

(* --- the pass --- *)

type report = {
  candidates : int;
  rebuilt : int;
  muxes_before : int;
  muxes_after : int;
  eq_removed : int;
}

let pp_report ppf r =
  Fmt.pf ppf "candidates=%d rebuilt=%d muxes %d->%d eq_removed=%d"
    r.candidates r.rebuilt r.muxes_before r.muxes_after r.eq_removed

let m_candidates = Obs.Metrics.counter "restructure.candidates"
let m_rebuilt = Obs.Metrics.counter "restructure.rebuilt"
let m_eq_removed = Obs.Metrics.counter "restructure.eq_removed"
let h_rows = Obs.Metrics.histogram "restructure.rows_per_tree"
let h_chain_len = Obs.Metrics.histogram "restructure.old_muxes_per_tree"
let h_height = Obs.Metrics.histogram "restructure.tree_height"

let run_once ?(min_saving = 1) (c : Circuit.t) : report =
  Obs.Trace.with_span "restructure.run_once" @@ fun () ->
  (* candidates are discovered once; each is re-flattened against the
     current circuit just before rebuilding, since rewiring one tree can
     refresh the data leaves of another *)
  let roots =
    List.map (fun f -> f.Muxtree.root) (Muxtree.find_all c)
  in
  let rebuilt = ref 0 in
  let muxes_before = ref 0 in
  let muxes_after = ref 0 in
  let eq_removed = ref 0 in
  let dirty = ref false in
  let cached_deps = ref None in
  let get_deps () =
    match !cached_deps with
    | Some d when not !dirty -> d
    | Some _ | None ->
      let d = Muxtree.make_deps c in
      cached_deps := Some d;
      dirty := false;
      d
  in
  List.iter
    (fun root ->
      if Budget.exhausted () then
        (* pass budget blown: leave the remaining trees as they are *)
        Budget.note_truncation ()
      else
      let deps = get_deps () in
      match Muxtree.flatten_root deps root with
      | None -> ()
      | Some flat ->
        let d = evaluate c deps.Muxtree.index flat in
        Obs.Metrics.observe_int h_rows (List.length flat.Muxtree.rows);
        Obs.Metrics.observe_int h_chain_len d.old_muxes;
        Obs.Metrics.observe_int h_height d.height;
        muxes_before := !muxes_before + d.old_muxes;
        if d.saved_cost >= min_saving then begin
          rebuild c d;
          dirty := true;
          incr rebuilt;
          muxes_after := !muxes_after + d.new_muxes;
          eq_removed := !eq_removed + List.length d.removable
        end
        else muxes_after := !muxes_after + d.old_muxes)
    roots;
  Obs.Metrics.add m_candidates (List.length roots);
  Obs.Metrics.add m_rebuilt !rebuilt;
  Obs.Metrics.add m_eq_removed !eq_removed;
  {
    candidates = List.length roots;
    rebuilt = !rebuilt;
    muxes_before = !muxes_before;
    muxes_after = !muxes_after;
    eq_removed = !eq_removed;
  }

let changed (r : report) = r.rebuilt > 0
