(* Muxtree detection and flattening for the restructuring pass.

   A rebuildable muxtree (Algorithm 1's [OnlyEq] && [SingleCtrl]) is a tree
   of mux cells rooted at some mux, in which
   - every internal mux is a dedicated child (all reads of its output come
     from a single data-port side of a single tree mux),
   - every select is an $eq-with-constant, a $logic_not (the special
     all-zeros eq), or an $or-combination of those,
   - all the compared signals are the *same* selector signal S.

   Flattening produces priority rows (pattern cube over S's bits -> leaf
   data sigspec) plus a default, exactly the input of the ADD heuristic. *)

open Netlist

type row = { cube : Add_bdd.Add.pbit array; value : Bits.sigspec }

type flat = {
  root : int; (* root mux cell id *)
  selector : Bits.sigspec; (* the shared control signal S *)
  rows : row list; (* in priority order *)
  default : Bits.sigspec;
  tree_cells : int list; (* mux cells of the tree, root included *)
  select_cells : int list; (* eq / logic_not / or cells producing selects *)
  width : int; (* data width *)
}

(* --- select recognition --- *)

(* A recognized select, as a disjunction of constraint conjunctions: the
   select is 1 iff some constraint list is fully satisfied.  Constraints
   pair a selector bit with its required value.  [None] in the pattern list
   marks a contradictory (never-matching) pattern. *)
type select_info = {
  patterns : (Bits.bit * bool) list option list;
  cells : int list; (* cells making up this select *)
}

let constraints_of_eq (a : Bits.sigspec) (b : Bits.sigspec) :
    (Bits.bit * bool) list option =
  (* [b] must be a constant; conflicting requirements on one bit => never *)
  if not (Bits.is_fully_const b) then raise Not_found
  else begin
    let acc = ref [] in
    let never = ref false in
    Array.iteri
      (fun i ab ->
        if Bits.is_const ab then begin
          (* constant compared with constant *)
          match ab, b.(i) with
          | Bits.C0, Bits.C1 | Bits.C1, Bits.C0 -> never := true
          | _, _ -> ()
        end
        else begin
          let v =
            match b.(i) with
            | Bits.C0 -> Some false
            | Bits.C1 -> Some true
            | Bits.Cx | Bits.Of_wire _ -> None
          in
          match v with
          | None -> ()
          | Some v -> (
            match List.assoc_opt ab !acc with
            | Some v0 -> if v0 <> v then never := true
            | None -> acc := (ab, v) :: !acc)
        end)
      a;
    if !never then None else Some (List.rev !acc)
  end

(* Recognize the driver cone of select bit [s] as a disjunction of
   constraint patterns (eq-with-const, logic_not, or-of-those). *)
let rec recognize_select (c : Circuit.t) (index : Index.t) (s : Bits.bit) :
    select_info option =
  match Index.driving_cell index s with
  | None -> None
  | Some (id, _) -> (
    match Circuit.cell_opt c id with
    | None -> None
    | Some (Cell.Binary { op = Cell.Eq; a; b; _ }) -> (
      let a, b =
        if Bits.is_fully_const a && not (Bits.is_fully_const b) then b, a
        else a, b
      in
      match constraints_of_eq a b with
      | pattern -> Some { patterns = [ pattern ]; cells = [ id ] }
      | exception Not_found -> None)
    | Some (Cell.Unary { op = Cell.Logic_not; a; _ }) -> (
      match constraints_of_eq a (Bits.all_zero ~width:(Bits.width a)) with
      | pattern -> Some { patterns = [ pattern ]; cells = [ id ] }
      | exception Not_found -> None)
    | Some (Cell.Binary { op = Cell.Or; a; b; y }) when Bits.width y = 1 -> (
      match recognize_select c index a.(0) with
      | None -> None
      | Some left -> (
        match recognize_select c index b.(0) with
        | None -> None
        | Some right ->
          Some
            {
              patterns = left.patterns @ right.patterns;
              cells = (id :: left.cells) @ right.cells;
            }))
    | Some
        (Cell.Binary _ | Cell.Unary _ | Cell.Mux _ | Cell.Pmux _ | Cell.Dff _)
      -> None)

(* --- tree flattening --- *)

type deps = {
  circuit : Circuit.t;
  index : Index.t;
  readers : Rtl_opt.Opt_muxtree.readers;
}

(* Is [cell] a dedicated child of the given location? *)
let dedicated_to deps loc cell =
  match Rtl_opt.Opt_muxtree.dedicated_location deps.readers cell with
  | Some l -> l = loc
  | None -> false

(* The mux driving all bits of [port] as a dedicated child at [loc]. *)
let child_mux deps ~loc (port : Bits.sigspec) : int option =
  match Index.driving_cell deps.index port.(0) with
  | None -> None
  | Some (id, _) -> (
    match Circuit.cell_opt deps.circuit id with
    | Some (Cell.Mux { y; _ } as cell) ->
      if Bits.equal y port && dedicated_to deps loc cell then Some id
      else None
    | Some
        (Cell.Pmux _ | Cell.Unary _ | Cell.Binary _ | Cell.Dff _)
    | None -> None)

exception Not_a_tree

(* internal rows during flattening: constraint-based patterns *)
type crow = { cons : (Bits.bit * bool) list option; cvalue : Bits.sigspec }

let normalize_cons = function
  | None -> None
  | Some l -> Some (List.sort compare l)

(* Flatten the muxtree rooted at [root_id] into priority rows.  Raises
   [Not_a_tree] when the structure does not match.  A tree whose selector
   bits come from more than one wire fails the paper's SingleCtrl
   condition and is not flattened. *)
let flatten deps (root_id : int) : flat option =
  let tree_cells = ref [] in
  let select_cells = ref [] in
  let rec go (id : int) : crow list * Bits.sigspec =
    match Circuit.cell_opt deps.circuit id with
    | Some (Cell.Mux { a; b; s; _ }) -> (
      tree_cells := id :: !tree_cells;
      match recognize_select deps.circuit deps.index s with
      | None -> raise Not_a_tree
      | Some info ->
        select_cells := info.cells @ !select_cells;
        (* rows for the b side (taken when a pattern matches) *)
        let rows_b =
          match child_mux deps ~loc:(id, Rtl_opt.Opt_muxtree.Side_b 0) b with
          | Some cid ->
            let sub_rows, _sub_default = go cid in
            (* sound only if the subtree's patterns exactly cover this
               select's patterns *)
            let sub_pats =
              List.sort compare
                (List.map (fun r -> normalize_cons r.cons) sub_rows)
            in
            let here_pats =
              List.sort compare (List.map normalize_cons info.patterns)
            in
            if sub_pats = here_pats then sub_rows else raise Not_a_tree
          | None ->
            List.map (fun cons -> { cons; cvalue = b }) info.patterns
        in
        let rows_a, default =
          match child_mux deps ~loc:(id, Rtl_opt.Opt_muxtree.Side_a) a with
          | Some cid -> go cid
          | None -> [], a
        in
        rows_b @ rows_a, default)
    | Some (Cell.Pmux { a; b; s; _ }) ->
      tree_cells := id :: !tree_cells;
      let w = Bits.width a in
      let rows =
        List.concat
          (List.init (Bits.width s) (fun i ->
               match recognize_select deps.circuit deps.index s.(i) with
               | None -> raise Not_a_tree
               | Some info ->
                 select_cells := info.cells @ !select_cells;
                 let part = Bits.slice b ~off:(i * w) ~len:w in
                 List.map (fun cons -> { cons; cvalue = part }) info.patterns))
      in
      rows, a
    | Some (Cell.Unary _ | Cell.Binary _ | Cell.Dff _) | None ->
      raise Not_a_tree
  in
  match go root_id with
  | crows, default ->
    (* selector = every constrained bit, in order of first appearance *)
    let selector_bits = ref [] in
    List.iter
      (fun r ->
        match r.cons with
        | None -> ()
        | Some l ->
          List.iter
            (fun (b, _) ->
              if not (List.exists (Bits.bit_equal b) !selector_bits) then
                selector_bits := !selector_bits @ [ b ])
            l)
      crows;
    let selector = Array.of_list !selector_bits in
    let n = Array.length selector in
    let same_wire =
      match !selector_bits with
      | Bits.Of_wire (w0, _) :: rest ->
        List.for_all
          (function Bits.Of_wire (w, _) -> w = w0 | Bits.C0 | Bits.C1 | Bits.Cx -> false)
          rest
      | _ -> false
    in
    if not same_wire then None
    else
    let pos b =
      let p = ref (-1) in
      Array.iteri (fun i sb -> if Bits.bit_equal sb b then p := i) selector;
      !p
    in
    let rows =
      List.filter_map
        (fun r ->
          match r.cons with
          | None -> None (* never matches: drop *)
          | Some l ->
            let cube = Array.make n Add_bdd.Add.Pz in
            List.iter
              (fun (b, v) ->
                cube.(pos b) <-
                  (if v then Add_bdd.Add.P1 else Add_bdd.Add.P0))
              l;
            Some { cube; value = r.cvalue })
        crows
    in
    if n = 0 || n > 24 || List.length rows < 2 then None
    else begin
      let width =
        Bits.width (Cell.output (Circuit.cell deps.circuit root_id))
      in
      Some
        {
          root = root_id;
          selector;
          rows;
          default;
          tree_cells = List.sort_uniq compare !tree_cells;
          select_cells = List.sort_uniq compare !select_cells;
          width;
        }
    end
  | exception Not_a_tree -> None

let make_deps (c : Circuit.t) =
  {
    circuit = c;
    index = Index.build c;
    readers = Rtl_opt.Opt_muxtree.collect_readers c;
  }

(* Re-flatten a single root against the given (current) dependencies. *)
let flatten_root (deps : deps) (root_id : int) : flat option =
  match Circuit.cell_opt deps.circuit root_id with
  | None -> None
  | Some _ -> flatten deps root_id

(* All rebuildable muxtrees of the circuit (roots are muxes that are not
   dedicated children themselves). *)
let find_all (c : Circuit.t) : flat list =
  let deps = make_deps c in
  List.filter_map
    (fun id ->
      let cell = Circuit.cell c id in
      match cell with
      | Cell.Mux _ | Cell.Pmux _ ->
        if
          Rtl_opt.Opt_muxtree.dedicated_location deps.readers cell = None
        then flatten deps id
        else None
      | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> None)
    (Circuit.cell_ids c)
