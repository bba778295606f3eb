(* Hash-consed Algebraic Decision Diagrams (ADDs).

   An ADD generalizes a BDD from {0,1} terminals to arbitrary integer
   terminals.  Nodes are reduced: no node has identical children, and
   structurally equal nodes are shared.  A variable appears at most once
   on each path; each path's order is the builder's split choice. *)

type t = { id : int; node : node }

and node =
  | Leaf of int
  | Node of { var : int; lo : t; hi : t }

type manager = {
  mutable next_id : int;
  leaves : (int, t) Hashtbl.t;
  nodes : (int * int * int, t) Hashtbl.t; (* var, lo id, hi id *)
}

let manager () =
  { next_id = 0; leaves = Hashtbl.create 16; nodes = Hashtbl.create 64 }

let leaf m v =
  match Hashtbl.find_opt m.leaves v with
  | Some t -> t
  | None ->
    let t = { id = m.next_id; node = Leaf v } in
    m.next_id <- m.next_id + 1;
    Hashtbl.replace m.leaves v t;
    t

let mk m ~var ~lo ~hi =
  if lo.id = hi.id then lo
  else begin
    let key = var, lo.id, hi.id in
    match Hashtbl.find_opt m.nodes key with
    | Some t -> t
    | None ->
      let t = { id = m.next_id; node = Node { var; lo; hi } } in
      m.next_id <- m.next_id + 1;
      Hashtbl.replace m.nodes key t;
      t
  end

(* Evaluate under an assignment of variables to booleans. *)
let rec eval t assignment =
  match t.node with
  | Leaf v -> v
  | Node { var; lo; hi } ->
    if assignment var then eval hi assignment else eval lo assignment

(* Number of internal (decision) nodes. *)
let count_nodes t =
  let seen = Hashtbl.create 64 in
  let rec go t =
    if Hashtbl.mem seen t.id then 0
    else begin
      Hashtbl.replace seen t.id ();
      match t.node with
      | Leaf _ -> 0
      | Node { lo; hi; _ } -> 1 + go lo + go hi
    end
  in
  go t

(* --- building from priority rows (case statements) --- *)

type pbit = P0 | P1 | Pz (* pattern bit: 0, 1, wildcard *)

type split = Lowest | Fewest_terminals

(* The rows that can still match once [var] is fixed to [value]. *)
let cofactor rows var value =
  List.filter
    (fun (cube, _) ->
      match cube.(var) with
      | Pz -> true
      | P0 -> value = false
      | P1 -> value = true)
    rows

(* Does the row match everything over [vars]?  (sufficient check: an
   all-wildcard cube on those variables) *)
let covers vars (cube, _) = List.for_all (fun v -> cube.(v) = Pz) vars

(* Distinct terminal values reachable from [rows] (+ default if some input
   combination can fall through). *)
let terminal_types rows remaining ~default =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (_, value) -> Hashtbl.replace tbl value ()) rows;
  if not (List.exists (covers remaining) rows) then
    Hashtbl.replace tbl default ();
  Hashtbl.length tbl

(* Rows are in priority order: the first matching row wins; [default] is
   the value when no row matches.  Variable i is bit i of the selector.
   [build]'s [avail] holds the variables not yet split on, ascending. *)
let of_rows m ~split ~num_vars (rows : (pbit array * int) list) ~default =
  let choose avail rows =
    match split with
    | Lowest -> List.hd avail
    | Fewest_terminals ->
      (* Algorithm 1: the variable minimizing the total number of terminal
         types of the two children; ties go to the lowest index *)
      let score v =
        let rem = List.filter (( <> ) v) avail in
        terminal_types (cofactor rows v false) rem ~default
        + terminal_types (cofactor rows v true) rem ~default
      in
      List.fold_left
        (fun (bv, bs) v ->
          let s = score v in
          if s < bs then v, s else bv, bs)
        (-1, max_int) avail
      |> fst
  in
  let rec build avail rows =
    match rows with
    | [] -> leaf m default
    | ((_, value) as top) :: _ when covers avail top ->
      (* the top row matches everything from here on: it wins outright *)
      leaf m value
    | rows ->
      let var = choose avail rows in
      let rem = List.filter (( <> ) var) avail in
      let lo = build rem (cofactor rows var false) in
      let hi = build rem (cofactor rows var true) in
      mk m ~var ~lo ~hi
  in
  build (List.init num_vars Fun.id) rows
