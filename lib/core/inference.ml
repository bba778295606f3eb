(* Rule-based value inference (the paper's Table I, generalized).

   Given a set of known signal values, propagate through the sub-graph
   cells both forward (gate evaluation with partially-known inputs) and
   backward (e.g. "a|b = 0 implies a = b = 0", "a|b = 1 and a = 0 implies
   b = 1") until a fixpoint.  A contradiction means the current muxtree
   path is unreachable. *)

open Netlist

exception Contradiction

type known = bool Bits.Bit_tbl.t

(* Optional rule attribution: when a track table is installed, every fact
   newly derived by [set] is tagged with the rule family of the cell being
   stepped (e.g. "or", "eq", "mux").  A global pair of refs rather than
   threading through every helper: [set]/[link] are called from a dozen
   sites inside [step] which have no cell context of their own. *)
let track_tbl : string Bits.Bit_tbl.t option ref = ref None
let track_rule = ref "seed"

let rule_name (cell : Cell.t) =
  match cell with
  | Cell.Unary { op; _ } -> Cell.unary_op_name op
  | Cell.Binary { op; _ } -> Cell.binary_op_name op
  | Cell.Mux _ -> "mux"
  | Cell.Pmux _ -> "pmux"
  | Cell.Dff _ -> "dff"

let read (k : known) (b : Bits.bit) : bool option =
  match b with
  | Bits.C0 -> Some false
  | Bits.C1 -> Some true
  | Bits.Cx -> None
  | Bits.Of_wire _ -> Bits.Bit_tbl.find_opt k b

let set (k : known) (b : Bits.bit) (v : bool) : bool =
  (* returns true if this is new information *)
  match b with
  | Bits.C0 -> if v then raise Contradiction else false
  | Bits.C1 -> if v then false else raise Contradiction
  | Bits.Cx -> false
  | Bits.Of_wire _ -> (
    match Bits.Bit_tbl.find_opt k b with
    | Some old -> if old <> v then raise Contradiction else false
    | None ->
      Bits.Bit_tbl.replace k b v;
      (match !track_tbl with
      | Some t -> Bits.Bit_tbl.replace t b !track_rule
      | None -> ());
      true)

(* link two bits as equal (resp. opposite); returns true on progress *)
let link k a b ~equal =
  match read k a, read k b with
  | Some va, None -> set k b (if equal then va else not va)
  | None, Some vb -> set k a (if equal then vb else not vb)
  | Some va, Some vb ->
    if (va = vb) <> equal then raise Contradiction else false
  | None, None -> false

(* All bits known? collect them *)
let all_known k (s : Bits.sigspec) : bool list option =
  let rec go i acc =
    if i >= Array.length s then Some (List.rev acc)
    else
      match read k s.(i) with
      | Some v -> go (i + 1) (v :: acc)
      | None -> None
  in
  go 0 []

(* "is this vector known nonzero / known zero?" *)
let vec_nonzero k s =
  if Array.exists (fun b -> read k b = Some true) s then Some true
  else if Array.for_all (fun b -> read k b = Some false) s then Some false
  else None

(* force every bit of [s] to [v] *)
let force_all k s v =
  Array.fold_left (fun p b -> if set k b v then true else p) false s

(* if all but one bit of [s] are known to be [filler], force the last to
   [lastv] (used for reduce_or=1, reduce_and=0, logic_not=0 patterns) *)
let force_last k s ~filler ~lastv =
  let unknown = ref [] in
  let ok =
    Array.for_all
      (fun b ->
        match read k b with
        | Some v -> v = filler
        | None ->
          unknown := b :: !unknown;
          List.length !unknown <= 1)
      s
  in
  match ok, !unknown with
  | true, [ b ] -> set k b lastv
  | true, [] -> raise Contradiction (* all fillers but output says otherwise *)
  | _, _ -> false

(* One propagation step for a cell; returns true on progress. *)
let step (k : known) (cell : Cell.t) : bool =
  let progress = ref false in
  let note p = if p then progress := true in
  (match cell with
  | Cell.Unary { op = Cell.Not; a; y } ->
    Array.iteri (fun i yb -> note (link k yb a.(i) ~equal:false)) y
  | Cell.Unary { op = Cell.Logic_not; a; y } -> (
    (match vec_nonzero k a with
    | Some nz -> note (set k y.(0) (not nz))
    | None -> ());
    match read k y.(0) with
    | Some true -> note (force_all k a false)
    | Some false -> note (force_last k a ~filler:false ~lastv:true)
    | None -> ())
  | Cell.Unary { op = Cell.Reduce_or | Cell.Reduce_bool; a; y } -> (
    (match vec_nonzero k a with
    | Some nz -> note (set k y.(0) nz)
    | None -> ());
    match read k y.(0) with
    | Some false -> note (force_all k a false)
    | Some true -> note (force_last k a ~filler:false ~lastv:true)
    | None -> ())
  | Cell.Unary { op = Cell.Reduce_and; a; y } -> (
    (if Array.exists (fun b -> read k b = Some false) a then
       note (set k y.(0) false)
     else if Array.for_all (fun b -> read k b = Some true) a then
       note (set k y.(0) true));
    match read k y.(0) with
    | Some true -> note (force_all k a true)
    | Some false -> note (force_last k a ~filler:true ~lastv:false)
    | None -> ())
  | Cell.Unary { op = Cell.Reduce_xor; a; y } -> (
    match all_known k a with
    | Some vs ->
      note (set k y.(0) (List.fold_left (fun acc v -> acc <> v) false vs))
    | None -> (
      (* y and all-but-one input known: solve for the last *)
      match read k y.(0) with
      | None -> ()
      | Some yv ->
        let unknown = ref [] in
        let parity = ref false in
        Array.iter
          (fun b ->
            match read k b with
            | Some v -> if v then parity := not !parity
            | None -> unknown := b :: !unknown)
          a;
        (match !unknown with
        | [ b ] -> note (set k b (yv <> !parity))
        | [] | _ :: _ -> ())))
  | Cell.Binary { op = Cell.And; a; b; y } ->
    Array.iteri
      (fun i yb ->
        (match read k a.(i), read k b.(i) with
        | Some false, _ | _, Some false -> note (set k yb false)
        | Some true, Some true -> note (set k yb true)
        | Some true, None -> note (link k yb b.(i) ~equal:true)
        | None, Some true -> note (link k yb a.(i) ~equal:true)
        | None, None -> ());
        match read k yb with
        | Some true ->
          note (set k a.(i) true);
          note (set k b.(i) true)
        | Some false -> (
          match read k a.(i), read k b.(i) with
          | Some true, None -> note (set k b.(i) false)
          | None, Some true -> note (set k a.(i) false)
          | _, _ -> ())
        | None -> ())
      y
  | Cell.Binary { op = Cell.Or; a; b; y } ->
    (* Table I, per bit *)
    Array.iteri
      (fun i yb ->
        (match read k a.(i), read k b.(i) with
        | Some true, _ | _, Some true -> note (set k yb true)
        | Some false, Some false -> note (set k yb false)
        | Some false, None -> note (link k yb b.(i) ~equal:true)
        | None, Some false -> note (link k yb a.(i) ~equal:true)
        | None, None -> ());
        match read k yb with
        | Some false ->
          note (set k a.(i) false);
          note (set k b.(i) false)
        | Some true -> (
          match read k a.(i), read k b.(i) with
          | Some false, None -> note (set k b.(i) true)
          | None, Some false -> note (set k a.(i) true)
          | _, _ -> ())
        | None -> ())
      y
  | Cell.Binary { op = Cell.Xor; a; b; y } ->
    Array.iteri
      (fun i yb ->
        match read k a.(i), read k b.(i), read k yb with
        | Some va, Some vb, _ -> note (set k yb (va <> vb))
        | Some va, None, Some vy -> note (set k b.(i) (va <> vy))
        | None, Some vb, Some vy -> note (set k a.(i) (vb <> vy))
        | _, _, _ -> ())
      y
  | Cell.Binary { op = Cell.Xnor; a; b; y } ->
    Array.iteri
      (fun i yb ->
        match read k a.(i), read k b.(i), read k yb with
        | Some va, Some vb, _ -> note (set k yb (va = vb))
        | Some va, None, Some vy -> note (set k b.(i) (va = vy))
        | None, Some vb, Some vy -> note (set k a.(i) (vb = vy))
        | _, _, _ -> ())
      y
  | Cell.Binary { op = Cell.Eq; a; b; y } -> (
    (* forward *)
    let some_diff =
      Array.exists2
        (fun ab bb ->
          match read k ab, read k bb with
          | Some va, Some vb -> va <> vb
          | _, _ -> false)
        a b
    in
    if some_diff then note (set k y.(0) false)
    else if
      Array.for_all2
        (fun ab bb ->
          match read k ab, read k bb with
          | Some va, Some vb -> va = vb
          | _, _ -> false)
        a b
    then note (set k y.(0) true);
    (* backward *)
    match read k y.(0) with
    | Some true ->
      Array.iteri (fun i ab -> note (link k ab b.(i) ~equal:true)) a
    | Some false ->
      (* all pairs but one known equal: the remaining pair must differ *)
      if not some_diff then begin
        let candidates = ref [] in
        Array.iteri
          (fun i ab ->
            match read k ab, read k b.(i) with
            | Some _, Some _ -> ()
            | _, _ -> candidates := i :: !candidates)
          a;
        match !candidates with
        | [ i ] -> note (link k a.(i) b.(i) ~equal:false)
        | [] -> raise Contradiction
        | _ :: _ -> ()
      end
    | None -> ())
  | Cell.Binary { op = Cell.Ne; a; b; y } -> (
    let some_diff =
      Array.exists2
        (fun ab bb ->
          match read k ab, read k bb with
          | Some va, Some vb -> va <> vb
          | _, _ -> false)
        a b
    in
    if some_diff then note (set k y.(0) true)
    else if
      Array.for_all2
        (fun ab bb ->
          match read k ab, read k bb with
          | Some va, Some vb -> va = vb
          | _, _ -> false)
        a b
    then note (set k y.(0) false);
    match read k y.(0) with
    | Some false ->
      Array.iteri (fun i ab -> note (link k ab b.(i) ~equal:true)) a
    | Some true | None -> ())
  | Cell.Binary { op = Cell.Logic_and; a; b; y } -> (
    (match vec_nonzero k a, vec_nonzero k b with
    | Some false, _ | _, Some false -> note (set k y.(0) false)
    | Some true, Some true -> note (set k y.(0) true)
    | _, _ -> ());
    match read k y.(0) with
    | Some true ->
      if Bits.width a = 1 then note (set k a.(0) true);
      if Bits.width b = 1 then note (set k b.(0) true)
    | Some false -> (
      match vec_nonzero k a, vec_nonzero k b with
      | Some true, _ -> note (force_all k b false)
      | _, Some true -> note (force_all k a false)
      | _, _ -> ())
    | None -> ())
  | Cell.Binary { op = Cell.Logic_or; a; b; y } -> (
    (match vec_nonzero k a, vec_nonzero k b with
    | Some true, _ | _, Some true -> note (set k y.(0) true)
    | Some false, Some false -> note (set k y.(0) false)
    | _, _ -> ());
    match read k y.(0) with
    | Some false ->
      note (force_all k a false);
      note (force_all k b false)
    | Some true -> (
      match vec_nonzero k a, vec_nonzero k b with
      | Some false, _ when Bits.width b = 1 -> note (set k b.(0) true)
      | _, Some false when Bits.width a = 1 -> note (set k a.(0) true)
      | _, _ -> ())
    | None -> ())
  | Cell.Binary { op = Cell.Add; a; b; y } -> (
    match all_known k a, all_known k b with
    | Some va, Some vb ->
      let carry = ref false in
      List.iteri
        (fun i (bita, bitb) ->
          let s = (bita <> bitb) <> !carry in
          carry := (bita && bitb) || (!carry && (bita <> bitb));
          note (set k y.(i) s))
        (List.combine va vb)
    | _, _ -> ())
  | Cell.Binary { op = Cell.Sub; a; b; y } -> (
    match all_known k a, all_known k b with
    | Some va, Some vb ->
      let carry = ref true in
      List.iteri
        (fun i (bita, bitb0) ->
          let bitb = not bitb0 in
          let s = (bita <> bitb) <> !carry in
          carry := (bita && bitb) || (!carry && (bita <> bitb));
          note (set k y.(i) s))
        (List.combine va vb)
    | _, _ -> ())
  | Cell.Mux { a; b; s; y } -> (
    match read k s with
    | Some true -> Array.iteri (fun i yb -> note (link k yb b.(i) ~equal:true)) y
    | Some false ->
      Array.iteri (fun i yb -> note (link k yb a.(i) ~equal:true)) y
    | None ->
      Array.iteri
        (fun i yb ->
          (* both branches agree -> output known *)
          (match read k a.(i), read k b.(i) with
          | Some va, Some vb when va = vb -> note (set k yb va)
          | _, _ -> ());
          (* output contradicts one branch -> select is decided *)
          match read k yb, read k a.(i), read k b.(i) with
          | Some vy, Some va, _ when vy <> va -> note (set k s true)
          | Some vy, _, Some vb when vy <> vb -> note (set k s false)
          | _, _, _ -> ())
        y)
  | Cell.Pmux { a; b; s; y } -> (
    (* resolve the priority scan if enough selects are known *)
    let w = Bits.width a in
    let rec pick i =
      if i >= Bits.width s then Some None (* default *)
      else
        match read k s.(i) with
        | Some true -> Some (Some i)
        | Some false -> pick (i + 1)
        | None -> None
    in
    match pick 0 with
    | Some None -> Array.iteri (fun i yb -> note (link k yb a.(i) ~equal:true)) y
    | Some (Some part) ->
      Array.iteri
        (fun i yb -> note (link k yb b.((part * w) + i) ~equal:true))
        y
    | None -> ())
  | Cell.Dff _ -> ());
  !progress

(* Propagate to fixpoint over [cells] (any order; we sweep repeatedly).
   Returns the number of sweeps; raises [Contradiction] when the known
   values are inconsistent. *)
let propagate ?track (circuit : Circuit.t) (k : known) (cells : int list) :
    int =
  let rec loop sweeps =
    if sweeps > 64 then sweeps
    else begin
      let progress = ref false in
      List.iter
        (fun id ->
          match Circuit.cell_opt circuit id with
          | Some cell ->
            if !track_tbl <> None then track_rule := rule_name cell;
            if step k cell then progress := true
          | None -> ())
        cells;
      if !progress then loop (sweeps + 1) else sweeps
    end
  in
  match track with
  | None -> loop 0
  | Some t ->
    track_tbl := Some t;
    (* Contradiction must not leave the recorder installed *)
    Fun.protect ~finally:(fun () -> track_tbl := None) (fun () -> loop 0)
