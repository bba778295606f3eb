(* The Yosys `opt_muxtree` baseline.

   Muxtrees are traversed from their roots; along each branch the values of
   the control bits taken so far are known.  Two rules are applied, exactly
   the ones Yosys implements (paper Figs. 1 and 2):

   1. a descendant mux whose control bit is already known is bypassed
      (its selected input replaces its output), and
   2. data-port bits equal to a known control bit are replaced by the known
      constant.

   Only *identical* control bits are recognized — no logic inference.  A
   descendant mux is part of the tree (and thus eliminable) only when every
   read of its output comes from a single data-port side of a single mux,
   so rewriting it cannot affect other paths. *)

open Netlist

type ctx = {
  c : Circuit.t;
  index : Index.t;
  mutable eliminated : int; (* muxes bypassed *)
  mutable const_bits : int; (* data bits replaced by constants *)
}

let is_mux = function
  | Cell.Mux _ | Cell.Pmux _ -> true
  | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> false

(* Resolve a bit under the known control values: constant substitution plus
   bypassing dedicated child muxes with known selects. *)
let rec resolve ctx known ~loc (bit : Bits.bit) : Bits.bit =
  match Bits.Bit_tbl.find_opt known bit with
  | Some true -> Bits.C1
  | Some false -> Bits.C0
  | None -> (
    match Index.driving_cell ctx.index bit with
    | None -> bit
    | Some (child_id, off) -> (
      match Circuit.cell_opt ctx.c child_id with
      | None -> bit
      | Some child when not (is_mux child) -> bit
      | Some child -> (
        match Index.dedicated_location ctx.index child with
        | Some l when l = loc -> (
          match child with
          | Cell.Mux { a; b; s; _ } -> (
            let sv =
              match Bits.Bit_tbl.find_opt known s with
              | Some v -> Some v
              | None -> (
                match s with
                | Bits.C0 -> Some false
                | Bits.C1 -> Some true
                | Bits.Cx | Bits.Of_wire _ -> None)
            in
            match sv with
            | Some v ->
              ctx.eliminated <- ctx.eliminated + 1;
              Obs.Provenance.emit ~kind:Obs.Provenance.Mux_bypassed
                ~cell:child_id ~pass:"opt_muxtree"
                ~mechanism:(Obs.Provenance.Rule "identical_signal") ();
              resolve ctx known ~loc (if v then b.(off) else a.(off))
            | None -> bit)
          | Cell.Pmux _ | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> bit)
        | Some _ | None -> bit)))

(* Substitute one data-port sigspec under [known]. *)
let resolve_port ctx known ~loc (port : Bits.sigspec) : Bits.sigspec * bool =
  let changed = ref false in
  let out =
    Array.map
      (fun bit ->
        let nb = resolve ctx known ~loc bit in
        if not (Bits.bit_equal nb bit) then begin
          changed := true;
          if Bits.is_const nb then begin
            ctx.const_bits <- ctx.const_bits + 1;
            Obs.Provenance.emit ~kind:Obs.Provenance.Const_resolved
              ~cell:(fst loc) ~pass:"opt_muxtree"
              ~mechanism:(Obs.Provenance.Rule "identical_signal") ~bits:1 ()
          end
        end;
        nb)
      port
  in
  out, !changed

let add_fact known (bit : Bits.bit) (v : bool) =
  match bit with
  | Bits.Of_wire _ -> Bits.Bit_tbl.replace known bit v
  | Bits.C0 | Bits.C1 | Bits.Cx -> ()

let with_fact known (bit : Bits.bit) (v : bool) =
  let known' = Bits.Bit_tbl.copy known in
  add_fact known' bit v;
  known'

(* Children of a port that we should recurse into. *)
let port_children ctx ~loc (port : Bits.sigspec) : int list =
  Array.to_list port
  |> List.filter_map (fun bit ->
         match Index.driving_cell ctx.index bit with
         | Some (id, _) -> (
           match Circuit.cell_opt ctx.c id with
           | Some child when is_mux child -> (
             match Index.dedicated_location ctx.index child with
             | Some l when l = loc -> Some id
             | Some _ | None -> None)
           | Some _ | None -> None)
         | None -> None)
  |> List.sort_uniq compare

let rec visit ctx visited known (id : int) =
  if not (Hashtbl.mem visited id) then begin
    Hashtbl.replace visited id ();
    match Circuit.cell_opt ctx.c id with
    | None -> ()
    | Some (Cell.Mux { a; b; s; y }) ->
      let known_a = with_fact known s false in
      let known_b = with_fact known s true in
      let a', ca = resolve_port ctx known_a ~loc:(id, Index.Side_a) a in
      let b', cb = resolve_port ctx known_b ~loc:(id, Index.Side_b 0) b in
      if ca || cb then
        Circuit.replace_cell ctx.c id (Cell.Mux { a = a'; b = b'; s; y });
      List.iter
        (fun cid -> visit ctx visited known_a cid)
        (port_children ctx ~loc:(id, Index.Side_a) a');
      List.iter
        (fun cid -> visit ctx visited known_b cid)
        (port_children ctx ~loc:(id, Index.Side_b 0) b')
    | Some (Cell.Pmux { a; b; s; y }) ->
      let w = Bits.width a in
      let n = Bits.width s in
      (* part branches: s_i = 1, s_j = 0 for j < i (priority), each the
         prefix of earlier selects at 0 plus s_i = 1; the default branch
         has every select at 0 *)
      let known_def = Bits.Bit_tbl.copy known in
      let part_known =
        Array.init n (fun i ->
            let kp = with_fact known_def s.(i) true in
            add_fact known_def s.(i) false;
            kp)
      in
      let a', ca = resolve_port ctx known_def ~loc:(id, Index.Side_a) a in
      let b' = Array.copy b in
      let changed_b = ref false in
      for i = 0 to n - 1 do
        let part = Bits.slice b ~off:(i * w) ~len:w in
        let part', cp =
          resolve_port ctx part_known.(i) ~loc:(id, Index.Side_b i) part
        in
        if cp then begin
          changed_b := true;
          Array.blit part' 0 b' (i * w) w
        end
      done;
      if ca || !changed_b then
        Circuit.replace_cell ctx.c id (Cell.Pmux { a = a'; b = b'; s; y });
      List.iter
        (fun cid -> visit ctx visited known_def cid)
        (port_children ctx ~loc:(id, Index.Side_a) a');
      for i = 0 to n - 1 do
        let part = Bits.slice b' ~off:(i * w) ~len:w in
        List.iter
          (fun cid -> visit ctx visited part_known.(i) cid)
          (port_children ctx ~loc:(id, Index.Side_b i) part)
      done
    | Some (Cell.Unary _ | Cell.Binary _ | Cell.Dff _) -> ()
  end

(* One full traversal; returns (eliminated muxes, constant-folded bits). *)
let run_once (c : Circuit.t) : int * int =
  let ctx =
    {
      c;
      index = Index.build c;
      eliminated = 0;
      const_bits = 0;
    }
  in
  let visited = Hashtbl.create 64 in
  (* roots: muxes that are not dedicated children of another mux *)
  let roots =
    List.filter
      (fun id ->
        let cell = Circuit.cell c id in
        is_mux cell && Index.dedicated_location ctx.index cell = None)
      (Circuit.cell_ids c)
  in
  let empty_known () = Bits.Bit_tbl.create 8 in
  List.iter (fun id -> visit ctx visited (empty_known ()) id) roots;
  (* dedicated children never reached from a root (e.g. cyclic weirdness)
     are left untouched *)
  ctx.eliminated, ctx.const_bits

(* Iterate to fixpoint (with expression folding in between, the caller's
   flow takes care of interleaving opt_expr / opt_clean). *)
let m_changes = Obs.Metrics.counter "opt_muxtree.changes"

let run (c : Circuit.t) : int =
  Obs.Trace.with_span "opt_muxtree.run" @@ fun () ->
  let total = ref 0 in
  let rec fix iter =
    if iter < 16 then begin
      let elim, consts = run_once c in
      total := !total + elim + consts;
      if elim + consts > 0 then fix (iter + 1)
    end
  in
  fix 0;
  Obs.Metrics.add m_changes !total;
  !total
