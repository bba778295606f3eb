(* The muxtree walk, and the Yosys `opt_muxtree` baseline built on it.

   Muxtrees are traversed from their roots; along each branch the values of
   the control bits taken so far are known.  Two rules apply (paper Figs. 1
   and 2):

   1. a descendant mux whose control the resolver decides under the known
      values is bypassed (its selected input replaces its output), and
   2. data-port bits whose value is known become constants.

   A descendant mux is part of the tree (and thus eliminable) only when
   every read of its output comes from a single data-port side of a single
   mux, so rewriting it cannot affect other paths.

   The walk is the same for both flows; a resolver says how a child's
   select is decided.  Yosys recognizes only *identical* control bits
   ({!identical_signal}); smaRTLy's [Sat_elim] asks the inference engine
   and folds each data port by the rules before chasing. *)

open Netlist

type select =
  | Take of bool * Obs.Provenance.mechanism * int option
  | Dead
  | Keep

type resolver = {
  pass : string;
  fold : bool Bits.Bit_tbl.t -> owner:int -> Bits.sigspec -> Bits.sigspec * int;
  select : bool Bits.Bit_tbl.t -> Bits.bit -> select;
  replace : int -> Cell.t -> unit;
  stop : unit -> bool;
}

type counts = { bypassed : int; folded : int; dead : int }

type ctx = {
  r : resolver;
  c : Circuit.t;
  index : Index.t;
  cache : select Bits.Bit_tbl.t; (* select verdicts of the current port *)
  mutable n_bypassed : int;
  mutable n_folded : int;
  mutable n_dead : int;
}

let is_mux = function
  | Cell.Mux _ | Cell.Pmux _ -> true
  | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> false

let add_fact known (bit : Bits.bit) (v : bool) =
  match bit with
  | Bits.Of_wire _ -> Bits.Bit_tbl.replace known bit v
  | Bits.C0 | Bits.C1 | Bits.Cx -> ()

let select ctx known (s : Bits.bit) =
  match Bits.Bit_tbl.find_opt ctx.cache s with
  | Some v -> v
  | None ->
    let v = ctx.r.select known s in
    Bits.Bit_tbl.replace ctx.cache s v;
    v

(* Resolve a bit under the known control values: a known bit becomes its
   constant, and a dedicated child mux whose select the resolver decides
   is bypassed. *)
let rec resolve ctx known ~loc (bit : Bits.bit) : Bits.bit =
  match Bits.Bit_tbl.find_opt known bit with
  | Some v ->
    ctx.n_folded <- ctx.n_folded + 1;
    Obs.Provenance.emit ~kind:Obs.Provenance.Const_resolved ~cell:(fst loc)
      ~pass:ctx.r.pass
      ~mechanism:(Obs.Provenance.Rule "identical_signal") ~bits:1 ();
    Bits.const_of_bool v
  | None -> (
    match Index.driving_cell ctx.index bit with
    | None -> bit
    | Some (child_id, off) -> (
      match Circuit.cell_opt ctx.c child_id with
      | Some (Cell.Mux { a; b; s; _ } as child)
        when Index.dedicated_location ctx.index child = Some loc -> (
        match select ctx known s with
        | Take (v, mechanism, query) ->
          ctx.n_bypassed <- ctx.n_bypassed + 1;
          Obs.Provenance.emit ~kind:Obs.Provenance.Mux_bypassed
            ~cell:child_id ~pass:ctx.r.pass ~mechanism ?query ();
          resolve ctx known ~loc (if v then b.(off) else a.(off))
        | Dead ->
          (* dead path: the value is never observed; pick branch a *)
          ctx.n_dead <- ctx.n_dead + 1;
          Obs.Provenance.emit ~kind:Obs.Provenance.Dead_branch
            ~cell:child_id ~pass:ctx.r.pass
            ~mechanism:Obs.Provenance.Pruned ();
          resolve ctx known ~loc a.(off)
        | Keep -> bit)
      | Some _ | None -> bit))

(* Fold one data-port sigspec, then resolve each of its bits under
   [known]. *)
let resolve_port ctx known ~loc (port : Bits.sigspec) : Bits.sigspec * bool =
  let folded, n = ctx.r.fold known ~owner:(fst loc) port in
  ctx.n_folded <- ctx.n_folded + n;
  Bits.Bit_tbl.clear ctx.cache;
  let changed = ref (n > 0) in
  let out =
    Array.map
      (fun bit ->
        let nb = resolve ctx known ~loc bit in
        if not (Bits.bit_equal nb bit) then changed := true;
        nb)
      folded
  in
  out, !changed

(* Children of a port that we should recurse into. *)
let port_children ctx ~loc (port : Bits.sigspec) : int list =
  Array.to_list port
  |> List.filter_map (fun bit ->
         match Index.driving_cell ctx.index bit with
         | Some (id, _) -> (
           match Circuit.cell_opt ctx.c id with
           | Some child
             when is_mux child
                  && Index.dedicated_location ctx.index child = Some loc ->
             Some id
           | Some _ | None -> None)
         | None -> None)
  |> List.sort_uniq compare

(* Walk the tree rooted at [id].  A mux is the one-part pmux: its a side
   is the default, taken with the select at 0, and its b side is part 0.
   Part i assumes s_i = 1 and every earlier select = 0 (priority); the
   default assumes every select = 0.  Once [stop] says so, every node
   entered from here on is left as it is. *)
let rec visit ctx visited known (id : int) =
  if not (Hashtbl.mem visited id) then begin
    Hashtbl.replace visited id ();
    match Circuit.cell_opt ctx.c id with
    | None -> ()
    | Some _ when ctx.r.stop () -> ()
    | Some (Cell.Mux { a; b; s; y }) ->
      node ctx visited known id ~a ~b ~s:[| s |] (fun a b ->
          Cell.Mux { a; b; s; y })
    | Some (Cell.Pmux { a; b; s; y }) ->
      node ctx visited known id ~a ~b ~s (fun a b -> Cell.Pmux { a; b; s; y })
    | Some (Cell.Unary _ | Cell.Binary _ | Cell.Dff _) -> ()
  end

and node ctx visited known id ~a ~b ~s rebuild =
  let w = Bits.width a in
  (* the default's facts grow one select at a time, and each part copies
     them as they stand *)
  let known_def = Bits.Bit_tbl.copy known in
  let part_known =
    Array.map
      (fun si ->
        let kp = Bits.Bit_tbl.copy known_def in
        add_fact kp si true;
        add_fact known_def si false;
        kp)
      s
  in
  let a', ca = resolve_port ctx known_def ~loc:(id, Index.Side_a) a in
  let parts =
    Array.mapi
      (fun i kp ->
        resolve_port ctx kp ~loc:(id, Index.Side_b i)
          (Bits.slice b ~off:(i * w) ~len:w))
      part_known
  in
  if ca || Array.exists snd parts then
    ctx.r.replace id
      (rebuild a' (Bits.concat (Array.to_list (Array.map fst parts))));
  List.iter
    (fun cid -> visit ctx visited known_def cid)
    (port_children ctx ~loc:(id, Index.Side_a) a');
  Array.iteri
    (fun i (part, _) ->
      List.iter
        (fun cid -> visit ctx visited part_known.(i) cid)
        (port_children ctx ~loc:(id, Index.Side_b i) part))
    parts

let roots (c : Circuit.t) (index : Index.t) : int list =
  List.filter
    (fun id ->
      let cell = Circuit.cell c id in
      is_mux cell && Index.dedicated_location index cell = None)
    (Circuit.cell_ids c)

(* One in-place traversal of every muxtree: each tree sees the rewrites of
   the trees walked before it.  Dedicated children never reached from a
   root (e.g. cyclic weirdness) are left untouched. *)
let walk (r : resolver) (c : Circuit.t) (index : Index.t) : counts =
  let ctx =
    {
      r;
      c;
      index;
      cache = Bits.Bit_tbl.create 8;
      n_bypassed = 0;
      n_folded = 0;
      n_dead = 0;
    }
  in
  let visited = Hashtbl.create 64 in
  List.iter
    (fun id -> visit ctx visited (Bits.Bit_tbl.create 8) id)
    (roots c index);
  { bypassed = ctx.n_bypassed; folded = ctx.n_folded; dead = ctx.n_dead }

let identical_signal (c : Circuit.t) : resolver =
  let take v = Take (v, Obs.Provenance.Rule "identical_signal", None) in
  {
    pass = "opt_muxtree";
    fold = (fun _ ~owner:_ port -> (port, 0));
    select =
      (fun known s ->
        match Bits.Bit_tbl.find_opt known s with
        | Some v -> take v
        | None -> (
          match s with
          | Bits.C0 -> take false
          | Bits.C1 -> take true
          | Bits.Cx | Bits.Of_wire _ -> Keep));
    replace = Circuit.replace_cell c;
    stop = (fun () -> false);
  }

(* One walk, as Yosys's opt_muxtree is one pass inside opt's loop: the
   driver repeats it, between opt_expr, opt_merge and opt_clean, until no
   pass makes progress. *)
let m_changes = Obs.Metrics.counter "opt_muxtree.changes"

let run (c : Circuit.t) : int =
  Obs.Trace.with_span "opt_muxtree.run" @@ fun () ->
  let n = walk (identical_signal c) c (Index.build c) in
  let changes = n.bypassed + n.folded + n.dead in
  Obs.Metrics.add m_changes changes;
  changes
