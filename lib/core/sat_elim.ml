(* SAT-based redundancy elimination (Section II of the paper).

   The traversal mirrors the Yosys opt_muxtree baseline, but a descendant
   mux's control is resolved with the full inference engine (known-value
   lookup -> inference rules -> exhaustive simulation -> SAT) instead of
   only by identical-signal matching.  Data-port bits determined by the
   inference rules under the path condition are replaced by constants.

   Per fold and per query, a bounded sub-graph is extracted from the
   distance-k fanin cones of the visited control ports (the paper's
   incremental accumulation, restricted to the facts on the current path)
   on one kernel that the walk builds over its pass-start circuit. *)

open Netlist

type report = {
  muxes_bypassed : int;
  data_bits_folded : int;
  dead_branches : int;
}

let pp_report ppf r =
  Fmt.pf ppf "bypassed=%d data_folded=%d dead=%d" r.muxes_bypassed
    r.data_bits_folded r.dead_branches

(* Run the rules over the cones of the known bits and the port bits into
   the kernel's fact store; [false] when they were not run (no rules, no
   facts, cones over [max_subgraph_cells]) or contradicted, which leaves
   [known] alone as the facts. *)
let derive (cfg : Config.t) sg known port =
  cfg.Config.enable_inference_rules
  && Bits.Bit_tbl.length known > 0
  &&
  let k = cfg.Config.distance_k in
  let add b =
    Subgraph.add_cone sg ~k b;
    (* sets only grow: the cut-off is already decided *)
    if Subgraph.size sg > cfg.Config.max_subgraph_cells then
      raise_notrace Exit
  in
  Subgraph.start sg;
  match
    Bits.Bit_tbl.iter (fun b _ -> add b) known;
    Array.iter add port
  with
  | exception Exit -> false
  | () -> (
    let facts = Subgraph.facts sg in
    Inference.Dense.load facts known;
    match
      Inference.Dense.propagate facts (Subgraph.circuit sg)
        (Subgraph.ordered_cells sg)
    with
    | () -> true
    | exception Inference.Contradiction -> false)

let fold_port cfg sg known ~owner (port : Bits.sigspec) : Bits.sigspec * int =
  if Bits.is_fully_const port then (port, 0)
  else
    Obs.Trace.with_span "sat_elim.fold" @@ fun () ->
    let derived = derive cfg sg known port in
    let facts = Subgraph.facts sg in
    let folded = ref 0 in
    let out =
      Array.map
        (fun b ->
          let value =
            if derived then Inference.Dense.read facts b
            else Inference.read known b
          in
          match value with
          | Some v ->
            let nb = Bits.const_of_bool v in
            if not (Bits.bit_equal nb b) then begin
              incr folded;
              (* a bit no rule derived is a path fact itself *)
              let rule =
                if derived then Inference.Dense.rule facts b else None
              in
              Obs.Provenance.emit ~kind:Obs.Provenance.Const_resolved
                ~cell:owner ~pass:"sat_elim"
                ~mechanism:
                  (Obs.Provenance.Rule
                     (Option.value rule ~default:"identical_signal"))
                ~bits:1 ()
            end;
            nb
          | None -> b)
        port
    in
    (out, !folded)

type ctx = {
  cfg : Config.t;
  c : Circuit.t;
  index : Index.t;
  session : Cdcl.Session.t;
      (* one persistent incremental solver for every SAT query of the
         pass *)
  sg : Subgraph.t; (* the pass's kernel: every fold and every query *)
  edits : (int * Cell.t) list ref option;
      (* (id, new cell) newest-first, recorded when the pass will be
         stored in the {!Replay} cache *)
  mutable bypassed : int;
  mutable folded : int;
  mutable dead : int;
}

let replace ctx id (cell : Cell.t) =
  (match ctx.edits with
  | Some edits -> edits := (id, cell) :: !edits
  | None -> ());
  Subgraph.replace ctx.sg id cell

let is_mux = function
  | Cell.Mux _ | Cell.Pmux _ -> true
  | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> false

(* Provenance mechanism of an engine verdict; [Some qid] for SAT. *)
let mechanism_of_source (src : Engine.source) :
    Obs.Provenance.mechanism * int option =
  match src with
  | Engine.Via_lookup -> (Obs.Provenance.Rule "identical_signal", None)
  | Engine.Via_rule r -> (Obs.Provenance.Rule r, None)
  | Engine.Via_sim -> (Obs.Provenance.Rule "sim", None)
  | Engine.Via_sat qid -> (Obs.Provenance.Sat, Some qid)
  | Engine.Via_forgone -> (Obs.Provenance.Pruned, None)

let with_fact known (bit : Bits.bit) v =
  let known' = Bits.Bit_tbl.copy known in
  (match bit with
  | Bits.Of_wire _ -> Bits.Bit_tbl.replace known' bit v
  | Bits.C0 | Bits.C1 | Bits.Cx -> ());
  known'

(* Resolve the select bit of a descendant mux under [known]:
   1. direct lookup (identical signal, the Yosys rule)
   2. full engine (rules / simulation / SAT) *)
let resolve_select ctx known (s : Bits.bit) :
    Engine.verdict * Engine.source =
  match Inference.read known s with
  | Some v -> (Engine.Forced v, Engine.Via_lookup)
  | None ->
    (match s with
    | Bits.C0 -> (Engine.Forced false, Engine.Via_lookup)
    | Bits.C1 -> (Engine.Forced true, Engine.Via_lookup)
    | Bits.Cx -> (Engine.Unknown, Engine.Via_forgone)
    | Bits.Of_wire _ ->
      if Bits.Bit_tbl.length known = 0 then
        (* no path facts: only constants could be proven; opt_expr already
           covers those, skip the expensive query *)
        (Engine.Unknown, Engine.Via_forgone)
      else
        Engine.determine_how ~session:ctx.session ctx.cfg ctx.sg known
          ~target:s)

(* Substitute data-port bits under [known]: direct lookups plus values the
   inference rules derive on the cones of the known signals and of the
   port bits themselves.  [owner] is the mux cell whose port is being
   folded, for provenance.  Once the pass budget trips, the port stays as
   it is. *)
let fold_data_bits ctx known ~owner (port : Bits.sigspec) :
    Bits.sigspec * bool =
  if Budget.exhausted () then begin
    Budget.note_truncation ();
    (port, false)
  end
  else begin
    let out, folded = fold_port ctx.cfg ctx.sg known ~owner port in
    ctx.folded <- ctx.folded + folded;
    (out, folded > 0)
  end

(* Chase a data bit through dedicated descendant muxes whose selects the
   engine can resolve.  [cache] memoizes select verdicts for the duration
   of one port resolution: a 16-bit port driven by one child mux asks one
   engine query, not sixteen. *)
let rec chase ctx known ~cache ~loc (bit : Bits.bit) : Bits.bit =
  match Index.driving_cell ctx.index bit with
  | None -> bit
  | Some (child_id, off) -> (
    match Circuit.cell_opt ctx.c child_id with
    | Some (Cell.Mux { a; b; s; _ } as child)
      when Index.dedicated_location ctx.index child = Some loc -> (
      let verdict, src =
        match Bits.Bit_tbl.find_opt cache s with
        | Some vs -> vs
        | None ->
          let vs = resolve_select ctx known s in
          Bits.Bit_tbl.replace cache s vs;
          vs
      in
      match verdict with
      | Engine.Forced v ->
        ctx.bypassed <- ctx.bypassed + 1;
        let mechanism, query = mechanism_of_source src in
        Obs.Provenance.emit ~kind:Obs.Provenance.Mux_bypassed
          ~cell:child_id ~pass:"sat_elim" ~mechanism ?query ();
        chase ctx known ~cache ~loc (if v then b.(off) else a.(off))
      | Engine.Unreachable ->
        (* dead path: the value is never observed; pick branch a *)
        ctx.dead <- ctx.dead + 1;
        Obs.Provenance.emit ~kind:Obs.Provenance.Dead_branch
          ~cell:child_id ~pass:"sat_elim"
          ~mechanism:Obs.Provenance.Pruned ();
        chase ctx known ~cache ~loc a.(off)
      | Engine.Free | Engine.Unknown -> bit)
    | Some _ | None -> bit)

let resolve_port ctx known ~loc (port : Bits.sigspec) : Bits.sigspec * bool =
  let folded, changed_f = fold_data_bits ctx known ~owner:(fst loc) port in
  let changed = ref changed_f in
  let cache : (Engine.verdict * Engine.source) Bits.Bit_tbl.t =
    Bits.Bit_tbl.create 8
  in
  let out =
    Array.map
      (fun b ->
        let nb = chase ctx known ~cache ~loc b in
        if not (Bits.bit_equal nb b) then changed := true;
        nb)
      folded
  in
  out, !changed

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

(* Walk the tree rooted at [id].  Once the pass budget trips, every tree
   entered from here on, root or child, is left as it is. *)
let rec visit ctx visited known (id : int) =
  if not (Hashtbl.mem visited id) then begin
    Hashtbl.replace visited id ();
    match Circuit.cell_opt ctx.c id with
    | None -> ()
    | Some _ when Budget.exhausted () -> Budget.note_truncation ()
    | Some (Cell.Mux { a; b; s; y }) ->
      let known_a = with_fact known s false in
      let known_b = with_fact known s true in
      let a', ca = resolve_port ctx known_a ~loc:(id, Index.Side_a) a in
      let b', cb = resolve_port ctx known_b ~loc:(id, Index.Side_b 0) b in
      if ca || cb then replace ctx id (Cell.Mux { a = a'; b = b'; s; y });
      List.iter
        (fun cid -> visit ctx visited known_a cid)
        (port_children ctx ~loc:(id, Index.Side_a) a');
      List.iter
        (fun cid -> visit ctx visited known_b cid)
        (port_children ctx ~loc:(id, Index.Side_b 0) b')
    | Some (Cell.Pmux { a; b; s; y }) ->
      let w = Bits.width a in
      let n = Bits.width s in
      let known_def = ref (Bits.Bit_tbl.copy known) in
      Array.iter (fun sb -> known_def := with_fact !known_def sb false) s;
      let a', ca = resolve_port ctx !known_def ~loc:(id, Index.Side_a) a in
      let b' = Array.copy b in
      let changed_b = ref false in
      let part_known i =
        (* priority facts: s_i = 1 and the nearest earlier selects = 0
           (capped to bound the sub-graph cones on very wide pmuxes) *)
        let kp = ref (Bits.Bit_tbl.copy known) in
        for j = max 0 (i - 12) to i - 1 do
          kp := with_fact !kp s.(j) false
        done;
        kp := with_fact !kp s.(i) true;
        !kp
      in
      for i = 0 to n - 1 do
        let part = Bits.slice b ~off:(i * w) ~len:w in
        let part', cp =
          resolve_port ctx (part_known i) ~loc:(id, Index.Side_b i) part
        in
        if cp then begin
          changed_b := true;
          Array.blit part' 0 b' (i * w) w
        end
      done;
      if ca || !changed_b then
        replace ctx id (Cell.Pmux { a = a'; b = b'; s; y });
      List.iter
        (fun cid -> visit ctx visited !known_def cid)
        (port_children ctx ~loc:(id, Index.Side_a) a');
      for i = 0 to n - 1 do
        let part = Bits.slice b' ~off:(i * w) ~len:w in
        List.iter
          (fun cid -> visit ctx visited (part_known i) cid)
          (port_children ctx ~loc:(id, Index.Side_b i) part)
      done
    | Some (Cell.Unary _ | Cell.Binary _ | Cell.Dff _) -> ()
  end

let m_bypassed = Obs.Metrics.counter "sat_elim.muxes_bypassed"
let m_folded = Obs.Metrics.counter "sat_elim.data_bits_folded"
let m_dead = Obs.Metrics.counter "sat_elim.dead_branches"

(* One in-place traversal of every muxtree, in the Yosys opt_muxtree
   order: each tree sees the rewrites of the trees walked before it. *)
let walk (cfg : Config.t) (c : Circuit.t) ~edits : report =
  let index = Index.build c in
  let ctx =
    {
      cfg;
      c;
      index;
      session = Cdcl.Session.create ();
      sg = Subgraph.create c index;
      edits;
      bypassed = 0;
      folded = 0;
      dead = 0;
    }
  in
  let visited = Hashtbl.create 64 in
  let roots =
    List.filter
      (fun id ->
        let cell = Circuit.cell c id in
        is_mux cell && Index.dedicated_location ctx.index cell = None)
      (Circuit.cell_ids c)
  in
  List.iter (fun id -> visit ctx visited (Bits.Bit_tbl.create 8) id) roots;
  {
    muxes_bypassed = ctx.bypassed;
    data_bits_folded = ctx.folded;
    dead_branches = ctx.dead;
  }

(* With a {!Replay} store installed, a pass whose start circuit recurs
   applies its recorded edits instead of walking.  Under an armed budget
   the walk's result depends on the clock, so it neither replays nor
   stores. *)
let run (cfg : Config.t) (c : Circuit.t) : report =
  Obs.Trace.with_span "sat_elim.run_once" @@ fun () ->
  let r =
    match Replay.active () with
    | Some store when not (Budget.armed ()) -> (
      let key = Replay.key cfg c in
      match Replay.find store key with
      | Some e ->
        List.iter
          (fun (id, cell) -> Circuit.replace_cell c id cell)
          (Replay.copy_edits e.Replay.e_edits);
        {
          muxes_bypassed = e.Replay.e_bypassed;
          data_bits_folded = e.Replay.e_folded;
          dead_branches = e.Replay.e_dead;
        }
      | None ->
        let edits = ref [] in
        let r = walk cfg c ~edits:(Some edits) in
        Replay.store store key
          {
            Replay.e_edits = List.rev !edits;
            e_bypassed = r.muxes_bypassed;
            e_folded = r.data_bits_folded;
            e_dead = r.dead_branches;
          };
        r)
    | Some _ | None -> walk cfg c ~edits:None
  in
  Obs.Metrics.add m_bypassed r.muxes_bypassed;
  Obs.Metrics.add m_folded r.data_bits_folded;
  Obs.Metrics.add m_dead r.dead_branches;
  r

let changed (r : report) =
  r.muxes_bypassed + r.data_bits_folded + r.dead_branches > 0
