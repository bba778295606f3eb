(* SAT-based redundancy elimination (Section II of the paper).

   The traversal mirrors the Yosys opt_muxtree baseline, but a descendant
   mux's control is resolved with the full inference engine (known-value
   lookup -> inference rules -> exhaustive simulation -> SAT) instead of
   only by identical-signal matching.  Data-port bits determined by the
   inference rules under the path condition are replaced by constants.

   Per query, a bounded sub-graph is built from the distance-k fanin cones
   of the visited control ports (the paper's incremental accumulation,
   restricted to the facts on the current path) and handed to the
   engine. *)

open Netlist
module OM = Rtl_opt.Opt_muxtree

type report = {
  muxes_bypassed : int;
  data_bits_folded : int;
  dead_branches : int;
  engine : Engine.stats;
}

let pp_report ppf r =
  Fmt.pf ppf
    "bypassed=%d data_folded=%d dead=%d rules=%d analysis=%d sim=%d sat=%d \
     memo=%d/%d forgone=%d kept=%d conflicts=%d decisions=%d props=%d"
    r.muxes_bypassed r.data_bits_folded r.dead_branches
    r.engine.Engine.rule_hits r.engine.Engine.analysis_hits
    r.engine.Engine.sim_queries
    r.engine.Engine.sat_queries r.engine.Engine.memo_hits
    r.engine.Engine.memo_misses r.engine.Engine.forgone
    r.engine.Engine.subgraph_kept
    r.engine.Engine.sat_conflicts r.engine.Engine.sat_decisions
    r.engine.Engine.sat_propagations

type ctx = {
  cfg : Config.t;
  c : Circuit.t;
  index : Index.t;
  readers : OM.readers;
  stats : Engine.stats;
  session : Cdcl.Session.t option;
      (* one persistent incremental solver for every SAT query of the run;
         [None] when [cfg.enable_sat_session] is off *)
  edits : (int * Cell.t * Cell.t) list ref option;
      (* task path only: (id, old, new) newest-first, so the worker can
         revert its circuit copy to the frozen snapshot after the task
         and the coordinator can replay the news in application order *)
  mutable bypassed : int;
  mutable folded : int;
  mutable dead : int;
}

let replace ctx id (cell : Cell.t) =
  (match ctx.edits with
  | Some edits -> edits := (id, Circuit.cell ctx.c id, cell) :: !edits
  | None -> ());
  Circuit.replace_cell ctx.c id cell

let is_mux = function
  | Cell.Mux _ | Cell.Pmux _ -> true
  | Cell.Unary _ | Cell.Binary _ | Cell.Dff _ -> false

(* Provenance mechanism of an engine verdict; [Some qid] for SAT. *)
let mechanism_of_source (src : Engine.source) :
    Obs.Provenance.mechanism * int option =
  match src with
  | Engine.Via_lookup -> (Obs.Provenance.Rule "identical_signal", None)
  | Engine.Via_rule r -> (Obs.Provenance.Rule r, None)
  | Engine.Via_analysis -> (Obs.Provenance.Analysis, None)
  | Engine.Via_sim -> (Obs.Provenance.Rule "sim", None)
  | Engine.Via_sat qid -> (Obs.Provenance.Sat, Some qid)
  | Engine.Via_memo -> (Obs.Provenance.Memo, None)
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
        Engine.determine_how ?session:ctx.session ctx.cfg ctx.stats ctx.c
          ctx.index known ~target:s)

(* Substitute data-port bits under [known]: direct lookups plus values the
   inference rules derive on a bounded view built from the cones of the
   known signals and of the port bits themselves.  [owner] is the mux cell
   whose port is being folded, for provenance. *)
let fold_data_bits ctx known ~owner (port : Bits.sigspec) :
    Bits.sigspec * bool =
  Obs.Trace.with_span "sat_elim.fold" @@ fun () ->
  let track = Bits.Bit_tbl.create 16 in
  let local =
    if
      ctx.cfg.Config.enable_inference_rules
      && Bits.Bit_tbl.length known > 0
    then begin
      let sg = Subgraph.create ctx.c ctx.index in
      let k = ctx.cfg.Config.distance_k in
      Bits.Bit_tbl.iter (fun b _ -> Subgraph.add_cone sg ~k b) known;
      Array.iter (fun b -> Subgraph.add_cone sg ~k b) port;
      if Subgraph.size sg > ctx.cfg.Config.max_subgraph_cells then known
      else begin
        let local = Bits.Bit_tbl.copy known in
        match
          Inference.propagate ~track ctx.c local (Subgraph.ordered_cells sg)
        with
        | _ -> local
        | exception Inference.Contradiction -> known
      end
    end
    else known
  in
  let changed = ref false in
  let out =
    Array.map
      (fun b ->
        match Inference.read local b with
        | Some v ->
          let nb = if v then Bits.C1 else Bits.C0 in
          if not (Bits.bit_equal nb b) then begin
            changed := true;
            ctx.folded <- ctx.folded + 1;
            let rule =
              match Bits.Bit_tbl.find_opt track b with
              | Some r -> r
              | None -> "identical_signal"
            in
            Obs.Provenance.emit ~kind:Obs.Provenance.Const_resolved
              ~cell:owner ~pass:"sat_elim"
              ~mechanism:(Obs.Provenance.Rule rule) ~bits:1 ()
          end;
          nb
        | None -> b)
      port
  in
  out, !changed

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
      when OM.dedicated_location ctx.readers child = Some loc -> (
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
                  && OM.dedicated_location ctx.readers child = Some loc ->
             Some id
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
      let a', ca = resolve_port ctx known_a ~loc:(id, OM.Side_a) a in
      let b', cb = resolve_port ctx known_b ~loc:(id, OM.Side_b 0) b in
      if ca || cb then replace ctx id (Cell.Mux { a = a'; b = b'; s; y });
      List.iter
        (fun cid -> visit ctx visited known_a cid)
        (port_children ctx ~loc:(id, OM.Side_a) a');
      List.iter
        (fun cid -> visit ctx visited known_b cid)
        (port_children ctx ~loc:(id, OM.Side_b 0) b')
    | Some (Cell.Pmux { a; b; s; y }) ->
      let w = Bits.width a in
      let n = Bits.width s in
      let known_def = ref (Bits.Bit_tbl.copy known) in
      Array.iter (fun sb -> known_def := with_fact !known_def sb false) s;
      let a', ca = resolve_port ctx !known_def ~loc:(id, OM.Side_a) a in
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
          resolve_port ctx (part_known i) ~loc:(id, OM.Side_b i) part
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
        (port_children ctx ~loc:(id, OM.Side_a) a');
      for i = 0 to n - 1 do
        let part = Bits.slice b' ~off:(i * w) ~len:w in
        List.iter
          (fun cid -> visit ctx visited (part_known i) cid)
          (port_children ctx ~loc:(id, OM.Side_b i) part)
      done
    | Some (Cell.Unary _ | Cell.Binary _ | Cell.Dff _) -> ()
  end

let m_bypassed = Obs.Metrics.counter "sat_elim.muxes_bypassed"
let m_folded = Obs.Metrics.counter "sat_elim.data_bits_folded"
let m_dead = Obs.Metrics.counter "sat_elim.dead_branches"

let run_once (cfg : Config.t) (c : Circuit.t) : report =
  Obs.Trace.with_span "sat_elim.run_once" @@ fun () ->
  let index = Index.build c in
  let ctx =
    {
      cfg;
      c;
      index;
      readers = OM.collect_readers c;
      stats = Engine.fresh_stats ();
      session =
        (if cfg.Config.enable_sat_session then Some (Cdcl.Session.create ())
         else None);
      edits = None;
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
        is_mux cell && OM.dedicated_location ctx.readers cell = None)
      (Circuit.cell_ids c)
  in
  List.iter (fun id -> visit ctx visited (Bits.Bit_tbl.create 8) id) roots;
  Obs.Metrics.add m_bypassed ctx.bypassed;
  Obs.Metrics.add m_folded ctx.folded;
  Obs.Metrics.add m_dead ctx.dead;
  {
    muxes_bypassed = ctx.bypassed;
    data_bits_folded = ctx.folded;
    dead_branches = ctx.dead;
    engine = ctx.stats;
  }

(* --- the sharded task path (--jobs) ---

   Each muxtree root is one task.  A worker owns a private copy of the
   circuit (frozen at pass start), optimizes its tree on that copy while
   recording the edit set, reverts the copy back to the snapshot, and
   hands the edits to the coordinator, which applies them to the master
   circuit in task order.  Trees rooted at distinct roots touch disjoint
   cell sets — a dedicated mux is read by exactly one location, so every
   cell belongs to at most one tree and [port_children] never crosses
   into another task's root — which makes the merge conflict-free and
   the result independent of the schedule.

   Every task also opens a {!Sched} scope: fresh SAT session, memo
   overlay over the coordinator's frozen store, local metrics /
   provenance / bus buffers and SAT log, all merged at the barrier in
   task order so [--jobs N] telemetry is byte-identical for every N.
   The price of that determinism is per-task (not per-run) solver
   state; the legacy [run_once] path keeps the shared session and
   remains the default. *)

type task_result = {
  t_edits : (int * Cell.t) list; (* (id, new cell) in application order *)
  t_bypassed : int;
  t_folded : int;
  t_dead : int;
  t_stats : Engine.stats;
}

let add_stats (into : Engine.stats) (s : Engine.stats) =
  into.Engine.rule_hits <- into.Engine.rule_hits + s.Engine.rule_hits;
  into.Engine.analysis_hits <-
    into.Engine.analysis_hits + s.Engine.analysis_hits;
  into.Engine.analysis_queries <-
    into.Engine.analysis_queries + s.Engine.analysis_queries;
  into.Engine.sim_queries <- into.Engine.sim_queries + s.Engine.sim_queries;
  into.Engine.sat_queries <- into.Engine.sat_queries + s.Engine.sat_queries;
  into.Engine.memo_hits <- into.Engine.memo_hits + s.Engine.memo_hits;
  into.Engine.memo_misses <- into.Engine.memo_misses + s.Engine.memo_misses;
  into.Engine.forgone <- into.Engine.forgone + s.Engine.forgone;
  into.Engine.subgraph_kept <-
    into.Engine.subgraph_kept + s.Engine.subgraph_kept;
  into.Engine.sat_conflicts <-
    into.Engine.sat_conflicts + s.Engine.sat_conflicts;
  into.Engine.sat_decisions <-
    into.Engine.sat_decisions + s.Engine.sat_decisions;
  into.Engine.sat_propagations <-
    into.Engine.sat_propagations + s.Engine.sat_propagations

let run_tasks (cfg : Config.t) (c : Circuit.t) ~jobs : report =
  Obs.Trace.with_span "sat_elim.run_tasks" @@ fun () ->
  let readers0 = OM.collect_readers c in
  let roots =
    List.filter
      (fun id ->
        let cell = Circuit.cell c id in
        is_mux cell && OM.dedicated_location readers0 cell = None)
      (Circuit.cell_ids c)
    |> Array.of_list
  in
  let n = Array.length roots in
  (* Task-replay cache ({!Replay}, opt-in): a task's result is a pure
     function of (frozen cells, root, config), so when a store is
     installed, hits are resolved here on the coordinator — before the
     pool sees any work, keeping the store lock-free — and only misses
     become pool tasks.  A fully warm pass spawns no domains at all. *)
  let cache = Replay.active () in
  let keys =
    match cache with
    | None -> [||]
    | Some _ ->
      let digest = Replay.circuit_digest c in
      let cfg_fp = Config.fingerprint cfg in
      Array.map (fun root -> Replay.task_key ~digest ~cfg_fp ~root) roots
  in
  let cached =
    match cache with
    | None -> Array.make n None
    | Some s -> Array.map (fun k -> Replay.find s k) keys
  in
  let miss_idx =
    let l = ref [] in
    for i = n - 1 downto 0 do
      match cached.(i) with None -> l := i :: !l | Some _ -> ()
    done;
    Array.of_list !l
  in
  let env = Sched.env ~cfg () in
  let miss_results =
    Pool.run ~jobs
      ~init:(fun () ->
        let wc = Circuit.copy c in
        (wc, Index.build wc, OM.collect_readers wc))
      ~task:(fun (wc, index, readers) mi ->
        Sched.with_task env @@ fun () ->
        let edits = ref [] in
        let ctx =
          {
            cfg;
            c = wc;
            index;
            readers;
            stats = Engine.fresh_stats ();
            session =
              (if cfg.Config.enable_sat_session then
                 Some (Cdcl.Session.create ())
               else None);
            edits = Some edits;
            bypassed = 0;
            folded = 0;
            dead = 0;
          }
        in
        let visited = Hashtbl.create 64 in
        visit ctx visited (Bits.Bit_tbl.create 8) roots.(miss_idx.(mi));
        (* put the worker copy back to the frozen snapshot for the next
           task; newest-first order unwinds repeated edits correctly *)
        List.iter
          (fun (id, old_cell, _) -> Circuit.replace_cell wc id old_cell)
          !edits;
        {
          t_edits = List.rev_map (fun (id, _, nc) -> (id, nc)) !edits;
          t_bypassed = ctx.bypassed;
          t_folded = ctx.folded;
          t_dead = ctx.dead;
          t_stats = ctx.stats;
        })
      (Array.length miss_idx)
  in
  (* barrier: apply and merge in task order — the only order-sensitive
     step, and the reason the output cannot depend on the schedule.
     Replayed tasks restore their recorded edits and counters; pool
     tasks additionally merge their telemetry captures and feed the
     cache. *)
  let stats = Engine.fresh_stats () in
  let bypassed = ref 0 in
  let folded = ref 0 in
  let dead = ref 0 in
  let next_miss = ref 0 in
  for i = 0 to n - 1 do
    match cached.(i) with
    | Some e ->
      List.iter
        (fun (id, cell) -> Circuit.replace_cell c id cell)
        (Replay.copy_edits e.Replay.e_edits);
      add_stats stats e.Replay.e_stats;
      bypassed := !bypassed + e.Replay.e_bypassed;
      folded := !folded + e.Replay.e_folded;
      dead := !dead + e.Replay.e_dead
    | None ->
      let tr, capture = miss_results.(!next_miss) in
      incr next_miss;
      List.iter (fun (id, cell) -> Circuit.replace_cell c id cell) tr.t_edits;
      Sched.merge capture;
      add_stats stats tr.t_stats;
      bypassed := !bypassed + tr.t_bypassed;
      folded := !folded + tr.t_folded;
      dead := !dead + tr.t_dead;
      (match cache with
      | Some s ->
        Replay.store s keys.(i)
          {
            Replay.e_edits = tr.t_edits;
            e_bypassed = tr.t_bypassed;
            e_folded = tr.t_folded;
            e_dead = tr.t_dead;
            e_stats = tr.t_stats;
          }
      | None -> ())
  done;
  Obs.Metrics.add m_bypassed !bypassed;
  Obs.Metrics.add m_folded !folded;
  Obs.Metrics.add m_dead !dead;
  {
    muxes_bypassed = !bypassed;
    data_bits_folded = !folded;
    dead_branches = !dead;
    engine = stats;
  }

let run ?jobs (cfg : Config.t) (c : Circuit.t) : report =
  match jobs with
  | Some n -> run_tasks cfg c ~jobs:n
  | None -> run_once cfg c

let changed (r : report) =
  r.muxes_bypassed + r.data_bits_folded + r.dead_branches > 0
