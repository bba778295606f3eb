(* Deciding whether a target bit is forced under known values: cheap
   inference rules first, then exhaustive simulation when the sub-graph has
   few free inputs, otherwise an incremental SAT query (the paper's
   MiniSAT role, played by our CDCL solver).  Beyond the input threshold
   the query is forgone to bound the optimization cost. *)

open Netlist

type verdict =
  | Forced of bool
  | Free (* provably takes both values *)
  | Unreachable (* the known values are contradictory: dead path *)
  | Unknown (* budget exhausted / thresholds exceeded *)

(* Which rung of the ladder produced a verdict — the provenance side of
   {!determine_how}. *)
type source =
  | Via_lookup (* already known: identical-signal rule *)
  | Via_rule of string (* inference rule family that derived the value *)
  | Via_sim (* exhaustive bit-parallel simulation *)
  | Via_sat of int (* SAT query, carrying the query id *)
  | Via_forgone (* thresholds exceeded; verdict is Unknown *)

(* Global instruments; handles resolved once, bumped per query. *)
let m_rule_hits = Obs.Metrics.counter "engine.rule_hits"
let m_sim_queries = Obs.Metrics.counter "engine.sim_queries"
let m_sat_queries = Obs.Metrics.counter "engine.sat_queries"
let m_forgone = Obs.Metrics.counter "engine.forgone"
let m_sat_conflicts = Obs.Metrics.counter "engine.sat_conflicts"
let m_sat_decisions = Obs.Metrics.counter "engine.sat_decisions"
let m_sat_propagations = Obs.Metrics.counter "engine.sat_propagations"
let h_conflicts_per_query = Obs.Metrics.histogram "engine.conflicts_per_query"
let h_sat_query_seconds = Obs.Metrics.histogram "engine.sat_query_seconds"
let h_sim_query_seconds = Obs.Metrics.histogram "engine.sim_query_seconds"
let h_subgraph_size = Obs.Metrics.histogram "engine.subgraph_cells"
let m_subgraph_kept = Obs.Metrics.counter "subgraph.kept"

(* Per-SAT-query telemetry with a bounded buffer of the hardest queries
   (by conflicts), each carrying a self-contained DIMACS dump so it can be
   re-run in isolation by [smartly replay].  [reset] scopes the log to one
   run; the query count is the [engine.sat_queries] counter. *)
module Sat_log = struct
  type entry = {
    id : int;
    verdict : string; (* forced_true | forced_false | free | unknown *)
    solve : Cdcl.Solver.result; (* result of the query's final solve *)
    mode : string; (* fresh | session *)
    conflicts : int;
    decisions : int;
    propagations : int;
    wall_s : float;
    vars : int;
    clauses : int;
    dimacs : unit -> string;
        (* full instance incl. metadata comment line, rendered on demand *)
  }

  let default_keep = 8

  type state = {
    mutable keep : int;
    mutable next_id : int;
    mutable hardest : entry list; (* hardest first, length <= keep *)
  }

  let state = { keep = default_keep; next_id = 0; hardest = [] }

  let reset ?keep:(k = default_keep) () =
    let s = state in
    s.keep <- k;
    s.next_id <- 0;
    s.hardest <- []

  let fresh_id () =
    let s = state in
    let id = s.next_id in
    s.next_id <- s.next_id + 1;
    id

  let admits s ~conflicts =
    s.keep > 0
    && (List.length s.hardest < s.keep
       ||
       match List.rev s.hardest with
       | weakest :: _ -> conflicts > weakest.conflicts
       | [] -> true)

  (* Newest-first among equal conflict counts: the candidate is
     prepended before the stable sort. *)
  let insert s (e : entry) =
    let merged =
      List.stable_sort
        (fun a b -> compare b.conflicts a.conflicts)
        (e :: s.hardest)
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    s.hardest <- take s.keep merged

  (* [dimacs] is a thunk so easy queries that don't make the buffer never
     pay for materializing the instance; it is forced at admission (the
     encoder it closes over mutates across queries) and yields the
     renderer stored in the entry. *)
  let record ~id ~verdict ~solve ~mode ~conflicts ~decisions ~propagations
      ~wall_s ~vars ~clauses ~(dimacs : unit -> unit -> string) =
    let s = state in
    if admits s ~conflicts then
      insert s
        {
          id;
          verdict;
          solve;
          mode;
          conflicts;
          decisions;
          propagations;
          wall_s;
          vars;
          clauses;
          dimacs = dimacs ();
        }

  let hardest () = state.hardest

  let solve_name = function
    | Cdcl.Solver.Sat -> "SAT"
    | Cdcl.Solver.Unsat -> "UNSAT"
    | Cdcl.Solver.Unknown -> "UNKNOWN"

  let entry_json (e : entry) : Obs.Json.t =
    Obs.Json.Obj
      [
        ("id", Obs.Json.num_of_int e.id);
        ("verdict", Obs.Json.Str e.verdict);
        ("solve", Obs.Json.Str (solve_name e.solve));
        ("mode", Obs.Json.Str e.mode);
        ("conflicts", Obs.Json.num_of_int e.conflicts);
        ("decisions", Obs.Json.num_of_int e.decisions);
        ("propagations", Obs.Json.num_of_int e.propagations);
        ("wall_seconds", Obs.Json.Num e.wall_s);
        ("vars", Obs.Json.num_of_int e.vars);
        ("clauses", Obs.Json.num_of_int e.clauses);
      ]

  let to_json () : Obs.Json.t =
    Obs.Json.Obj
      [
        ("total", Obs.Json.num_of_int (Obs.Metrics.value m_sat_queries));
        ("hardest", Obs.Json.List (List.map entry_json state.hardest));
      ]

  (* One file per hardest query, named by query id. *)
  let dump ~dir =
    List.map
      (fun e ->
        let path = Filename.concat dir (Printf.sprintf "query_%04d.cnf" e.id) in
        let oc = open_out path in
        output_string oc (e.dimacs ());
        close_out oc;
        path)
      (List.rev state.hardest)
end

(* --- exhaustive simulation --- *)

(* Enumerate all assignments of [free_inputs] over [cells]; rows violating
   a fact are discarded; check whether [target] is constant over the
   surviving rows.  Every fact is written as a lane constant first, so the
   facts on sources hold in every row; evaluation overwrites the computed
   ones, which the filter then checks. *)
let simulate_exhaustive (circuit : Circuit.t) ~(cells : int list)
    ~(facts : (Bits.bit * bool) list) ~(free_inputs : Bits.bit list)
    ~(target : Bits.bit) : verdict =
  let n = List.length free_inputs in
  let lanes = min Rtl_sim.Vector.lanes_max 62 in
  let total = 1 lsl n in
  let saw_true = ref false and saw_false = ref false in
  let chunk_start = ref 0 in
  (try
     while !chunk_start < total do
       let lanes_here = min lanes (total - !chunk_start) in
       let mask = (1 lsl lanes_here) - 1 in
       let env = Rtl_sim.Vector.create ~lanes:lanes_here () in
       (* lane j encodes assignment index chunk_start + j *)
       List.iteri
         (fun bit_idx b ->
           let word = ref 0 in
           for j = 0 to lanes_here - 1 do
             let assignment = !chunk_start + j in
             if (assignment lsr bit_idx) land 1 = 1 then
               word := !word lor (1 lsl j)
           done;
           Rtl_sim.Vector.write env b !word)
         free_inputs;
       List.iter
         (fun (b, v) -> Rtl_sim.Vector.write env b (if v then mask else 0))
         facts;
       Rtl_sim.Vector.eval_ordered circuit env cells;
       let valid = ref mask in
       List.iter
         (fun (b, v) ->
           let w = Rtl_sim.Vector.read env b in
           valid := !valid land if v then w else lnot w land mask)
         facts;
       let tv = Rtl_sim.Vector.read env target in
       if !valid land tv <> 0 then saw_true := true;
       if !valid land (lnot tv land mask) <> 0 then saw_false := true;
       if !saw_true && !saw_false then raise Exit;
       chunk_start := !chunk_start + lanes_here
     done
   with Exit -> ());
  match !saw_true, !saw_false with
  | true, true -> Free
  | true, false -> Forced true
  | false, true -> Forced false
  | false, false -> Unreachable

(* --- SAT --- *)

let verdict_query_name = function
  | Cdcl.Tseitin.Forced true -> "forced_true"
  | Cdcl.Tseitin.Forced false -> "forced_false"
  | Cdcl.Tseitin.Free -> "free"
  | Cdcl.Tseitin.Contradictory -> "unreachable"
  | Cdcl.Tseitin.Undetermined -> "unknown"

(* Encode, query, and log one SAT query; returns the verdict and the
   query id assigned to it.

   With [session], the persistent solver is reused: [cells] are lazily
   encoded as guarded clause groups ([Cdcl.Session.prepare]) and this
   query activates exactly them by assuming their guard literals, so the
   verdict is identical to a fresh encoding of [cells] while learned
   clauses and the variable map survive to the next query.

   The solver polls the pass budget's watchdog at every conflict and
   decision, so a pass that runs out of time stops inside a long SAT
   call instead of after it; the interrupted query is [Unknown]. *)
let query_sat_how ?session (circuit : Circuit.t) ~(cells : int list)
    ~(facts : (Bits.bit * bool) list) ~budget ~(target : Bits.bit) :
    verdict * int =
  let qid = Sat_log.fresh_id () in
  let enc, guards, relevant, mode =
    match session with
    | Some sess ->
      let guards, relevant = Cdcl.Session.prepare sess circuit cells in
      (Cdcl.Session.encoder sess, guards, Some relevant, "session")
    | None ->
      let enc = Cdcl.Tseitin.create () in
      Cdcl.Tseitin.encode_cells enc circuit cells;
      (enc, [], None, "fresh")
  in
  let assumptions =
    guards @ List.map (fun (b, v) -> Cdcl.Tseitin.assume_lit enc b v) facts
  in
  (* snapshot around the query so a persistent solver's lifetime totals
     don't leak into per-query telemetry (fresh solvers start at zero,
     so the deltas are identical to the old totals there) *)
  let c0, d0, p0 = Cdcl.Solver.stats enc.Cdcl.Tseitin.solver in
  let t0 = Obs.Clock.now () in
  let r, info =
    Cdcl.Tseitin.query_forced_info ~budget ?relevant
      ~interrupt:Budget.exhausted enc ~assumptions ~target
  in
  let wall_s = Obs.Clock.now () -. t0 in
  let c1, d1, p1 = Cdcl.Solver.stats enc.Cdcl.Tseitin.solver in
  let conflicts = c1 - c0 in
  let decisions = d1 - d0 in
  let propagations = p1 - p0 in
  Obs.Metrics.add m_sat_conflicts conflicts;
  Obs.Metrics.add m_sat_decisions decisions;
  Obs.Metrics.add m_sat_propagations propagations;
  Obs.Metrics.observe_int h_conflicts_per_query conflicts;
  Obs.Metrics.observe h_sat_query_seconds wall_s;
  let vars = Cdcl.Solver.num_vars enc.Cdcl.Tseitin.solver in
  let clauses = Cdcl.Solver.num_clauses enc.Cdcl.Tseitin.solver in
  let dimacs () =
    (* self-contained instance: encoding + assumptions (path facts AND
       session guard literals) and the final target polarity as unit
       clauses, so a plain solve of the file must reproduce
       [info.last_result].  In session mode the log also holds inactive
       clause groups; their guards stay free, so any solver can satisfy
       them by switching those groups off.  The CNF is materialized now
       (the session encoder mutates across queries); the text is
       rendered only when the entry is dumped. *)
    let extra =
      List.map (fun l -> [ l ]) assumptions
      @ [ [ info.Cdcl.Tseitin.last_target_lit ] ]
    in
    let cnf = Cdcl.Tseitin.to_dimacs enc ~extra in
    fun () ->
      let meta =
        Printf.sprintf
          "smartly-sat-query id=%d verdict=%s solve=%s mode=%s conflicts=%d \
           decisions=%d propagations=%d wall_us=%.0f"
          qid (verdict_query_name r)
          (Sat_log.solve_name info.Cdcl.Tseitin.last_result)
          mode conflicts decisions propagations (wall_s *. 1e6)
      in
      Cdcl.Dimacs.to_string ~comments:[ meta ] cnf
  in
  Sat_log.record ~id:qid ~verdict:(verdict_query_name r)
    ~solve:info.Cdcl.Tseitin.last_result ~mode ~conflicts ~decisions
    ~propagations ~wall_s ~vars ~clauses ~dimacs;
  if Obs.Event.enabled () then
    Obs.Event.emit
      ~name:(Printf.sprintf "q%d" qid)
      ~data:
        (Obs.Json.Obj
           [
             "id", Obs.Json.num_of_int qid;
             "verdict", Obs.Json.Str (verdict_query_name r);
             "mode", Obs.Json.Str mode;
             "conflicts", Obs.Json.num_of_int conflicts;
             "wall_us", Obs.Json.Num (wall_s *. 1e6);
           ])
      Obs.Event.Sat_query;
  ( (match r with
    | Cdcl.Tseitin.Forced v -> Forced v
    | Cdcl.Tseitin.Free -> Free
    | Cdcl.Tseitin.Contradictory -> Unreachable
    | Cdcl.Tseitin.Undetermined -> Unknown),
    qid )

let query_sat ?session circuit ~cells ~facts ~budget ~target : verdict =
  fst (query_sat_how ?session circuit ~cells ~facts ~budget ~target)

(* --- the combined engine --- *)

let forgo () =
  Obs.Metrics.incr m_forgone;
  (Unknown, Via_forgone)

(* Determine [target] under [known] on the pass's kernel.  The query's
   sub-graph is the distance-k cones of the target and of every known
   signal (the only gates Theorem II.1 allows to matter).  The rules run
   on the kernel's fact store; the caller's map is never polluted by
   inferred values. *)
let determine_how ?session (cfg : Config.t) (sg : Subgraph.t)
    (known : Inference.known) ~(target : Bits.bit) : verdict * source =
  match Inference.read known target with
  | Some v -> (Forced v, Via_lookup) (* identical-signal case, free *)
  | None when Budget.exhausted () ->
    (* The pass blew its resource budget: forgo the query instead of
       building the sub-graph.  Sound — Unknown just means "leave the
       mux alone" — so the flow degrades to partial optimization. *)
    Budget.note_truncation ();
    forgo ()
  | None ->
    Obs.Trace.with_span "engine.determine" @@ fun () ->
    let k = cfg.Config.distance_k in
    Subgraph.start sg;
    Subgraph.add_cone sg ~k target;
    Bits.Bit_tbl.iter (fun b _ -> Subgraph.add_cone sg ~k b) known;
    let size = Subgraph.size sg in
    Obs.Metrics.observe_int h_subgraph_size size;
    if size > cfg.Config.max_subgraph_cells then forgo ()
    else begin
    Obs.Metrics.add m_subgraph_kept size;
    (* target not even in the sub-graph (neither computed by it nor one of
       its sources): no relation to knowns, nothing to infer from *)
    if
      not
        (Subgraph.computes sg target
        || List.exists (Bits.bit_equal target) (Subgraph.sources sg))
    then (Unknown, Via_forgone)
    else begin
      let circuit = Subgraph.circuit sg in
      let ordered = Subgraph.ordered_cells sg in
      let store = Subgraph.facts sg in
      match
        Inference.Dense.load store known;
        if cfg.Config.enable_inference_rules then begin
          Inference.Dense.propagate store circuit ordered;
          Inference.Dense.read store target
        end
        else None
      with
      | Some v ->
        Obs.Metrics.incr m_rule_hits;
        let rule =
          Option.value (Inference.Dense.rule store target) ~default:"rule"
        in
        (Forced v, Via_rule rule)
      | None ->
        let cells = Array.to_list ordered in
        let sources = Subgraph.sources sg in
        let free_inputs =
          List.filter (fun b -> Inference.Dense.read store b = None) sources
        in
        (* the facts on the sub-graph's bits: its sources and every
           output of its cells; a fact on any other bit constrains nothing
           here *)
        let fact b =
          Option.map (fun v -> (b, v)) (Inference.Dense.read store b)
        in
        let facts =
          List.filter_map fact sources
          @ List.concat_map
              (fun id ->
                List.filter_map fact
                  (Cell.output_bits (Circuit.cell circuit id)))
              cells
        in
        let n = List.length free_inputs in
        if
          n > cfg.Config.sim_input_threshold
          && n > cfg.Config.sat_input_threshold
        then forgo ()
        else if n <= cfg.Config.sim_input_threshold then begin
          Obs.Metrics.incr m_sim_queries;
          let t0 = Obs.Clock.now () in
          let v =
            simulate_exhaustive circuit ~cells ~facts ~free_inputs ~target
          in
          Obs.Metrics.observe h_sim_query_seconds (Obs.Clock.now () -. t0);
          (v, Via_sim)
        end
        else begin
          Obs.Metrics.incr m_sat_queries;
          let v, qid =
            query_sat_how ?session circuit ~cells ~facts
              ~budget:cfg.Config.sat_conflict_budget ~target
          in
          (v, Via_sat qid)
        end
      | exception Inference.Contradiction -> (Unreachable, Via_rule "contradiction")
    end
    end

let determine ?session cfg sg known ~target : verdict =
  fst (determine_how ?session cfg sg known ~target)
