(* SAT-based redundancy elimination (Section II of the paper).

   The traversal is the Yosys opt_muxtree walk ({!Rtl_opt.Opt_muxtree}),
   but a descendant mux's control is resolved with the full inference
   engine (known-value lookup -> inference rules -> exhaustive simulation
   -> SAT) instead of only by identical-signal matching.  Data-port bits
   determined by the inference rules under the path condition are replaced
   by constants before the walk chases them.

   Per fold and per query, a bounded sub-graph is extracted from the
   distance-k fanin cones of the visited control ports (the paper's
   incremental accumulation, restricted to the facts on the current path)
   on one kernel that the walk builds over its pass-start circuit. *)

open Netlist

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
  session : Cdcl.Session.t;
      (* one persistent incremental solver for every SAT query of the
         pass *)
  sg : Subgraph.t; (* the pass's kernel: every fold and every query *)
  edits : (int * Cell.t) list ref option;
      (* (id, new cell) newest-first, recorded when the pass will be
         stored in the {!Replay} cache *)
}

let replace ctx id (cell : Cell.t) =
  (match ctx.edits with
  | Some edits -> edits := (id, cell) :: !edits
  | None -> ());
  Subgraph.replace ctx.sg id cell

(* Provenance mechanism of an engine verdict; [Some qid] for SAT. *)
let mechanism_of_source (src : Engine.source) :
    Obs.Provenance.mechanism * int option =
  match src with
  | Engine.Via_lookup -> (Obs.Provenance.Rule "identical_signal", None)
  | Engine.Via_rule r -> (Obs.Provenance.Rule r, None)
  | Engine.Via_sim -> (Obs.Provenance.Rule "sim", None)
  | Engine.Via_sat qid -> (Obs.Provenance.Sat, Some qid)
  | Engine.Via_forgone -> (Obs.Provenance.Pruned, None)

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

let select ctx known s : Rtl_opt.Opt_muxtree.select =
  match resolve_select ctx known s with
  | Engine.Forced v, src ->
    let mechanism, query = mechanism_of_source src in
    Rtl_opt.Opt_muxtree.Take (v, mechanism, query)
  | Engine.Unreachable, _ -> Rtl_opt.Opt_muxtree.Dead
  | (Engine.Free | Engine.Unknown), _ -> Rtl_opt.Opt_muxtree.Keep

(* Substitute data-port bits under [known]: direct lookups plus values the
   inference rules derive on the cones of the known signals and of the
   port bits themselves.  [owner] is the mux cell whose port is being
   folded, for provenance.  Once the pass budget trips, the port stays as
   it is. *)
let fold_data_bits ctx known ~owner (port : Bits.sigspec) : Bits.sigspec * int
    =
  if Budget.exhausted () then begin
    Budget.note_truncation ();
    (port, 0)
  end
  else fold_port ctx.cfg ctx.sg known ~owner port

(* Once the pass budget trips, every tree node entered from here on, root
   or child, is left as it is. *)
let stop () =
  Budget.exhausted ()
  && begin
       Budget.note_truncation ();
       true
     end

let m_bypassed = Obs.Metrics.counter "sat_elim.muxes_bypassed"
let m_folded = Obs.Metrics.counter "sat_elim.data_bits_folded"
let m_dead = Obs.Metrics.counter "sat_elim.dead_branches"

(* The muxtree walk of {!Rtl_opt.Opt_muxtree} with the engine as its
   resolver, over one kernel and one SAT session for the pass. *)
let walk (cfg : Config.t) (c : Circuit.t) ~edits : Rtl_opt.Opt_muxtree.counts
    =
  let index = Index.build c in
  let ctx =
    {
      cfg;
      session = Cdcl.Session.create ();
      sg = Subgraph.create c index;
      edits;
    }
  in
  Rtl_opt.Opt_muxtree.walk
    {
      Rtl_opt.Opt_muxtree.pass = "sat_elim";
      fold = fold_data_bits ctx;
      select = select ctx;
      replace = replace ctx;
      stop;
    }
    c index

(* With a {!Replay} store installed, a pass whose start circuit recurs
   applies its recorded edits instead of walking.  Under an armed budget
   the walk's result depends on the clock, so it neither replays nor
   stores. *)
let run (cfg : Config.t) (c : Circuit.t) : int =
  Obs.Trace.with_span "sat_elim.run_once" @@ fun () ->
  let { Rtl_opt.Opt_muxtree.bypassed; folded; dead } =
    match Replay.active () with
    | Some store when not (Budget.armed ()) -> (
      let key = Replay.key cfg c in
      match Replay.find store key with
      | Some e ->
        List.iter
          (fun (id, cell) -> Circuit.replace_cell c id cell)
          (Replay.copy_edits e.Replay.e_edits);
        e.Replay.e_counts
      | None ->
        let edits = ref [] in
        let n = walk cfg c ~edits:(Some edits) in
        Replay.store store key
          { Replay.e_edits = List.rev !edits; e_counts = n };
        n)
    | Some _ | None -> walk cfg c ~edits:None
  in
  Obs.Metrics.add m_bypassed bypassed;
  Obs.Metrics.add m_folded folded;
  Obs.Metrics.add m_dead dead;
  bypassed + folded + dead
