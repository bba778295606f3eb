(* A persistent incremental SAT session serving many redundancy queries
   over one circuit.

   One [Tseitin.t] (and thus one CDCL solver) lives across queries: the
   variable map keyed by netlist bit is stable, cone clauses are added
   lazily the first time a cell is needed, and learned clauses survive
   from query to query.  Each cell's clauses are guarded by a dedicated
   activation literal [g] (every clause gets [¬g] appended), so a query
   activates exactly its sub-graph's cells by assuming their [g]s:

   - the guarded database restricted to the active guards is exactly
     equisatisfiable with a fresh encoding of the active cells — inactive
     cells' clauses are satisfied by leaving their guards false, and
     learned clauses are resolution consequences that retain the [¬g]
     literals of every group they touched;
   - therefore verdicts are identical to the fresh-solver path (the
     differential harness in test/test_sat_session.ml checks this), while
     repeated queries pay no re-encoding and benefit from learned clauses.

   The session watches for staleness: optimization passes mutate cells in
   place ([Circuit.replace_cell]), and clauses cannot be retracted, so if
   a prepared cell no longer structurally matches its encoded form the
   whole session is flushed (fresh solver, empty maps) and re-encoded.
   Muxtree rewrites touch few distinct cells between queries, so flushes
   stay rare in practice; the count is exported as a metric. *)

open Netlist

type entry = {
  guard : Lit.t;
  cell : Cell.t;
  vars : int list;
      (* every solver variable occurring in this group's clauses: the
         fresh internals allocated while encoding plus the cell's port
         bits (which may predate this group) — the union over a query's
         active groups is the [relevant] set handed to the solver for
         partial-model early termination *)
}

type t = {
  mutable enc : Tseitin.t;
  mutable cells : (int, entry) Hashtbl.t; (* cell id -> guarded encoding *)
  mutable flushes : int;
}

let m_flushes = Obs.Metrics.counter "sat_session.flushes"
let m_cell_encodes = Obs.Metrics.counter "sat_session.cell_encodes"
let m_cell_reuses = Obs.Metrics.counter "sat_session.cell_reuses"

let create () =
  { enc = Tseitin.create (); cells = Hashtbl.create 128; flushes = 0 }

let encoder t = t.enc
let flushes t = t.flushes

let flush t =
  t.enc <- Tseitin.create ();
  t.cells <- Hashtbl.create 128;
  t.flushes <- t.flushes + 1;
  Obs.Metrics.incr m_flushes

(* Cells are compared structurally: [replace_cell] installs a new record,
   so physical equality fails exactly when something might have changed. *)
let cell_current (e : entry) (cell : Cell.t) = e.cell == cell || e.cell = cell

let encode_one t (cell : Cell.t) id : entry =
  let n0 = Solver.num_vars (t.enc).Tseitin.solver in
  let g = Tseitin.fresh_lit t.enc in
  t.enc.Tseitin.clause_guard <- Some (Lit.negate g);
  Fun.protect
    ~finally:(fun () -> t.enc.Tseitin.clause_guard <- None)
    (fun () -> Tseitin.encode_cell t.enc cell);
  let n1 = Solver.num_vars (t.enc).Tseitin.solver in
  (* fresh vars of the group (guard + Tseitin internals + any port bit
     first seen here), then the port bits that already had vars *)
  let vars = ref [] in
  for v = n1 - 1 downto n0 do
    vars := v :: !vars
  done;
  let add_bit b =
    match b with
    | Bits.C0 | Bits.C1 | Bits.Cx -> ()
    | Bits.Of_wire _ ->
      let v = Lit.var (Tseitin.lit_of_bit t.enc b) in
      if v < n0 then vars := v :: !vars
  in
  List.iter (fun s -> Array.iter add_bit s) (Cell.inputs cell);
  List.iter add_bit (Cell.output_bits cell);
  let e = { guard = g; cell; vars = !vars } in
  Hashtbl.replace t.cells id e;
  Obs.Metrics.incr m_cell_encodes;
  e

(* Ensure every cell of [ids] is encoded and current; the returned guard
   literals must be assumed by the query.  Active cells contribute their
   guard positively; every OTHER encoded group contributes its guard
   negated.  Pinning the inactive guards false is not needed for
   correctness (their groups are satisfiable by leaving the guards free)
   but is essential for speed: it gives every inactive clause a true
   watched literal, so the accumulated database costs the search nothing
   beyond one O(1) assumption per group.  Also returned: the union of the
   active groups' variables, to be passed as the solver's [relevant] set —
   with the inactive groups pinned off, any conflict-free assignment of
   exactly those variables extends to a total model, so the solver may
   stop deciding there instead of assigning the whole accumulated
   database.  A stale cell flushes the session first (all guards are
   re-allocated). *)
let prepare t (c : Circuit.t) (ids : int list) : Lit.t list * int list =
  let stale =
    List.exists
      (fun id ->
        match Hashtbl.find_opt t.cells id with
        | Some e -> not (cell_current e (Circuit.cell c id))
        | None -> false)
      ids
  in
  if stale then flush t;
  let entries =
    List.map
      (fun id ->
        match Hashtbl.find_opt t.cells id with
        | Some e ->
          Obs.Metrics.incr m_cell_reuses;
          e
        | None -> encode_one t (Circuit.cell c id) id)
      ids
  in
  let active = List.map (fun e -> e.guard) entries in
  let active_ids = Hashtbl.create (List.length ids) in
  List.iter (fun id -> Hashtbl.replace active_ids id ()) ids;
  let inactive =
    Hashtbl.fold
      (fun id e acc ->
        if Hashtbl.mem active_ids id then acc else Lit.negate e.guard :: acc)
      t.cells []
  in
  let relevant =
    List.sort_uniq compare (List.concat_map (fun e -> e.vars) entries)
  in
  (active @ inactive, relevant)
