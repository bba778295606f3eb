(* Cross-query verdict memoization for the decision engine.

   A determine query is fully characterized by (sub-graph view, known
   assignments, target): the verdict of the sim and SAT rungs is a pure
   function of that triple.  The same triple recurs constantly — sibling
   branches of a muxtree share path prefixes, and the workload generators
   stamp out structurally identical trees — so verdicts are cached across
   muxtrees (and across passes within a run) under a canonical structural
   key.

   The key is alpha-equivalent: wire identities are erased by numbering
   bits in first-use order of a deterministic traversal that starts at the
   target's fanin cone inside the view and then walks the known bits in a
   canonical order (sorted by an independently computed cone fingerprint,
   then value).  Two sub-graphs that are isomorphic as labeled DAGs —
   same cell kinds, same port wiring, same known values, same target
   position — therefore produce the same key no matter which wire ids the
   circuit happens to use.  Known bits with no connection to the view
   (neither computed by it nor read by it) cannot influence the verdict
   and are excluded, so irrelevant facts do not split the key space.

   The full key string is stored (never just its hash), so a hash
   collision can only cost a probe, never return a wrong verdict.
   [Unknown] verdicts are never cached: they depend on the conflict
   budget and on accumulated solver state, not on the triple alone.

   One process-wide store unless a caller installs its own (the serve
   daemon keeps a warm one across jobs); [reset] scopes it to one run.
   Bounded FIFO eviction keeps memory flat on large designs. *)

open Netlist

type verdict = Forced of bool | Free | Unreachable

let m_hits = Obs.Metrics.counter "memo.hits"
let m_misses = Obs.Metrics.counter "memo.misses"
let m_evictions = Obs.Metrics.counter "memo.evictions"

(* --- canonical key construction --- *)

type st = {
  buf : Buffer.t;
  canon : int Bits.Bit_tbl.t; (* bit -> canonical number, first-use order *)
  mutable next : int;
  emitted : (int, unit) Hashtbl.t; (* view cells already serialized *)
  driven_by : int Bits.Bit_tbl.t; (* output bit -> driving view cell *)
  circuit : Circuit.t;
}

let cell_token (cell : Cell.t) =
  match cell with
  | Cell.Unary { op; _ } -> "u" ^ Cell.unary_op_name op
  | Cell.Binary { op; _ } -> "b" ^ Cell.binary_op_name op
  | Cell.Mux _ -> "m"
  | Cell.Pmux _ -> "p"
  | Cell.Dff _ -> "d" (* excluded from views, but total anyway *)

let add_canon st b =
  Buffer.add_char st.buf 'w';
  Buffer.add_string st.buf (string_of_int (Bits.Bit_tbl.find st.canon b))

let fresh_canon st b =
  Bits.Bit_tbl.replace st.canon b st.next;
  st.next <- st.next + 1;
  add_canon st b

let rec ser_bit st (b : Bits.bit) =
  match b with
  | Bits.C0 -> Buffer.add_char st.buf '0'
  | Bits.C1 -> Buffer.add_char st.buf '1'
  | Bits.Cx -> Buffer.add_char st.buf 'x'
  | Bits.Of_wire _ -> (
    match Bits.Bit_tbl.find_opt st.canon b with
    | Some i ->
      Buffer.add_char st.buf 'w';
      Buffer.add_string st.buf (string_of_int i)
    | None -> (
      match Bits.Bit_tbl.find_opt st.driven_by b with
      | Some id when not (Hashtbl.mem st.emitted id) ->
        ser_cell st id;
        (* the cell's outputs were numbered just above *)
        if Bits.Bit_tbl.mem st.canon b then add_canon st b
        else fresh_canon st b
      | _ ->
        (* view source (or combinational-loop fallback): a free name *)
        fresh_canon st b))

and ser_cell st id =
  Hashtbl.replace st.emitted id ();
  let cell = Circuit.cell st.circuit id in
  Buffer.add_char st.buf '{';
  Buffer.add_string st.buf (cell_token cell);
  List.iter
    (fun port ->
      Buffer.add_char st.buf '(';
      Array.iter
        (fun b ->
          ser_bit st b;
          Buffer.add_char st.buf ',')
        port;
      Buffer.add_char st.buf ')')
    (Cell.inputs cell);
  List.iter
    (fun b ->
      if not (Bits.Bit_tbl.mem st.canon b) then begin
        Bits.Bit_tbl.replace st.canon b st.next;
        st.next <- st.next + 1
      end)
    (Cell.output_bits cell);
  Buffer.add_char st.buf '}'

let fresh_st circuit driven_by =
  {
    buf = Buffer.create 256;
    canon = Bits.Bit_tbl.create 64;
    next = 0;
    emitted = Hashtbl.create 32;
    driven_by;
    circuit;
  }

(* Canonical key of one query.  [known] bits unrelated to the view are
   excluded — they cannot affect any rung's verdict. *)
let key (circuit : Circuit.t) (view : Subgraph.view)
    (known : bool Bits.Bit_tbl.t) ~(target : Bits.bit) : string =
  Obs.Trace.with_span "memo.key" @@ fun () ->
  let driven_by = view.Subgraph.driver in
  let relevant_knowns =
    Bits.Bit_tbl.fold
      (fun b v acc ->
        if Subgraph.computes view b || Subgraph.is_source view b then
          (b, v) :: acc
        else acc)
      known []
  in
  (* order knowns by an independent fingerprint of each cone, so the order
     is a function of structure, not of wire ids or hash-table layout; each
     fingerprint is serialized once and the decorated list sorted (stable,
     so ties keep the order the comparator alone would give them) *)
  let fingerprint b =
    let st = fresh_st circuit driven_by in
    ser_bit st b;
    Buffer.contents st.buf
  in
  let sorted =
    List.map (fun (b, v) -> (fingerprint b, v, b)) relevant_knowns
    |> List.stable_sort (fun (f1, v1, _) (f2, v2, _) ->
           let c = String.compare f1 f2 in
           if c <> 0 then c else Bool.compare v1 v2)
  in
  let st = fresh_st circuit driven_by in
  Buffer.add_string st.buf "T:";
  ser_bit st target;
  List.iter
    (fun (_, v, b) ->
      Buffer.add_string st.buf (if v then "|K1:" else "|K0:");
      ser_bit st b)
    sorted;
  Buffer.contents st.buf

(* --- the bounded store --- *)

let default_capacity = 65536

(* One bounded store; the serve daemon keeps a warm one installed
   across jobs. *)
type t = {
  mutable capacity : int;
  tbl : (string, verdict) Hashtbl.t;
  order : string Queue.t; (* insertion order, for FIFO eviction *)
}

let make ?(capacity = default_capacity) () =
  { capacity; tbl = Hashtbl.create 1024; order = Queue.create () }

let installed : t ref = ref (make ())
let install (s : t) = installed := s

let reset ?capacity:(c = default_capacity) () =
  let s = !installed in
  s.capacity <- c;
  Hashtbl.reset s.tbl;
  Queue.clear s.order

let size () = Hashtbl.length !installed.tbl

let find k : verdict option =
  match Hashtbl.find_opt !installed.tbl k with
  | Some v ->
    Obs.Metrics.incr m_hits;
    Some v
  | None ->
    Obs.Metrics.incr m_misses;
    None

let store k (v : verdict) =
  let s = !installed in
  if not (Hashtbl.mem s.tbl k) then begin
    if Hashtbl.length s.tbl >= s.capacity && s.capacity > 0 then (
      match Queue.take_opt s.order with
      | Some oldest ->
        Hashtbl.remove s.tbl oldest;
        Obs.Metrics.incr m_evictions
      | None -> ());
    if s.capacity > 0 then begin
      Hashtbl.replace s.tbl k v;
      Queue.add k s.order
    end
  end

let to_json () : Obs.Json.t =
  let hits = Obs.Metrics.value m_hits in
  let misses = Obs.Metrics.value m_misses in
  let rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  Obs.Json.Obj
    [
      ("hits", Obs.Json.num_of_int hits);
      ("misses", Obs.Json.num_of_int misses);
      ("evictions", Obs.Json.num_of_int (Obs.Metrics.value m_evictions));
      ("entries", Obs.Json.num_of_int (size ()));
      ("capacity", Obs.Json.num_of_int !installed.capacity);
      ("hit_rate", Obs.Json.Num rate);
    ]
