(* Pass-level result cache for the SAT-elimination walk.

   One {!Sat_elim.run} pass reads the circuit's cells, its output ports
   (output bits count as readers, so they decide which muxes are roots
   and which are dedicated children) and the config.  When a warm batch
   — the serve daemon re-optimizing stamped-out copies, or re-running a
   design after edits elsewhere — starts a pass from a circuit it has
   seen before, the pass replays its recorded edit set and counters
   instead of walking again, skipping the traversal, sub-graph
   construction and every engine query of a recurring pass.

   Keys embed a digest of a full serialization of the cells and output
   bits, plus {!Config.fingerprint}.  Distinct circuits serialize
   distinctly, so a digest collision is the only wrong-replay risk (MD5,
   negligible at cache scale); a serialization mismatch between equal
   circuits merely costs a miss, never correctness.

   The cache is opt-in: nothing is consulted until a caller installs a
   store (the serve daemon and the jobs_per_sec bench do; plain CLI runs
   never see it). *)

open Netlist

type entry = {
  e_edits : (int * Cell.t) list;  (* application order, cells owned *)
  e_bypassed : int;
  e_folded : int;
  e_dead : int;
  e_stats : Engine.stats;
}

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let make ?(capacity = 1024) () =
  {
    capacity;
    tbl = Hashtbl.create 64;
    order = Queue.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Opt-in: [None] (the default everywhere) disables the cache. *)
let current : t option ref = ref None

let install s = current := Some s
let uninstall () = current := None
let active () = !current

(* Cells carry mutable bit arrays; entries own their cells so a later
   in-place rewrite of an applied cell can't corrupt the cache. *)
let copy_cell : Cell.t -> Cell.t = function
  | Cell.Unary { op; a; y } ->
    Cell.Unary { op; a = Array.copy a; y = Array.copy y }
  | Cell.Binary { op; a; b; y } ->
    Cell.Binary { op; a = Array.copy a; b = Array.copy b; y = Array.copy y }
  | Cell.Mux { a; b; s; y } ->
    Cell.Mux { a = Array.copy a; b = Array.copy b; s; y = Array.copy y }
  | Cell.Pmux { a; b; s; y } ->
    Cell.Pmux
      {
        a = Array.copy a;
        b = Array.copy b;
        s = Array.copy s;
        y = Array.copy y;
      }
  | Cell.Dff { d; q } -> Cell.Dff { d = Array.copy d; q = Array.copy q }

let copy_edits = List.map (fun (id, cell) -> (id, copy_cell cell))

(* --- keys --- *)

let ser_bit buf = function
  | Bits.C0 -> Buffer.add_char buf '0'
  | Bits.C1 -> Buffer.add_char buf '1'
  | Bits.Cx -> Buffer.add_char buf 'x'
  | Bits.Of_wire (w, o) ->
    Buffer.add_char buf 'w';
    Buffer.add_string buf (string_of_int w);
    Buffer.add_char buf '.';
    Buffer.add_string buf (string_of_int o)

let ser_sig buf s =
  Array.iter
    (fun b ->
      ser_bit buf b;
      Buffer.add_char buf ',')
    s;
  Buffer.add_char buf ';'

let ser_cell buf = function
  | Cell.Unary { op; a; y } ->
    Buffer.add_string buf (Cell.unary_op_name op);
    ser_sig buf a;
    ser_sig buf y
  | Cell.Binary { op; a; b; y } ->
    Buffer.add_string buf (Cell.binary_op_name op);
    ser_sig buf a;
    ser_sig buf b;
    ser_sig buf y
  | Cell.Mux { a; b; s; y } ->
    Buffer.add_string buf "$mux";
    ser_sig buf a;
    ser_sig buf b;
    ser_bit buf s;
    Buffer.add_char buf ';';
    ser_sig buf y
  | Cell.Pmux { a; b; s; y } ->
    Buffer.add_string buf "$pmux";
    ser_sig buf a;
    ser_sig buf b;
    ser_sig buf s;
    ser_sig buf y
  | Cell.Dff { d; q } ->
    Buffer.add_string buf "$dff";
    ser_sig buf d;
    ser_sig buf q

let circuit_digest (c : Circuit.t) : string =
  let buf = Buffer.create 65536 in
  List.iter
    (fun id ->
      Buffer.add_string buf (string_of_int id);
      Buffer.add_char buf ':';
      ser_cell buf (Circuit.cell c id);
      Buffer.add_char buf '\n')
    (Circuit.cell_ids c);
  Buffer.add_string buf "out:";
  ser_sig buf (Array.of_list (Circuit.output_bits c));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let key (cfg : Config.t) (c : Circuit.t) =
  circuit_digest c ^ ":" ^ Config.fingerprint cfg

(* --- lookup / store --- *)

let find s key =
  match Hashtbl.find_opt s.tbl key with
  | Some e ->
    s.hits <- s.hits + 1;
    Some e
  | None ->
    s.misses <- s.misses + 1;
    None

let store s key e =
  if s.capacity > 0 && not (Hashtbl.mem s.tbl key) then begin
    Hashtbl.replace s.tbl key { e with e_edits = copy_edits e.e_edits };
    Queue.push key s.order;
    if Queue.length s.order > s.capacity then begin
      Hashtbl.remove s.tbl (Queue.pop s.order);
      s.evictions <- s.evictions + 1
    end
  end

let to_json (s : t) : Obs.Json.t =
  let open Obs.Json in
  let total = s.hits + s.misses in
  Obj
    [
      ("hits", num_of_int s.hits);
      ("misses", num_of_int s.misses);
      ("evictions", num_of_int s.evictions);
      ("entries", num_of_int (Hashtbl.length s.tbl));
      ("capacity", num_of_int s.capacity);
      ( "hit_rate",
        Num
          (if total = 0 then 0.0
           else float_of_int s.hits /. float_of_int total) );
    ]
