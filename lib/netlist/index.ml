(* Structural indices over a circuit: who drives each bit, and who reads
   it on which port.  Rebuilt from scratch after mutating passes, so a
   build allocates only flat arrays: the bits that ports and cells
   mention get slots wire by wire (bit (w, o) is slot [base.(w) + o]),
   and a slot's reads are one run of [rd_cell]/[rd_side]. *)

type driver =
  | Driven_by of int * int (* cell id, offset within its output sigspec *)
  | Primary_input
  | Undriven

type side = Side_a | Side_b of int (* pmux part index; Mux's b = part 0 *)

type t = {
  base : int array; (* wire id -> its first slot; one entry more than ids *)
  drv : int array; (* slot -> driving cell id, [primary_input] or [undriven] *)
  drv_off : int array; (* slot -> offset within the driver's output *)
  exported : Bytes.t; (* slot -> '\001' for an output-port bit *)
  first : int array; (* slot -> its first read; one entry more than slots *)
  rd_cell : int array; (* reads grouped by slot: the reader's cell id *)
  rd_side : int array; (* [other], 0 for Side_a, i + 1 for Side_b i *)
}

let primary_input = -1
let undriven = -2
let other = -1 (* a select read, or a read by a non-mux cell *)

(* [f side bit] on every input bit of the cell, [side] coded as in [t] *)
let iter_reads f (cell : Cell.t) =
  match cell with
  | Cell.Mux { a; b; s; _ } ->
    Array.iter (f 0) a;
    Array.iter (f 1) b;
    f other s
  | Cell.Pmux { a; b; s; _ } ->
    let w = Bits.width a in
    Array.iter (f 0) a;
    Array.iteri (fun i bit -> f ((i / w) + 1) bit) b;
    Array.iter (f other) s
  | Cell.Unary { a; _ } | Cell.Dff { d = a; _ } -> Array.iter (f other) a
  | Cell.Binary { a; b; _ } ->
    Array.iter (f other) a;
    Array.iter (f other) b

(* The slot of a bit, or -1 when no port or cell mentions it. *)
let slot_in base (b : Bits.bit) =
  match b with
  | Bits.Of_wire (w, o) when w >= 0 && o >= 0 && w < Array.length base - 1 ->
    if base.(w) + o < base.(w + 1) then base.(w) + o else -1
  | Bits.Of_wire _ | Bits.C0 | Bits.C1 | Bits.Cx -> -1

let build (c : Circuit.t) =
  let inputs = Circuit.input_bits c and outputs = Circuit.output_bits c in
  (* each wire id's width as mentioned: 1 + its highest offset *)
  let width = ref (Array.make c.Circuit.next_wire_id 0) in
  let mention (b : Bits.bit) =
    match b with
    | Bits.Of_wire (w, o) when w >= 0 && o >= 0 ->
      let n = Array.length !width in
      if w >= n then width := Array.append !width (Array.make (w + 1 + n) 0);
      if o >= !width.(w) then !width.(w) <- o + 1
    | Bits.Of_wire _ | Bits.C0 | Bits.C1 | Bits.Cx -> ()
  in
  List.iter mention inputs;
  List.iter mention outputs;
  Circuit.iter_cells
    (fun _ cell ->
      Array.iter mention (Cell.output cell);
      iter_reads (fun _ b -> mention b) cell)
    c;
  let wires = Array.length !width in
  let base = Array.make (wires + 1) 0 in
  Array.iteri (fun w n -> base.(w + 1) <- base.(w) + n) !width;
  let slots = base.(wires) in
  let slot = slot_in base in
  let drv = Array.make slots undriven and drv_off = Array.make slots 0 in
  let exported = Bytes.make slots '\000' in
  List.iter (fun b -> drv.(slot b) <- primary_input) inputs;
  List.iter (fun b -> Bytes.set exported (slot b) '\001') outputs;
  (* the drivers, and each slot's reads counted and summed up to it:
     [first.(s)] is where slot [s]'s run ends *)
  let first = Array.make (slots + 1) 0 in
  Circuit.iter_cells
    (fun id cell ->
      Array.iteri
        (fun off b ->
          if Bits.is_const b then
            invalid_arg "Index.build: cell output connected to a constant";
          let s = slot b in
          if s >= 0 then begin
            drv.(s) <- id;
            drv_off.(s) <- off
          end)
        (Cell.output cell);
      iter_reads
        (fun _ b ->
          let s = slot b in
          if s >= 0 then first.(s) <- first.(s) + 1)
        cell)
    c;
  for s = 1 to slots do
    first.(s) <- first.(s) + first.(s - 1)
  done;
  (* fill each run from its end, which leaves [first.(s)] at its start *)
  let rd_cell = Array.make first.(slots) 0 in
  let rd_side = Array.make first.(slots) other in
  Circuit.iter_cells
    (fun id cell ->
      iter_reads
        (fun side b ->
          let s = slot b in
          if s >= 0 then begin
            first.(s) <- first.(s) - 1;
            rd_cell.(first.(s)) <- id;
            rd_side.(first.(s)) <- side
          end)
        cell)
    c;
  { base; drv; drv_off; exported; first; rd_cell; rd_side }

let slot t b = slot_in t.base b

let driver t (b : Bits.bit) =
  let s = slot t b in
  if s < 0 || t.drv.(s) = undriven then Undriven
  else if t.drv.(s) = primary_input then Primary_input
  else Driven_by (t.drv.(s), t.drv_off.(s))

(* The cell driving bit [b], if any. *)
let driving_cell t b =
  let s = slot t b in
  if s < 0 || t.drv.(s) < 0 then None else Some (t.drv.(s), t.drv_off.(s))

(* [f reader side] on every read of [b] *)
let iter_reads_of t b f =
  let s = slot t b in
  if s >= 0 then
    for k = t.first.(s) to t.first.(s + 1) - 1 do
      f t.rd_cell.(k) t.rd_side.(k)
    done

let readers t (b : Bits.bit) =
  let ids = ref [] in
  iter_reads_of t b (fun id _ -> ids := id :: !ids);
  List.sort_uniq Int.compare !ids

let is_exported t b =
  let s = slot t b in
  s >= 0 && Bytes.get t.exported s <> '\000'

exception Shared

(* A cell is a dedicated child of (parent, side) if every read of every
   output bit is from that one location: a select read, a read by a
   non-mux cell, an output port or a second location disqualifies it. *)
let dedicated_location t (cell : Cell.t) : (int * side) option =
  let found = ref None in
  let note id side =
    if side = other then raise_notrace Shared;
    match !found with
    | None -> found := Some (id, side)
    | Some (id0, side0) ->
      if id <> id0 || side <> side0 then raise_notrace Shared
  in
  match
    Array.iter
      (fun b ->
        if is_exported t b then raise_notrace Shared;
        iter_reads_of t b note)
      (Cell.output cell)
  with
  | () ->
    Option.map
      (fun (id, side) -> (id, if side = 0 then Side_a else Side_b (side - 1)))
      !found
  | exception Shared -> None
