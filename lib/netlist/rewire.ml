(* Signal substitution: route [to_] everywhere [from_] was read.

   Passes use this when deleting a cell whose output must be replaced by
   another signal.  A sweep records its replacements in a pending
   substitution (a Yosys [SigMap]-style bit map), reads each cell it visits
   through it, and flushes it once at the end, so a sweep costs one pass
   over the cells however many it removes.  If a replaced bit belongs to an
   output port (which cannot be renamed), a transparent buffer cell (or
   with constant zero, free after AIG folding) is inserted to keep the port
   driven. *)

let is_output_bit (c : Circuit.t) (b : Bits.bit) =
  match b with
  | Bits.C0 | Bits.C1 | Bits.Cx -> false
  | Bits.Of_wire (wid, _) ->
    List.exists
      (fun (dir, w) -> dir = Circuit.Output && w.Circuit.wire_id = wid)
      c.Circuit.ports

type t = { circuit : Circuit.t; subst : Bits.bit Bits.Bit_tbl.t }

let create circuit = { circuit; subst = Bits.Bit_tbl.create 16 }

(* Every replaced bit maps to a bit that was never replaced when it was
   recorded, and identity pairs are skipped, so chains are acyclic; the
   path is compressed as it is walked. *)
let rec resolve t b =
  match Bits.Bit_tbl.find_opt t.subst b with
  | None -> b
  | Some nb ->
    let root = resolve t nb in
    if root != nb then Bits.Bit_tbl.replace t.subst b root;
    root

let record t ~(from_ : Bits.sigspec) ~(to_ : Bits.sigspec) =
  if Bits.width from_ <> Bits.width to_ then
    invalid_arg "Rewire.record: width mismatch";
  let ports = ref [] in
  Array.iteri
    (fun i fb ->
      let tb = resolve t to_.(i) in
      match fb with
      | Bits.Of_wire _
        when (not (Bits.bit_equal fb tb)) && not (Bits.Bit_tbl.mem t.subst fb)
        ->
        Bits.Bit_tbl.replace t.subst fb tb;
        if is_output_bit t.circuit fb then ports := (fb, tb) :: !ports
      | Bits.Of_wire _ | Bits.C0 | Bits.C1 | Bits.Cx -> ())
    from_;
  (* keep output-port bits driven via one buffer cell *)
  if !ports <> [] then begin
    let froms = Array.of_list (List.rev_map fst !ports) in
    let tos = Array.of_list (List.rev_map snd !ports) in
    ignore
      (Circuit.add_cell t.circuit
         (Cell.Binary
            {
              op = Cell.Or;
              a = tos;
              b = Bits.all_zero ~width:(Array.length tos);
              y = froms;
            }))
  end

let cell t id =
  match Circuit.cell_opt t.circuit id with
  | None -> None
  | Some cell as found ->
    if Bits.Bit_tbl.length t.subst = 0 then found
    else begin
      let changed = ref false in
      let lookup b =
        let nb = resolve t b in
        if nb != b then changed := true;
        nb
      in
      let rewired = Cell.map_input_bits lookup cell in
      if !changed then begin
        Circuit.replace_cell t.circuit id rewired;
        Some rewired
      end
      else found
    end

let flush t =
  if Bits.Bit_tbl.length t.subst > 0 then begin
    List.iter (fun id -> ignore (cell t id)) (Circuit.cell_ids t.circuit);
    Bits.Bit_tbl.reset t.subst
  end
