(* Signal substitution: route [to_] everywhere [from_] was read.

   Passes use this when deleting a cell whose output must be replaced by
   another signal.  Reader cells are rewritten in place.  If a replaced bit
   belongs to an output port (which cannot be renamed), a transparent
   buffer cell (or with constant zero, free after AIG folding) is inserted
   to keep the port driven. *)

let is_port_bit (c : Circuit.t) (b : Bits.bit) =
  match b with
  | Bits.C0 | Bits.C1 | Bits.Cx -> false
  | Bits.Of_wire (wid, _) ->
    List.exists (fun (_, w) -> w.Circuit.wire_id = wid) c.Circuit.ports

let replace_sig (c : Circuit.t) ~(from_ : Bits.sigspec) ~(to_ : Bits.sigspec) =
  if Bits.width from_ <> Bits.width to_ then
    invalid_arg "Rewire.replace_sig: width mismatch";
  let subst = Bits.Bit_tbl.create 16 in
  Array.iteri
    (fun i fb ->
      match fb with
      | Bits.Of_wire _ -> Bits.Bit_tbl.replace subst fb to_.(i)
      | Bits.C0 | Bits.C1 | Bits.Cx -> ())
    from_;
  let lookup b =
    match Bits.Bit_tbl.find_opt subst b with Some nb -> nb | None -> b
  in
  List.iter
    (fun id ->
      let cell = Circuit.cell c id in
      let rewired = Cell.map_input_bits lookup cell in
      if rewired <> cell then Circuit.replace_cell c id rewired)
    (Circuit.cell_ids c);
  (* keep output-port bits driven via buffer cells *)
  let port_pairs =
    Array.to_list from_
    |> List.mapi (fun i fb -> fb, to_.(i))
    |> List.filter (fun (fb, _) -> is_port_bit c fb)
  in
  if port_pairs <> [] then begin
    let froms = Array.of_list (List.map fst port_pairs) in
    let tos = Array.of_list (List.map snd port_pairs) in
    ignore
      (Circuit.add_cell c
         (Cell.Binary
            {
              op = Cell.Or;
              a = tos;
              b = Bits.all_zero ~width:(Array.length tos);
              y = froms;
            }))
  end
