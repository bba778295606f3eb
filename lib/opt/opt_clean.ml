(* Dead-code elimination: remove cells none of whose output bits reach a
   primary output or a sequential cell.  Equivalent to Yosys `opt_clean`. *)

open Netlist

let m_cells_removed = Obs.Metrics.counter "flow.cells_removed"

(* One liveness sweep: returns the number of removed cells. *)
let sweep (c : Circuit.t) : int =
  let index = Index.build c in
  let live = Hashtbl.create 64 in
  let queue = Queue.create () in
  let mark_bit b =
    match Index.driving_cell index b with
    | Some (id, _) ->
      if not (Hashtbl.mem live id) then begin
        Hashtbl.replace live id ();
        Queue.push id queue
      end
    | None -> ()
  in
  List.iter mark_bit (Circuit.output_bits c);
  (* sequential cells are always live roots *)
  List.iter
    (fun id ->
      let cell = Circuit.cell c id in
      if not (Cell.is_combinational cell) then begin
        if not (Hashtbl.mem live id) then begin
          Hashtbl.replace live id ();
          Queue.push id queue
        end
      end)
    (Circuit.cell_ids c);
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    List.iter mark_bit (Cell.input_bits (Circuit.cell c id))
  done;
  let removed = ref 0 in
  List.iter
    (fun id ->
      if not (Hashtbl.mem live id) then begin
        let cell = Circuit.cell c id in
        Circuit.remove_cell c id;
        Obs.Metrics.incr m_cells_removed;
        Obs.Provenance.emit ~kind:Obs.Provenance.Cell_removed ~cell:id
          ~pass:"opt_clean" ~mechanism:Obs.Provenance.Pruned
          ~area_delta:(-Stats.approx_cell_area cell) ();
        incr removed
      end)
    (Circuit.cell_ids c);
  !removed

(* Also drop wires that no longer appear anywhere. *)
let remove_unused_wires (c : Circuit.t) : int =
  let used = Hashtbl.create 64 in
  let mark b =
    match b with
    | Bits.Of_wire (wid, _) -> Hashtbl.replace used wid ()
    | Bits.C0 | Bits.C1 | Bits.Cx -> ()
  in
  Circuit.iter_cells
    (fun _ cell ->
      List.iter mark (Cell.input_bits cell);
      List.iter mark (Cell.output_bits cell))
    c;
  List.iter
    (fun w -> Hashtbl.replace used w.Circuit.wire_id ())
    (Circuit.inputs c);
  List.iter
    (fun w -> Hashtbl.replace used w.Circuit.wire_id ())
    (Circuit.outputs c);
  let removed = ref 0 in
  let all_wires =
    Hashtbl.fold (fun id _ acc -> id :: acc) c.Circuit.wires []
  in
  List.iter
    (fun wid ->
      if not (Hashtbl.mem used wid) then begin
        Circuit.remove_wire c wid;
        incr removed
      end)
    all_wires;
  !removed

let m_removed = Obs.Metrics.counter "opt_clean.removed"

let run (c : Circuit.t) : int =
  Obs.Trace.with_span "opt_clean.run" @@ fun () ->
  (* one sweep suffices: removing the cells outside the fanin closure of
     the outputs and flip-flops leaves that closure unchanged *)
  let removed = sweep c in
  ignore (remove_unused_wires c);
  Obs.Metrics.add m_removed removed;
  removed
