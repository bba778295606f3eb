(* Two-valued, bit-parallel simulation: each wire bit carries a machine word
   of [lanes] independent simulation patterns (lanes <= Sys.int_size - 1).

   Used for fast random filtering and for the "few inputs -> exhaustive
   simulation" branch of smaRTLy's inference engine. *)

open Netlist

type env = { values : int Bits.Bit_tbl.t; lanes : int }

let lanes_max = Sys.int_size - 1

let create ?(lanes = lanes_max) () =
  if lanes <= 0 || lanes > lanes_max then invalid_arg "Vector.create";
  { values = Bits.Bit_tbl.create 64; lanes }

let mask env = if env.lanes >= lanes_max then -1 else (1 lsl env.lanes) - 1

let read env (b : Bits.bit) =
  match b with
  | Bits.C0 -> 0
  | Bits.C1 -> mask env
  | Bits.Cx -> 0 (* two-valued: treat X as 0 *)
  | Bits.Of_wire _ -> (
    match Bits.Bit_tbl.find_opt env.values b with Some v -> v | None -> 0)

let write env (b : Bits.bit) v =
  match b with
  | Bits.Of_wire _ -> Bits.Bit_tbl.replace env.values b (v land mask env)
  | Bits.C0 | Bits.C1 | Bits.Cx -> ()

let eval_cell env (cell : Cell.t) =
  let m = mask env in
  let rv s = Array.map (read env) s in
  let set_vec y vs = Array.iteri (fun i v -> write env y.(i) v) vs in
  let reduce_or vs = Array.fold_left ( lor ) 0 vs in
  let reduce_and vs = Array.fold_left ( land ) m vs in
  let reduce_xor vs = Array.fold_left ( lxor ) 0 vs in
  match cell with
  | Cell.Unary { op = Not; a; y } ->
    set_vec y (Array.map (fun v -> lnot v land m) (rv a))
  | Cell.Unary { op = Logic_not; a; y } ->
    write env y.(0) (lnot (reduce_or (rv a)) land m)
  | Cell.Unary { op = Reduce_and; a; y } -> write env y.(0) (reduce_and (rv a))
  | Cell.Unary { op = Reduce_or; a; y } | Cell.Unary { op = Reduce_bool; a; y }
    -> write env y.(0) (reduce_or (rv a))
  | Cell.Unary { op = Reduce_xor; a; y } -> write env y.(0) (reduce_xor (rv a))
  | Cell.Binary { op = And; a; b; y } ->
    set_vec y (Array.map2 ( land ) (rv a) (rv b))
  | Cell.Binary { op = Or; a; b; y } ->
    set_vec y (Array.map2 ( lor ) (rv a) (rv b))
  | Cell.Binary { op = Xor; a; b; y } ->
    set_vec y (Array.map2 ( lxor ) (rv a) (rv b))
  | Cell.Binary { op = Xnor; a; b; y } ->
    set_vec y (Array.map2 (fun p q -> lnot (p lxor q) land m) (rv a) (rv b))
  | Cell.Binary { op = Eq; a; b; y } ->
    write env y.(0)
      (reduce_and (Array.map2 (fun p q -> lnot (p lxor q) land m) (rv a) (rv b)))
  | Cell.Binary { op = Ne; a; b; y } ->
    write env y.(0) (reduce_or (Array.map2 ( lxor ) (rv a) (rv b)))
  | Cell.Binary { op = Logic_and; a; b; y } ->
    write env y.(0) (reduce_or (rv a) land reduce_or (rv b))
  | Cell.Binary { op = Logic_or; a; b; y } ->
    write env y.(0) (reduce_or (rv a) lor reduce_or (rv b))
  | Cell.Binary { op = Add; a; b; y } ->
    let va = rv a and vb = rv b in
    let carry = ref 0 in
    Array.iteri
      (fun i _ ->
        let s = va.(i) lxor vb.(i) lxor !carry in
        let c = va.(i) land vb.(i) lor (!carry land (va.(i) lxor vb.(i))) in
        write env y.(i) s;
        carry := c)
      y
  | Cell.Binary { op = Sub; a; b; y } ->
    let va = rv a and vb = Array.map (fun v -> lnot v land m) (rv b) in
    let carry = ref m in
    Array.iteri
      (fun i _ ->
        let s = va.(i) lxor vb.(i) lxor !carry in
        let c = va.(i) land vb.(i) lor (!carry land (va.(i) lxor vb.(i))) in
        write env y.(i) s;
        carry := c)
      y
  | Cell.Mux { a; b; s; y } ->
    let vs = read env s in
    let va = rv a and vb = rv b in
    Array.iteri
      (fun i _ -> write env y.(i) (vs land vb.(i) lor (lnot vs land m land va.(i))))
      y
  | Cell.Pmux { a; b; s; y } ->
    (* priority chain, lowest selector index wins *)
    let w = Bits.width a in
    let result = ref (rv a) in
    for i = Bits.width s - 1 downto 0 do
      let vs = read env s.(i) in
      let part = rv (Bits.slice b ~off:(i * w) ~len:w) in
      result :=
        Array.mapi
          (fun j r -> vs land part.(j) lor (lnot vs land m land r))
          !result
    done;
    set_vec y !result
  | Cell.Dff _ -> ()

let eval_ordered (c : Circuit.t) env order =
  List.iter (fun id -> eval_cell env (Circuit.cell c id)) order

(* Deterministic pseudo-random patterns (splitmix64-style). *)
let random_word seed idx =
  let z = ref (seed + (idx * 0x1E3779B97F4A7C15)) in
  z := (!z lxor (!z lsr 30)) * 0x3F58476D1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  !z lxor (!z lsr 31)

(* Run [rounds] rounds of random simulation of the full circuit and check
   that outputs of [c1] and [c2] agree.  Both circuits must share input
   wires by name.  Returns the first differing (round, output name). *)
let random_equiv ?(rounds = 16) ?(seed = 0x5eed) (c1 : Circuit.t)
    (c2 : Circuit.t) =
  let ins1 = Circuit.inputs c1 and ins2 = Circuit.inputs c2 in
  let order1 = Topo.sort c1 and order2 = Topo.sort c2 in
  let outs1 = Circuit.outputs c1 and outs2 = Circuit.outputs c2 in
  let find_in2 name =
    List.find_opt (fun w -> w.Circuit.wire_name = name) ins2
  in
  let find_out2 name =
    List.find_opt (fun w -> w.Circuit.wire_name = name) outs2
  in
  let rec loop round =
    if round >= rounds then None
    else begin
      let env1 = create () and env2 = create () in
      List.iteri
        (fun i w1 ->
          let s1 = Circuit.sig_of_wire w1 in
          Array.iteri
            (fun j b ->
              let v = random_word (seed + round) ((i * 131) + j) in
              write env1 b v;
              match find_in2 w1.Circuit.wire_name with
              | Some w2 when j < w2.Circuit.width ->
                write env2 (Bits.Of_wire (w2.Circuit.wire_id, j)) v
              | Some _ | None -> ())
            s1)
        ins1;
      eval_ordered c1 env1 order1;
      eval_ordered c2 env2 order2;
      let bad =
        List.find_opt
          (fun w1 ->
            match find_out2 w1.Circuit.wire_name with
            | None -> true
            | Some w2 ->
              w1.Circuit.width <> w2.Circuit.width
              || Array.exists
                   (fun j ->
                     read env1 (Bits.Of_wire (w1.Circuit.wire_id, j))
                     <> read env2 (Bits.Of_wire (w2.Circuit.wire_id, j)))
                   (Array.init w1.Circuit.width (fun j -> j)))
          outs1
      in
      match bad with
      | Some w -> Some (round, w.Circuit.wire_name)
      | None -> loop (round + 1)
    end
  in
  loop 0
