(* Tseitin encoding of a circuit sub-DAG into CNF.

   Every wire bit that participates gets a SAT variable; constants map to a
   dedicated always-true variable.  Cells are encoded bit-wise.  Sequential
   cells must not appear in the encoded set (sub-graphs exclude them). *)

open Netlist

type t = {
  solver : Solver.t;
  vars : int Bits.Bit_tbl.t;
  true_lit : Lit.t;
  mutable clause_log : Lit.t list list; (* added clauses, reversed *)
  mutable clause_guard : Lit.t option;
      (* when set, every added clause also carries this literal — the
         clause-group mechanism [Session] uses to activate exactly one
         sub-graph's cells per query via assumptions *)
}

let create () =
  let solver = Solver.create () in
  let tv = Solver.new_var solver in
  let true_lit = Lit.of_var tv in
  Solver.add_clause solver [ true_lit ];
  {
    solver;
    vars = Bits.Bit_tbl.create 64;
    true_lit;
    clause_log = [ [ true_lit ] ];
    clause_guard = None;
  }

let lit_of_bit t (b : Bits.bit) : Lit.t =
  match b with
  | Bits.C1 -> t.true_lit
  | Bits.C0 | Bits.Cx -> Lit.negate t.true_lit
  | Bits.Of_wire _ -> (
    match Bits.Bit_tbl.find_opt t.vars b with
    | Some v -> Lit.of_var v
    | None ->
      let v = Solver.new_var t.solver in
      Bits.Bit_tbl.replace t.vars b v;
      Lit.of_var v)

let fresh_lit t = Lit.of_var (Solver.new_var t.solver)

let add t lits =
  let lits =
    match t.clause_guard with None -> lits | Some g -> g :: lits
  in
  t.clause_log <- lits :: t.clause_log;
  Solver.add_clause t.solver lits

(* y <-> a & b *)
let encode_and2 t y a b =
  add t [ Lit.negate y; a ];
  add t [ Lit.negate y; b ];
  add t [ y; Lit.negate a; Lit.negate b ]

(* y <-> a | b *)
let encode_or2 t y a b =
  add t [ y; Lit.negate a ];
  add t [ y; Lit.negate b ];
  add t [ Lit.negate y; a; b ]

(* y <-> a ^ b *)
let encode_xor2 t y a b =
  add t [ Lit.negate y; a; b ];
  add t [ Lit.negate y; Lit.negate a; Lit.negate b ];
  add t [ y; Lit.negate a; b ];
  add t [ y; a; Lit.negate b ]

(* y <-> ~a *)
let encode_not t y a =
  add t [ Lit.negate y; Lit.negate a ];
  add t [ y; a ]

(* y <-> AND(lits) *)
let encode_and_n t y lits =
  List.iter (fun l -> add t [ Lit.negate y; l ]) lits;
  add t (y :: List.map Lit.negate lits)

(* y <-> OR(lits) *)
let encode_or_n t y lits =
  List.iter (fun l -> add t [ y; Lit.negate l ]) lits;
  add t (Lit.negate y :: lits)

(* y <-> s ? b : a *)
let encode_mux t y ~a ~b ~s =
  add t [ Lit.negate s; Lit.negate b; y ];
  add t [ Lit.negate s; b; Lit.negate y ];
  add t [ s; Lit.negate a; y ];
  add t [ s; a; Lit.negate y ]

(* y <-> xnor(a, b) *)
let encode_xnor2 t y a b = encode_xor2 t (Lit.negate y) a b

(* "a is nonzero" as a single literal *)
let nonzero t (s : Bits.sigspec) =
  match Array.to_list s with
  | [] -> Lit.negate t.true_lit
  | [ b ] -> lit_of_bit t b
  | bits ->
    let y = fresh_lit t in
    encode_or_n t y (List.map (lit_of_bit t) bits);
    y

let full_adder t ~a ~b ~cin =
  let axb = fresh_lit t in
  encode_xor2 t axb a b;
  let sum = fresh_lit t in
  encode_xor2 t sum axb cin;
  let ab = fresh_lit t in
  encode_and2 t ab a b;
  let ct = fresh_lit t in
  encode_and2 t ct cin axb;
  let cout = fresh_lit t in
  encode_or2 t cout ab ct;
  sum, cout

let encode_cell t (cell : Cell.t) =
  let lb = lit_of_bit t in
  let lv s = Array.map lb s in
  match cell with
  | Cell.Unary { op = Not; a; y } ->
    Array.iteri (fun i yb -> encode_not t (lb yb) (lb a.(i))) y
  | Cell.Unary { op = Logic_not; a; y } ->
    encode_not t (lb y.(0)) (nonzero t a)
  | Cell.Unary { op = Reduce_and; a; y } ->
    encode_and_n t (lb y.(0)) (Array.to_list (lv a))
  | Cell.Unary { op = Reduce_or | Reduce_bool; a; y } ->
    encode_or_n t (lb y.(0)) (Array.to_list (lv a))
  | Cell.Unary { op = Reduce_xor; a; y } ->
    let acc =
      Array.fold_left
        (fun acc l ->
          match acc with
          | None -> Some l
          | Some prev ->
            let x = fresh_lit t in
            encode_xor2 t x prev l;
            Some x)
        None (lv a)
    in
    (match acc with
    | None -> add t [ Lit.negate (lb y.(0)) ]
    | Some l ->
      encode_not t (lb y.(0)) (Lit.negate l))
  | Cell.Binary { op = And; a; b; y } ->
    Array.iteri (fun i yb -> encode_and2 t (lb yb) (lb a.(i)) (lb b.(i))) y
  | Cell.Binary { op = Or; a; b; y } ->
    Array.iteri (fun i yb -> encode_or2 t (lb yb) (lb a.(i)) (lb b.(i))) y
  | Cell.Binary { op = Xor; a; b; y } ->
    Array.iteri (fun i yb -> encode_xor2 t (lb yb) (lb a.(i)) (lb b.(i))) y
  | Cell.Binary { op = Xnor; a; b; y } ->
    Array.iteri (fun i yb -> encode_xnor2 t (lb yb) (lb a.(i)) (lb b.(i))) y
  | Cell.Binary { op = Eq; a; b; y } ->
    let eqbits =
      Array.mapi
        (fun i ab ->
          let e = fresh_lit t in
          encode_xnor2 t e (lb ab) (lb b.(i));
          e)
        a
    in
    encode_and_n t (lb y.(0)) (Array.to_list eqbits)
  | Cell.Binary { op = Ne; a; b; y } ->
    let nebits =
      Array.mapi
        (fun i ab ->
          let e = fresh_lit t in
          encode_xor2 t e (lb ab) (lb b.(i));
          e)
        a
    in
    encode_or_n t (lb y.(0)) (Array.to_list nebits)
  | Cell.Binary { op = Logic_and; a; b; y } ->
    encode_and2 t (lb y.(0)) (nonzero t a) (nonzero t b)
  | Cell.Binary { op = Logic_or; a; b; y } ->
    encode_or2 t (lb y.(0)) (nonzero t a) (nonzero t b)
  | Cell.Binary { op = Add; a; b; y } ->
    let carry = ref (Lit.negate t.true_lit) in
    Array.iteri
      (fun i yb ->
        let sum, cout = full_adder t ~a:(lb a.(i)) ~b:(lb b.(i)) ~cin:!carry in
        encode_not t (lb yb) (Lit.negate sum);
        carry := cout)
      y
  | Cell.Binary { op = Sub; a; b; y } ->
    let carry = ref t.true_lit in
    Array.iteri
      (fun i yb ->
        let sum, cout =
          full_adder t ~a:(lb a.(i)) ~b:(Lit.negate (lb b.(i))) ~cin:!carry
        in
        encode_not t (lb yb) (Lit.negate sum);
        carry := cout)
      y
  | Cell.Mux { a; b; s; y } ->
    let ls = lb s in
    Array.iteri
      (fun i yb -> encode_mux t (lb yb) ~a:(lb a.(i)) ~b:(lb b.(i)) ~s:ls)
      y
  | Cell.Pmux { a; b; s; y } ->
    (* priority chain from the highest index down to the default [a] *)
    let w = Bits.width a in
    let n = Bits.width s in
    let current = ref (lv a) in
    for i = n - 1 downto 0 do
      let part = Bits.slice b ~off:(i * w) ~len:w in
      let ls = lb s.(i) in
      current :=
        Array.mapi
          (fun j prev ->
            let o = fresh_lit t in
            encode_mux t o ~a:prev ~b:(lb part.(j)) ~s:ls;
            o)
          !current
    done;
    Array.iteri
      (fun j yb -> encode_not t (lb yb) (Lit.negate !current.(j)))
      y
  | Cell.Dff _ -> invalid_arg "Tseitin.encode_cell: sequential cell"

(* Encode the given cells of a circuit. *)
let encode_cells t (c : Circuit.t) (ids : int list) =
  List.iter (fun id -> encode_cell t (Circuit.cell c id)) ids

(* Assumption literal for "bit b has boolean value v". *)
let assume_lit t (b : Bits.bit) (v : bool) =
  let l = lit_of_bit t b in
  if v then l else Lit.negate l

(* The encoded CNF as DIMACS, with [extra] clauses appended — the capture
   path turns assumptions and the queried target polarity into unit
   clauses so the dumped instance is self-contained. *)
let to_dimacs t ~(extra : Lit.t list list) : Dimacs.cnf =
  let conv = List.map Lit.to_dimacs in
  {
    Dimacs.num_vars = Solver.num_vars t.solver;
    clauses = List.rev_map conv t.clause_log @ List.map conv extra;
  }

type query_result = Forced of bool | Free | Contradictory | Undetermined

(* What the last solver call of a query looked like, for capture/replay:
   the polarity asserted on the target and the raw solver verdict. *)
type solve_info = { last_target_lit : Lit.t; last_result : Solver.result }

(* Is [target] forced to a constant under [assumptions]?  Checks
   SAT(target=0) and SAT(target=1). *)
let query_forced_info ?budget ?relevant ?interrupt t ~assumptions
    ~(target : Bits.bit) : query_result * solve_info =
  let tl = lit_of_bit t target in
  let can_be_true =
    Solver.solve ?budget ?relevant ?interrupt t.solver
      ~assumptions:(assumptions @ [ tl ])
  in
  match can_be_true with
  | Solver.Unknown ->
    Undetermined, { last_target_lit = tl; last_result = can_be_true }
  | Solver.Unsat -> (
    (* target can't be 1 — but "forced 0" is only sound if the
       assumptions themselves are satisfiable.  Contradictory path facts
       make BOTH polarities unsat; report that as its own outcome so the
       SAT rung agrees with exhaustive simulation on dead paths. *)
    let ntl = Lit.negate tl in
    let can_be_false =
      Solver.solve ?budget ?relevant ?interrupt t.solver
        ~assumptions:(assumptions @ [ ntl ])
    in
    let info = { last_target_lit = ntl; last_result = can_be_false } in
    match can_be_false with
    | Solver.Unknown -> Undetermined, info
    | Solver.Unsat -> Contradictory, info
    | Solver.Sat -> Forced false, info)
  | Solver.Sat -> (
    let ntl = Lit.negate tl in
    let can_be_false =
      Solver.solve ?budget ?relevant ?interrupt t.solver
        ~assumptions:(assumptions @ [ ntl ])
    in
    let info = { last_target_lit = ntl; last_result = can_be_false } in
    match can_be_false with
    | Solver.Unknown -> Undetermined, info
    | Solver.Unsat -> Forced true, info
    | Solver.Sat -> Free, info)
