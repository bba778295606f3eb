(* Abstract syntax for the supported Verilog subset.

   Supported constructs: module with input/output/wire/reg declarations
   (with bit ranges), continuous [assign], combinational [always @*] blocks
   containing blocking assignments, [if]/[else], [case]/[casez] with
   wildcard patterns, and the usual expression operators. *)

type cbit = B0 | B1 | Bz (* z doubles as the ? wildcard in casez patterns *)

type constant = { cwidth : int; cbits : cbit list (* LSB first *) }

type unary_op = U_not (* ~ *) | U_lnot (* ! *) | U_rand | U_ror | U_rxor

type binary_op =
  | B_and
  | B_or
  | B_xor
  | B_xnor
  | B_land
  | B_lor
  | B_eq
  | B_ne
  | B_add
  | B_sub

type expr =
  | E_ident of string
  | E_const of constant
  | E_select of string * int (* x[i] *)
  | E_range of string * int * int (* x[msb:lsb] *)
  | E_concat of expr list (* {a, b, c} — MSB part first, Verilog order *)
  | E_unary of unary_op * expr
  | E_binary of binary_op * expr * expr
  | E_ternary of expr * expr * expr

(* Statements, declarations and module items carry the source span of
   their defining tokens ([Loc.dummy] when built programmatically), so
   lint diagnostics and elaboration errors can point at source lines. *)

type stmt = { sdesc : stmt_desc; sloc : Loc.span }

and stmt_desc =
  | S_assign of string * expr (* blocking assignment to a reg *)
  | S_if of expr * stmt list * stmt list
  | S_case of case_stmt

and case_stmt = {
  is_casez : bool;
  subject : expr;
  items : case_item list;
  default : stmt list option;
}

and case_item = { pats : constant list; body : stmt list; iloc : Loc.span }

type decl_kind = D_input | D_output | D_output_reg | D_wire | D_reg

type decl = {
  kind : decl_kind;
  dname : string;
  range : (int * int) option;
  dloc : Loc.span; (* the declared identifier *)
}

type item =
  | I_decl of decl
  | I_assign of { lhs : string; rhs : expr; aloc : Loc.span }
      (* continuous assignment *)
  | I_always of { body : stmt list; aloc : Loc.span } (* always @* *)
  | I_always_ff of { clock : string; body : stmt list; aloc : Loc.span }
      (* always @(posedge clk) *)

type module_ = { mname : string; items : item list }

let stmt ?(loc = Loc.dummy) sdesc = { sdesc; sloc = loc }

let decl_width d =
  match d.range with Some (msb, lsb) -> msb - lsb + 1 | None -> 1

(* Constant helpers *)

let const_of_int ~width v =
  {
    cwidth = width;
    cbits = List.init width (fun i -> if (v lsr i) land 1 = 1 then B1 else B0);
  }

(* An unsized decimal is at least 32 bits wide (IEEE 1364), and wide
   enough for every bit of its value. *)
let const_of_unsized v =
  let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1) in
  const_of_int ~width:(max 32 (bits v)) v

let const_has_wildcard c = List.exists (fun b -> b = Bz) c.cbits

let pp_cbit ppf = function
  | B0 -> Fmt.string ppf "0"
  | B1 -> Fmt.string ppf "1"
  | Bz -> Fmt.string ppf "z"

let pp_constant ppf c =
  Fmt.pf ppf "%d'b" c.cwidth;
  List.iter (pp_cbit ppf) (List.rev c.cbits)
