(* Recursive-descent parser for the Verilog subset.

   Tokens carry their source position; the parser threads those positions
   into spans on declarations, statements and module items, and reports
   syntax errors with line/column. *)

exception Parse_error of string * Loc.pos (* message, source position *)

type state = {
  mutable toks : (Lexer.token * Loc.pos) list;
  mutable last : Loc.pos; (* position of the last consumed token *)
}

let peek st =
  match st.toks with
  | (t, p) :: _ -> t, p
  | [] -> Lexer.EOF, st.last

let advance st =
  match st.toks with
  | (_, p) :: rest ->
    st.last <- p;
    st.toks <- rest
  | [] -> ()

(* Position of the next token: where a construct starting here begins. *)
let here st = snd (peek st)

(* Span from [start] to the last consumed token. *)
let span_from st (start : Loc.pos) : Loc.span = Loc.span start st.last

let error st msg =
  let _, p = peek st in
  raise (Parse_error (msg, p))

let expect st tok msg =
  let t, _ = peek st in
  if t = tok then advance st else error st msg

let expect_ident st msg =
  match peek st with
  | Lexer.IDENT name, _ ->
    advance st;
    name
  | _ -> error st msg

let expect_number st msg =
  match peek st with
  | Lexer.NUMBER v, _ ->
    advance st;
    v
  | _ -> error st msg

(* --- expressions --- *)

let rec parse_expr st : Ast.expr = parse_ternary st

and parse_ternary st =
  let cond = parse_lor st in
  match peek st with
  | Lexer.QUESTION, _ ->
    advance st;
    let t = parse_ternary st in
    expect st Lexer.COLON "expected ':' in ternary";
    let e = parse_ternary st in
    Ast.E_ternary (cond, t, e)
  | _ -> cond

and parse_lor st =
  let rec loop acc =
    match peek st with
    | Lexer.PIPEPIPE, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_lor, acc, parse_land st))
    | _ -> acc
  in
  loop (parse_land st)

and parse_land st =
  let rec loop acc =
    match peek st with
    | Lexer.AMPAMP, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_land, acc, parse_bor st))
    | _ -> acc
  in
  loop (parse_bor st)

and parse_bor st =
  let rec loop acc =
    match peek st with
    | Lexer.PIPE, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_or, acc, parse_bxor st))
    | _ -> acc
  in
  loop (parse_bxor st)

and parse_bxor st =
  let rec loop acc =
    match peek st with
    | Lexer.CARET, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_xor, acc, parse_band st))
    | Lexer.XNOR_OP, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_xnor, acc, parse_band st))
    | _ -> acc
  in
  loop (parse_band st)

and parse_band st =
  let rec loop acc =
    match peek st with
    | Lexer.AMP, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_and, acc, parse_eq st))
    | _ -> acc
  in
  loop (parse_eq st)

and parse_eq st =
  let rec loop acc =
    match peek st with
    | Lexer.EQEQ, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_eq, acc, parse_add st))
    | Lexer.NEQ, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_ne, acc, parse_add st))
    | _ -> acc
  in
  loop (parse_add st)

and parse_add st =
  let rec loop acc =
    match peek st with
    | Lexer.PLUS, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_add, acc, parse_unary st))
    | Lexer.MINUS, _ ->
      advance st;
      loop (Ast.E_binary (Ast.B_sub, acc, parse_unary st))
    | _ -> acc
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.TILDE, _ ->
    advance st;
    Ast.E_unary (Ast.U_not, parse_unary st)
  | Lexer.BANG, _ ->
    advance st;
    Ast.E_unary (Ast.U_lnot, parse_unary st)
  | Lexer.AMP, _ ->
    advance st;
    Ast.E_unary (Ast.U_rand, parse_unary st)
  | Lexer.PIPE, _ ->
    advance st;
    Ast.E_unary (Ast.U_ror, parse_unary st)
  | Lexer.CARET, _ ->
    advance st;
    Ast.E_unary (Ast.U_rxor, parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.LPAREN, _ ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    e
  | Lexer.LBRACE, _ ->
    advance st;
    let rec parts acc =
      let e = parse_expr st in
      match peek st with
      | Lexer.COMMA, _ ->
        advance st;
        parts (e :: acc)
      | _ ->
        expect st Lexer.RBRACE "expected '}'";
        List.rev (e :: acc)
    in
    Ast.E_concat (parts [])
  | Lexer.SIZED c, _ ->
    advance st;
    Ast.E_const c
  | Lexer.NUMBER v, _ ->
    advance st;
    Ast.E_const (Ast.const_of_unsized v)
  | Lexer.IDENT name, _ -> (
    advance st;
    match peek st with
    | Lexer.LBRACKET, _ -> (
      advance st;
      let msb = expect_number st "expected index" in
      match peek st with
      | Lexer.COLON, _ ->
        advance st;
        let lsb = expect_number st "expected lsb" in
        expect st Lexer.RBRACKET "expected ']'";
        Ast.E_range (name, msb, lsb)
      | _ ->
        expect st Lexer.RBRACKET "expected ']'";
        Ast.E_select (name, msb))
    | _ -> Ast.E_ident name)
  | _ -> error st "expected expression"

(* --- statements --- *)

let rec parse_stmt st : Ast.stmt =
  let start = here st in
  let located sdesc = { Ast.sdesc; sloc = span_from st start } in
  match peek st with
  | Lexer.KW "if", _ ->
    advance st;
    expect st Lexer.LPAREN "expected '(' after if";
    let cond = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    let then_ = parse_block st in
    let else_ =
      match peek st with
      | Lexer.KW "else", _ ->
        advance st;
        parse_block st
      | _ -> []
    in
    located (Ast.S_if (cond, then_, else_))
  | Lexer.KW "case", _ | Lexer.KW "casez", _ ->
    let is_casez = fst (peek st) = Lexer.KW "casez" in
    advance st;
    expect st Lexer.LPAREN "expected '(' after case";
    let subject = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    let items = ref [] in
    let default = ref None in
    let rec loop () =
      match peek st with
      | Lexer.KW "endcase", _ -> advance st
      | Lexer.KW "default", _ ->
        advance st;
        (match peek st with
        | Lexer.COLON, _ -> advance st
        | _ -> ());
        default := Some (parse_block st);
        loop ()
      | _ ->
        let istart = here st in
        let rec patterns acc =
          let c =
            match peek st with
            | Lexer.SIZED c, _ ->
              advance st;
              c
            | Lexer.NUMBER v, _ ->
              advance st;
              Ast.const_of_unsized v
            | _ -> error st "expected case pattern"
          in
          match peek st with
          | Lexer.COMMA, _ ->
            advance st;
            patterns (c :: acc)
          | _ -> List.rev (c :: acc)
        in
        let pats = patterns [] in
        expect st Lexer.COLON "expected ':' after case pattern";
        let body = parse_block st in
        items := { Ast.pats; body; iloc = span_from st istart } :: !items;
        loop ()
    in
    loop ();
    located
      (Ast.S_case
         { Ast.is_casez; subject; items = List.rev !items; default = !default })
  | Lexer.IDENT name, _ ->
    advance st;
    (match peek st with
    | Lexer.EQUAL, _ | Lexer.NONBLOCK, _ -> advance st
    | _ -> error st "expected '=' or '<=' in assignment");
    let e = parse_expr st in
    expect st Lexer.SEMI "expected ';'";
    located (Ast.S_assign (name, e))
  | _ -> error st "expected statement"

and parse_block st : Ast.stmt list =
  match peek st with
  | Lexer.KW "begin", _ ->
    advance st;
    let rec loop acc =
      match peek st with
      | Lexer.KW "end", _ ->
        advance st;
        List.rev acc
      | _ -> loop (parse_stmt st :: acc)
    in
    loop []
  | _ -> [ parse_stmt st ]

(* --- declarations and module items --- *)

let parse_range st =
  match peek st with
  | Lexer.LBRACKET, _ ->
    advance st;
    let msb = expect_number st "expected msb" in
    expect st Lexer.COLON "expected ':'";
    let lsb = expect_number st "expected lsb" in
    expect st Lexer.RBRACKET "expected ']'";
    Some (msb, lsb)
  | _ -> None

let parse_decl_kind st : Ast.decl_kind option =
  match peek st with
  | Lexer.KW "input", _ ->
    advance st;
    Some Ast.D_input
  | Lexer.KW "output", _ ->
    advance st;
    (match peek st with
    | Lexer.KW "reg", _ ->
      advance st;
      Some Ast.D_output_reg
    | _ -> Some Ast.D_output)
  | Lexer.KW "wire", _ ->
    advance st;
    Some Ast.D_wire
  | Lexer.KW "reg", _ ->
    advance st;
    Some Ast.D_reg
  | _ -> None

(* one declaration possibly naming several identifiers; each gets the span
   of its own identifier token *)
let parse_decl_names st kind range acc =
  let rec loop acc =
    let dpos = here st in
    let name = expect_ident st "expected identifier in declaration" in
    let acc =
      { Ast.kind; dname = name; range; dloc = Loc.of_pos dpos } :: acc
    in
    match peek st with
    | Lexer.COMMA, _ -> (
      advance st;
      (* a following comma may start a new kind in a port list; only continue
         if the next token is a plain identifier *)
      match peek st with
      | Lexer.IDENT _, _ -> loop acc
      | _ -> `More_kinds acc)
    | _ -> `Done acc
  in
  loop acc

let parse_port_list st : Ast.decl list =
  expect st Lexer.LPAREN "expected '(' after module name";
  (match peek st with
  | Lexer.RPAREN, _ -> ()
  | _ -> ());
  let rec loop acc =
    match peek st with
    | Lexer.RPAREN, _ ->
      advance st;
      List.rev acc
    | _ -> (
      match parse_decl_kind st with
      | None -> error st "expected port direction"
      | Some kind -> (
        let range = parse_range st in
        match parse_decl_names st kind range acc with
        | `Done acc ->
          (match peek st with
          | Lexer.RPAREN, _ -> ()
          | _ -> error st "expected ')' or ','");
          loop acc
        | `More_kinds acc -> loop acc))
  in
  loop []

let parse_item st : Ast.item list =
  let start = here st in
  match peek st with
  | Lexer.KW "assign", _ ->
    advance st;
    let name = expect_ident st "expected identifier after assign" in
    expect st Lexer.EQUAL "expected '='";
    let e = parse_expr st in
    expect st Lexer.SEMI "expected ';'";
    [ Ast.I_assign { lhs = name; rhs = e; aloc = span_from st start } ]
  | Lexer.KW "always", _ -> (
    advance st;
    expect st Lexer.AT "expected '@' after always";
    match peek st with
    | Lexer.STAR, _ ->
      advance st;
      [ Ast.I_always { body = parse_block st; aloc = span_from st start } ]
    | Lexer.LPAREN, _ -> (
      advance st;
      match peek st with
      | Lexer.STAR, _ ->
        advance st;
        expect st Lexer.RPAREN "expected ')'";
        [ Ast.I_always { body = parse_block st; aloc = span_from st start } ]
      | Lexer.KW ("posedge" | "negedge"), _ ->
        advance st;
        let clock = expect_ident st "expected clock signal" in
        expect st Lexer.RPAREN "expected ')'";
        [
          Ast.I_always_ff
            { clock; body = parse_block st; aloc = span_from st start };
        ]
      | _ -> error st "expected '*' or posedge/negedge")
    | _ -> error st "expected '@*' or '@(posedge clk)'")
  | _ -> (
    match parse_decl_kind st with
    | None -> error st "expected module item"
    | Some kind ->
      let range = parse_range st in
      let rec all_names acc =
        match parse_decl_names st kind range acc with
        | `Done acc ->
          expect st Lexer.SEMI "expected ';' after declaration";
          List.rev_map (fun d -> Ast.I_decl d) acc
        | `More_kinds acc -> all_names acc
      in
      all_names [])

let parse_module st : Ast.module_ =
  expect st (Lexer.KW "module") "expected 'module'";
  let mname = expect_ident st "expected module name" in
  let ports =
    match peek st with
    | Lexer.LPAREN, _ -> parse_port_list st
    | _ -> []
  in
  expect st Lexer.SEMI "expected ';' after module header";
  let rec items acc =
    match peek st with
    | Lexer.KW "endmodule", _ ->
      advance st;
      List.rev acc
    | Lexer.EOF, _ -> error st "unexpected end of file"
    | _ -> items (List.rev_append (parse_item st) acc)
  in
  let body = items [] in
  { Ast.mname; items = List.map (fun d -> Ast.I_decl d) ports @ body }

let parse_string (src : string) : Ast.module_ =
  let st = { toks = Lexer.tokenize src; last = Loc.dummy_pos } in
  let m = parse_module st in
  (match peek st with
  | Lexer.EOF, _ -> ()
  | _ -> error st "trailing tokens after endmodule");
  m
