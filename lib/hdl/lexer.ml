(* Hand-written lexer for the Verilog subset. *)

type token =
  | IDENT of string
  | NUMBER of int (* plain unsized decimal *)
  | SIZED of Ast.constant (* e.g. 4'b10z1, 8'hff, 3'd5 *)
  | KW of string (* module endmodule input output wire reg assign always
                    begin end if else case casez endcase default *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | COLON
  | SEMI
  | COMMA
  | AT
  | STAR
  | QUESTION
  | EQUAL (* = *)
  | EQEQ (* == *)
  | NONBLOCK (* <= *)
  | NEQ (* != *)
  | AMP (* & *)
  | AMPAMP (* && *)
  | PIPE (* | *)
  | PIPEPIPE (* || *)
  | CARET (* ^ *)
  | XNOR_OP (* ~^ or ^~ *)
  | TILDE (* ~ *)
  | BANG (* ! *)
  | PLUS
  | MINUS
  | EOF

exception Lex_error of string * Loc.pos (* message, position *)

let keywords =
  [
    "module"; "endmodule"; "input"; "output"; "wire"; "reg"; "assign";
    "always"; "begin"; "end"; "if"; "else"; "case"; "casez"; "endcase";
    "default"; "posedge"; "negedge";
  ]

let is_ident_start ch = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_'
let is_ident_char ch = is_ident_start ch || (ch >= '0' && ch <= '9') || ch = '$'
let is_digit ch = ch >= '0' && ch <= '9'

let digit_value ch =
  if is_digit ch then Char.code ch - Char.code '0'
  else if ch >= 'a' && ch <= 'f' then Char.code ch - Char.code 'a' + 10
  else if ch >= 'A' && ch <= 'F' then Char.code ch - Char.code 'A' + 10
  else invalid_arg "digit_value"

(* The widest literal accepted: IEEE 1364 requires tools to support
   vectors of at least 2^16 bits.  Checked before anything is allocated. *)
let max_width = 65536

(* The low [width] bits, LSB first, of a sized decimal's digits ('_'
   allowed), by repeated halving of the number they spell: 30 halvings
   per step, on base-10^9 limbs, with no big-integer library.  A digit j
   places from the right weighs 10^j = 2^j 5^j, a multiple of 2^width
   once j >= width, so only the last [width] digits are read. *)
let decimal_bits ~width digits (pos : Loc.pos) =
  (* limbs, most significant first, built right to left *)
  let limbs = ref [] and limb = ref 0 and scale = ref 1 in
  let read = ref 0 and seen = ref false and nonzero = ref false in
  for k = String.length digits - 1 downto 0 do
    match digits.[k] with
    | '_' -> ()
    | '0' .. '9' as ch ->
      seen := true;
      if !read < width then begin
        incr read;
        let d = Char.code ch - Char.code '0' in
        if d <> 0 then nonzero := true;
        limb := !limb + (!scale * d);
        if !scale = 100_000_000 then begin
          limbs := !limb :: !limbs;
          limb := 0;
          scale := 1
        end
        else scale := !scale * 10
      end
    | ch -> raise (Lex_error (Printf.sprintf "bad decimal digit '%c'" ch, pos))
  done;
  if not !seen then raise (Lex_error ("bad decimal literal", pos));
  let limbs = Array.of_list (if !scale > 1 then !limb :: !limbs else !limbs) in
  (* bit b of the value is bit (b mod 30) of chunk (b / 30) *)
  let chunks = Array.make ((width + 29) / 30) 0 in
  let i = ref 0 in
  while !nonzero && !i < Array.length chunks do
    nonzero := false;
    let rem = ref 0 in
    for k = 0 to Array.length limbs - 1 do
      (* rem < 2^30, so this stays below 2^62 *)
      let cur = (!rem * 1_000_000_000) + limbs.(k) in
      limbs.(k) <- cur lsr 30;
      if limbs.(k) <> 0 then nonzero := true;
      rem := cur land ((1 lsl 30) - 1)
    done;
    chunks.(!i) <- !rem;
    incr i
  done;
  List.init width (fun b ->
      if (chunks.(b / 30) lsr (b mod 30)) land 1 = 1 then Ast.B1 else Ast.B0)

(* Parse the digits of a sized literal in the given base into LSB-first
   cbits of the target width; 'z' and '?' become wildcards. *)
let sized_constant ~width ~base digits (pos : Loc.pos) : Ast.constant =
  let bits_per_digit =
    match base with 'b' -> 1 | 'o' -> 3 | 'h' -> 4 | 'd' -> 0 | _ ->
      raise (Lex_error (Printf.sprintf "bad base '%c'" base, pos))
  in
  let cbits =
    if base = 'd' then decimal_bits ~width digits pos
    else begin
      (* expand digit by digit, MSB digit first in the source *)
      let expanded = ref [] in
      String.iter
        (fun ch ->
          if ch = '_' then ()
          else if ch = 'z' || ch = 'Z' || ch = '?' then
            for _ = 1 to max bits_per_digit 1 do
              expanded := Ast.Bz :: !expanded
            done
          else begin
            let v =
              try digit_value ch
              with Invalid_argument _ ->
                raise (Lex_error (Printf.sprintf "bad digit '%c'" ch, pos))
            in
            for k = 0 to bits_per_digit - 1 do
              (* MSB of the digit first so the final list is LSB first *)
              let bit = (v lsr (bits_per_digit - 1 - k)) land 1 in
              expanded := (if bit = 1 then Ast.B1 else Ast.B0) :: !expanded
            done
          end)
        digits;
      (* !expanded is LSB first now; pad or truncate to width *)
      let lst = !expanded in
      let n = List.length lst in
      if n >= width then List.filteri (fun i _ -> i < width) lst
      else lst @ List.init (width - n) (fun _ -> Ast.B0)
    end
  in
  { Ast.cwidth = width; cbits }

let tokenize (src : string) : (token * Loc.pos) list =
  let n = String.length src in
  let lm = Loc.line_map src in
  let pos_of off = Loc.pos_of_offset lm off in
  let tokens = ref [] in
  let push tok off = tokens := (tok, pos_of off) :: !tokens in
  let lex_error msg off = raise (Lex_error (msg, pos_of off)) in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let ch = src.[!i] in
    if ch = ' ' || ch = '\t' || ch = '\n' || ch = '\r' then incr i
    else if ch = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if ch = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i + 1 < n do
        if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then lex_error "unterminated comment" start
    end
    else if is_ident_start ch then begin
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      if List.mem word keywords then push (KW word) start
      else push (IDENT word) start
    end
    else if is_digit ch then begin
      (* number: either plain decimal or a sized literal width'base... *)
      while !i < n && (is_digit src.[!i] || src.[!i] = '_') do
        incr i
      done;
      let literal () =
        String.concat "" (String.split_on_char '_' (String.sub src start (!i - start)))
      in
      if !i < n && src.[!i] = '\'' then begin
        let width =
          match int_of_string_opt (literal ()) with
          | Some 0 -> lex_error "zero-width literal" start
          | Some w when w <= max_width -> w
          | Some _ | None ->
            lex_error
              (Printf.sprintf "literal width above %d bits" max_width)
              start
        in
        incr i;
        if !i >= n then lex_error "truncated literal" start;
        let base = Char.lowercase_ascii src.[!i] in
        incr i;
        let dstart = !i in
        while
          !i < n
          && (is_ident_char src.[!i] || src.[!i] = '?')
        do
          incr i
        done;
        let digits = String.sub src dstart (!i - dstart) in
        push (SIZED (sized_constant ~width ~base digits (pos_of start))) start
      end
      else
        match int_of_string_opt (literal ()) with
        | Some v -> push (NUMBER v) start
        | None -> lex_error "decimal literal too large" start
    end
    else begin
      incr i;
      let next () = if !i < n then Some src.[!i] else None in
      match ch with
      | '(' -> push LPAREN start
      | ')' -> push RPAREN start
      | '[' -> push LBRACKET start
      | ']' -> push RBRACKET start
      | '{' -> push LBRACE start
      | '}' -> push RBRACE start
      | ':' -> push COLON start
      | ';' -> push SEMI start
      | ',' -> push COMMA start
      | '@' -> push AT start
      | '*' -> push STAR start
      | '?' -> push QUESTION start
      | '+' -> push PLUS start
      | '-' -> push MINUS start
      | '<' ->
        if next () = Some '=' then begin
          incr i;
          push NONBLOCK start
        end
        else lex_error "'<' is only valid in '<='" start
      | '=' ->
        if next () = Some '=' then begin
          incr i;
          push EQEQ start
        end
        else push EQUAL start
      | '!' ->
        if next () = Some '=' then begin
          incr i;
          push NEQ start
        end
        else push BANG start
      | '&' ->
        if next () = Some '&' then begin
          incr i;
          push AMPAMP start
        end
        else push AMP start
      | '|' ->
        if next () = Some '|' then begin
          incr i;
          push PIPEPIPE start
        end
        else push PIPE start
      | '^' ->
        if next () = Some '~' then begin
          incr i;
          push XNOR_OP start
        end
        else push CARET start
      | '~' ->
        if next () = Some '^' then begin
          incr i;
          push XNOR_OP start
        end
        else push TILDE start
      | c -> lex_error (Printf.sprintf "unexpected character '%c'" c) start
    end
  done;
  push EOF n;
  List.rev !tokens
