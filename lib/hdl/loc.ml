(* Source positions and spans for the Verilog frontend.

   A [pos] is a byte offset decorated with its 1-based line and column; a
   [span] covers a source region from the start of its first token to the
   start of its last.  Spans are attached to declarations, statements and
   module items during parsing so that every later diagnostic — lint
   findings, elaboration failures — can point back at the source line. *)

type pos = { offset : int; line : int; col : int }

type span = { s : pos; e : pos }

let dummy_pos = { offset = -1; line = 0; col = 0 }
let dummy = { s = dummy_pos; e = dummy_pos }
let is_dummy sp = sp.s.offset < 0

let span s e = { s; e }
let of_pos p = { s = p; e = p }

let join a b =
  if is_dummy a then b
  else if is_dummy b then a
  else
    {
      s = (if a.s.offset <= b.s.offset then a.s else b.s);
      e = (if a.e.offset >= b.e.offset then a.e else b.e);
    }

(* Offset of the first character of each line, ascending. *)
type line_map = int array

let line_map (src : string) : line_map =
  let starts = ref [ 0 ] in
  String.iteri (fun i ch -> if ch = '\n' then starts := (i + 1) :: !starts) src;
  Array.of_list (List.rev !starts)

let pos_of_offset (lm : line_map) (off : int) : pos =
  (* greatest line start <= off *)
  let lo = ref 0 and hi = ref (Array.length lm - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if lm.(mid) <= off then lo := mid else hi := mid - 1
  done;
  { offset = off; line = !lo + 1; col = off - lm.(!lo) + 1 }

let pp ppf sp =
  if is_dummy sp then Fmt.string ppf "<unknown>"
  else if sp.s.line = sp.e.line && sp.s.col = sp.e.col then
    Fmt.pf ppf "%d:%d" sp.s.line sp.s.col
  else Fmt.pf ppf "%d:%d-%d:%d" sp.s.line sp.s.col sp.e.line sp.e.col

let to_string sp = Fmt.str "%a" pp sp
