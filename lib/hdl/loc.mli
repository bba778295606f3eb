(** Source positions and spans for the Verilog frontend.

    Positions are byte offsets decorated with 1-based line/column; spans
    cover a region and are attached to declarations, statements and module
    items by the parser so every diagnostic can point at source code. *)

type pos = { offset : int; line : int; col : int }

type span = { s : pos; e : pos }

val dummy_pos : pos
val dummy : span
(** For programmatically-built AST nodes; prints as ["<unknown>"]. *)

val is_dummy : span -> bool

val span : pos -> pos -> span
val of_pos : pos -> span
val join : span -> span -> span

type line_map
(** Offsets of line starts, built once per source string. *)

val line_map : string -> line_map

val pos_of_offset : line_map -> int -> pos
(** Binary search for the (1-based) line/column of a byte offset. *)

val pp : Format.formatter -> span -> unit
(** ["3:7"] or ["3:7-5:2"]. *)

val to_string : span -> string
