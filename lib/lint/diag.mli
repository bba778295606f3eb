(** Located lint diagnostics.

    A diagnostic ties a registered rule id (["HDL001"], ["NL005"], ...) to
    a severity, a human message, and — when known — either a source span
    (HDL-layer rules) or a netlist cell id (netlist-layer rules). *)

type severity = Error | Warning | Info

type t = {
  rule : string;
  severity : severity;
  message : string;
  span : Hdl.Loc.span option;  (** source location, HDL rules *)
  cell : int option;  (** netlist cell id, netlist rules *)
}

val make :
  ?span:Hdl.Loc.span -> ?cell:int -> rule:string -> severity:severity ->
  string -> t

val error : ?span:Hdl.Loc.span -> ?cell:int -> rule:string -> string -> t
val warning : ?span:Hdl.Loc.span -> ?cell:int -> rule:string -> string -> t
val info : ?span:Hdl.Loc.span -> ?cell:int -> rule:string -> string -> t

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val compare : t -> t -> int
(** Errors first, then warnings, then infos; ties broken by rule id, then
    source position, then message. *)

val sort : t list -> t list

val counts : t list -> int * int * int
(** [(errors, warnings, infos)]. *)

val has_errors : t list -> bool

val location_string : t -> string
(** ["3:7"] for a span, ["cell 12"] for a cell, ["-"] when neither. *)

val pp : Format.formatter -> t -> unit
(** ["3:7: warning[HDL001]: ..."] — no file name; callers that lint many
    sources prefix one themselves. *)

val to_json : t -> Obs.Json.t

val apply : ?werror:bool -> ?waive:string list -> t list -> t list
(** Post-processing as the CLI flags do it: drop diagnostics whose rule id
    is in [waive], then (with [werror]) upgrade the surviving warnings to
    errors.  Infos are never upgraded. *)

val table_rows : t list -> string list list
(** One row per diagnostic: severity, rule, location, message — matching
    {!table_columns}. *)

val table_columns : Report.Table.column list
