(* Located lint diagnostics: rule id + severity + message + (source span |
   netlist cell).  Shared by the HDL rules, the netlist rules and the
   per-pass invariant checker. *)

type severity = Error | Warning | Info

type t = {
  rule : string;
  severity : severity;
  message : string;
  span : Hdl.Loc.span option;
  cell : int option;
}

let make ?span ?cell ~rule ~severity message =
  { rule; severity; message; span; cell }

let error ?span ?cell ~rule message = make ?span ?cell ~rule ~severity:Error message
let warning ?span ?cell ~rule message =
  make ?span ?cell ~rule ~severity:Warning message
let info ?span ?cell ~rule message = make ?span ?cell ~rule ~severity:Info message

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let pos_key = function
  | Some (sp : Hdl.Loc.span) -> (sp.s.line, sp.s.col)
  | None -> (max_int, max_int)

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.rule b.rule in
    if c <> 0 then c
    else
      let c = Stdlib.compare (pos_key a.span) (pos_key b.span) in
      if c <> 0 then c else String.compare a.message b.message

let sort ds = List.sort compare ds

let counts ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let location_string d =
  match d.span, d.cell with
  | Some sp, _ -> Hdl.Loc.to_string sp
  | None, Some id -> Fmt.str "cell %d" id
  | None, None -> "-"

let pp ppf d =
  (match d.span with
  | Some sp -> Fmt.pf ppf "%a: " Hdl.Loc.pp sp
  | None -> ());
  Fmt.pf ppf "%s[%s]: %s" (severity_name d.severity) d.rule d.message;
  match d.cell with
  | Some id when d.span = None -> Fmt.pf ppf " (cell %d)" id
  | Some _ | None -> ()

let to_json d =
  let open Obs.Json in
  let fields =
    [ "rule", Str d.rule;
      "severity", Str (severity_name d.severity);
      "message", Str d.message ]
  in
  let fields =
    match d.span with
    | Some sp ->
      fields
      @ [ "line", num_of_int sp.Hdl.Loc.s.line;
          "col", num_of_int sp.Hdl.Loc.s.col;
          "end_line", num_of_int sp.Hdl.Loc.e.line;
          "end_col", num_of_int sp.Hdl.Loc.e.col ]
    | None -> fields
  in
  let fields =
    match d.cell with
    | Some id -> fields @ [ "cell", num_of_int id ]
    | None -> fields
  in
  Obj fields

let apply ?(werror = false) ?(waive = []) ds =
  ds
  |> List.filter (fun d -> not (List.mem d.rule waive))
  |> List.map (fun d ->
         if werror && d.severity = Warning then { d with severity = Error }
         else d)

let table_columns =
  Report.Table.
    [ column "severity"; column "rule"; column "location"; column "message" ]

let table_rows ds =
  List.map
    (fun d -> [ severity_name d.severity; d.rule; location_string d; d.message ])
    ds
