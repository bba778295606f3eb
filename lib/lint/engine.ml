(* Composite lint pipeline: frontend -> AST rules -> elaborate -> netlist
   rules, with frontend failures demoted to HDL000 diagnostics. *)

let frontend ?span what msg =
  Diag.error ?span ~rule:"HDL000" (Fmt.str "%s: %s" what msg)

let lint_source ?style (src : string) : Diag.t list =
  match Hdl.Parser.parse_string src with
  | exception Hdl.Lexer.Lex_error (msg, pos) ->
    [ frontend ~span:(Hdl.Loc.of_pos pos) "lex error" msg ]
  | exception Hdl.Parser.Parse_error (msg, pos) ->
    [ frontend ~span:(Hdl.Loc.of_pos pos) "parse error" msg ]
  | ast -> (
    let hdl = Rules_hdl.check ast in
    match Hdl.Elaborate.elaborate ?style ast with
    | exception Hdl.Elaborate.Elab_error (msg, sp) ->
      Diag.sort (frontend ?span:sp "elaboration error" msg :: hdl)
    | circuit -> Diag.sort (hdl @ Rules_netlist.check circuit))

let report_json (sources : (string * Diag.t list) list) : Obs.Json.t =
  let open Obs.Json in
  let all = List.concat_map snd sources in
  let errors, warnings, infos = Diag.counts all in
  Obj
    [ "schema", Str "smartly-lint-v1";
      "sources",
      List
        (List.map
           (fun (name, diags) ->
             Obj
               [ "name", Str name;
                 "diagnostics", List (List.map Diag.to_json diags) ])
           sources);
      "errors", num_of_int errors;
      "warnings", num_of_int warnings;
      "infos", num_of_int infos ]
