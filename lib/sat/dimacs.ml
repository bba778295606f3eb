(* DIMACS CNF parsing and printing — useful for debugging the solver against
   external instances and for dumping sub-graph queries. *)

type cnf = { num_vars : int; clauses : int list list (* DIMACS ints *) }

(* [parse_string_ext] additionally returns the comment lines (with the
   leading "c" and one following space stripped) in file order; the
   replay subcommand reads recorded query metadata from them.  The first
   malformed line stops the parse, named by its 1-based number. *)
exception Bad_line of int * string

let parse_string_ext text : (cnf * string list, string) result =
  let num_vars = ref 0 in
  let clauses = ref [] in
  let current = ref [] in
  let comments = ref [] in
  (* decimal digits only, with an optional leading '-' where [signed]:
     [int_of_string] would also take "0x1f", "1_0" and "+1" *)
  let int_of ?(signed = false) lineno what tok =
    let digits =
      if signed && String.starts_with ~prefix:"-" tok then
        String.sub tok 1 (String.length tok - 1)
      else tok
    in
    match int_of_string_opt tok with
    | Some v when String.for_all (fun ch -> ch >= '0' && ch <= '9') digits -> v
    | Some _ | None -> raise (Bad_line (lineno, what))
  in
  let parse_line lineno line =
    let line = String.trim line in
    if line = "" then ()
    else if line.[0] = 'c' then begin
      let body =
        if String.length line >= 2 && line.[1] = ' ' then
          String.sub line 2 (String.length line - 2)
        else String.sub line 1 (String.length line - 1)
      in
      comments := body :: !comments
    end
    else if line.[0] = 'p' then begin
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ "p"; "cnf"; nv; nc ] ->
        num_vars := int_of lineno "bad problem line" nv;
        ignore (int_of lineno "bad problem line" nc)
      | _ -> raise (Bad_line (lineno, "bad problem line"))
    end
    else
      String.split_on_char ' ' line
      |> List.filter (( <> ) "")
      |> List.iter (fun tok ->
             let v = int_of ~signed:true lineno (Printf.sprintf "bad literal %S" tok) tok in
             if v > !num_vars || v < - !num_vars then
               raise
                 (Bad_line
                    (lineno, Printf.sprintf "literal %d out of range (%d variables)" v !num_vars));
             if v = 0 then begin
               clauses := List.rev !current :: !clauses;
               current := []
             end
             else current := v :: !current)
  in
  match List.iteri (fun i l -> parse_line (i + 1) l) (String.split_on_char '\n' text) with
  | () ->
    if !current <> [] then clauses := List.rev !current :: !clauses;
    Ok ({ num_vars = !num_vars; clauses = List.rev !clauses }, List.rev !comments)
  | exception Bad_line (lineno, msg) -> Error (Printf.sprintf "line %d: %s" lineno msg)

let parse_string text = Result.map fst (parse_string_ext text)

let to_string ?(comments = []) (c : cnf) =
  let buf = Buffer.create 256 in
  List.iter
    (fun line -> Buffer.add_string buf ("c " ^ line ^ "\n"))
    comments;
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" c.num_vars (List.length c.clauses));
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) clause;
      Buffer.add_string buf "0\n")
    c.clauses;
  Buffer.contents buf

(* Load a parsed CNF into a fresh solver, with as many variables as the
   clauses name: the problem line only bounds the literals, so a header
   that declares 10^12 variables allocates none of them. *)
let load (c : cnf) : Solver.t =
  let s = Solver.create () in
  let used =
    List.fold_left (List.fold_left (fun m d -> max m (abs d))) 0 c.clauses
  in
  for _ = 1 to used do
    ignore (Solver.new_var s)
  done;
  List.iter
    (fun clause -> Solver.add_clause s (List.map Lit.of_dimacs clause))
    c.clauses;
  s
