(** DIMACS CNF parsing, printing, and loading into a solver. *)

type cnf = { num_vars : int; clauses : int list list }

val parse_string : string -> (cnf, string) result
(** [Error] names the first malformed line, e.g. ["line 2: bad literal
    \"two\""] or ["line 1: bad problem line"]; a literal whose variable
    the problem line does not declare is one too. *)

val parse_string_ext : string -> (cnf * string list, string) result
(** Like {!parse_string}, also returning comment lines (leading ["c "]
    stripped) in file order — recorded query metadata lives there. *)

val to_string : ?comments:string list -> cnf -> string
(** [comments] are emitted first, one ["c "]-prefixed line each. *)

val load : cnf -> Solver.t
(** A fresh solver holding the clauses, DIMACS variable [v] as solver
    variable [v - 1], with variables up to the largest one a clause
    names: [num_vars] bounds the literals, it allocates nothing. *)
