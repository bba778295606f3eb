(** Hash-consed Algebraic Decision Diagrams.

    ADDs generalize BDDs from boolean to arbitrary integer terminals.
    Nodes are reduced: equal children collapse and structurally equal
    nodes are shared, so physical equality is semantic equality within
    one manager for diagrams built in one variable order.  A variable
    appears at most once on each path; each path's order is the builder's
    split choice. *)

type t = private { id : int; node : node }

and node = Leaf of int | Node of { var : int; lo : t; hi : t }

type manager

val manager : unit -> manager

val leaf : manager -> int -> t
val mk : manager -> var:int -> lo:t -> hi:t -> t

val eval : t -> (int -> bool) -> int
(** Evaluate under a variable assignment. *)

val count_nodes : t -> int
(** Internal (decision) nodes, shared nodes counted once. *)

(** {1 Priority rows (case statements)} *)

type pbit = P0 | P1 | Pz  (** pattern bit: 0, 1, wildcard *)

(** Which variable a node splits on. *)
type split =
  | Lowest  (** the lowest remaining variable: one fixed order *)
  | Fewest_terminals
      (** the paper's Algorithm 1: the variable that leaves the fewest
          distinct terminals in the two children together, ties to the
          lowest index *)

val of_rows :
  manager ->
  split:split ->
  num_vars:int ->
  (pbit array * int) list ->
  default:int ->
  t
(** The ADD of a priority pattern list: the first matching row wins;
    [default] when none matches.  Variable [i] is cube index [i].  A
    node whose top row is all wildcards over the unsplit variables is
    that row's leaf; otherwise it splits on the [split] choice, building
    the 0 child before the 1 child. *)
