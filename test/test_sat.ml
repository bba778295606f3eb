(* Tests for the CDCL SAT solver: hand cases + random CNF vs brute force. *)

let lit v ~neg = Cdcl.Lit.of_var ~negated:neg v

let test_trivial_sat () =
  let s = Cdcl.Solver.create () in
  let a = Cdcl.Solver.new_var s in
  Cdcl.Solver.add_clause s [ lit a ~neg:false ];
  Alcotest.(check bool) "sat" true (Cdcl.Solver.solve s = Cdcl.Solver.Sat);
  Alcotest.(check bool) "model a" true (Cdcl.Solver.model_value s a)

let test_trivial_unsat () =
  let s = Cdcl.Solver.create () in
  let a = Cdcl.Solver.new_var s in
  Cdcl.Solver.add_clause s [ lit a ~neg:false ];
  Cdcl.Solver.add_clause s [ lit a ~neg:true ];
  Alcotest.(check bool) "unsat" true (Cdcl.Solver.solve s = Cdcl.Solver.Unsat)

let test_unit_chain () =
  (* a; ~a | b; ~b | c  =>  all true *)
  let s = Cdcl.Solver.create () in
  let a = Cdcl.Solver.new_var s in
  let b = Cdcl.Solver.new_var s in
  let c = Cdcl.Solver.new_var s in
  Cdcl.Solver.add_clause s [ lit a ~neg:false ];
  Cdcl.Solver.add_clause s [ lit a ~neg:true; lit b ~neg:false ];
  Cdcl.Solver.add_clause s [ lit b ~neg:true; lit c ~neg:false ];
  Alcotest.(check bool) "sat" true (Cdcl.Solver.solve s = Cdcl.Solver.Sat);
  Alcotest.(check bool) "c true" true (Cdcl.Solver.model_value s c)

let test_assumptions () =
  (* ~a | b.  Under assumption a: b must be true.  Under a & ~b: unsat. *)
  let s = Cdcl.Solver.create () in
  let a = Cdcl.Solver.new_var s in
  let b = Cdcl.Solver.new_var s in
  Cdcl.Solver.add_clause s [ lit a ~neg:true; lit b ~neg:false ];
  let r1 =
    Cdcl.Solver.solve s ~assumptions:[ lit a ~neg:false; lit b ~neg:true ]
  in
  Alcotest.(check bool) "a & ~b unsat" true (r1 = Cdcl.Solver.Unsat);
  let r2 = Cdcl.Solver.solve s ~assumptions:[ lit a ~neg:false ] in
  Alcotest.(check bool) "a sat" true (r2 = Cdcl.Solver.Sat);
  Alcotest.(check bool) "b forced" true (Cdcl.Solver.model_value s b);
  (* solver still usable and not permanently unsat *)
  let r3 = Cdcl.Solver.solve s in
  Alcotest.(check bool) "still sat" true (r3 = Cdcl.Solver.Sat)

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small unsat instance.
     var p(i,h) = pigeon i in hole h. *)
  let s = Cdcl.Solver.create () in
  let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Cdcl.Solver.new_var s)) in
  for i = 0 to 2 do
    Cdcl.Solver.add_clause s
      [ lit p.(i).(0) ~neg:false; lit p.(i).(1) ~neg:false ]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Cdcl.Solver.add_clause s [ lit p.(i).(h) ~neg:true; lit p.(j).(h) ~neg:true ]
      done
    done
  done;
  Alcotest.(check bool) "php(3,2) unsat" true
    (Cdcl.Solver.solve s = Cdcl.Solver.Unsat)

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let cnf = Result.get_ok (Cdcl.Dimacs.parse_string text) in
  Alcotest.(check int) "vars" 3 cnf.Cdcl.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.Cdcl.Dimacs.clauses);
  let s = Cdcl.Dimacs.load cnf in
  Alcotest.(check bool) "sat" true (Cdcl.Solver.solve s = Cdcl.Solver.Sat);
  let text2 = Cdcl.Dimacs.to_string cnf in
  let cnf2 = Result.get_ok (Cdcl.Dimacs.parse_string text2) in
  Alcotest.(check bool) "roundtrip" true
    (cnf.Cdcl.Dimacs.clauses = cnf2.Cdcl.Dimacs.clauses);
  (* the problem line bounds the literals but allocates nothing: a header
     declaring 10^12 variables over the clause "1 0" loads one *)
  let big =
    Result.get_ok (Cdcl.Dimacs.parse_string "p cnf 1000000000000 1\n1 0\n")
  in
  let s = Cdcl.Dimacs.load big in
  Alcotest.(check int) "one variable loaded" 1 (Cdcl.Solver.num_vars s);
  Alcotest.(check bool) "big header sat" true
    (Cdcl.Solver.solve s = Cdcl.Solver.Sat)

(* A malformed file is a located error, not an exception. *)
let test_dimacs_bad_input () =
  let error text = Result.fold ~ok:(fun _ -> None) ~error:Option.some (Cdcl.Dimacs.parse_string text) in
  Alcotest.(check (option string)) "problem line" (Some "line 1: bad problem line")
    (error "p cnf x y\n1 0\n");
  Alcotest.(check (option string)) "literal" (Some "line 2: bad literal \"two\"")
    (error "p cnf 2 1\n1 two 0\n");
  Alcotest.(check (option string)) "no OCaml prefix" (Some "line 2: bad literal \"0x1\"")
    (error "p cnf 2 1\n0x1 0\n");
  Alcotest.(check (option string)) "no negative count" (Some "line 1: bad problem line")
    (error "p cnf -2 1\n1 0\n");
  Alcotest.(check (option string)) "undeclared variable"
    (Some "line 3: literal -3 out of range (2 variables)")
    (error "c q\np cnf 2 1\n1 -3 0\n")

(* --- incremental use: the Session access pattern --- *)

(* pigeonhole clauses for [n] pigeons in [n-1] holes, each clause carrying
   [¬guard] when given — the clause-group encoding Cdcl.Session uses.
   With the guard assumed the instance is the classic unsat php(n, n-1);
   with the guard free the whole group can be switched off, so the solver
   stays reusable after refutation. *)
let add_php ?guard s n =
  let holes = n - 1 in
  let p = Array.init n (fun _ -> Array.init holes (fun _ -> Cdcl.Solver.new_var s)) in
  let cl lits =
    match guard with
    | None -> Cdcl.Solver.add_clause s lits
    | Some g -> Cdcl.Solver.add_clause s (Cdcl.Lit.negate g :: lits)
  in
  for i = 0 to n - 1 do
    cl (List.init holes (fun h -> lit p.(i).(h) ~neg:false))
  done;
  for h = 0 to holes - 1 do
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        cl [ lit p.(i).(h) ~neg:true; lit p.(j).(h) ~neg:true ]
      done
    done
  done

let fresh_guard s = Cdcl.Lit.of_var ~negated:false (Cdcl.Solver.new_var s)

let test_guarded_unsat_reusable () =
  let s = Cdcl.Solver.create () in
  let g = fresh_guard s in
  add_php ~guard:g s 4;
  Alcotest.(check bool) "guarded php unsat under assumption" true
    (Cdcl.Solver.solve s ~assumptions:[ g ] = Cdcl.Solver.Unsat);
  (* the refutation was assumption-driven: guard off, formula is sat *)
  Alcotest.(check bool) "sat with group off" true
    (Cdcl.Solver.solve s = Cdcl.Solver.Sat);
  (* still accepts new clauses and solves them *)
  let x = Cdcl.Solver.new_var s in
  Cdcl.Solver.add_clause s [ lit x ~neg:false ];
  Alcotest.(check bool) "grows after refutation" true
    (Cdcl.Solver.solve s = Cdcl.Solver.Sat);
  Alcotest.(check bool) "new unit in model" true (Cdcl.Solver.model_value s x);
  (* and the refutation is still reproducible *)
  Alcotest.(check bool) "guard still refutes" true
    (Cdcl.Solver.solve s ~assumptions:[ g ] = Cdcl.Solver.Unsat)

let test_budget_exhaustion_reusable () =
  let s = Cdcl.Solver.create () in
  let g = fresh_guard s in
  add_php ~guard:g s 6;
  (* php(6,5) needs far more than 2 conflicts: the capped call gives up *)
  let r = Cdcl.Solver.solve s ~assumptions:[ g ] ~budget:2 in
  Alcotest.(check bool) "budget exhausted -> unknown" true
    (r = Cdcl.Solver.Unknown);
  (* an Unknown answer must leave the solver fully usable *)
  Alcotest.(check bool) "usable after unknown" true
    (Cdcl.Solver.solve s = Cdcl.Solver.Sat);
  Alcotest.(check bool) "full budget still refutes" true
    (Cdcl.Solver.solve s ~assumptions:[ g ] = Cdcl.Solver.Unsat)

let test_budget_is_per_call () =
  (* regression: the budget once compared against the solver's LIFETIME
     conflict total, so a long-lived incremental solver that had already
     spent its budget answered Unknown to every later query, however
     trivial.  Burn well over [b] conflicts refuting a guarded php, then
     ask an easy budgeted query: it must still be answered. *)
  let s = Cdcl.Solver.create () in
  let g = fresh_guard s in
  add_php ~guard:g s 6;
  Alcotest.(check bool) "hard query refuted" true
    (Cdcl.Solver.solve s ~assumptions:[ g ] = Cdcl.Solver.Unsat);
  let b = 50 in
  Alcotest.(check bool) "test premise: lifetime conflicts exceed budget" true
    (Cdcl.Solver.num_conflicts s > b);
  let g2 = fresh_guard s in
  let x = Cdcl.Solver.new_var s in
  Cdcl.Solver.add_clause s [ Cdcl.Lit.negate g2; lit x ~neg:false ];
  Alcotest.(check bool) "easy budgeted query answered" true
    (Cdcl.Solver.solve s ~assumptions:[ g2 ] ~budget:b = Cdcl.Solver.Sat);
  Alcotest.(check bool) "forced by the group" true (Cdcl.Solver.model_value s x)

(* --- brute force reference --- *)

let brute_force_sat ~num_vars clauses =
  let rec try_assign v =
    if v = 1 lsl num_vars then false
    else
      let sat_clause clause =
        List.exists
          (fun d ->
            let var = abs d - 1 in
            let value = (v lsr var) land 1 = 1 in
            if d > 0 then value else not value)
          clause
      in
      if List.for_all sat_clause clauses then true else try_assign (v + 1)
  in
  try_assign 0

let gen_cnf =
  QCheck.Gen.(
    let* num_vars = int_range 1 10 in
    let* num_clauses = int_range 1 40 in
    let gen_lit =
      let* v = int_range 1 num_vars in
      let* neg = bool in
      return (if neg then -v else v)
    in
    let* clauses = list_size (return num_clauses) (list_size (int_range 1 4) gen_lit) in
    return (num_vars, clauses))

let arb_cnf =
  QCheck.make gen_cnf ~print:(fun (nv, cls) ->
      Cdcl.Dimacs.to_string { Cdcl.Dimacs.num_vars = nv; clauses = cls })

let prop_incremental_equals_scratch =
  (* interleave add_clause/solve: after every added clause, the
     incremental solver must agree with a from-scratch solver on the
     prefix, with and without assumptions, and Sat models must satisfy
     every clause added so far *)
  QCheck.Test.make ~count:150 ~name:"incremental solves = from-scratch"
    arb_cnf (fun (num_vars, clauses) ->
      let s = Cdcl.Solver.create () in
      for _ = 1 to num_vars do
        ignore (Cdcl.Solver.new_var s)
      done;
      let assum =
        [ Cdcl.Lit.of_var ~negated:false 0 ]
        @ if num_vars > 1 then [ Cdcl.Lit.of_var ~negated:true 1 ] else []
      in
      let model_ok prefix =
        List.for_all
          (fun clause ->
            List.exists
              (fun d ->
                let value = Cdcl.Solver.model_value s (abs d - 1) in
                if d > 0 then value else not value)
              clause)
          prefix
      in
      let rec go prefix_rev = function
        | [] -> true
        | c :: rest ->
          Cdcl.Solver.add_clause s
            (List.map (fun d -> Cdcl.Lit.of_var ~negated:(d < 0) (abs d - 1)) c);
          let prefix_rev = c :: prefix_rev in
          let prefix = List.rev prefix_rev in
          let scratch extra =
            Cdcl.Solver.solve
              (Cdcl.Dimacs.load { Cdcl.Dimacs.num_vars; clauses = prefix @ extra })
          in
          let ri = Cdcl.Solver.solve s in
          if ri <> scratch [] then false
          else if ri = Cdcl.Solver.Sat && not (model_ok prefix) then false
          else
            let ra = Cdcl.Solver.solve s ~assumptions:assum in
            let units = List.map (fun l -> [ Cdcl.Lit.to_dimacs l ]) assum in
            if ra <> scratch units then false
            else if ra = Cdcl.Solver.Sat && not (model_ok prefix) then false
            else go prefix_rev rest
      in
      go [] clauses)

let prop_matches_brute_force =
  QCheck.Test.make ~count:300 ~name:"cdcl agrees with brute force" arb_cnf
    (fun (num_vars, clauses) ->
      let expected = brute_force_sat ~num_vars clauses in
      let s = Cdcl.Dimacs.load { Cdcl.Dimacs.num_vars; clauses } in
      let got = Cdcl.Solver.solve s in
      (match got with
      | Cdcl.Solver.Sat ->
        (* verify the model *)
        List.for_all
          (fun clause ->
            List.exists
              (fun d ->
                let value = Cdcl.Solver.model_value s (abs d - 1) in
                if d > 0 then value else not value)
              clause)
          clauses
        && expected
      | Cdcl.Solver.Unsat -> not expected
      | Cdcl.Solver.Unknown -> false))

let prop_assumptions_consistent =
  (* solving with assumptions equals solving with those units added *)
  QCheck.Test.make ~count:200 ~name:"assumptions = added units" arb_cnf
    (fun (num_vars, clauses) ->
      let assum = [ 1; (if num_vars > 1 then -2 else 1) ] in
      let s1 = Cdcl.Dimacs.load { Cdcl.Dimacs.num_vars; clauses } in
      (* [load] allocates only the variables the clauses name; the
         assumptions name variables 1 and 2 *)
      for _ = Cdcl.Solver.num_vars s1 + 1 to 2 do
        ignore (Cdcl.Solver.new_var s1)
      done;
      let lits =
        List.map (fun d -> Cdcl.Lit.of_var ~negated:(d < 0) (abs d - 1)) assum
      in
      let r1 = Cdcl.Solver.solve s1 ~assumptions:lits in
      let s2 =
        Cdcl.Dimacs.load
          { Cdcl.Dimacs.num_vars; clauses = clauses @ List.map (fun d -> [ d ]) assum }
      in
      let r2 = Cdcl.Solver.solve s2 in
      r1 = r2)

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "unit chain" `Quick test_unit_chain;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dimacs bad input" `Quick test_dimacs_bad_input;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "guarded refutation leaves solver reusable"
            `Quick test_guarded_unsat_reusable;
          Alcotest.test_case "budget exhaustion leaves solver reusable"
            `Quick test_budget_exhaustion_reusable;
          Alcotest.test_case "budget is per call, not lifetime" `Quick
            test_budget_is_per_call;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_brute_force;
            prop_assumptions_consistent;
            prop_incremental_equals_scratch;
          ] );
    ]
