(* Tests for the ADD/BDD package. *)

module A = Add_bdd.Add

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_leaf_sharing () =
  let m = A.manager () in
  check_bool "leaves shared" true (A.leaf m 7 == A.leaf m 7);
  check_bool "distinct leaves" true (A.leaf m 7 != A.leaf m 8)

let test_reduction () =
  let m = A.manager () in
  let l = A.leaf m 3 in
  check_bool "lo = hi collapses" true (A.mk m ~var:0 ~lo:l ~hi:l == l);
  let n1 = A.mk m ~var:0 ~lo:(A.leaf m 0) ~hi:(A.leaf m 1) in
  let n2 = A.mk m ~var:0 ~lo:(A.leaf m 0) ~hi:(A.leaf m 1) in
  check_bool "hash consing" true (n1 == n2)

let test_eval () =
  let m = A.manager () in
  let t =
    A.mk m ~var:0
      ~lo:(A.mk m ~var:1 ~lo:(A.leaf m 10) ~hi:(A.leaf m 20))
      ~hi:(A.leaf m 30)
  in
  check_int "00" 10 (A.eval t (fun _ -> false));
  check_int "x0=1" 30 (A.eval t (fun v -> v = 0));
  check_int "x1=1" 20 (A.eval t (fun v -> v = 1))

let test_terminals_count () =
  let m = A.manager () in
  let t =
    A.mk m ~var:0
      ~lo:(A.mk m ~var:1 ~lo:(A.leaf m 10) ~hi:(A.leaf m 20))
      ~hi:(A.leaf m 10)
  in
  check_int "nodes" 2 (A.count_nodes t)

(* rows semantics: priority order, first match wins *)
let test_of_rows_priority () =
  let m = A.manager () in
  (* listing-2 style: 1zz -> 0, 01z -> 1, 001 -> 2, default 3
     cubes are LSB first: bit 2 is the MSB *)
  let mk_cube s2 s1 s0 = [| s0; s1; s2 |] in
  let rows =
    [
      mk_cube A.P1 A.Pz A.Pz, 0;
      mk_cube A.P0 A.P1 A.Pz, 1;
      mk_cube A.P0 A.P0 A.P1, 2;
    ]
  in
  let t = A.of_rows m ~split:A.Lowest ~num_vars:3 rows ~default:3 in
  let eval s =
    A.eval t (fun v -> (s lsr v) land 1 = 1)
  in
  check_int "s=100 -> p0" 0 (eval 0b100);
  check_int "s=111 -> p0" 0 (eval 0b111);
  check_int "s=010 -> p1" 1 (eval 0b010);
  check_int "s=011 -> p1" 1 (eval 0b011);
  check_int "s=001 -> p2" 2 (eval 0b001);
  check_int "s=000 -> default" 3 (eval 0b000)

(* property: of_rows equals a straightforward priority interpreter *)
let interp_rows rows ~default assignment =
  let cube_matches cube =
    Array.for_all
      (fun (i, b) ->
        match b with
        | A.Pz -> true
        | A.P0 -> not (assignment i)
        | A.P1 -> assignment i)
      (Array.mapi (fun i b -> i, b) cube)
  in
  let rec go = function
    | [] -> default
    | (cube, v) :: rest -> if cube_matches cube then v else go rest
  in
  go rows

let gen_rows =
  QCheck.Gen.(
    let* split = oneofl [ A.Lowest; A.Fewest_terminals ] in
    let* num_vars = int_range 1 5 in
    let* n_rows = int_range 1 6 in
    let gen_pbit = oneofl [ A.P0; A.P1; A.Pz ] in
    let gen_row =
      let* cube = array_size (return num_vars) gen_pbit in
      let* v = int_range 0 4 in
      return (cube, v)
    in
    let* rows = list_size (return n_rows) gen_row in
    return (split, num_vars, rows))

let prop_of_rows_semantics =
  QCheck.Test.make ~count:300 ~name:"of_rows = priority interpreter"
    (QCheck.make gen_rows)
    (fun (split, num_vars, rows) ->
      let m = A.manager () in
      let t = A.of_rows m ~split ~num_vars rows ~default:99 in
      let ok = ref true in
      for s = 0 to (1 lsl num_vars) - 1 do
        let assignment v = (s lsr v) land 1 = 1 in
        if A.eval t assignment <> interp_rows rows ~default:99 assignment then
          ok := false
      done;
      !ok)

let () =
  Alcotest.run "bdd"
    [
      ( "unit",
        [
          Alcotest.test_case "leaf sharing" `Quick test_leaf_sharing;
          Alcotest.test_case "reduction" `Quick test_reduction;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "terminals/nodes" `Quick test_terminals_count;
          Alcotest.test_case "of_rows priority" `Quick test_of_rows_priority;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_of_rows_semantics ] );
    ]
