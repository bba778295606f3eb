(* Serve daemon smoke tests: a 3-job batch over a socketpair, per-job
   smartly-report-v1 validation, warm-cache behavior across identical
   jobs, and error isolation (a bad job must not take down the batch). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let load ~kind source =
  match kind with
  | "profile" -> (
    match Workloads.Profiles.by_name source with
    | Some p -> Ok (Workloads.Profiles.circuit p)
    | None -> Error (Printf.sprintf "unknown profile %s" source))
  | k -> Error (Printf.sprintf "unknown kind %s" k)

let daemon () = Smartly.Serve.create ~load ()

let field name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "report missing field %S" name

let num name j =
  match field name j with
  | Obs.Json.Num f -> f
  | _ -> Alcotest.failf "field %S not a number" name

let str name j =
  match field name j with
  | Obs.Json.Str s -> s
  | _ -> Alcotest.failf "field %S not a string" name

(* Every well-formed job report carries the full smartly-report-v1
   surface. *)
let validate_report j =
  check_string "schema" "smartly-report-v1" (str "schema" j);
  check_string "op" "optimize" (str "op" j);
  check_string "status" "ok" (str "status" j);
  let area = field "area" j in
  let before = int_of_float (num "before" area) in
  let after = int_of_float (num "after" area) in
  check_bool "area before positive" true (before > 0);
  check_bool "area monotone" true (after <= before);
  check_bool "wall_seconds nonneg" true (num "wall_seconds" j >= 0.0);
  check_bool "iterations positive" true (num "iterations" j >= 1.0);
  check_bool "no memo section" true (Obs.Json.member "memo" j = None);
  (match field "replay" j with
  | Obs.Json.Obj _ -> ()
  | _ -> Alcotest.fail "replay section not an object");
  match field "budget" j with
  | Obs.Json.List _ -> ()
  | _ -> Alcotest.fail "budget section not a list"

(* --- handle: protocol surface without any transport --- *)

let test_handle_protocol () =
  let t = daemon () in
  let resp line =
    let j, continue = Smartly.Serve.handle t line in
    (j, continue)
  in
  let ping, c1 = resp {|{"op":"ping"}|} in
  check_string "ping ok" "ok" (str "status" ping);
  check_bool "ping continues" true c1;
  let r1, _ =
    resp {|{"op":"optimize","id":"a","kind":"profile","source":"mux_chain"}|}
  in
  validate_report r1;
  check_string "id echoed" "a" (str "id" r1);
  let bad, cb = resp {|{"op":"optimize","source":"no_such_profile"}|} in
  check_string "bad job errors" "error" (str "status" bad);
  check_bool "daemon survives bad job" true cb;
  let unknown, _ = resp {|{"op":"frobnicate"}|} in
  check_string "unknown op errors" "error" (str "status" unknown);
  let stats, _ = resp {|{"op":"stats"}|} in
  check_int "jobs ok" 1 (int_of_float (num "jobs_ok" stats));
  check_int "jobs failed" 1 (int_of_float (num "jobs_failed" stats));
  let _, cs = resp {|{"op":"shutdown"}|} in
  check_bool "shutdown stops" false cs

(* --- run: a 3-job batch over a socketpair --- *)

let test_socketpair_batch () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let req = Unix.out_channel_of_descr client in
  List.iter
    (fun l ->
      output_string req l;
      output_char req '\n')
    [
      {|{"op":"optimize","id":"j1","kind":"profile","source":"mux_chain"}|};
      {|{"op":"optimize","id":"j2","kind":"profile","source":"mux_chain"}|};
      {|{"op":"optimize","id":"j3","kind":"profile","source":"mux_chain","jobs":2}|};
      {|{"op":"stats"}|};
      {|{"op":"shutdown"}|};
    ];
  flush req;
  let t = daemon () in
  let ic = Unix.in_channel_of_descr server in
  let oc = Unix.out_channel_of_descr server in
  let shutdown = Smartly.Serve.run t ic oc in
  check_bool "client requested shutdown" true shutdown;
  flush oc;
  let resp = Unix.in_channel_of_descr client in
  let read_json () =
    match Obs.Json.parse (input_line resp) with
    | Ok j -> j
    | Error e -> Alcotest.failf "bad response line: %s" e
  in
  let r1 = read_json () in
  let r2 = read_json () in
  let r3 = read_json () in
  List.iter validate_report [ r1; r2; r3 ];
  check_string "ids in order" "j1,j2,j3"
    (String.concat "," [ str "id" r1; str "id" r2; str "id" r3 ]);
  (* identical jobs must report identical areas, and the warm caches
     must actually engage on the repeats *)
  check_bool "areas agree across the batch" true
    (num "after" (field "area" r1) = num "after" (field "area" r2));
  (* j3 carries the legacy "jobs" field: it is ignored, so the job is
     answered ok with the same area *)
  check_string "legacy jobs field accepted" "ok" (str "status" r3);
  check_bool "legacy jobs field ignored" true
    (num "after" (field "area" r1) = num "after" (field "area" r3));
  let stats = read_json () in
  check_int "three jobs served" 3 (int_of_float (num "jobs_ok" stats));
  let replay_hits = num "hits" (field "replay" stats) in
  check_bool "repeat jobs replayed passes" true (replay_hits > 0.0);
  let shutdown_ack = read_json () in
  check_string "shutdown acked" "ok" (str "status" shutdown_ack);
  List.iter Unix.close [ client; server ]

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "protocol" `Quick test_handle_protocol;
          Alcotest.test_case "socketpair batch" `Quick test_socketpair_batch;
        ] );
    ]
