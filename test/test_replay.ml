(* Pass-replay cache end to end: warm runs of the smartly flow must
   reproduce the cold result exactly, and the cache key must cover
   everything a sat_elim pass reads — the cells and the output ports. *)

open Netlist

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let profile name =
  match Workloads.Profiles.by_name name with
  | Some p -> p
  | None -> Alcotest.failf "unknown profile %s" name

(* One flow run on a copy: fresh telemetry; no replay store
   unless [replay].  Returns (optimized copy, netlist digest, area). *)
let run_flow ?(replay = false) c0 =
  let c = Circuit.copy c0 in
  Smartly.Engine.Sat_log.reset ();
  Smartly.Budget.reset ();
  if not replay then Smartly.Replay.uninstall ();
  ignore (Smartly.Driver.smartly c);
  (c, Smartly.Replay.circuit_digest c, Aiger.Aigmap.aig_area c)

let corpus = lazy (Workloads.Profiles.circuit (profile "mux_chain"))

let replay_stat store k =
  match Smartly.Replay.to_json store with
  | Obs.Json.Obj fields -> (
    match List.assoc k fields with
    | Obs.Json.Num f -> int_of_float f
    | _ -> Alcotest.failf "field %s not a number" k)
  | _ -> Alcotest.fail "replay stats not an object"

(* A second identical job replays (hits > 0) and still produces the
   byte-identical netlist of the cold run. *)
let test_replay_reproduces () =
  let c0 = Lazy.force corpus in
  let _, d_cold, a_cold = run_flow c0 in
  check_bool "flow did optimize" true (a_cold < Aiger.Aigmap.aig_area c0);
  let store = Smartly.Replay.make () in
  Smartly.Replay.install store;
  Fun.protect ~finally:Smartly.Replay.uninstall (fun () ->
      let _, d1, a1 = run_flow ~replay:true c0 in
      let _, d2, a2 = run_flow ~replay:true c0 in
      check_string "warm job 1 digest" d_cold d1;
      check_string "warm job 2 digest" d_cold d2;
      check_int "warm job 1 area" a_cold a1;
      check_int "warm job 2 area" a_cold a2;
      check_bool "job 2 replayed passes" true (replay_stat store "hits" > 0);
      check_bool "job 1 filled the cache" true
        (replay_stat store "entries" > 0))

(* The digest is a function of the cells: copies agree, any rewrite
   disagrees. *)
let test_digest_sensitivity () =
  let c0 = Lazy.force corpus in
  let c1 = Circuit.copy c0 in
  check_string "copy digests equal"
    (Smartly.Replay.circuit_digest c0)
    (Smartly.Replay.circuit_digest c1);
  let id = List.hd (Circuit.cell_ids c1) in
  let cell = Circuit.cell c1 id in
  Circuit.remove_cell c1 id;
  check_bool "removal changes digest" true
    (Smartly.Replay.circuit_digest c0 <> Smartly.Replay.circuit_digest c1);
  ignore (Circuit.add_cell c1 cell)

(* Q = s ? d4 : d3, M = t ? d1 : Q, P = s ? M : d2.  With only P an
   output, M is a dedicated child of P and Q of M, so the walk may read
   Q as d4 inside M (s = 1 on that path).  Exposing M as well makes M a
   root, where that rewrite is unsound — the same cells, so only the
   output ports can tell the two passes apart. *)
let nested_muxes ~expose_m =
  let c = Circuit.create "nested" in
  let input name = Circuit.bit_of_wire (Circuit.add_input c name ~width:1) in
  let s = input "s" in
  let t = input "t" in
  let d1 = input "d1" in
  let d2 = input "d2" in
  let d3 = input "d3" in
  let d4 = input "d4" in
  let q = Circuit.mk_mux c ~a:[| d3 |] ~b:[| d4 |] ~s in
  let m = Circuit.mk_mux c ~a:q ~b:[| d1 |] ~s:t in
  let p = Circuit.mk_mux c ~a:[| d2 |] ~b:m ~s in
  let expose (sg : Bits.sigspec) =
    match sg.(0) with
    | Bits.Of_wire (w, _) -> Circuit.set_output c (Circuit.wire c w)
    | Bits.C0 | Bits.C1 | Bits.Cx -> Alcotest.fail "mux output is a constant"
  in
  expose p;
  if expose_m then expose m;
  c

let test_key_covers_outputs () =
  let a0 = nested_muxes ~expose_m:false in
  let b0 = nested_muxes ~expose_m:true in
  check_bool "output ports split the digest" true
    (Smartly.Replay.circuit_digest a0 <> Smartly.Replay.circuit_digest b0);
  let _, _, b_cold_area = run_flow b0 in
  let store = Smartly.Replay.make () in
  Smartly.Replay.install store;
  Fun.protect ~finally:Smartly.Replay.uninstall (fun () ->
      ignore (run_flow ~replay:true a0);
      let b, _, b_area = run_flow ~replay:true b0 in
      check_bool "warm B equivalent to B" true (Equiv.is_equivalent b b0);
      check_int "warm B area = cold B area" b_cold_area b_area)

let () =
  Alcotest.run "replay"
    [
      ( "replay",
        [
          Alcotest.test_case "reproduces cold result" `Quick
            test_replay_reproduces;
          Alcotest.test_case "digest sensitivity" `Quick
            test_digest_sensitivity;
          Alcotest.test_case "key covers output ports" `Quick
            test_key_covers_outputs;
        ] );
    ]
