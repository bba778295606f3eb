(* The repository's benchmark: one workload per process, measured for a
   fixed time, with every output checked.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe agree A.json B.json

   A run builds the workload's designs (set-up), then runs closed-loop
   rounds with one client until the time is up.  A round sends every
   design through Driver.yosys and Driver.smartly in-process, and every
   serve job through one warm Serve.t.  After the rounds each optimized
   netlist is checked against its original, and each serve job's area
   against a cold daemon's.  Untraced runs report the end-to-end metrics,
   traced runs the per-layer split.  README.md has the why of each
   workload and metric. *)

open Netlist
module P = Workloads.Profiles

(* ---------- workloads ---------- *)

type workload = {
  name : string;
  designs : P.profile list;  (** each goes through both flows in-process *)
  batch : P.profile list;  (** distinct designs of the serve batch *)
  copies : int;  (** stamped copies of each batch design *)
}

(* The paper's designs at full size take 30-60 s per pass and a run has
   seconds: [scale d] keeps a profile's block mix and divides the number
   of copies of it in the design. *)
let scale d (p : P.profile) = { p with P.repeat = (p.P.repeat + d - 1) / d }

(* the block mix of the serve model's stamped-out jobs *)
let batch_design ~repeat seed =
  {
    P.name = Printf.sprintf "batch_s%02d" seed;
    seed;
    style = `Pmux;
    repeat;
    mix =
      P.
        [
          Crossbar_port { n_grants = 16; width = 8 };
          Correlated_ifs { depth = 7; width = 8 };
          Correlated_ifs { depth = 6; width = 8 };
        ];
    register_fraction = 5;
  }

let workloads =
  [
    {
      name = "public9";
      designs =
        List.filter_map
          (fun (p : P.profile) ->
            if p.P.name = "top_cache_axi" then None else Some (scale 4 p))
          P.public_benchmarks;
      batch = [];
      copies = 0;
    };
    {
      name = "cache_axi";
      designs = [ scale 8 P.top_cache_axi ];
      batch = [];
      copies = 0;
    };
    {
      name = "industrial4";
      designs =
        List.map (scale 8)
          (List.filteri (fun i _ -> i < 4) P.industrial_benchmarks);
      batch = [];
      copies = 0;
    };
    {
      name = "serve_batch";
      designs = [];
      batch = List.init 6 (fun i -> batch_design ~repeat:2 (21 + i));
      copies = 3;
    };
    (* not in BENCHMARK.json: every code path in seconds, with the
       benchmark's own consistency checks (see [smoke]) *)
    {
      name = "smoke";
      designs = [ P.mux_chain ];
      batch = List.init 2 (fun i -> batch_design ~repeat:1 (21 + i));
      copies = 2;
    };
  ]

(* Build one design.  The seed renumbers the design's wires: its
   declarations are shuffled before elaboration, which changes every id
   the optimizer orders, hashes or encodes while the logic, and so the
   work, stays the same.  Seed 0 keeps the canonical order.  Designs
   regenerated from shifted generator seeds spread public9's smaRTLy time
   by 11-24% (quartiles over ten seeds), beyond any useful bound. *)
let generate ~seed (p : P.profile) : Circuit.t =
  let src = Obs.Trace.with_span "workloads.source" (fun () -> P.source p) in
  let m =
    Obs.Trace.with_span "hdl.parse" (fun () -> Hdl.Parser.parse_string src)
  in
  let decls, behaviour =
    List.partition
      (function Hdl.Ast.I_decl _ -> true | _ -> false)
      m.Hdl.Ast.items
  in
  let decls =
    if seed = 0 then decls
    else
      Workloads.Rng.shuffle
        (Workloads.Rng.create ~seed:((seed * 7919) + p.P.seed))
        decls
  in
  let c =
    Obs.Trace.with_span "hdl.elaborate" (fun () ->
        Hdl.Elaborate.elaborate ~style:p.P.style
          { m with Hdl.Ast.items = decls @ behaviour })
  in
  if p.P.register_fraction > 0 then
    Obs.Trace.with_span "workloads.seqify" (fun () ->
        Workloads.Seqify.insert_registers c ~seed:(p.P.seed + 77)
          ~percent:p.P.register_fraction);
  c

(* ---------- measurement state ---------- *)

type state = {
  samples : (string * string, float list) Hashtbl.t;
      (** (unit, metric) -> one value per round; a unit is a design, a
          serve job position, the serve batch, a check or the set-up *)
  areas : (string, int) Hashtbl.t;  (** "<flow>:<design>" -> AND2 area *)
  outputs : (string, Circuit.t) Hashtbl.t;
      (** "<flow>:<design>" -> an optimized netlist, for the checks *)
  mutable attempted : int;
  mutable failures : string list;
}

(* Every timed call starts from a collected heap, as in a fresh process,
   so it pays for its own garbage and not for an earlier call's.  Returns
   the result, the wall seconds and the call's allocation. *)
let timed f =
  Gc.full_major ();
  let mark = Obs.Metrics.gc_mark () in
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  let t = Obs.Clock.elapsed t0 in
  (r, t, Obs.Metrics.gc_delta mark)

let sample st unit metric v =
  let key = (unit, metric) in
  Hashtbl.replace st.samples key
    (v :: Option.value (Hashtbl.find_opt st.samples key) ~default:[])

(* A metric of the workload: the sum over units of each unit's fastest
   repetition in the run.  This 2-vCPU VM has slow spells lasting seconds
   (a spin loop's median moves 38% between runs a second apart, its
   minimum 4%); a unit's median follows how much of the run a spell
   covered, its minimum does not. *)
let total st metric =
  Hashtbl.fold
    (fun (_, m) vs acc ->
      if m = metric then acc +. List.fold_left Float.min Float.infinity vs
      else acc)
    st.samples 0.0

let fail st fmt =
  Printf.ksprintf (fun s -> st.failures <- s :: st.failures) fmt

(* one attempted operation; an exception fails it *)
let op st label f =
  st.attempted <- st.attempted + 1;
  try f () with e -> fail st "%s: %s" label (Printexc.to_string e)

(* Outputs are deterministic: an area must repeat in every round, traced
   or not, and across a batch's stamped copies and the cold daemon. *)
let record_area st key area =
  match Hashtbl.find_opt st.areas key with
  | None -> Hashtbl.replace st.areas key area
  | Some a when a = area -> ()
  | Some a -> fail st "%s: area %d, earlier %d" key area a

(* ---------- per-layer readings of traced rounds ---------- *)

let yosys_passes =
  [
    ("opt_expr", [ "opt_expr.run" ]);
    ("opt_merge", [ "opt_merge.run" ]);
    ("opt_muxtree", [ "opt_muxtree.run" ]);
    ("opt_clean", [ "opt_clean.run" ]);
  ]

let smartly_passes =
  [
    ("opt_expr", [ "opt_expr.run" ]);
    ("opt_merge", [ "opt_merge.run" ]);
    ("sat_elim", [ "sat_elim.run_once"; "sat_elim.run_tasks" ]);
    ("restructure", [ "restructure.run_once" ]);
    ("opt_clean", [ "opt_clean.run" ]);
  ]

let pass_seconds st unit flow passes events =
  List.iter
    (fun (pass, spans) ->
      sample st unit
        (Printf.sprintf "%s.%s_s" flow pass)
        (List.fold_left (fun acc s -> acc +. Layers.seconds events s) 0.0 spans))
    passes

let counter name = float_of_int (Obs.Metrics.value (Obs.Metrics.counter name))

let histogram_sum name =
  (Obs.Metrics.histogram_stats (Obs.Metrics.histogram name)).Obs.Metrics.sum

(* the program's own instruments, read after [Obs.Metrics.reset] and one
   unit of smaRTLy work *)
let program_counters st unit =
  List.iter
    (fun (metric, v) -> sample st unit metric v)
    (("engine.sat_s", histogram_sum "engine.sat_query_seconds")
     :: ("engine.sim_s", histogram_sum "engine.sim_query_seconds")
     :: ("engine.analysis_s", histogram_sum "engine.analysis_seconds")
     :: List.map
          (fun n -> (n, counter n))
          [
            "driver.iterations"; "engine.sat_queries"; "engine.sat_conflicts";
            "engine.sim_queries"; "engine.analysis_queries";
            "engine.analysis_hits"; "engine.rule_hits";
            "sat_session.cell_encodes"; "sat_session.cell_reuses";
            "sat_session.flushes"; "subgraph.kept"; "subgraph.dropped";
            "memo.hits"; "memo.misses"; "restructure.candidates";
            "restructure.rebuilt"; "sat_elim.muxes_bypassed";
            "sat_elim.data_bits_folded";
          ])

let gc_sample st unit (d : Obs.Metrics.gc_delta) =
  sample st unit "gc.alloc_mwords" (d.Obs.Metrics.allocated_words /. 1e6);
  sample st unit "gc.major_collections"
    (float_of_int d.Obs.Metrics.major_collections)

(* ---------- one round ---------- *)

(* A Yosys call takes tens of milliseconds, where one scheduling hiccup
   is a large share: each round times it this many times. *)
let yosys_calls = 3

let yosys st ~traced (name, c0) =
  for _ = 1 to yosys_calls do
    let c = Circuit.copy c0 in
    let (_, events), t, _ =
      timed (fun () ->
          Layers.capture "bench.yosys" (fun () -> Smartly.Driver.yosys c))
    in
    sample st name "t_yosys" t;
    if traced then pass_seconds st name "yosys" yosys_passes events;
    record_area st ("yosys:" ^ name) (Aiger.Aigmap.aig_area c);
    Hashtbl.replace st.outputs ("yosys:" ^ name) c
  done

(* cold state per design: the default config's sequential walk, with the
   verdict memo and the query log emptied and no replay store *)
let smartly st ~traced (name, c0) =
  let c = Circuit.copy c0 in
  Obs.Metrics.reset ();
  Smartly.Engine.Sat_log.reset ();
  Smartly.Memo.reset ();
  Smartly.Replay.uninstall ();
  let (_, events), t, gc =
    timed (fun () ->
        Layers.capture "bench.smartly" (fun () -> Smartly.Driver.smartly c))
  in
  if traced then begin
    sample st name "trace.t_smartly" t;
    gc_sample st name gc;
    pass_seconds st name "smartly" smartly_passes events;
    program_counters st name
  end
  else sample st name "t_smartly" t;
  record_area st ("smartly:" ^ name) (Aiger.Aigmap.aig_area c);
  Hashtbl.replace st.outputs ("smartly:" ^ name) c

let request ~jobs name =
  Printf.sprintf {|{"op":"optimize","id":"%s","source":"%s","jobs":%d}|} name
    name jobs

(* The loader hands out copies of the designs elaborated at set-up.  A
   job optimizes its copy in place, so [st.outputs] keeps the last copy
   of each design under [key ^ name] for the checks. *)
let loader st ~key designs : Smartly.Serve.load =
 fun ~kind:_ name ->
  match List.assoc_opt name designs with
  | Some c0 ->
    let c = Circuit.copy c0 in
    Hashtbl.replace st.outputs (key ^ name) c;
    Ok c
  | None -> Error ("no design " ^ name)

let serve_area st key (resp : Obs.Json.t) =
  let after =
    Option.bind (Obs.Json.member "area" resp) (Obs.Json.mem_int "after")
  in
  match (Obs.Json.mem_str "status" resp, after) with
  | Some "ok", Some a -> record_area st key a
  | _ -> fail st "%s: %s" key (Obs.Json.to_string resp)

(* One warm batch: a fresh daemon, then every job in turn on 2 pool
   domains, each design's copies spread through the batch.  Each job
   position is a unit, so the batch time is the sum of the jobs'
   latencies.  A design's last copy is a replay hit, and it is the one
   checked. *)
let warm_batch st ~traced ~copies designs =
  Obs.Metrics.reset ();
  let server =
    Smartly.Serve.create ~load:(loader st ~key:"serve_warm:" designs) ()
  in
  let jobs = List.concat (List.init copies (fun _ -> List.map fst designs)) in
  let events = ref [] in
  List.iteri
    (fun i name ->
      op st ("serve:" ^ name) @@ fun () ->
      let ((resp, _), evs), t, gc =
        timed (fun () ->
            Layers.capture "bench.serve_job" (fun () ->
                Smartly.Serve.handle server (request ~jobs:2 name)))
      in
      let job = Printf.sprintf "job%02d" i in
      if traced then begin
        sample st job "trace.t_smartly" t;
        gc_sample st job gc
      end
      else sample st job "t_smartly" t;
      events := evs @ !events;
      serve_area st ("serve:" ^ name) resp)
    jobs;
  if traced then begin
    pass_seconds st "serve" "smartly" smartly_passes !events;
    program_counters st "serve";
    let stats, _ = Smartly.Serve.handle server {|{"op":"stats"}|} in
    List.iter
      (fun k ->
        sample st "serve" ("replay." ^ k)
          (match
             Option.bind (Obs.Json.member "replay" stats) (Obs.Json.mem_int k)
           with
          | Some n -> float_of_int n
          | None -> 0.0))
      [ "hits"; "misses" ]
  end

let round st ~traced ~copies designs batch =
  Layers.enabled := traced;
  List.iter
    (fun d ->
      op st (fst d) (fun () ->
          yosys st ~traced d;
          smartly st ~traced d))
    designs;
  (* the Yosys reference of each batch design, for the area metrics *)
  List.iter (fun d -> op st (fst d) (fun () -> yosys st ~traced d)) batch;
  if batch <> [] then warm_batch st ~traced ~copies batch;
  Layers.enabled := false

(* ---------- checks ---------- *)

(* Full CEC up to this original AIG area, bench/main.exe's limit; larger
   designs get 64 rounds of random co-simulation only. *)
let cec_limit = 9500

let check st ~seed key (orig : Circuit.t) =
  op st ("check:" ^ key) @@ fun () ->
  match Hashtbl.find_opt st.outputs key with
  | None -> fail st "check:%s: no output" key
  | Some opt ->
    let verdict, events =
      Layers.capture "bench.check" (fun () ->
          let area = Aiger.Aigmap.aig_area orig in
          match
            Obs.Trace.with_span "sim.random_equiv" (fun () ->
                Rtl_sim.Vector.random_equiv ~rounds:64 ~seed orig opt)
          with
          | Some (_, o) -> "differs at output " ^ o
          | None when area > cec_limit -> "ok"
          | None -> (
            match
              Obs.Trace.with_span "equiv.cec" (fun () -> Equiv.check opt orig)
            with
            | Equiv.Equivalent -> "ok"
            | Equiv.Not_equivalent o -> "CEC differs at output " ^ o
            | Equiv.Inconclusive -> "CEC inconclusive"))
    in
    List.iter
      (fun (metric, span) -> sample st key metric (Layers.seconds events span))
      [
        ("aigmap.area_s", "aigmap.aig_area");
        ("sim.random_equiv_s", "sim.random_equiv");
        ("equiv.cec_s", "equiv.cec");
      ];
    if verdict <> "ok" then fail st "check:%s: %s" key verdict

(* A cold daemon per batch design, as a process per job would run it:
   its area must equal every warm copy's, and its netlist its original's
   function. *)
let cold_reference st batch =
  List.iter
    (fun (name, _) ->
      op st ("cold:" ^ name) @@ fun () ->
      let server =
        Smartly.Serve.create ~load:(loader st ~key:"serve_cold:" batch) ()
      in
      let (resp, _), t, _ =
        timed (fun () -> Smartly.Serve.handle server (request ~jobs:1 name))
      in
      sample st name "serve.cold_s" t;
      serve_area st ("serve:" ^ name) resp)
    batch

(* ---------- one run ---------- *)

let peak_rss_mib () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> Option.fold ~none:0.0 ~some:(fun kb -> float_of_int kb /. 1024.0)

type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  st : state;
  rounds : int;
}

(* Set-up takes milliseconds, so a spell covers all of a back-to-back
   series: each round is preceded by this many timed builds. *)
let setups_per_round = 3

let run w ~seed ~seconds ~traced =
  let st =
    {
      samples = Hashtbl.create 64;
      areas = Hashtbl.create 16;
      outputs = Hashtbl.create 16;
      attempted = 0;
      failures = [];
    }
  in
  let build ps = List.map (fun (p : P.profile) -> (p.P.name, generate ~seed p)) ps in
  let setup () =
    Layers.enabled := traced;
    let (b, events), t, _ =
      timed (fun () ->
          Layers.capture "bench.setup" (fun () -> (build w.designs, build w.batch)))
    in
    Layers.enabled := false;
    sample st "setup" "setup_s" t;
    List.iter
      (fun span -> sample st "setup" (span ^ "_s") (Layers.seconds events span))
      [ "workloads.source"; "hdl.parse"; "hdl.elaborate"; "workloads.seqify" ];
    b
  in
  (* every build is the same netlists; the rounds measure the first *)
  let designs, batch = setup () in
  (* closed loop; a traced run alternates traced and untraced rounds, so
     it measures its own overhead *)
  let t0 = Obs.Clock.now () in
  let rec loop k =
    let elapsed = Obs.Clock.now () -. t0 in
    if k < 2 || elapsed *. float_of_int (k + 1) /. float_of_int k <= seconds
    then begin
      for _ = 1 to setups_per_round do
        ignore (setup ())
      done;
      round st ~traced:(traced && k mod 2 = 0) ~copies:w.copies designs batch;
      loop (k + 1)
    end
    else k
  in
  let rounds = loop 0 in
  (* the optimizer's peak, before the checks' own *)
  let peak_rss = peak_rss_mib () in
  Layers.enabled := traced;
  cold_reference st batch;
  List.iter
    (fun (name, c) ->
      check st ~seed ("yosys:" ^ name) c;
      check st ~seed ("smartly:" ^ name) c)
    designs;
  List.iter
    (fun (name, c) ->
      check st ~seed ("yosys:" ^ name) c;
      check st ~seed ("serve_warm:" ^ name) c;
      check st ~seed ("serve_cold:" ^ name) c)
    batch;
  Layers.enabled := false;
  (* area pairs (yosys, smaRTLy): one per design, one per serve job *)
  let area k = float_of_int (Option.value (Hashtbl.find_opt st.areas k) ~default:0) in
  let pairs =
    List.map (fun (n, _) -> (area ("yosys:" ^ n), area ("smartly:" ^ n))) designs
    @ List.concat_map
        (fun (n, _) ->
          List.init w.copies (fun _ -> (area ("yosys:" ^ n), area ("serve:" ^ n))))
        batch
  in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 pairs in
  let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  let get = total st in
  let metrics =
    if not traced then
      [
        ("setup_s", get "setup_s", "s");
        ("t_smartly_s", get "t_smartly", "s");
        ("t_yosys_s", get "t_yosys", "s");
        ("smartly_area", sum snd, "AND2");
        ("yosys_area", sum fst, "AND2");
        ( "extra_reduction_pct",
          sum (fun (y, s) -> 100.0 *. (1.0 -. (s /. y)))
          /. float_of_int (List.length pairs),
          "%" );
        ("peak_rss_mb", peak_rss, "MiB");
      ]
    else
      let s name = (name, get name, "s") and n name = (name, get name, "count") in
      List.map s
        [ "workloads.source_s"; "hdl.parse_s"; "hdl.elaborate_s";
          "workloads.seqify_s" ]
      @ List.map
          (fun (p, _) -> s ("yosys." ^ p ^ "_s"))
          yosys_passes
      @ List.map (fun (p, _) -> s ("smartly." ^ p ^ "_s")) smartly_passes
      @ [
          ( "sat_elim.residual_s",
            get "smartly.sat_elim_s" -. get "engine.sat_s" -. get "engine.sim_s"
            -. get "engine.analysis_s",
            "s" );
          s "engine.sat_s"; s "engine.sim_s"; s "engine.analysis_s";
          n "driver.iterations"; n "engine.sat_queries"; n "engine.sat_conflicts";
          n "engine.sim_queries"; n "engine.analysis_queries";
          n "engine.analysis_hits"; n "engine.rule_hits";
          n "sat_session.cell_encodes"; n "sat_session.cell_reuses";
          n "sat_session.flushes"; n "sat_elim.muxes_bypassed";
          n "sat_elim.data_bits_folded"; n "subgraph.kept"; n "subgraph.dropped";
          ( "subgraph.prune_ratio",
            ratio (get "subgraph.dropped") (get "subgraph.kept"),
            "ratio" );
          n "memo.hits"; n "memo.misses";
          ("memo.hit_ratio", ratio (get "memo.hits") (get "memo.misses"), "ratio");
          n "replay.hits"; n "replay.misses";
          ( "replay.hit_ratio",
            ratio (get "replay.hits") (get "replay.misses"),
            "ratio" );
          n "restructure.candidates"; n "restructure.rebuilt";
          ( "restructure.rebuild_ratio",
            (let c = get "restructure.candidates" in
             if c = 0.0 then 0.0 else get "restructure.rebuilt" /. c),
            "ratio" );
          s "serve.cold_s"; s "aigmap.area_s"; s "sim.random_equiv_s";
          s "equiv.cec_s";
          ("gc.alloc_mwords", get "gc.alloc_mwords", "Mwords");
          (* a major cycle is shared by all domains, so with the pool on
             2 domains the count can follow scheduling: not a unit
             [agree] holds exact *)
          ("gc.major_collections", get "gc.major_collections", "collections");
          ( "trace.overhead_pct",
            100.0 *. ((get "trace.t_smartly" /. get "t_smartly") -. 1.0),
            "%" );
        ]
  in
  { metrics; st; rounds }

(* ---------- results ---------- *)

let metrics_json metrics =
  Obs.Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Obs.Json.Obj [ ("value", Obs.Json.Num v); ("unit", Obs.Json.Str unit) ]))
       metrics)

let result_json o =
  let failed = List.length o.st.failures in
  Obs.Json.
    [
      ("correct", Bool (failed = 0));
      ("attempted", num_of_int o.st.attempted);
      ("failed", num_of_int failed);
      ("metrics", metrics_json o.metrics);
    ]

let report ~out ~seed ~seconds ~traced w o =
  List.iter (fun (n, v, u) -> Printf.printf "%s %.6g %s\n" n v u) o.metrics;
  List.iter (Printf.eprintf "FAILED %s\n") (List.rev o.st.failures);
  let file = w.name ^ if traced then ".layers.json" else ".json" in
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p out;
  let doc =
    Obs.Json.Obj
      (Obs.Json.
         [
           ("workload", Str w.name);
           ("seed", num_of_int seed);
           ("seconds", Num seconds);
           ("trace", Bool traced);
           ("rounds", num_of_int o.rounds);
           ("failures", List (List.rev_map (fun s -> Str s) o.st.failures));
           ( "samples",
             Obj
               (Hashtbl.fold
                  (fun (unit, metric) vs acc ->
                    (unit ^ "/" ^ metric, List (List.rev_map (fun v -> Num v) vs))
                    :: acc)
                  o.st.samples []
               |> List.sort compare) );
         ]
      @ result_json o)
  in
  Out_channel.with_open_text (Filename.concat out file) (fun oc ->
      output_string oc (Obs.Json.to_string ~pretty:true doc));
  if traced then Layers.write ~path:(Filename.concat out (w.name ^ ".trace.json"));
  print_endline (Obs.Json.to_string (Obs.Json.Obj (result_json o)))

(* ---------- BENCHMARK.json ---------- *)

type bench_metric = { m_unit : string; bound : float option }

(* name -> unit and bound of every metric BENCHMARK.json lists, end-to-end
   ones first *)
let read_manifest () =
  match
    Obs.Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)
  with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
    let list key =
      List.map
        (fun m ->
          ( Option.get (Obs.Json.mem_str "name" m),
            {
              m_unit = Option.get (Obs.Json.mem_str "unit" m);
              bound = Obs.Json.mem_num "bound" m;
            } ))
        (Option.value (Obs.Json.mem_list key j) ~default:[])
    in
    (list "end_to_end", list "per_layer")

(* ---------- agree ---------- *)

(* Two result files of one workload agree when every metric is within
   its BENCHMARK.json bound of the first file's value: exactly for areas
   and counts, relatively (with an absolute floor for small times) for the
   rest.  Per-layer times and ratios carry no bound and are not
   compared. *)
let agree a b =
  let e2e, layers = read_manifest () in
  let load path =
    match Obs.Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Error e -> failwith (path ^ ": " ^ e)
    | Ok j -> (
      match Obs.Json.member "metrics" j with
      | Some (Obs.Json.Obj ms) ->
        List.filter_map
          (fun (n, m) -> Option.map (fun v -> (n, v)) (Obs.Json.mem_num "value" m))
          ms
      | _ -> failwith (path ^ ": no metrics"))
  in
  let ma = load a and mb = load b in
  let floor = function "s" -> 0.005 | "MiB" -> 1.0 | _ -> 0.0 in
  let bad =
    List.filter_map
      (fun (name, va) ->
        match (List.assoc_opt name mb, List.assoc_opt name (e2e @ layers)) with
        | None, _ -> Some (name ^ ": missing from " ^ b)
        | Some _, None -> None
        | Some vb, Some m ->
          let tol =
            match (m.m_unit, m.bound) with
            | ("AND2" | "count"), _ -> Some 0.0
            | u, Some bound -> Some (Float.max (bound *. Float.abs va) (floor u))
            | _, None -> None
          in
          Option.bind tol (fun tol ->
              if Float.abs (vb -. va) <= tol then None
              else Some (Printf.sprintf "%s: %.6g vs %.6g (tolerance %.6g)" name va vb tol)))
      ma
  in
  List.iter print_endline bad;
  if bad = [] then print_endline "agree: all metrics within bounds" else exit 1

(* ---------- smoke ---------- *)

(* The smoke workload runs untraced, then traced, and holds the benchmark
   to its own contract: every metric BENCHMARK.json lists is emitted with
   its unit, traced areas equal untraced ones, the traced pass spans fit
   inside the traced flow time, and nothing fails. *)
let smoke w ~seed ~seconds ~traced =
  let e2e, layers = read_manifest () in
  let plain = run w ~seed ~seconds ~traced:false in
  let tr = run w ~seed ~seconds ~traced:true in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (listed, o) ->
      List.iter
        (fun (name, m) ->
          match List.find_opt (fun (n, _, _) -> n = name) o.metrics with
          | Some (_, _, u) when u = m.m_unit -> ()
          | Some (_, _, u) -> problem "%s: unit %s, BENCHMARK.json says %s" name u m.m_unit
          | None -> problem "%s: not emitted" name)
        listed;
      List.iter
        (fun (name, _, _) ->
          if not (List.mem_assoc name listed) then problem "%s: not in BENCHMARK.json" name)
        o.metrics)
    [ (e2e, plain); (layers, tr) ];
  Hashtbl.iter
    (fun k a ->
      match Hashtbl.find_opt tr.st.areas k with
      | Some b when a = b -> ()
      | _ -> problem "%s: traced area differs" k)
    plain.st.areas;
  let passes =
    List.fold_left
      (fun acc (p, _) -> acc +. total tr.st ("smartly." ^ p ^ "_s"))
      0.0 smartly_passes
  in
  if passes > total tr.st "trace.t_smartly" then
    problem "pass spans %.6f s exceed the traced flow time" passes;
  List.iter (fun o -> List.iter (problem "%s") o.st.failures) [ plain; tr ];
  let o = if traced then tr else plain in
  { o with st = { o.st with failures = !problems } }

(* ---------- main ---------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n\
    \       main.exe agree A.json B.json\n\
     workloads: public9 cache_axi industrial4 serve_batch smoke";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "agree"; a; b ] -> agree a b
  | args ->
    let opts = Hashtbl.create 8 in
    let rec parse = function
      | [] -> ()
      | k :: v :: rest
        when List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out" ]
        ->
        Hashtbl.replace opts k v;
        parse rest
      | _ -> usage ()
    in
    parse args;
    let get k conv =
      match Option.bind (Hashtbl.find_opt opts k) conv with
      | Some v -> v
      | None -> usage ()
    in
    let w =
      get "--workload" (fun n -> List.find_opt (fun w -> w.name = n) workloads)
    in
    let seed = get "--seed" int_of_string_opt in
    let seconds = get "--seconds" float_of_string_opt in
    let traced =
      get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
    in
    let out = Option.value (Hashtbl.find_opt opts "--out") ~default:".bench_out" in
    let o =
      if w.name = "smoke" then smoke w ~seed ~seconds ~traced
      else run w ~seed ~seconds ~traced
    in
    report ~out ~seed ~seconds ~traced w o;
    if o.st.failures <> [] then exit 1
