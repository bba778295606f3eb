(* Continuous benchmarking: statistical runner, baseline store, regression
   gate.  See perf.mli for the pipeline overview.

   Numbers written here get committed and diffed forever after, so two
   rules hold throughout: all timing is monotonic (Obs.Clock), and all
   serialization goes through Obs.Json (locale-stable, round-trippable by
   its own parser). *)

module Stat = struct
  type summary = { median : float; min : float; mad : float; runs : int }

  let median (a : float array) : float =
    let n = Array.length a in
    if n = 0 then 0.0
    else begin
      let s = Array.copy a in
      Array.sort compare s;
      if n mod 2 = 1 then s.(n / 2)
      else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
    end

  let summarize (xs : float list) : summary =
    match xs with
    | [] -> { median = 0.0; min = 0.0; mad = 0.0; runs = 0 }
    | _ ->
      let a = Array.of_list xs in
      let med = median a in
      let dev = Array.map (fun x -> Float.abs (x -. med)) a in
      {
        median = med;
        min = Array.fold_left Float.min a.(0) a;
        mad = median dev;
        runs = Array.length a;
      }
end

module Measure = struct
  type timed = { wall : Stat.summary; gc : Obs.Metrics.gc_delta }

  let repeat ~reps ?(prepare = fun () -> ()) (f : unit -> 'a) : 'a * timed =
    let reps = max 1 reps in
    let times = ref [] in
    let result = ref None in
    let gc = ref None in
    for i = 1 to reps do
      prepare ();
      let mark = Obs.Metrics.gc_mark () in
      let t0 = Obs.Clock.now_ns () in
      let r = f () in
      times := Obs.Clock.elapsed t0 :: !times;
      (* the GC delta describes the same repetition the deterministic
         counters describe: the last one *)
      if i = reps then begin
        gc := Some (Obs.Metrics.gc_delta mark);
        result := Some r
      end
    done;
    match !result, !gc with
    | Some r, Some g -> r, { wall = Stat.summarize (List.rev !times); gc = g }
    | _ -> assert false (* reps >= 1 *)
end

module Schema = struct
  let version = "smartly-bench-v1"

  type kind = Area | Count | Time | Gc

  let kind_name = function
    | Area -> "area"
    | Count -> "count"
    | Time -> "time"
    | Gc -> "gc"

  let kind_of_name = function
    | "area" -> Some Area
    | "count" -> Some Count
    | "time" -> Some Time
    | "gc" -> Some Gc
    | _ -> None

  type direction = Lower_better | Higher_better

  let direction_name = function
    | Lower_better -> "lower"
    | Higher_better -> "higher"

  let direction_of_name = function
    | "lower" -> Some Lower_better
    | "higher" -> Some Higher_better
    | _ -> None

  type metric = {
    name : string;
    kind : kind;
    direction : direction;
    value : float;
    min : float option;
    mad : float option;
    runs : int option;
  }

  let scalar ?(direction = Lower_better) ~name ~kind value =
    { name; kind; direction; value; min = None; mad = None; runs = None }

  let timing ~name (s : Stat.summary) =
    {
      name;
      kind = Time;
      direction = Lower_better;
      value = s.Stat.median;
      min = Some s.Stat.min;
      mad = Some s.Stat.mad;
      runs = Some s.Stat.runs;
    }

  type case = { name : string; metrics : metric list }

  type env = {
    hostname : string;
    ocaml_version : string;
    git_rev : string;
    repetitions : int;
    created : string;
  }

  let git_rev () =
    try
      let ic =
        Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
      in
      let line = try input_line ic with End_of_file -> "" in
      let status = Unix.close_process_in ic in
      match status, String.trim line with
      | Unix.WEXITED 0, rev when rev <> "" -> rev
      | _ -> "unknown"
    with Unix.Unix_error _ | Sys_error _ -> "unknown"

  let fingerprint ~reps =
    let tm = Unix.gmtime (Unix.time ()) in
    {
      hostname = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
      ocaml_version = Sys.ocaml_version;
      git_rev = git_rev ();
      repetitions = max 1 reps;
      created =
        Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday;
    }

  type doc = { section : string; env : env; cases : case list }

  (* --- encoding --- *)

  let metric_to_json (m : metric) : Obs.Json.t =
    let open Obs.Json in
    Obj
      ([
         "name", Str m.name;
         "kind", Str (kind_name m.kind);
         "direction", Str (direction_name m.direction);
         "value", Num m.value;
       ]
      @ (match m.min with Some v -> [ "min", Num v ] | None -> [])
      @ (match m.mad with Some v -> [ "mad", Num v ] | None -> [])
      @ match m.runs with Some r -> [ "runs", num_of_int r ] | None -> [])

  let env_to_json (e : env) : Obs.Json.t =
    let open Obs.Json in
    Obj
      [
        "hostname", Str e.hostname;
        "ocaml_version", Str e.ocaml_version;
        "git_rev", Str e.git_rev;
        "repetitions", num_of_int e.repetitions;
        "created", Str e.created;
      ]

  let to_json (d : doc) : Obs.Json.t =
    let open Obs.Json in
    Obj
      [
        "schema", Str version;
        "section", Str d.section;
        "env", env_to_json d.env;
        ( "cases",
          List
            (List.map
               (fun (c : case) ->
                 Obj
                   [
                     "name", Str c.name;
                     "metrics", List (List.map metric_to_json c.metrics);
                   ])
               d.cases) );
      ]

  (* --- decoding --- *)

  let ( let* ) = Result.bind

  let require what = function
    | Some v -> Ok v
    | None -> Error ("missing or ill-typed " ^ what)

  let metric_of_json (j : Obs.Json.t) : (metric, string) result =
    let open Obs.Json in
    let* name = require "metric name" (mem_str "name" j) in
    let ctx what = Printf.sprintf "metric %s: %s" name what in
    let* kind_s = require (ctx "kind") (mem_str "kind" j) in
    let* kind =
      match kind_of_name kind_s with
      | Some k -> Ok k
      | None -> Error (ctx (Printf.sprintf "unknown kind %S" kind_s))
    in
    let* dir_s = require (ctx "direction") (mem_str "direction" j) in
    let* direction =
      match direction_of_name dir_s with
      | Some d -> Ok d
      | None -> Error (ctx (Printf.sprintf "unknown direction %S" dir_s))
    in
    let* value = require (ctx "value") (mem_num "value" j) in
    Ok
      {
        name;
        kind;
        direction;
        value;
        min = mem_num "min" j;
        mad = mem_num "mad" j;
        runs = mem_int "runs" j;
      }

  let case_of_json (j : Obs.Json.t) : (case, string) result =
    let open Obs.Json in
    let* name = require "case name" (mem_str "name" j) in
    let* metrics_j = require ("case " ^ name ^ ": metrics") (mem_list "metrics" j) in
    let* metrics =
      List.fold_left
        (fun acc mj ->
          let* acc = acc in
          let* m = metric_of_json mj in
          Ok (m :: acc))
        (Ok []) metrics_j
    in
    Ok { name; metrics = List.rev metrics }

  let env_of_json (j : Obs.Json.t) : (env, string) result =
    let open Obs.Json in
    let str k = Option.value (mem_str k j) ~default:"unknown" in
    Ok
      {
        hostname = str "hostname";
        ocaml_version = str "ocaml_version";
        git_rev = str "git_rev";
        repetitions = Option.value (mem_int "repetitions" j) ~default:1;
        created = str "created";
      }

  let of_json (j : Obs.Json.t) : (doc, string) result =
    let open Obs.Json in
    let* schema = require "schema" (mem_str "schema" j) in
    if schema <> version then
      Error
        (Printf.sprintf "unsupported schema %S (this build reads %S)" schema
           version)
    else
      let* section = require "section" (mem_str "section" j) in
      let* env = env_of_json (Option.value (member "env" j) ~default:Null) in
      let* cases_j = require "cases" (mem_list "cases" j) in
      let* cases =
        List.fold_left
          (fun acc cj ->
            let* acc = acc in
            let* c = case_of_json cj in
            Ok (c :: acc))
          (Ok []) cases_j
      in
      Ok { section; env; cases = List.rev cases }

  let to_string d = Obs.Json.to_string ~pretty:true (to_json d) ^ "\n"

  let of_string s =
    match Obs.Json.parse s with
    | Error e -> Error ("not valid JSON: " ^ e)
    | Ok j -> of_json j
end

module Compare = struct
  type status = Improved | Regressed | Unchanged | New_metric | Missing_metric

  let status_name = function
    | Improved -> "improved"
    | Regressed -> "REGRESSED"
    | Unchanged -> "unchanged"
    | New_metric -> "new"
    | Missing_metric -> "missing"

  (* The noise model, per metric kind.  Exact kinds have a zero band, so
     [scale] (which multiplies both numbers) can never loosen them.  A
     noisy kind's band is relative to the smaller of the two values, so
     it is as wide for a fall as for a rise: at scale 4 (+-100%) a time
     that halves leaves it, as one that doubles does. *)
  let rel_band = function
    | Schema.Area | Schema.Count -> 0.0
    | Schema.Time -> 0.25
    | Schema.Gc -> 0.30

  let abs_floor = function
    | Schema.Area | Schema.Count -> 0.0
    | Schema.Time ->
      (* seconds.  Sub-second phases on a shared machine routinely
         jitter by multiples of themselves (a 0.2s phase stretching to
         0.7s under a noisy neighbour), so small absolute wiggles are
         noise by definition; the relative band still guards the
         multi-second timings where a 2x slowdown is a real finding. *)
      0.25
    | Schema.Gc -> 16.0 (* collections; words clear this trivially *)

  let classify ?(scale = 1.0) ~kind ~direction base cur : status =
    let delta = cur -. base in
    let within_floor = Float.abs delta <= abs_floor kind *. scale in
    let smaller = Float.min (Float.abs base) (Float.abs cur) in
    let within_band =
      smaller > 0.0 && Float.abs delta /. smaller <= rel_band kind *. scale
    in
    if delta = 0.0 || within_floor || within_band then Unchanged
    else
      let worse =
        match direction with
        | Schema.Lower_better -> delta > 0.0
        | Schema.Higher_better -> delta < 0.0
      in
      if worse then Regressed else Improved

  type metric_diff = {
    name : string;
    kind : Schema.kind;
    base : float option;
    cur : float option;
    delta_pct : float option;
    status : status;
  }

  type case_diff = { case : string; rows : metric_diff list }

  type t = {
    section : string;
    base_env : Schema.env;
    cur_env : Schema.env;
    cases : case_diff list;
    missing_cases : string list;
    new_cases : string list;
  }

  let diff_metrics ?scale (base_ms : Schema.metric list)
      (cur_ms : Schema.metric list) : metric_diff list =
    let find name ms =
      List.find_opt (fun (m : Schema.metric) -> m.Schema.name = name) ms
    in
    let of_base (bm : Schema.metric) =
      match find bm.Schema.name cur_ms with
      | None ->
        {
          name = bm.Schema.name;
          kind = bm.Schema.kind;
          base = Some bm.Schema.value;
          cur = None;
          delta_pct = None;
          status = Missing_metric;
        }
      | Some cm ->
        let base = bm.Schema.value and cur = cm.Schema.value in
        {
          name = bm.Schema.name;
          kind = bm.Schema.kind;
          base = Some base;
          cur = Some cur;
          delta_pct =
            (if base = 0.0 then None
             else Some (100.0 *. (cur -. base) /. Float.abs base));
          status =
            classify ?scale ~kind:bm.Schema.kind
              ~direction:bm.Schema.direction base cur;
        }
    in
    let news =
      List.filter_map
        (fun (cm : Schema.metric) ->
          match find cm.Schema.name base_ms with
          | Some _ -> None
          | None ->
            Some
              {
                name = cm.Schema.name;
                kind = cm.Schema.kind;
                base = None;
                cur = Some cm.Schema.value;
                delta_pct = None;
                status = New_metric;
              })
        cur_ms
    in
    List.map of_base base_ms @ news

  let diff ?scale ~(baseline : Schema.doc) (current : Schema.doc) : t =
    let find name (d : Schema.doc) =
      List.find_opt (fun (c : Schema.case) -> c.Schema.name = name) d.Schema.cases
    in
    let cases, missing =
      List.fold_left
        (fun (cases, missing) (bc : Schema.case) ->
          match find bc.Schema.name current with
          | None -> cases, bc.Schema.name :: missing
          | Some cc ->
            ( {
                case = bc.Schema.name;
                rows = diff_metrics ?scale bc.Schema.metrics cc.Schema.metrics;
              }
              :: cases,
              missing ))
        ([], []) baseline.Schema.cases
    in
    let new_cases =
      List.filter_map
        (fun (cc : Schema.case) ->
          match find cc.Schema.name baseline with
          | Some _ -> None
          | None -> Some cc.Schema.name)
        current.Schema.cases
    in
    {
      section = baseline.Schema.section;
      base_env = baseline.Schema.env;
      cur_env = current.Schema.env;
      cases = List.rev cases;
      missing_cases = List.rev missing;
      new_cases;
    }

  let with_status status (t : t) : (string * metric_diff) list =
    List.concat_map
      (fun cd ->
        List.filter_map
          (fun r -> if r.status = status then Some (cd.case, r) else None)
          cd.rows)
      t.cases

  let regressions = with_status Regressed

  (* --- rendering --- *)

  let fmt_value kind v =
    match kind with
    | Schema.Area | Schema.Count -> Printf.sprintf "%.0f" v
    | Schema.Gc -> Printf.sprintf "%.0f" v
    | Schema.Time ->
      if Float.abs v < 0.1 then Printf.sprintf "%.4fs" v
      else Printf.sprintf "%.3fs" v

  let fmt_opt kind = function None -> "-" | Some v -> fmt_value kind v

  let fmt_delta = function
    | None -> "-"
    | Some pct -> Printf.sprintf "%+.2f%%" pct

  let status_cell = function
    | Improved as s -> Report.Table.(colorize Green (status_name s))
    | Regressed as s -> Report.Table.(colorize Red (status_name s))
    | Unchanged as s -> Report.Table.(colorize Dim (status_name s))
    | (New_metric | Missing_metric) as s ->
      Report.Table.(colorize Yellow (status_name s))

  let count_status (t : t) status =
    List.fold_left
      (fun acc cd ->
        acc
        + List.length (List.filter (fun r -> r.status = status) cd.rows))
      0 t.cases

  let render ?(all = false) (t : t) : string =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "section %s: baseline %s (%s, %s) vs current %s (%s)\n"
         t.section t.base_env.Schema.git_rev t.base_env.Schema.created
         t.base_env.Schema.hostname t.cur_env.Schema.git_rev
         t.cur_env.Schema.hostname);
    let rows =
      List.concat_map
        (fun cd ->
          List.filter_map
            (fun r ->
              if (not all) && r.status = Unchanged then None
              else
                Some
                  [
                    cd.case;
                    r.name;
                    Schema.kind_name r.kind;
                    fmt_opt r.kind r.base;
                    fmt_opt r.kind r.cur;
                    fmt_delta r.delta_pct;
                    status_cell r.status;
                  ])
            cd.rows)
        t.cases
    in
    if rows = [] then
      Buffer.add_string buf "  (every metric unchanged within thresholds)\n"
    else begin
      let left = Report.Table.column ~align:Report.Table.Left in
      Buffer.add_string buf
        (Report.Table.render
           ~columns:
             [ left "case"; left "metric"; left "kind";
               Report.Table.column "baseline"; Report.Table.column "current";
               Report.Table.column "delta"; left "status" ]
           ~rows)
    end;
    let imp = count_status t Improved
    and reg = count_status t Regressed
    and unch = count_status t Unchanged in
    Buffer.add_string buf
      (Printf.sprintf "  %d improved, %d regressed, %d unchanged" imp reg unch);
    if t.new_cases <> [] then
      Buffer.add_string buf
        (Printf.sprintf ", new cases: %s" (String.concat " " t.new_cases));
    if t.missing_cases <> [] then
      Buffer.add_string buf
        (Printf.sprintf ", MISSING cases: %s"
           (String.concat " " t.missing_cases));
    Buffer.add_char buf '\n';
    Buffer.contents buf

  let metric_diff_to_json (case : string) (r : metric_diff) : Obs.Json.t =
    let open Obs.Json in
    Obj
      ([
         "case", Str case;
         "metric", Str r.name;
         "kind", Str (Schema.kind_name r.kind);
         "status", Str (status_name r.status);
       ]
      @ (match r.base with Some v -> [ "baseline", Num v ] | None -> [])
      @ (match r.cur with Some v -> [ "current", Num v ] | None -> [])
      @
      match r.delta_pct with
      | Some v -> [ "delta_pct", Num v ]
      | None -> [])

  let to_json (t : t) : Obs.Json.t =
    let open Obs.Json in
    Obj
      [
        "schema", Str "smartly-bench-diff-v1";
        "section", Str t.section;
        "baseline_rev", Str t.base_env.Schema.git_rev;
        "current_rev", Str t.cur_env.Schema.git_rev;
        ( "rows",
          List
            (List.concat_map
               (fun cd -> List.map (metric_diff_to_json cd.case) cd.rows)
               t.cases) );
        "missing_cases", List (List.map (fun s -> Str s) t.missing_cases);
        "new_cases", List (List.map (fun s -> Str s) t.new_cases);
        "regressions", num_of_int (List.length (regressions t));
      ]
end

module Store = struct
  let default_dir = Filename.concat "bench" "baselines"

  let path ~dir ~section =
    Filename.concat dir (Printf.sprintf "BENCH_%s.json" section)

  let rec mkdir_p dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
    then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let save ~dir (d : Schema.doc) : string =
    mkdir_p dir;
    let p = path ~dir ~section:d.Schema.section in
    let oc = open_out p in
    output_string oc (Schema.to_string d);
    close_out oc;
    p

  let load ~dir ~section : (Schema.doc, string) result =
    let p = path ~dir ~section in
    if not (Sys.file_exists p) then
      Error
        (Printf.sprintf
           "%s: no committed baseline (record one with bench %s \
            --update-baselines)"
           p section)
    else begin
      let ic = open_in_bin p in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Schema.of_string text with
      | Ok d ->
        if d.Schema.section = section then Ok d
        else
          Error
            (Printf.sprintf "%s: section is %S, expected %S" p
               d.Schema.section section)
      | Error e -> Error (Printf.sprintf "%s: %s" p e)
    end
end

module Gate = struct
  type outcome = {
    diffs : Compare.t list;
    missing_baselines : string list;
    load_errors : (string * string) list;
  }

  let check ?scale ~dir (docs : Schema.doc list) : outcome =
    let diffs, missing, errors =
      List.fold_left
        (fun (diffs, missing, errors) (d : Schema.doc) ->
          let section = d.Schema.section in
          if not (Sys.file_exists (Store.path ~dir ~section)) then
            diffs, section :: missing, errors
          else
            match Store.load ~dir ~section with
            | Ok baseline ->
              Compare.diff ?scale ~baseline d :: diffs, missing, errors
            | Error e -> diffs, missing, (section, e) :: errors)
        ([], [], []) docs
    in
    {
      diffs = List.rev diffs;
      missing_baselines = List.rev missing;
      load_errors = List.rev errors;
    }

  (* A row outside its band fails the gate whichever way it moved: a
     better one means the committed baseline is stale, and a later
     slowdown would hide in the gap until it is re-blessed. *)
  let ok (o : outcome) =
    o.missing_baselines = [] && o.load_errors = []
    && List.for_all
         (fun d ->
           Compare.regressions d = []
           && Compare.with_status Compare.Improved d = []
           && d.Compare.missing_cases = [])
         o.diffs

  let render ?all (o : outcome) : string =
    let buf = Buffer.create 2048 in
    List.iter
      (fun d ->
        Buffer.add_string buf (Compare.render ?all d);
        Buffer.add_char buf '\n')
      o.diffs;
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf
             "section %s: no committed baseline — record one with bench %s \
              --update-baselines\n"
             s s))
      o.missing_baselines;
    List.iter
      (fun (s, e) ->
        Buffer.add_string buf (Printf.sprintf "section %s: %s\n" s e))
      o.load_errors;
    (* the verdict names every offending metric so a CI failure is
       readable from the last lines alone *)
    let offenders =
      List.concat_map
        (fun d ->
          let row why (case, (r : Compare.metric_diff)) =
            Printf.sprintf "%s/%s/%s (%s -> %s%s)" d.Compare.section case
              r.Compare.name
              (Compare.fmt_opt r.Compare.kind r.Compare.base)
              (Compare.fmt_opt r.Compare.kind r.Compare.cur)
              why
          in
          List.map (row "") (Compare.regressions d)
          @ List.map
              (row ", improved: stale baseline, re-bless it")
              (Compare.with_status Compare.Improved d)
          @ List.map
              (fun c ->
                Printf.sprintf "%s/%s (case disappeared)" d.Compare.section c)
              d.Compare.missing_cases)
        o.diffs
    in
    if ok o then
      Buffer.add_string buf
        (Report.Table.colorize Report.Table.Green
           "bench-check: OK — every metric within its band\n")
    else begin
      Buffer.add_string buf
        (Report.Table.colorize Report.Table.Red "bench-check: FAIL");
      if offenders <> [] then
        Buffer.add_string buf
          (Printf.sprintf " — %s" (String.concat ", " offenders));
      if o.missing_baselines <> [] then
        Buffer.add_string buf
          (Printf.sprintf " — missing baselines: %s"
             (String.concat " " o.missing_baselines));
      if o.load_errors <> [] then
        Buffer.add_string buf " — unreadable baselines (see above)";
      Buffer.add_char buf '\n'
    end;
    Buffer.contents buf
end
