(* Telemetry: span tracing, a metrics registry, and the JSON both need.

   The design constraint is the fast path: instrumented code lives on hot
   loops (every Engine.determine call), so [Trace.with_span] must reduce to
   one subscriber check plus a direct call when nothing listens to the
   event bus, and metric bumps must be single field mutations on
   pre-resolved handles. *)

module Clock = struct
  (* The C stub prefers CLOCK_MONOTONIC and silently degrades to
     gettimeofday where it is missing; either way the epoch is arbitrary,
     so callers must only ever subtract readings. *)
  external now_ns : unit -> int64 = "smartly_obs_monotonic_ns"

  let now () = Int64.to_float (now_ns ()) *. 1e-9

  let elapsed mark = Int64.to_float (Int64.sub (now_ns ()) mark) *. 1e-9
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let num_of_int i = Num (float_of_int i)

  (* --- writer --- *)

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* OCaml's Printf is locale-independent ('.' always), which is the whole
     point: the output must parse the same everywhere.  Integral values
     print without a fraction so counters stay integers downstream. *)
  let num_to_string v =
    if not (Float.is_finite v) then "null"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else
      (* shortest representation that parses back to the same double *)
      let s = Printf.sprintf "%.15g" v in
      if float_of_string s = v then s else Printf.sprintf "%.17g" v

  let to_string ?(pretty = false) (j : t) : string =
    let buf = Buffer.create 256 in
    let indent n =
      if pretty then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * n) ' ')
      end
    in
    let rec go depth = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num v -> Buffer.add_string buf (num_to_string v)
      | Str s -> escape_to buf s
      | List [] -> Buffer.add_string buf "[]"
      | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            go (depth + 1) item)
          items;
        indent depth;
        Buffer.add_char buf ']'
      | Obj [] -> Buffer.add_string buf "{}"
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            escape_to buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            go (depth + 1) v)
          fields;
        indent depth;
        Buffer.add_char buf '}'
    in
    go 0 j;
    Buffer.contents buf

  (* --- parser --- *)

  exception Bad of int * string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail msg = raise (Bad (!pos, msg)) in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      let m = String.length word in
      if !pos + m <= n && String.sub s !pos m = word then begin
        pos := !pos + m;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* non-BMP surrogates are not emitted by our writer; encode
                 the BMP code point as UTF-8 *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4
            | c -> fail (Printf.sprintf "bad escape \\%c" c));
            incr pos;
            go ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      let digits () =
        let d0 = !pos in
        while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
          incr pos
        done;
        if !pos = d0 then fail "expected digit"
      in
      digits ();
      if peek () = Some '.' then begin
        incr pos;
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        incr pos;
        (match peek () with
        | Some ('+' | '-') -> incr pos
        | _ -> ());
        digits ()
      | _ -> ());
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> Num v
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              members ()
            | Some '}' -> incr pos
            | _ -> fail "expected , or }"
          in
          members ();
          Obj (List.rev !fields)
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              elements ()
            | Some ']' -> incr pos
            | _ -> fail "expected , or ]"
          in
          elements ();
          List (List.rev !items)
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %c" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad (p, msg) ->
      Error (Printf.sprintf "at offset %d: %s" p msg)

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | Null | Bool _ | Num _ | Str _ | List _ -> None

  (* Schema-decoding accessors: every consumer of a versioned report
     (Perf baselines, the lint JSON, provenance logs) wants "this field,
     of this shape, or None" — spelled once here instead of per caller. *)

  let to_num = function Num v -> Some v | _ -> None
  let to_str = function Str s -> Some s | _ -> None
  let to_list = function List l -> Some l | _ -> None

  (* [int_of_float] is unspecified outside the int range: [1e300] and
     [2^62] would decode as garbage instead of being refused. *)
  let to_int = function
    | Num v when Float.is_integer v && v >= -0x1p62 && v < 0x1p62 ->
      Some (int_of_float v)
    | _ -> None

  let mem_num key j = Option.bind (member key j) to_num
  let mem_int key j = Option.bind (member key j) to_int
  let mem_str key j = Option.bind (member key j) to_str
  let mem_list key j = Option.bind (member key j) to_list

  (* JSONL recovery parser.  A killed process leaves the last line torn
     mid-record; every reader of a run ledger wants "all the
     complete leading records, plus where the damage starts" instead of a
     hard error.  A malformed line in the *middle* of the file also stops
     the scan — resyncing past corruption would silently reorder the
     stream, and the byte offset lets the caller report it precisely. *)
  let parse_jsonl_partial text : (t * int) list * int option =
    let n = String.length text in
    let rec go acc off =
      if off >= n then List.rev acc, None
      else begin
        let nl =
          match String.index_from_opt text off '\n' with
          | Some i -> i
          | None -> n
        in
        let line = String.sub text off (nl - off) in
        if String.trim line = "" then go acc (nl + 1)
        else
          match parse line with
          | Ok v -> go ((v, off) :: acc) (nl + 1)
          | Error _ -> List.rev acc, Some off
      end
    in
    go [] 0
end

(* The unified event bus.  One ordered, monotonically-timestamped stream
   of everything a run does — span boundaries, pass boundaries, SAT
   queries, provenance mutations, budget verdicts — fanned out to
   pluggable subscriber sinks (a JSONL file, a TTY progress line, an
   in-memory recording, the [Trace] fold).  With no subscriber, [emit] is
   one list check. *)
module Event = struct
  type kind =
    | Run_start
    | Run_end
    | Pass_start
    | Pass_end
    | Span_open
    | Span_close
    | Provenance
    | Sat_query
    | Budget_exceeded

  type t = {
    seq : int;
    t_ns : int64;
    kind : kind;
    name : string;
    data : Json.t;
  }

  let kind_name = function
    | Run_start -> "run_start"
    | Run_end -> "run_end"
    | Pass_start -> "pass_start"
    | Pass_end -> "pass_end"
    | Span_open -> "span_open"
    | Span_close -> "span_close"
    | Provenance -> "provenance"
    | Sat_query -> "sat_query"
    | Budget_exceeded -> "budget_exceeded"

  let kind_of_name = function
    | "run_start" -> Some Run_start
    | "run_end" -> Some Run_end
    | "pass_start" -> Some Pass_start
    | "pass_end" -> Some Pass_end
    | "span_open" -> Some Span_open
    | "span_close" -> Some Span_close
    | "provenance" -> Some Provenance
    | "sat_query" -> Some Sat_query
    | "budget_exceeded" -> Some Budget_exceeded
    | _ -> None

  type subscription = {
    sid : int;
    sname : string;
    fn : t -> unit;
    mutable failure : string option;
    mutable on_close : unit -> unit;
  }

  let subscribers : subscription list ref = ref []
  let next_sid = ref 0
  let next_seq = ref 0
  let last_ns = ref 0L

  let enabled () = !subscribers <> []

  let subscribe ?(name = "sink") fn =
    incr next_sid;
    let s =
      { sid = !next_sid; sname = name; fn; failure = None;
        on_close = (fun () -> ()) }
    in
    subscribers := !subscribers @ [ s ];
    s

  let unsubscribe s =
    subscribers := List.filter (fun x -> x.sid <> s.sid) !subscribers;
    let close = s.on_close in
    s.on_close <- (fun () -> ());
    (try close () with _ -> ())

  let record ?(name = "record") () =
    let evs = ref [] in
    let s = subscribe ~name (fun e -> evs := e :: !evs) in
    s, fun () -> List.rev !evs

  let failed_sinks () =
    List.filter_map
      (fun s -> Option.map (fun e -> s.sname, e) s.failure)
      !subscribers

  (* A sink that raises is marked dead and skipped from then on; the
     other subscribers keep receiving every event.  One bad consumer
     (full disk, closed pipe) must never cost the others their events. *)
  let deliver e =
    List.iter
      (fun s ->
        if s.failure = None then
          try s.fn e
          with exn -> s.failure <- Some (Printexc.to_string exn))
      !subscribers

  let emit ?(name = "") ?(data = Json.Null) kind =
    if !subscribers <> [] then begin
      (* Clamp to the last stamp: the clock is monotonic already, but the
         stream's non-decreasing invariant must hold by construction, not
         by trusting the platform. *)
      let t = Clock.now_ns () in
      let t = if Int64.compare t !last_ns < 0 then !last_ns else t in
      last_ns := t;
      let e = { seq = !next_seq; t_ns = t; kind; name; data } in
      incr next_seq;
      deliver e
    end

  let reset () =
    List.iter
      (fun s ->
        let close = s.on_close in
        s.on_close <- (fun () -> ());
        try close () with _ -> ())
      !subscribers;
    subscribers := [];
    next_seq := 0;
    last_ns := 0L

  let to_json e : Json.t =
    Json.Obj
      ([
         "seq", Json.num_of_int e.seq;
         "t_ns", Json.Num (Int64.to_float e.t_ns);
         "kind", Json.Str (kind_name e.kind);
       ]
      @ (if e.name = "" then [] else [ "name", Json.Str e.name ])
      @ match e.data with Json.Null -> [] | d -> [ "data", d ])

  let of_json (j : Json.t) : (t, string) result =
    match Json.mem_int "seq" j, Json.mem_num "t_ns" j, Json.mem_str "kind" j with
    | Some seq, Some t, Some kn -> (
      match kind_of_name kn with
      | Some kind ->
        Ok
          {
            seq;
            t_ns = Int64.of_float t;
            kind;
            name = Option.value (Json.mem_str "name" j) ~default:"";
            data = Option.value (Json.member "data" j) ~default:Json.Null;
          }
      | None -> Error (Printf.sprintf "unknown event kind %S" kn))
    | _ -> Error "event missing seq/t_ns/kind"

  let parse_jsonl_partial text : t list * int option =
    let vals, torn = Json.parse_jsonl_partial text in
    let rec go acc = function
      | [] -> List.rev acc, torn
      | (j, off) :: rest -> (
        match of_json j with
        | Ok e -> go (e :: acc) rest
        | Error _ -> List.rev acc, Some off)
    in
    go [] vals

  (* Durable sink: one compact JSON object per line, flushed per event so
     a SIGKILL loses at most the torn tail that [parse_jsonl_partial]
     recovers around. *)
  let attach_jsonl ~path =
    let oc = open_out path in
    let s =
      subscribe ~name:("jsonl:" ^ path) (fun e ->
          output_string oc (Json.to_string (to_json e));
          output_char oc '\n';
          flush oc)
    in
    s.on_close <- (fun () -> try close_out oc with _ -> ());
    s

  (* Live progress: one line per completed pass plus budget verdicts.
     Intentionally terse — it shares stderr with the human summary. *)
  let attach_progress ?(out = stderr) () =
    subscribe ~name:"progress" (fun e ->
        match e.kind with
        | Pass_end ->
          let secs =
            Option.value (Json.mem_num "seconds" e.data) ~default:0.0
          in
          let iter =
            match Json.mem_int "iteration" e.data with
            | Some i -> Printf.sprintf "iter %d" i
            | None -> "-"
          in
          let cells =
            match Json.mem_int "cells" e.data with
            | Some c -> Printf.sprintf "  cells=%d" c
            | None -> ""
          in
          Printf.fprintf out "  [%s] %-12s %7.3fs%s\n%!" iter e.name secs
            cells
        | Budget_exceeded ->
          Printf.fprintf out "  [budget] %s exceeded: %s\n%!" e.name
            (Json.to_string e.data)
        | _ -> ())
end

module Trace = struct
  type event = { name : string; ts_us : float; dur_us : float; depth : int }

  (* A fold over the bus: an open pushes its stamp, a close pops it and
     records the span at the depth of the spans still open.  A close with
     nothing open belongs to a span entered before [install]; it is
     ignored.  At most one sink is installed, as a bus subscription that
     installing replaces and uninstalling drops. *)
  type sink = {
    epoch_ns : int64;  (* Clock.now_ns at creation; arbitrary origin *)
    mutable recorded : event list;  (* completion order, reversed *)
    mutable opened : int64 list;  (* open spans' stamps, innermost first *)
  }

  let make_sink () = { epoch_ns = Clock.now_ns (); recorded = []; opened = [] }

  let us_between a b = Int64.to_float (Int64.sub b a) /. 1e3

  let fold s (e : Event.t) =
    match e.kind, s.opened with
    | Event.Span_open, _ -> s.opened <- e.t_ns :: s.opened
    | Event.Span_close, t0 :: rest ->
      s.opened <- rest;
      s.recorded <-
        {
          name = e.name;
          ts_us = us_between s.epoch_ns t0;
          dur_us = us_between t0 e.t_ns;
          depth = List.length rest;
        }
        :: s.recorded
    | _ -> ()

  let installed = ref None

  let uninstall () =
    Option.iter Event.unsubscribe !installed;
    installed := None

  let install s =
    uninstall ();
    installed := Some (Event.subscribe ~name:"trace" (fold s))

  let with_span name f =
    (* Fast path: no bus subscriber — direct call. *)
    if not (Event.enabled ()) then f ()
    else begin
      Event.emit ~name Event.Span_open;
      let t0 = Clock.now () in
      let finish () =
        Event.emit ~name
          ~data:(Json.Obj [ "seconds", Json.Num (Clock.now () -. t0) ])
          Event.Span_close
      in
      let result =
        try f ()
        with e ->
          finish ();
          raise e
      in
      finish ();
      result
    end

  let events s =
    (* completion order reversed is end-time descending; for parents-first
       (chronological by start) sort by ts, parents tie-break by depth *)
    List.sort
      (fun a b ->
        match compare a.ts_us b.ts_us with
        | 0 -> compare a.depth b.depth
        | c -> c)
      s.recorded

  let event_count s = List.length s.recorded

  (* The sink's fold over a recorded stream, timed from its first event. *)
  let of_events (evs : Event.t list) =
    let epoch_ns = match evs with e :: _ -> e.t_ns | [] -> 0L in
    let s = { epoch_ns; recorded = []; opened = [] } in
    List.iter (fold s) evs;
    events s

  let to_chrome_json evs : Json.t =
    let evs =
      List.map
        (fun e ->
          Json.Obj
            [
              "name", Json.Str e.name;
              "cat", Json.Str "smartly";
              "ph", Json.Str "X";
              "ts", Json.Num e.ts_us;
              "dur", Json.Num e.dur_us;
              "pid", Json.Num 1.0;
              "tid", Json.Num 1.0;
              "args", Json.Obj [ "depth", Json.num_of_int e.depth ];
            ])
        evs
    in
    Json.Obj
      [ "traceEvents", Json.List evs; "displayTimeUnit", Json.Str "ms" ]

  let write_chrome_json ~path evs =
    let oc = open_out path in
    output_string oc (Json.to_string ~pretty:true (to_chrome_json evs));
    output_char oc '\n';
    close_out oc
end

module Metrics = struct
  type counter = { mutable count : int }

  (* Percentiles come from a bounded sample window: samples are kept
     verbatim until [sample_cap], after which the buffer wraps (index
     n mod cap), i.e. a sliding window over the most recent observations.
     Deterministic — no RNG — so test runs are reproducible. *)
  let sample_cap = 1024

  type histogram = {
    mutable n : int;
    mutable sum : float;
    mutable min_seen : float;
    mutable max_seen : float;
    samples : float array; (* wrap buffer of the last [sample_cap] values *)
  }

  let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 32
  let histogram_registry : (string, histogram) Hashtbl.t = Hashtbl.create 32

  let counter name =
    match Hashtbl.find_opt counter_registry name with
    | Some c -> c
    | None ->
      let c = { count = 0 } in
      Hashtbl.replace counter_registry name c;
      c

  let incr c = c.count <- c.count + 1
  let add c n = c.count <- c.count + n
  let value c = c.count

  let histogram name =
    match Hashtbl.find_opt histogram_registry name with
    | Some h -> h
    | None ->
      let h =
        {
          n = 0;
          sum = 0.0;
          min_seen = 0.0;
          max_seen = 0.0;
          samples = Array.make sample_cap 0.0;
        }
      in
      Hashtbl.replace histogram_registry name h;
      h

  let observe h v =
    if h.n = 0 then begin
      h.min_seen <- v;
      h.max_seen <- v
    end
    else begin
      if v < h.min_seen then h.min_seen <- v;
      if v > h.max_seen then h.max_seen <- v
    end;
    h.samples.(h.n mod sample_cap) <- v;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v

  let observe_int h v = observe h (float_of_int v)

  type histogram_stats = {
    count : int;
    sum : float;
    min_v : float;
    max_v : float;
    mean : float;
    p50 : float;
    p90 : float;
  }

  (* Nearest-rank percentile over the retained sample window. *)
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else begin
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))
    end

  let histogram_stats h =
    let retained = min h.n sample_cap in
    let sorted = Array.sub h.samples 0 retained in
    Array.sort compare sorted;
    {
      count = h.n;
      sum = h.sum;
      min_v = h.min_seen;
      max_v = h.max_seen;
      mean = (if h.n = 0 then 0.0 else h.sum /. float_of_int h.n);
      p50 = percentile sorted 0.50;
      p90 = percentile sorted 0.90;
    }

  let counters () =
    Hashtbl.fold
      (fun name (c : counter) acc -> (name, c.count) :: acc)
      counter_registry []
    |> List.sort compare

  let histograms () =
    Hashtbl.fold
      (fun name h acc -> (name, histogram_stats h) :: acc)
      histogram_registry []
    |> List.sort compare

  let reset () =
    Hashtbl.iter (fun _ (c : counter) -> c.count <- 0) counter_registry;
    Hashtbl.iter
      (fun _ h ->
        h.n <- 0;
        h.sum <- 0.0;
        h.min_seen <- 0.0;
        h.max_seen <- 0.0;
        Array.fill h.samples 0 sample_cap 0.0)
      histogram_registry

  (* --- GC deltas --- *)

  (* [Gc.quick_stat] is cheap (no heap traversal), so bracketing a
     measured region with [gc_mark]/[gc_delta] costs two struct reads.
     Its [minor_words] field, however, only refreshes at GC boundaries
     on OCaml 5, so a region that never triggers a minor collection
     would read as zero allocation; [Gc.minor_words ()] reads the live
     allocation pointer and is carried in the mark separately.
     [top_heap_words] is a process-lifetime high-water mark, not a
     resettable counter, so the delta reports its absolute value: "the
     peak heap while (or before) this region ran". *)
  type gc_mark = { gm_stat : Gc.stat; gm_minor_words : float }

  let gc_mark () = { gm_stat = Gc.quick_stat (); gm_minor_words = Gc.minor_words () }

  type gc_delta = {
    minor_collections : int;
    major_collections : int;
    allocated_words : float;  (** minor + major - promoted, i.e. fresh *)
    top_heap_words : int;  (** peak heap words, absolute *)
  }

  let gc_delta (m : gc_mark) : gc_delta =
    let s = Gc.quick_stat () in
    let minor_words_now = Gc.minor_words () in
    {
      minor_collections =
        s.Gc.minor_collections - m.gm_stat.Gc.minor_collections;
      major_collections =
        s.Gc.major_collections - m.gm_stat.Gc.major_collections;
      allocated_words =
        minor_words_now -. m.gm_minor_words
        +. (s.Gc.major_words -. m.gm_stat.Gc.major_words)
        -. (s.Gc.promoted_words -. m.gm_stat.Gc.promoted_words);
      top_heap_words = s.Gc.top_heap_words;
    }

  let to_json () : Json.t =
    Json.Obj
      [
        ( "counters",
          Json.Obj
            (List.map (fun (k, v) -> k, Json.num_of_int v) (counters ())) );
        ( "histograms",
          Json.Obj
            (List.map
               (fun (k, (s : histogram_stats)) ->
                 ( k,
                   Json.Obj
                     [
                       "count", Json.num_of_int s.count;
                       "sum", Json.Num s.sum;
                       "min", Json.Num s.min_v;
                       "max", Json.Num s.max_v;
                       "mean", Json.Num s.mean;
                       "p50", Json.Num s.p50;
                       "p90", Json.Num s.p90;
                     ] ))
               (histograms ())) );
      ]
end

module Provenance = struct
  (* Structured "why did this netlist mutation happen" events.  [emit]
     puts each one on the event bus, and only when the bus has a
     subscriber, so instrumented passes pay nothing in normal runs;
     [of_events] decodes a recorded stream back into events. *)

  type mechanism = Pruned | Rule of string | Sat | Restructure

  type kind =
    | Cell_removed
    | Mux_bypassed
    | Const_resolved
    | Tree_rebuilt
    | Dead_branch

  type event = {
    kind : kind;
    cell : int;
    pass : string;
    mechanism : mechanism;
    query : int option;
    bits : int;
    area_delta : int;
  }

  let kind_name = function
    | Cell_removed -> "cell_removed"
    | Mux_bypassed -> "mux_bypassed"
    | Const_resolved -> "const_resolved"
    | Tree_rebuilt -> "tree_rebuilt"
    | Dead_branch -> "dead_branch"

  let kind_of_name = function
    | "cell_removed" -> Some Cell_removed
    | "mux_bypassed" -> Some Mux_bypassed
    | "const_resolved" -> Some Const_resolved
    | "tree_rebuilt" -> Some Tree_rebuilt
    | "dead_branch" -> Some Dead_branch
    | _ -> None

  (* Rules keep their individual name in the event stream ("rule:eq") but
     collapse into one attribution row family; the bare constructors are
     stable one-word labels. *)
  let mechanism_name = function
    | Pruned -> "pruned"
    | Rule r -> "rule:" ^ r
    | Sat -> "sat"
    | Restructure -> "restructure"

  let mechanism_of_name s =
    match s with
    | "pruned" -> Some Pruned
    | "sat" -> Some Sat
    | "restructure" -> Some Restructure
    | _ ->
      let prefix = "rule:" in
      let pl = String.length prefix in
      if String.starts_with ~prefix s then
        Some (Rule (String.sub s pl (String.length s - pl)))
      else None

  let event_to_json (e : event) : Json.t =
    Json.Obj
      ([
         "kind", Json.Str (kind_name e.kind);
         "cell", Json.num_of_int e.cell;
         "pass", Json.Str e.pass;
         "mechanism", Json.Str (mechanism_name e.mechanism);
       ]
      @ (match e.query with
        | Some q -> [ "query", Json.num_of_int q ]
        | None -> [])
      @ (if e.bits <> 0 then [ "bits", Json.num_of_int e.bits ] else [])
      @
      if e.area_delta <> 0 then
        [ "area_delta", Json.num_of_int e.area_delta ]
      else [])

  let event_of_json (j : Json.t) : (event, string) result =
    let ( let* ) = Result.bind in
    (* absent is [None]; present, the field must be an integer *)
    let int_ k =
      match Json.member k j with
      | None -> Ok None
      | Some v -> (
        match Json.to_int v with
        | Some i -> Ok (Some i)
        | None -> Error (Printf.sprintf "field %S is not an integer" k))
    in
    let* cell = int_ "cell" in
    let* query = int_ "query" in
    let* bits = int_ "bits" in
    let* area_delta = int_ "area_delta" in
    match
      Json.mem_str "kind" j, Json.mem_str "pass" j, Json.mem_str "mechanism" j,
      cell
    with
    | Some kn, Some pass, Some mn, Some cell -> (
      match kind_of_name kn, mechanism_of_name mn with
      | Some kind, Some mechanism ->
        Ok
          {
            kind;
            cell;
            pass;
            mechanism;
            query;
            bits = Option.value bits ~default:0;
            area_delta = Option.value area_delta ~default:0;
          }
      | None, _ -> Error (Printf.sprintf "unknown event kind %S" kn)
      | _, None -> Error (Printf.sprintf "unknown mechanism %S" mn))
    | _ -> Error "event missing kind/pass/mechanism/cell"

  let emit ~kind ~cell ~pass ~mechanism ?query ?(bits = 0) ?(area_delta = 0)
      () =
    if Event.enabled () then
      Event.emit ~name:(kind_name kind)
        ~data:
          (event_to_json
             { kind; cell; pass; mechanism; query; bits; area_delta })
        Event.Provenance

  let decode (e : Event.t) =
    match e.kind with
    | Event.Provenance -> Result.to_option (event_of_json e.data)
    | _ -> None

  let of_events evs = List.filter_map decode evs

  (* JSONL: one compact JSON object per line — streamable, greppable, and
     each line is independently checkable by [Json.parse]. *)
  let to_jsonl_string evs =
    let buf = Buffer.create 4096 in
    List.iter
      (fun e ->
        Buffer.add_string buf (Json.to_string (event_to_json e));
        Buffer.add_char buf '\n')
      evs;
    Buffer.contents buf

  let write_jsonl ~path evs =
    let oc = open_out path in
    output_string oc (to_jsonl_string evs);
    close_out oc

  let parse_jsonl text : (event list, string) result =
    let lines =
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
    in
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
        match Json.parse line with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok j -> (
          match event_of_json j with
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok ev -> go (ev :: acc) (lineno + 1) rest))
    in
    go [] 1 lines

  (* --- area attribution --- *)

  type attribution = {
    mech : string;
    cells_removed : int;
    muxes_bypassed : int;
    consts_resolved : int;
    trees_rebuilt : int;
    dead_branches : int;
    area_saved : int; (* positive = AIG area removed *)
  }

  (* Group rules under one "rule:<name>" row each; sort rows by cells
     removed (the paper's headline count) then area saved. *)
  let attribute (evs : event list) : attribution list =
    let tbl : (string, attribution) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let key = mechanism_name e.mechanism in
        let a =
          match Hashtbl.find_opt tbl key with
          | Some a -> a
          | None ->
            {
              mech = key;
              cells_removed = 0;
              muxes_bypassed = 0;
              consts_resolved = 0;
              trees_rebuilt = 0;
              dead_branches = 0;
              area_saved = 0;
            }
        in
        let a =
          match e.kind with
          | Cell_removed -> { a with cells_removed = a.cells_removed + 1 }
          | Mux_bypassed -> { a with muxes_bypassed = a.muxes_bypassed + 1 }
          | Const_resolved ->
            { a with consts_resolved = a.consts_resolved + max 1 e.bits }
          | Tree_rebuilt -> { a with trees_rebuilt = a.trees_rebuilt + 1 }
          | Dead_branch -> { a with dead_branches = a.dead_branches + 1 }
        in
        Hashtbl.replace tbl key { a with area_saved = a.area_saved - e.area_delta })
      evs;
    Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
    |> List.sort (fun a b ->
           match compare b.cells_removed a.cells_removed with
           | 0 -> (
             match compare b.area_saved a.area_saved with
             | 0 -> compare a.mech b.mech
             | c -> c)
           | c -> c)

  let attribution_to_json (a : attribution) : Json.t =
    Json.Obj
      [
        "mechanism", Json.Str a.mech;
        "cells_removed", Json.num_of_int a.cells_removed;
        "muxes_bypassed", Json.num_of_int a.muxes_bypassed;
        "consts_resolved", Json.num_of_int a.consts_resolved;
        "trees_rebuilt", Json.num_of_int a.trees_rebuilt;
        "dead_branches", Json.num_of_int a.dead_branches;
        "area_saved", Json.num_of_int a.area_saved;
      ]

  let summary_json (evs : event list) : Json.t =
    let rows = attribute evs in
    let total f = List.fold_left (fun acc a -> acc + f a) 0 rows in
    Json.Obj
      [
        "events", Json.num_of_int (List.length evs);
        "cells_removed", Json.num_of_int (total (fun a -> a.cells_removed));
        "area_saved", Json.num_of_int (total (fun a -> a.area_saved));
        "by_mechanism", Json.List (List.map attribution_to_json rows);
      ]
end

(* The run report, rendered from the event stream alone: the live
   recording of [opt --json] and the [events.jsonl] of a ledger give the
   same document, so the two views of a run can never disagree.  Every
   section reads events; the manifest is the only input from outside the
   stream. *)
module Run_report = struct
  let of_events ?manifest ?torn_at (evs : Event.t list) : Json.t =
    let first kind = List.find_opt (fun (e : Event.t) -> e.kind = kind) evs in
    let of_kind kind = List.filter (fun (e : Event.t) -> e.kind = kind) evs in
    let field ev key =
      Option.value ~default:Json.Null
        (Option.bind ev (fun (e : Event.t) -> Json.member key e.data))
    in
    let run_start = first Event.Run_start and run_end = first Event.Run_end in
    let area_before = Json.to_int (field run_start "area") in
    let area_after = Json.to_int (field run_end "area") in
    let opt_int = function Some i -> Json.num_of_int i | None -> Json.Null in
    (* per name, in first-seen order: calls, summed [seconds], last data
       and summed [counters] (a pass's counter deltas) *)
    let totals kind =
      let tbl = Hashtbl.create 16 and order = ref [] in
      let add sums (k, v) =
        let n = Option.value (Json.to_int v) ~default:0 in
        (k, n + Option.value (List.assoc_opt k sums) ~default:0)
        :: List.remove_assoc k sums
      in
      List.iter
        (fun (e : Event.t) ->
          let calls, secs, _, sums =
            match Hashtbl.find_opt tbl e.name with
            | Some t -> t
            | None ->
              order := e.name :: !order;
              0, 0.0, Json.Null, []
          in
          let s = Option.value (Json.mem_num "seconds" e.data) ~default:0.0 in
          let sums =
            match Json.member "counters" e.data with
            | Some (Json.Obj kvs) -> List.fold_left add sums kvs
            | _ -> sums
          in
          Hashtbl.replace tbl e.name (calls + 1, secs +. s, e.data, sums))
        (of_kind kind);
      List.rev_map
        (fun name ->
          let calls, secs, data, sums = Hashtbl.find tbl name in
          ( name,
            [
              "name", Json.Str name;
              "calls", Json.num_of_int calls;
              "seconds", Json.Num secs;
            ],
            data,
            sums ))
        !order
    in
    let passes =
      List.map
        (fun (_, row, data, sums) ->
          Json.Obj
            (row
            @ [
                "cells", opt_int (Json.mem_int "cells" data);
                ( "counters",
                  Json.Obj
                    (List.map
                       (fun (k, n) -> k, Json.num_of_int n)
                       (List.sort compare sums)) );
              ]))
        (totals Event.Pass_end)
    in
    let spans =
      List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)
        (totals Event.Span_close)
      |> List.map (fun (_, row, _, _) -> Json.Obj row)
    in
    (* the innermost pass still open where the stream ends: where a run
       that died, by any means, stopped *)
    let open_passes =
      List.fold_left
        (fun stack (e : Event.t) ->
          match e.kind, stack with
          | Event.Pass_start, _ -> e.name :: stack
          | Event.Pass_end, _ :: rest -> rest
          | _ -> stack)
        [] evs
    in
    let provenance = Provenance.summary_json (Provenance.of_events evs) in
    let rec ordered = function
      | (a : Event.t) :: ((b : Event.t) :: _ as rest) ->
        a.seq < b.seq && Int64.compare a.t_ns b.t_ns <= 0 && ordered rest
      | _ -> true
    in
    Json.Obj
      [
        "schema", Json.Str "smartly-report-v4";
        "source", field run_start "source";
        "flow", field run_start "flow";
        ( "area",
          Json.Obj
            [ "before", opt_int area_before; "after", opt_int area_after ] );
        ( "reduction_pct",
          match area_before, area_after with
          | Some a0, Some a1 ->
            Json.Num
              (if a0 = 0 then 0.0
               else 100.0 *. (1.0 -. (float_of_int a1 /. float_of_int a0)))
          | _ -> Json.Null );
        "wall_seconds", field run_end "wall_seconds";
        "iterations", field run_end "iterations";
        "sat_log", field run_end "sat_log";
        "metrics", field run_end "metrics";
        "passes", Json.List passes;
        ( "in_flight_pass",
          match open_passes with p :: _ -> Json.Str p | [] -> Json.Null );
        "spans", Json.List spans;
        "sat_queries", Json.num_of_int (List.length (of_kind Event.Sat_query));
        ( "budget",
          Json.List
            (List.map
               (fun (e : Event.t) -> e.data)
               (of_kind Event.Budget_exceeded)) );
        ( "cells_removed",
          Option.value ~default:Json.Null
            (Json.member "cells_removed" provenance) );
        "provenance_summary", provenance;
        ( "events",
          Json.Obj
            [
              "count", Json.num_of_int (List.length evs);
              "ordered", Json.Bool (ordered evs);
              "torn_at", opt_int torn_at;
            ] );
        ( "status",
          Option.value ~default:Json.Null
            (Option.bind manifest (Json.member "status")) );
        "manifest", Option.value manifest ~default:Json.Null;
      ]
end

(* Run ledger: one directory per CLI run holding everything the run
   produced — manifest, ordered event stream (provenance included),
   trace, SAT dumps, reports.  [events.jsonl] is flushed per event, so a
   run that died leaves every event it emitted; [smartly report] renders
   a run from these files alone, without the process that wrote them. *)
module Ledger = struct
  type t = {
    dir : string;
    run_id : string;
    started : float;  (* Unix epoch seconds, for humans; not monotonic *)
    argv : string list;
    env : Json.t;
    mutable events_sub : Event.subscription option;
    mutable finished : bool;
  }

  let default_root = Filename.concat ".smartly" "runs"

  let rec mkdir_p dir =
    if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
    else begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let fresh_run_id () =
    let tm = Unix.gmtime (Unix.gettimeofday ()) in
    Printf.sprintf "%04d%02d%02d-%02d%02d%02d-%d"
      (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
      tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec (Unix.getpid ())

  let path t name = Filename.concat t.dir name

  let write_file p contents =
    let oc = open_out p in
    output_string oc contents;
    output_char oc '\n';
    close_out oc

  let manifest_json ?(status = "running") ?(extra = []) t : Json.t =
    Json.Obj
      ([
         "schema", Json.Str "smartly-run-v1";
         "run_id", Json.Str t.run_id;
         "argv", Json.List (List.map (fun a -> Json.Str a) t.argv);
         "env", t.env;
         "started_unix", Json.Num t.started;
         "status", Json.Str status;
       ]
      @ extra)

  let write_manifest ?status ?extra t =
    write_file (path t "manifest.json")
      (Json.to_string ~pretty:true (manifest_json ?status ?extra t))

  let create ?(root = default_root) ?run_id ?(attach_events = true) ~argv
      ~env () =
    let base = match run_id with Some id -> id | None -> fresh_run_id () in
    mkdir_p root;
    (* Two runs in the same second from the same shell script are routine
       (make ci does exactly that); claim a fresh directory by suffix. *)
    let rec claim i =
      let id = if i = 0 then base else Printf.sprintf "%s-%d" base i in
      let dir = Filename.concat root id in
      match Unix.mkdir dir 0o755 with
      | () -> id, dir
      | exception Unix.Unix_error (Unix.EEXIST, _, _) when i < 1000 ->
        claim (i + 1)
    in
    let run_id, dir = claim 0 in
    let t =
      {
        dir;
        run_id;
        started = Unix.gettimeofday ();
        argv;
        env;
        events_sub = None;
        finished = false;
      }
    in
    write_manifest t;
    if attach_events then
      t.events_sub <- Some (Event.attach_jsonl ~path:(path t "events.jsonl"));
    t

  let dir t = t.dir
  let run_id t = t.run_id

  let finish ?(extra = []) ~status t =
    if not t.finished then begin
      t.finished <- true;
      (* a sink that raised stopped receiving events there (a full disk
         stops events.jsonl early); the manifest says which one and why *)
      let errors =
        match Event.failed_sinks () with
        | [] -> []
        | failed ->
          [
            ( "sink_errors",
              Json.List
                (List.map
                   (fun (sink, error) ->
                     Json.Obj [ "sink", Json.Str sink; "error", Json.Str error ])
                   failed) );
          ]
      in
      (match t.events_sub with
      | Some s ->
        t.events_sub <- None;
        Event.unsubscribe s
      | None -> ());
      write_manifest ~status
        ~extra:
          ((("ended_unix", Json.Num (Unix.gettimeofday ())) :: extra) @ errors)
        t
    end
end
