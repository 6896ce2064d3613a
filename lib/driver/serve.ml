(* The estimator server: a long-running daemon speaking newline-
   delimited JSON, answering from the warm incremental store.

   Framing. One request per line; a *blank line* (or EOF) closes a
   batch. Responses are written one per line, in request order, after
   the whole batch has been processed, then flushed — so a client that
   writes N lines and a blank line reads exactly N lines back. The two
   carriers, stdio ([serve], the default of [bin serve]) and a
   Unix-domain socket ([--socket PATH]), only frame lines (splitting
   lives in [Driver.Transport]) and hand each batch to one engine:

   - [execute] runs a parsed request in this process, for the
     in-process batch path and the [--workers] child alike.
   - [handle_batch] splits a batch into runs of adjacent [analyze]
     requests, which fan out together (across the domain pool, or the
     shards under [--workers]), and single control requests, which are
     sequential barriers between fan-outs.
   - [route] sends named requests ([analyze], [scores], [invalidate]
     with a name) to their shards and maps each supervised outcome to a
     response. The only other sharded code merges [stats]/[metrics],
     broadcasts a nameless [invalidate] and refuses [resize].
   - [after_batch] is the housekeeping after every batch, in every
     carrier and in the worker.

   Requests:   {"id": .., "op": "analyze", "name": s, "source": s,
                "kinds": [s..]?, "runs": [{"argv": [s..], "input": s}..]?}
               {"id": .., "op": "scores", "name": s}
               {"id": .., "op": "invalidate", "name": s?}
               {"id": .., "op": "stats"}
               {"id": .., "op": "metrics"}
               {"id": .., "op": "resize", "jobs": n}
               {"id": .., "op": "shutdown"}
   Responses:  {"id": .., "ok": true, ...}    (per-op payload below)
             | {"id": .., "ok": false, "error": {"stage": s,
                "subject": s, "detail": s, "exn": s, "recovery": s}}

   Three error responses carry an extra marker field so clients can
   react without parsing detail strings: ["overloaded": true] (the
   request was shed at admission because the pending-request queue was
   full), ["worker_lost": true] (a [--workers] shard died twice on this
   request — once plus one replay — and was restarted), and
   ["deadline_exceeded": true] (the request overran [--deadline-ms]).

   The [id] is echoed as parsed (any JSON value; [null] when the
   request had none or did not parse); a number is echoed as the very
   text the client sent.

   Fault isolation. Each request body runs under [Fault.capture]: a bad
   source degrades exactly one response — carrying the fault's
   stage/exn detail — and never the daemon. A pool task that dies
   outside that capture (the ["worker"] chaos point) degrades its own
   request to a [worker]-stage fault the same way, and a [resize] past
   [Parallel.max_jobs] is refused with the old pool kept. The fault log
   is reset after every batch so a long-running daemon's memory stays
   bounded; clients that care read [stats.faults] (the count for the
   current batch's log) before it resets. A [shutdown] answers [ok] and
   stops after its batch; requests queued *behind* it in the same
   batch get an error response rather than silence.

   Durability and drain. Under [--store DIR] every intra solution is
   journaled through [Incr]/[Persist] as it is computed, so a restart
   (graceful or [kill -9]) begins warm. SIGTERM/SIGINT drain
   gracefully: stop accepting work, finish the in-flight batch, take a
   final snapshot (flushing the journal), report recorded faults on
   stderr and exit — code 3 if any batch of the daemon's life degraded,
   0 otherwise. *)

module Json = Obs.Json

type request = { rq_id : Json.t; rq_op : string; rq_body : Json.t }

(* ------------------------------------------------------------------ *)
(* Parsing. *)

let member_str (name : string) (j : Json.t) : string option =
  Option.bind (Json.member name j) Json.to_str

(* A numeric id is echoed as the client wrote it: [1e999] is no float
   and [12345678901234567890123] has more digits than one. An id that
   would not print back as written is kept as its text, in the body too,
   so a routed request forwards it unchanged. *)
let parse_request (line : string) : (request, Json.t * string) result =
  match Json.parse_members line with
  | Error msg -> Error (Json.Null, "request is not valid JSON: " ^ msg)
  | Ok (j, spans) ->
    let j, id =
      match (j, Json.member "id" j) with
      | Json.Obj fields, Some (Json.Num f as num) ->
        let start, stop = List.assoc "id" spans in
        let text = String.sub line start (stop - start) in
        if Float.is_finite f && Json.float_repr f = text then (j, num)
        else
          let raw = Json.Raw text in
          ( Json.Obj
              (List.map (fun (k, v) -> if k = "id" then (k, raw) else (k, v))
                 fields),
            raw )
      | _, id -> (j, Option.value ~default:Json.Null id)
    in
    (match member_str "op" j with
    | None -> Error (id, "request has no \"op\" field")
    | Some op -> Ok { rq_id = id; rq_op = op; rq_body = j })

(* The id of a raw line, for error responses built instead of
   dispatch: shed, shutdown-drain. *)
let line_id (line : string) : Json.t =
  match parse_request line with Ok rq -> rq.rq_id | Error (id, _) -> id

(* Each item of the array field [field] through [f]; [None] when the
   field is absent, the first item error otherwise. *)
let parse_array (field : string) (f : Json.t -> ('a, string) result)
    (j : Json.t) : ('a list option, string) result =
  match Json.member field j with
  | None -> Ok None
  | Some v ->
    (match Json.to_list v with
    | None -> Error (Printf.sprintf "%S is not an array" field)
    | Some items ->
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | item :: rest -> Result.bind (f item) (fun x -> go (x :: acc) rest)
      in
      go [] items)

let parse_kinds (j : Json.t) :
    (Core.Pipeline.intra_kind list option, string) result =
  parse_array "kinds"
    (fun item ->
      match
        Option.bind (Json.to_str item) Core.Pipeline.intra_kind_of_string
      with
      | Some k -> Ok k
      | None ->
        Error
          (Printf.sprintf "unknown intra kind %s"
             (Json.to_compact_string item)))
    j

let parse_runs (j : Json.t) : (Core.Pipeline.run list, string) result =
  parse_array "runs"
    (fun item ->
      let argv =
        match Option.bind (Json.member "argv" item) Json.to_list with
        | None -> Some []
        | Some l ->
          let strs = List.filter_map Json.to_str l in
          if List.length strs = List.length l then Some strs else None
      in
      let input =
        match Json.member "input" item with
        | None -> Some ""
        | Some v -> Json.to_str v
      in
      match (argv, input) with
      | Some argv, Some input -> Ok { Core.Pipeline.argv; input }
      | _ -> Error "each run is {\"argv\": [str..], \"input\": str}")
    j
  |> Result.map (Option.value ~default:[])

(* ------------------------------------------------------------------ *)
(* Responses. *)

let ok_response (id : Json.t) (fields : (string * Json.t) list) : Json.t =
  Json.Obj (("id", id) :: ("ok", Json.Bool true) :: fields)

let fault_error (id : Json.t) (f : Fault.t) : Json.t =
  Json.Obj
    [ ("id", id); ("ok", Json.Bool false);
      ("error",
       Json.Obj
         [ ("stage", Json.Str (Fault.stage_to_string f.Fault.f_stage));
           ("subject", Json.Str f.Fault.f_subject);
           ("detail", Json.Str f.Fault.f_detail);
           ("exn", Json.Str f.Fault.f_exn);
           ("recovery", Json.Str f.Fault.f_recovery) ])
    ]

let plain_error ?(recovery = "request rejected; daemon keeps serving")
    (id : Json.t) (detail : string) : Json.t =
  fault_error id
    { Fault.f_stage = Fault.Experiment; f_subject = "serve";
      f_detail = detail; f_exn = ""; f_backtrace = ""; f_recovery = recovery }

(* Marker-carrying errors (see the protocol comment above). *)

let with_marker (marker : string) (j : Json.t) : Json.t =
  match j with
  | Json.Obj fields -> Json.Obj (fields @ [ (marker, Json.Bool true) ])
  | j -> j

let overloaded_response (id : Json.t) ~(queue_limit : int) : Json.t =
  with_marker "overloaded"
    (plain_error id
       ~recovery:"request shed before execution; retry after the daemon drains"
       (Printf.sprintf "pending-request queue limit %d exceeded" queue_limit))

(* Worker-lost and supervised-deadline responses are *recorded* faults:
   they count toward [stats.faults] and turn the daemon's eventual exit
   code to 3, same as any other degradation. *)
let worker_lost_response (id : Json.t) ~(name : string) (detail : string) :
    Json.t =
  let f =
    { Fault.f_stage = Fault.Worker; f_subject = name; f_detail = detail;
      f_exn = "worker process died"; f_backtrace = "";
      f_recovery = "worker restarted; request replayed once, then failed" }
  in
  Fault.record f;
  with_marker "worker_lost" (fault_error id f)

let deadline_response (id : Json.t) ~(name : string) (seconds : float) :
    Json.t =
  let f =
    { Fault.f_stage = Fault.Worker; f_subject = name;
      f_detail = Printf.sprintf "request deadline %gs exceeded" seconds;
      f_exn = "worker killed on deadline"; f_backtrace = "";
      f_recovery = "worker restarted; request answered with a deadline fault" }
  in
  Fault.record f;
  with_marker "deadline_exceeded" (fault_error id f)

(* ------------------------------------------------------------------ *)
(* The metrics snapshot: one JSON object of every counter, gauge and
   histogram summary, plus the slow-request log and the worker pool's
   health. Schema versioned like the run-record schema; bump on any
   shape change. *)

let metrics_schema_version = 1

(* The shards' replies that parse; a lost or killed shard adds nothing
   to a merge. *)
let parsed_replies (replies : (int * Supervise.outcome) list) :
    (int * Json.t) list =
  List.filter_map
    (fun (shard, o) ->
      match o with
      | Supervise.Reply l ->
        Option.map (fun j -> (shard, j)) (Result.to_option (Json.parse l))
      | Supervise.Deadline _ | Supervise.Lost _ -> None)
    replies

(* This process's tables merged with each shard's [metrics] reply (no
   replies unsharded). Counters are sums (hits and totals add;
   min-of-mins, max-of-maxes) and histograms are bucket merges — both
   order-independent. Gauges are NOT summed: each shard's level was
   sampled at a different instant, so the merged entry reports the
   per-shard maximum, labelled with the shard that holds it, plus the
   full per-shard list ([-1] is this process: the parent, or an
   unsharded daemon). A client wanting total store bytes across shards
   reads [stats.bytes], which sums a consistent per-store field
   instead. *)
let metrics_response ?(pool : Supervise.t option) (id : Json.t)
    (replies : (int * Supervise.outcome) list) : Json.t =
  let num i = Json.Num (float_of_int i) in
  let fnum field j = Option.bind (Json.member field j) Json.to_num in
  let counters : (string, float * float * float * float) Hashtbl.t =
    Hashtbl.create 64
  in
  let gauges : (string, (int * float) list) Hashtbl.t = Hashtbl.create 16 in
  let hists : (string, Obs.Hist.snapshot) Hashtbl.t = Hashtbl.create 16 in
  let add_counter name (h, t, mn, mx) =
    Hashtbl.replace counters name
      (match Hashtbl.find_opt counters name with
      | None -> (h, t, mn, mx)
      | Some (h0, t0, mn0, mx0) ->
        (h0 +. h, t0 +. t, Float.min mn0 mn, Float.max mx0 mx))
  in
  let add_gauge name shard v =
    Hashtbl.replace gauges name
      (Option.value ~default:[] (Hashtbl.find_opt gauges name) @ [ (shard, v) ])
  in
  let add_hist name s =
    Hashtbl.replace hists name
      (Obs.Hist.merge
         (Option.value ~default:Obs.Hist.empty (Hashtbl.find_opt hists name))
         s)
  in
  List.iter
    (fun (name, c) ->
      add_counter name
        ( float_of_int c.Obs.Probe.hits, c.Obs.Probe.total, c.Obs.Probe.vmin,
          c.Obs.Probe.vmax ))
    (Obs.Probe.counters ());
  List.iter (fun (name, v) -> add_gauge name (-1) v) (Obs.Probe.gauges ());
  List.iter (fun (name, s) -> add_hist name s) (Obs.Hist.all ());
  let fold_obj j field f =
    match Json.member field j with
    | Some (Json.Obj entries) -> List.iter f entries
    | _ -> ()
  in
  List.iter
    (fun (shard, j) ->
      fold_obj j "counters" (fun (name, c) ->
          match (fnum "hits" c, fnum "total" c, fnum "min" c, fnum "max" c)
          with
          | Some h, Some t, Some mn, Some mx -> add_counter name (h, t, mn, mx)
          | _ -> ());
      fold_obj j "gauges" (fun (name, g) ->
          Option.iter (add_gauge name shard) (fnum "value" g));
      fold_obj j "hists" (fun (name, h) ->
          Option.iter (add_hist name) (Obs.Hist.of_json h)))
    (parsed_replies replies);
  let sorted tbl f =
    Json.Obj
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (k, v) -> (k, f v)))
  in
  (* The slow log lives in the parent: slow detection times the whole
     round trip, and only the parent holds merged trees. *)
  let recent =
    let entries = Reqtrace.slow_entries () in
    let skip = List.length entries - 8 in
    List.filteri (fun i _ -> i >= skip) entries
  in
  let pool_count f = num (match pool with Some p -> f p | None -> 0) in
  ok_response id
    [ ("schema", num metrics_schema_version);
      ( "counters",
        sorted counters (fun (h, t, mn, mx) ->
            Json.Obj
              [ ("hits", Json.Num h); ("total", Json.Num t);
                ("min", Json.Num mn); ("max", Json.Num mx) ]) );
      ( "gauges",
        sorted gauges (fun per_shard ->
            let best_shard, best =
              List.fold_left
                (fun (bs, bv) (s, v) -> if v > bv then (s, v) else (bs, bv))
                (List.hd per_shard) (List.tl per_shard)
            in
            Json.Obj
              [ ("value", Json.Num best); ("shard", num best_shard);
                ( "per_shard",
                  Json.Arr
                    (List.map
                       (fun (s, v) -> Json.Arr [ num s; Json.Num v ])
                       per_shard) ) ]) );
      ("hists", sorted hists Obs.Hist.summary_json);
      ( "slow",
        Json.Obj
          [ ( "threshold_ms",
              match Reqtrace.slow_ms () with
              | None -> Json.Null
              | Some t -> Json.Num t );
            ("count", num (Reqtrace.slow_count ()));
            ("recent", Json.Arr (List.map Reqtrace.slow_entry_to_json recent))
          ] );
      ("workers", pool_count Supervise.size);
      ("workers_alive", pool_count Supervise.alive);
      ("worker_restarts", pool_count Supervise.restarts);
      ("worker_lost", pool_count Supervise.lost);
      ( "shards",
        Json.Arr
          (List.map
             (fun (ss : Supervise.shard_state) ->
               Json.Obj
                 [ ("shard", num ss.Supervise.ss_shard);
                   ("alive", Json.Bool ss.Supervise.ss_alive);
                   ("crashes", num ss.Supervise.ss_crashes);
                   ("broken", Json.Bool ss.Supervise.ss_broken);
                   ("restarts", num ss.Supervise.ss_restarts) ])
             (match pool with Some p -> Supervise.shard_states p | None -> []))
      );
      ("git_rev", Json.Str (Obs.Envmeta.git_rev ())) ]

(* ------------------------------------------------------------------ *)
(* Running a request in this process. *)

(* Last successful analysis per program name, so [scores] can answer
   without re-running anything. Written only sequentially — by an
   analyze's commit step, or by an [invalidate], which never fans out —
   and, sharded, inside the owning worker; bounded by the number of
   distinct names. *)
let last_scores : (string, Score.t list) Hashtbl.t = Hashtbl.create 64

let scores_json (scores : Score.t list) : Json.t =
  Json.Arr (List.map Run_record.score_to_json scores)

let analysis_response (id : Json.t) (a : Incr.analysis) : Json.t =
  ok_response id
    [ ("name", Json.Str a.Incr.an_name);
      ("program_hit", Json.Bool a.Incr.an_program_hit);
      ("profile_hit",
       match a.Incr.an_profile_hit with
       | None -> Json.Null
       | Some h -> Json.Bool h);
      ("fn_hits", Json.Num (float_of_int a.Incr.an_fn_hits));
      ("fn_misses", Json.Num (float_of_int a.Incr.an_fn_misses));
      ("fn_hashes",
       Json.Obj
         (List.map (fun (fn, h) -> (fn, Json.Str h)) a.Incr.an_fn_hashes));
      ("scores", scores_json a.Incr.an_scores) ]

(* The analysis itself. The cooperative [deadline_s] rides into
   [Incr.analyze]; overrunning it raises [Incr.Deadline_exceeded],
   which the capture below turns into a typed fault response like any
   other per-request failure. *)
let run_analyze ?(deadline_s : float option) (rq : request) :
    (Incr.analysis, Json.t) result =
  match member_str "name" rq.rq_body with
  | None -> Error (plain_error rq.rq_id "analyze needs a \"name\" field")
  | Some name ->
    (match member_str "source" rq.rq_body with
    | None -> Error (plain_error rq.rq_id "analyze needs a \"source\" field")
    | Some source ->
      (match parse_kinds rq.rq_body with
      | Error msg -> Error (plain_error rq.rq_id msg)
      | Ok kinds ->
        (match parse_runs rq.rq_body with
        | Error msg -> Error (plain_error rq.rq_id msg)
        | Ok runs ->
          (match
             Fault.capture ~stage:Fault.Experiment ~subject:name
               ~detail:"serve analyze"
               ~recovery:"request answered with an error response"
               (fun () -> Incr.analyze ?kinds ~runs ?deadline_s ~name source)
           with
          | Ok a -> Ok a
          | Error f ->
            let resp = fault_error rq.rq_id f in
            let resp =
              if String.starts_with ~prefix:"Driver.Incr.Deadline_exceeded"
                   f.Fault.f_exn
              then with_marker "deadline_exceeded" resp
              else resp
            in
            Error resp))))

(* Run one parsed request in this process. The work happens when
   [execute] is applied — for [analyze], possibly on a pool domain —
   and the returned commit step yields the response, after recording an
   analysis in [last_scores]; callers run commit steps one at a time,
   in request order, so those writes never race. *)
let execute ?(deadline_s : float option) (stop : bool ref) (rq : request) :
    unit -> Json.t =
  let answer resp () = resp in
  match rq.rq_op with
  | "analyze" ->
    (match run_analyze ?deadline_s rq with
    | Ok a ->
      fun () ->
        Hashtbl.replace last_scores a.Incr.an_name a.Incr.an_scores;
        analysis_response rq.rq_id a
    | Error resp -> answer resp)
  | "scores" ->
    answer
      (match member_str "name" rq.rq_body with
      | None -> plain_error rq.rq_id "scores needs a \"name\" field"
      | Some name ->
        (match Hashtbl.find_opt last_scores name with
        | None ->
          plain_error rq.rq_id
            (Printf.sprintf "no analysis on record for %S" name)
        | Some scores ->
          ok_response rq.rq_id
            [ ("name", Json.Str name); ("scores", scores_json scores) ]))
  | "invalidate" ->
    answer
      (match member_str "name" rq.rq_body with
      | Some name ->
        let dropped = Incr.invalidate ~name in
        Hashtbl.remove last_scores name;
        ok_response rq.rq_id
          [ ("name", Json.Str name);
            ("dropped", Json.Num (float_of_int dropped)) ]
      | None ->
        Incr.clear ();
        Hashtbl.reset last_scores;
        ok_response rq.rq_id [ ("cleared", Json.Bool true) ])
  | "stats" ->
    let st = Incr.stats () in
    let num i = Json.Num (float_of_int i) in
    answer
      (ok_response rq.rq_id
         [ ("entries", num st.Incr.st_entries);
           ("bytes", num st.Incr.st_bytes);
           ("budget", num st.Incr.st_budget);
           ("hits", num st.Incr.st_hits);
           ("misses", num st.Incr.st_misses);
           ("evictions", num st.Incr.st_evictions);
           (* part of the stats wire format; always 0 *)
           ("bypasses", num 0);
           ("restored", num st.Incr.st_restored);
           ("journal_entries", num st.Incr.st_journal_entries);
           ("snapshots", num st.Incr.st_snapshots);
           ("persisted", Json.Bool st.Incr.st_persisted);
           ("jobs", num (Parallel.jobs ()));
           ("pool_size",
            match Parallel.pool_size () with
            | None -> Json.Null
            | Some s -> num s);
           ("faults", num (Fault.count ()));
           (* Re-read per request — a long-running daemon must report
              the repository's rev as it is *now*, not at startup. *)
           ("git_rev", Json.Str (Obs.Envmeta.git_rev ())) ])
  | "metrics" -> answer (metrics_response rq.rq_id [])
  | "resize" ->
    answer
      (match Option.bind (Json.member "jobs" rq.rq_body) Json.to_num with
      | None -> plain_error rq.rq_id "resize needs a numeric \"jobs\" field"
      | Some n ->
        (* [int_of_float] is unspecified past the int range; 1e18 is
           past [Parallel.max_jobs] all the same. *)
        (match Parallel.set_jobs (int_of_float (Float.min n 1e18)) with
        | () ->
          ok_response rq.rq_id
            [ ("jobs", Json.Num (float_of_int (Parallel.jobs ()))) ]
        | exception Invalid_argument msg -> plain_error rq.rq_id msg))
  | "shutdown" ->
    stop := true;
    answer (ok_response rq.rq_id [ ("stopping", Json.Bool true) ])
  | op -> answer (plain_error rq.rq_id (Printf.sprintf "unknown op %S" op))

(* ------------------------------------------------------------------ *)
(* After every batch. *)

(* Degradation is cumulative across the daemon's whole life even though
   the fault log resets per batch: any degraded batch turns the
   eventual exit code to 3. *)
let faults_total = ref 0

(* The housekeeping every carrier, and the worker after each line, runs
   once a batch is answered. The batch's faults go to stderr as they
   happen — the log resets, so this is what keeps the drain report
   complete — and the log is reset to bound the daemon's memory. Store
   gauges are re-published right after: a [metrics] call in the next
   batch must never see the cache-size gauge missing because something
   reset the probe tables. Counters and histograms accumulate for the
   life of the process; [metrics] reads them. *)
let after_batch () : unit =
  let c = Fault.count () in
  if c > 0 then begin
    faults_total := !faults_total + c;
    prerr_string (Fault.summary ());
    flush stderr
  end;
  Fault.reset ();
  Incr.republish_gauges ()

(* ------------------------------------------------------------------ *)
(* The worker side of [--workers]: handle exactly one request line and
   return one response line. Runs inside a [Supervise] child, which
   has its own store shard attached ([Incr.open_store DIR/shard-N]).
   Chaos ([--chaos SEED] arming ["serve.worker-kill"]) kills the worker
   *process* here, by request key — the parent's supervision, not this
   handler, turns that into a typed response. *)

let handle_one_line ?(deadline_s : float option) (line : string) : string =
  let parsed = parse_request line in
  (* The parent's tracing envelope: ["__trace"] asks for our span
     subtree back; ["__seq"] is the daemon-assigned request id, echoed
     inside the subtree envelope so the parent can verify it grafts the
     right request's spans. *)
  let envelope key =
    match parsed with Ok rq -> Json.member key rq.rq_body | Error _ -> None
  in
  let want_trace = envelope "__trace" = Some (Json.Bool true) in
  let handle () =
    match parsed with
    | Error (id, msg) -> plain_error id msg
    | Ok rq ->
      (match (rq.rq_op, member_str "name" rq.rq_body) with
      | "analyze", Some name
        when Obs.Inject.should_fire "serve.worker-kill" ~key:name ->
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        plain_error rq.rq_id "unreachable"
      | _ -> execute ?deadline_s (ref false) rq ())
  in
  let resp, root =
    Obs.Hist.time "serve.handle.ns" (fun () ->
        if want_trace then Reqtrace.with_root handle else (handle (), -1))
  in
  let resp =
    match resp with
    | Json.Obj fields when want_trace && root >= 0 ->
      (match Reqtrace.tree_of_root root (Obs.Probe.spans ()) with
      | Some tree ->
        Json.Obj
          (fields
          @ [ ( "__spans",
                Json.Obj
                  [ ("seq", Option.value ~default:Json.Null (envelope "__seq"));
                    ("tree", Reqtrace.tree_to_json tree) ] ) ])
      | None -> resp)
    | _ -> resp
  in
  let s = Json.to_compact_string resp in
  (* One request is this process's whole batch; the response already
     carries any fault detail. *)
  after_batch ();
  if Obs.Probe.enabled () then Obs.Probe.reset_spans ();
  s

(* ------------------------------------------------------------------ *)
(* Batch execution. *)

(* Split a batch into maximal runs of adjacent analyzes (parallel) and
   single control requests (barriers), preserving order. An analyze
   whose source already occurs in the current run starts a new run: it
   is then answered from the store instead of solving the same content
   concurrently with its twin. *)
type group =
  | Analyzes of (int * request) list  (* original indices *)
  | Control of int * request
  | Malformed of int * Json.t * string  (* id, error detail *)

let group_requests (lines : string list) : group list =
  let parsed =
    List.mapi (fun i line -> (i, parse_request line)) lines
  in
  let flush_run acc run =
    match run with [] -> acc | run -> Analyzes (List.rev run) :: acc
  in
  let rec go acc run = function
    | [] -> List.rev (flush_run acc run)
    | (i, Error (id, msg)) :: rest ->
      go (Malformed (i, id, msg) :: flush_run acc run) [] rest
    | (i, Ok rq) :: rest when rq.rq_op = "analyze" ->
      let source = member_str "source" rq.rq_body in
      if List.exists (fun (_, r) -> member_str "source" r.rq_body = source) run
      then go (flush_run acc run) [ (i, rq) ] rest
      else go acc ((i, rq) :: run) rest
    | (i, Ok rq) :: rest ->
      go (Control (i, rq) :: flush_run acc run) [] rest
  in
  go [] [] parsed

(* How a batch's requests get executed: in this process (fanning out
   through the domain pool) or across the supervised worker pool. *)
type dispatcher = Local | Sharded of Supervise.t

(* Aggregate [stats] across every shard: per-store numeric fields sum;
   [faults] additionally counts the parent's own supervision faults;
   pool-shape fields come from the parent, which owns the pool. *)
let sum_fields =
  [ "entries"; "bytes"; "budget"; "hits"; "misses"; "evictions";
    "bypasses"; "restored"; "journal_entries"; "snapshots"; "faults" ]

let merge_stats (pool : Supervise.t) (id : Json.t)
    (replies : (int * Supervise.outcome) list) : Json.t =
  let sums = Hashtbl.create 16 in
  let persisted = ref false in
  List.iter
    (fun (_, j) ->
      List.iter
        (fun f ->
          match Option.bind (Json.member f j) Json.to_num with
          | Some v ->
            Hashtbl.replace sums f
              ((try Hashtbl.find sums f with Not_found -> 0.0) +. v)
          | None -> ())
        sum_fields;
      match Json.member "persisted" j with
      | Some (Json.Bool true) -> persisted := true
      | _ -> ())
    (parsed_replies replies);
  let get f = try Hashtbl.find sums f with Not_found -> 0.0 in
  let num v = Json.Num v in
  ok_response id
    (List.map
       (fun f ->
         if f = "faults" then
           (f, num (get f +. float_of_int (Fault.count ())))
         else (f, num (get f)))
       sum_fields
    @ [ ("persisted", Json.Bool !persisted);
        ("jobs", num (float_of_int (Supervise.size pool)));
        ("pool_size", Json.Null);
        ("workers", num (float_of_int (Supervise.size pool)));
        ("workers_alive", num (float_of_int (Supervise.alive pool)));
        ("worker_restarts", num (float_of_int (Supervise.restarts pool)));
        ("worker_lost", num (float_of_int (Supervise.lost pool)));
        ("git_rev", Json.Str (Obs.Envmeta.git_rev ())) ])

(* One request's telemetry, gathered while its group executes and
   resolved after the whole batch: the histogram recording and slow
   detection need [Probe.spans], which is only safe to snapshot once no
   fan-out is running. *)
type req_telemetry = {
  rt_id : Json.t;                   (* client id, echoed in slow entries *)
  rt_op : string;
  rt_name : string;
  rt_dur_s : float;
  rt_root : int;                    (* local span root, or -1 *)
  rt_tree : Reqtrace.tree option;   (* pre-merged (sharded graft) *)
}

(* One answered request: its slot in the batch, its response line and
   its telemetry. *)
type answer = int * string * req_telemetry

let name_of (rq : request) : string =
  Option.value ~default:"" (member_str "name" rq.rq_body)

let answered ?tree ?(root = -1) (i : int) (rq : request) (resp : string)
    (dur_s : float) : answer =
  ( i, resp,
    { rt_id = rq.rq_id; rt_op = rq.rq_op; rt_name = name_of rq;
      rt_dur_s = dur_s; rt_root = root; rt_tree = tree } )

(* [f ()] under its own span root: result, root and wall seconds. *)
let timed (f : unit -> 'a) : 'a * int * float =
  let t0 = Unix.gettimeofday () in
  let v, root = Reqtrace.with_root f in
  (v, root, Unix.gettimeofday () -. t0)

(* Fan a run of adjacent analyzes out across the domain pool. A task
   that dies outside [execute]'s own capture — the ["worker"] chaos
   point fires before the task body — answers its request with a
   [worker]-stage fault instead of taking the batch down. *)
let fan_out ?(deadline_s : float option) (stop : bool ref)
    (rqs : (int * request) list) : answer list =
  List.map2
    (fun (i, rq) slot ->
      match slot with
      | Ok (commit, root, dur) ->
        answered ~root i rq (Json.to_compact_string (commit ())) dur
      | Error (e, bt) ->
        let f =
          Fault.absorb ~stage:Fault.Worker ~subject:(name_of rq)
            ~detail:"serve analyze"
            ~recovery:"request answered with an error response" e bt
        in
        answered i rq (Json.to_compact_string (fault_error rq.rq_id f)) 0.0)
    rqs
    (Parallel.map_results
       (fun (_, rq) -> timed (fun () -> execute ?deadline_s stop rq))
       rqs)

(* Strip a worker's ["__spans"] envelope off its reply line, returning
   the client-facing line and the shipped tree — only when the echoed
   sequence number proves the subtree belongs to this request. The
   reprinted line echoes the request's own [id], which parsing the reply
   would round through a float. *)
let strip_spans ~(seq : int) ~(id : Json.t) (line : string) :
    string * Reqtrace.tree option =
  match Json.parse line with
  | Ok (Json.Obj fields) when List.mem_assoc "__spans" fields ->
    let env = List.assoc "__spans" fields in
    let rest =
      List.filter_map
        (fun (k, v) ->
          if k = "__spans" then None
          else if k = "id" then Some (k, id)
          else Some (k, v))
        fields
    in
    let tree =
      match Option.bind (Json.member "seq" env) Json.to_num with
      | Some s when int_of_float s = seq ->
        Option.bind (Json.member "tree" env) Reqtrace.tree_of_json
      | _ -> None
    in
    (Json.to_compact_string (Json.Obj rest), tree)
  | Ok _ | Error _ -> (line, None)

(* Send named requests to their shards in one fan-out and map each
   outcome — the worker's reply, a hard-deadline kill, a lost worker —
   to the request's response. With [tracing] the request carries the
   tracing envelope and the worker's span subtree is grafted under the
   parent's round trip. *)
let route (pool : Supervise.t) ~(tracing : bool) ~(seq_of : int -> int)
    (rqs : (int * request) list) : answer list =
  let named, nameless =
    List.partition_map
      (fun (i, rq) ->
        match member_str "name" rq.rq_body with
        | Some name -> Left (i, name, rq)
        | None -> Right (i, rq))
      rqs
  in
  let forward i (rq : request) =
    match rq.rq_body with
    | Json.Obj fields when tracing ->
      Json.to_compact_string
        (Json.Obj
           (fields
           @ [ ("__trace", Json.Bool true);
               ("__seq", Json.Num (float_of_int (seq_of i))) ]))
    | body -> Json.to_compact_string body
  in
  let outcomes =
    Supervise.request_many_timed pool
      (List.map (fun (i, name, rq) -> (i, name, forward i rq)) named)
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  (* Without a name there is no shard; only an [analyze] gets here
     nameless. *)
  List.map
    (fun (i, (rq : request)) ->
      answered i rq
        (Json.to_compact_string
           (plain_error rq.rq_id (rq.rq_op ^ " needs a \"name\" field")))
        0.0)
    nameless
  @ List.map2
      (fun (i, name, rq) (_, outcome, dur) ->
        let line, wtree =
          match outcome with
          | Supervise.Reply l ->
            if tracing then strip_spans ~seq:(seq_of i) ~id:rq.rq_id l
            else (l, None)
          | Supervise.Deadline s ->
            (Json.to_compact_string (deadline_response rq.rq_id ~name s), None)
          | Supervise.Lost d ->
            ( Json.to_compact_string (worker_lost_response rq.rq_id ~name d),
              None )
        in
        let tree =
          if tracing then
            Some
              (Reqtrace.graft ~shard:(Supervise.shard_of pool name)
                 ~roundtrip_ns:(Int64.of_float (dur *. 1e9))
                 wtree)
          else None
        in
        answered ?tree i rq line dur)
      named outcomes

(* A control request that is not routed. Under [--workers], [stats]
   and [metrics] broadcast and merge, a nameless [invalidate] clears
   every shard and [resize] is refused; everything else runs here. *)
let control (dispatcher : dispatcher) (stop : bool ref) (rq : request) :
    Json.t =
  let broadcast pool =
    Supervise.broadcast pool (Json.to_compact_string rq.rq_body)
  in
  match (dispatcher, rq.rq_op) with
  | Sharded pool, "stats" -> merge_stats pool rq.rq_id (broadcast pool)
  | Sharded pool, "metrics" -> metrics_response ~pool rq.rq_id (broadcast pool)
  | Sharded pool, "invalidate" ->
    ignore (broadcast pool);
    ok_response rq.rq_id [ ("cleared", Json.Bool true) ]
  | Sharded _, "resize" ->
    plain_error rq.rq_id
      "resize is unavailable with --workers; restart the daemon to change \
       the worker count"
  | _ -> execute stop rq ()

(* Requests answered since startup; the source of [__seq], the request
   id the daemon assigns at ingress. Only written from the sequential
   batch path. *)
let req_seq = ref 0

let handle_batch ?(deadline_s : float option) ?(dispatcher = Local)
    (stop : bool ref) (lines : string list) : string list =
  let n = List.length lines in
  let tracing = Obs.Probe.enabled () && Reqtrace.slow_ms () <> None in
  let seq_base = !req_seq in
  req_seq := !req_seq + n;
  let seq_of i = seq_base + i in
  let reject (i, (rq : request)) =
    answered i rq
      (Json.to_compact_string (plain_error rq.rq_id "server is shutting down"))
      0.0
  in
  let answers =
    List.concat_map
      (fun group ->
        match (group, dispatcher) with
        | Malformed (i, id, msg), _ ->
          [ answered i { rq_id = id; rq_op = "malformed"; rq_body = Json.Null }
              (Json.to_compact_string (plain_error id msg)) 0.0 ]
        | Analyzes rqs, _ when !stop -> List.map reject rqs
        | Control (i, rq), _ when !stop -> [ reject (i, rq) ]
        | Analyzes rqs, Local -> fan_out ?deadline_s stop rqs
        | Analyzes rqs, Sharded pool -> route pool ~tracing ~seq_of rqs
        | Control (i, ({ rq_op = "scores" | "invalidate"; _ } as rq)),
          Sharded pool
          when member_str "name" rq.rq_body <> None ->
          route pool ~tracing ~seq_of [ (i, rq) ]
        | Control (i, rq), _ ->
          let resp, root, dur =
            timed (fun () -> control dispatcher stop rq)
          in
          [ answered ~root i rq (Json.to_compact_string resp) dur ])
      (group_requests lines)
  in
  (* Resolve telemetry after the last fan-out: record every request's
     latency, then slow-log anything over threshold with its merged
     tree. One span dump serves the whole batch; dropping the spans
     afterwards is what keeps a long-running daemon's memory bounded. *)
  if Obs.Probe.enabled () then begin
    let spans = lazy (Obs.Probe.spans ()) in
    let threshold = Reqtrace.slow_ms () in
    List.iter
      (fun (_, _, rt) ->
        Obs.Hist.observe "serve.request.ns"
          (int_of_float (rt.rt_dur_s *. 1e9));
        let ms = rt.rt_dur_s *. 1000.0 in
        match threshold with
        | Some t when ms >= t ->
          let tree =
            match rt.rt_tree with
            | Some _ as tr -> tr
            | None when rt.rt_root >= 0 ->
              Reqtrace.tree_of_root rt.rt_root (Lazy.force spans)
            | None -> None
          in
          Reqtrace.note_slow ~id:rt.rt_id ~op:rt.rt_op ~name:rt.rt_name ~ms
            tree
        | _ -> ())
      answers;
    Obs.Probe.reset_spans ()
  end;
  let responses = Array.make n "" in
  List.iter (fun (i, line, _) -> responses.(i) <- line) answers;
  Array.to_list responses

(* ------------------------------------------------------------------ *)
(* Carriers. *)

(* Error responses for raw lines that will not run: shed at admission,
   or still queued when a drain began. *)
let refuse (error : Json.t -> Json.t) (lines : string list) : string list =
  List.map (fun line -> Json.to_compact_string (error (line_id line))) lines

let shed_responses ~(queue_limit : int) (lines : string list) :
    string list =
  List.iter (fun _ -> Obs.Probe.count "serve.shed") lines;
  refuse (overloaded_response ~queue_limit) lines

(* Drain state shared by the carriers and [run]'s signal handlers: a
   SIGTERM/SIGINT sets [drain], and carriers stop at the next batch
   boundary; [in_batch] is true while a batch executes. *)
let drain = ref false
let in_batch = ref false

(* The stdio carrier: one client, batches processed as they arrive.
   Returns on EOF, after a [shutdown] batch, or at the first batch
   boundary after a drain signal. Tests drive it directly; [run] adds
   the signal handling and the exit. *)
let serve ?(deadline_s : float option) ?(dispatcher = Local)
    ?(queue_limit = max_int) (ic : in_channel) (oc : out_channel) : unit =
  let t = Transport.of_channels ic oc in
  let stop = ref false in
  let rec loop () =
    if not (!stop || !drain) then
      match t.Transport.read_batch () with
      | None -> ()
      | Some lines ->
        let n = List.length lines in
        Obs.Probe.set_gauge "serve.queue_depth" (float_of_int n);
        in_batch := true;
        let responses =
          if n > queue_limit then shed_responses ~queue_limit lines
          else handle_batch ?deadline_s ~dispatcher stop lines
        in
        in_batch := false;
        t.Transport.write_lines responses;
        Obs.Probe.set_gauge "serve.queue_depth" 0.0;
        after_batch ();
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The full daemon: [bin serve]. *)

type config = {
  c_socket : string option;   (* Unix-domain socket path; None = stdio *)
  c_store : string option;    (* durable store directory *)
  c_workers : int;            (* 0 = in-process *)
  c_deadline_s : float option;
  c_queue_limit : int;        (* pending-request admission limit *)
  c_budget_bytes : int;
  c_jobs : int;
  c_slow_ms : float option;   (* slow-request log threshold *)
  c_slow_log : string option; (* NDJSON sink for slow entries *)
}

let finalize_and_exit ~(dispatcher : dispatcher) () : 'a =
  (* Stop accepting; workers see EOF, take their final snapshot and
     exit — the blocking stop is the journal-flush barrier. *)
  (match dispatcher with
  | Sharded pool -> Supervise.stop pool
  | Local -> ());
  Incr.close_store ();
  after_batch ();
  if !faults_total > 0 then
    Printf.eprintf "serve: drained with %d recorded fault(s)\n%!"
      !faults_total;
  exit (if !faults_total > 0 then Fault.degraded_exit_code else 0)

(* Socket carrier: a select loop multiplexing the listener and every
   client connection. Completed batches queue for execution (bounded by
   [queue_limit] *requests*, not batches; past it a whole batch is shed
   with per-request [overloaded] errors); one batch executes per loop
   turn, so accept/read latency stays bounded by one batch. *)
let serve_socket ~(dispatcher : dispatcher) ?(deadline_s : float option)
    ~(queue_limit : int) (path : string) : 'a =
  let listener = Transport.listen_unix path in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> drain := true));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conns : (Unix.file_descr, Transport.Conn.conn) Hashtbl.t =
    Hashtbl.create 16
  in
  let pending : (Transport.Conn.conn * string list) Queue.t =
    Queue.create ()
  in
  let queued = ref 0 in
  let stop = ref false in
  let publish_depth () =
    Obs.Probe.set_gauge "serve.queue_depth" (float_of_int !queued)
  in
  let admit conn lines =
    let k = List.length lines in
    if !queued + k > queue_limit then
      Transport.Conn.write_lines conn (shed_responses ~queue_limit lines)
    else begin
      Queue.add (conn, lines) pending;
      queued := !queued + k;
      publish_depth ()
    end
  in
  let drain_and_exit () =
    (* Admitted-but-unstarted batches get typed errors, not silence. *)
    Queue.iter
      (fun (conn, lines) ->
        Transport.Conn.write_lines conn
          (refuse (fun id -> plain_error id "server is shutting down") lines))
      pending;
    Hashtbl.iter (fun _ c -> Transport.Conn.close c) conns;
    (try Unix.close listener with Unix.Unix_error _ -> ());
    (try Sys.remove path with Sys_error _ -> ());
    finalize_and_exit ~dispatcher ()
  in
  let rec loop () =
    if !drain || !stop then drain_and_exit ();
    let fds =
      listener :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    let timeout = if Queue.is_empty pending then -1.0 else 0.0 in
    (match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = listener then (
            match Unix.accept listener with
            | cfd, _ -> Hashtbl.replace conns cfd (Transport.Conn.create cfd)
            | exception Unix.Unix_error _ -> ())
          else
            match Hashtbl.find_opt conns fd with
            | None -> ()
            | Some conn ->
              List.iter (admit conn) (Transport.Conn.feed conn);
              if Transport.Conn.closed conn then begin
                Hashtbl.remove conns fd;
                Transport.Conn.close conn
              end)
        readable);
    if (not (Queue.is_empty pending)) && not !drain then begin
      let conn, lines = Queue.pop pending in
      queued := !queued - List.length lines;
      publish_depth ();
      let responses = handle_batch ?deadline_s ~dispatcher stop lines in
      Transport.Conn.write_lines conn responses;
      after_batch ()
    end;
    loop ()
  in
  loop ()

let run (config : config) : 'a =
  (* The daemon IS the telemetry plane: probes record from the first
     request. Span memory stays bounded through the per-batch
     [reset_spans] in [handle_batch]; counters, gauges and histograms
     accumulate for the daemon's life and surface through [metrics].
     Enabled before the worker forks, so shards inherit it. *)
  Obs.Probe.set_enabled true;
  Reqtrace.set_slow_ms config.c_slow_ms;
  Reqtrace.set_slow_sink config.c_slow_log;
  Parallel.set_jobs config.c_jobs;
  Incr.set_budget config.c_budget_bytes;
  let dispatcher =
    if config.c_workers > 0 then begin
      (* Workers each attach one shard directory; the parent only
         routes, so it opens no store and must not spawn domains before
         the forks. The lazy [Parallel] pool guarantees this when [run]
         is the process entry point: the sharded paths never call
         [Parallel]. The constraint is unforgiving — OCaml 5 refuses
         [fork] in a process that has EVER spawned a domain, even after
         they are joined — so a hosting process that already fanned out
         cannot start a sharded server; [Supervise.start] will raise,
         loudly, rather than limp. *)
      (match config.c_store with
      | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
      | _ -> ());
      let pool =
        Supervise.start ~workers:config.c_workers
          ?deadline_s:(Option.map (fun d -> d +. 1.0) config.c_deadline_s)
          ~init:(fun ~shard ->
            Incr.set_budget config.c_budget_bytes;
            (match config.c_store with
            | None -> ()
            | Some dir ->
              ignore
                (Incr.open_store
                   (Filename.concat dir (Printf.sprintf "shard-%d" shard)))))
          ~finalize:(fun ~shard:_ -> Incr.close_store ())
          ~handler:(handle_one_line ?deadline_s:config.c_deadline_s)
          ()
      in
      Sharded pool
    end
    else begin
      (match config.c_store with
      | None -> ()
      | Some dir ->
        let r = Incr.open_store dir in
        if r.Incr.rs_truncated then
          prerr_endline
            "serve: store tail truncated on load (torn or corrupt entry)";
        Printf.eprintf "serve: restored %d entr%s from %s\n%!"
          r.Incr.rs_restored
          (if r.Incr.rs_restored = 1 then "y" else "ies")
          dir);
      Local
    end
  in
  match config.c_socket with
  | Some path ->
    serve_socket ~dispatcher ?deadline_s:config.c_deadline_s
      ~queue_limit:config.c_queue_limit path
  | None ->
    (* A drain signal landing while idle (blocked in read) finalizes
       directly from the handler; landing mid-batch it defers to the
       batch boundary, honouring "finish the in-flight batch". *)
    let on_signal (_ : int) =
      if !in_batch then drain := true else finalize_and_exit ~dispatcher ()
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    serve ~dispatcher ?deadline_s:config.c_deadline_s
      ~queue_limit:config.c_queue_limit stdin stdout;
    finalize_and_exit ~dispatcher ()

(* ------------------------------------------------------------------ *)
(* A scripting client for the socket carrier: forward stdin's batches
   to the daemon, print one response line per request, exit 0. Exists
   so shell tests and CI need no netcat. Requests are counted as they
   are forwarded; responses are read after stdin closes (fine for the
   small scripted batches this is for — not a streaming proxy). *)

let client ~(socket : string) : 'a =
  let fd = Transport.connect_unix socket in
  let sock_ic = Unix.in_channel_of_descr fd in
  let sock_oc = Unix.out_channel_of_descr fd in
  let expected = ref 0 in
  (try
     while true do
       let line = input_line stdin in
       output_string sock_oc line;
       output_char sock_oc '\n';
       if line <> "" then incr expected
     done
   with End_of_file -> ());
  (* Close the final batch whether or not the input did. *)
  output_char sock_oc '\n';
  flush sock_oc;
  let rec read_replies n =
    if n > 0 then
      match input_line sock_ic with
      | exception End_of_file ->
        prerr_endline "serve client: daemon closed the connection early";
        exit 1
      | line ->
        print_endline line;
        read_replies (n - 1)
  in
  read_replies !expected;
  exit 0
