(* The supervised worker pool, exercised with real forked children:
   routing is stable, a murdered worker is restarted and its in-flight
   request replayed once, a request that kills its worker twice comes
   back as a typed [Lost] instead of hanging, a silent worker is
   SIGKILLed at the deadline, chaos kills are a pure function of
   (seed, point, key) so the doomed set is predictable from the parent,
   and a crash-looping shard trips the circuit breaker instead of
   fork-bombing.

   This suite runs as its own executable, apart from [test_main]: OCaml 5
   refuses [Unix.fork] in any process that has ever spawned a domain —
   joining the domains does not lift the ban — and the main runner's
   earlier suites fan out on [Driver.Parallel]. The same constraint is
   why [serve --workers] forks before its first fan-out. Nothing in this
   process may call [Parallel.map] before a pool starts. *)

module Supervise = Driver.Supervise

let nop_finalize ~shard:_ = ()

let with_pool ?deadline_s ?max_consecutive_crashes ~workers ?(init = fun ~shard:_ -> ())
    handler (f : Supervise.t -> 'a) : 'a =
  let pool =
    Supervise.start ~workers ?deadline_s ?max_consecutive_crashes ~init
      ~finalize:nop_finalize ~handler ()
  in
  Fun.protect ~finally:(fun () -> Supervise.stop pool) (fun () -> f pool)

let reply_exn = function
  | Supervise.Reply s -> s
  | Supervise.Deadline d -> Alcotest.failf "unexpected Deadline %g" d
  | Supervise.Lost msg -> Alcotest.failf "unexpected Lost: %s" msg

(* --- plumbing ---------------------------------------------------------- *)

let test_echo_roundtrip () =
  with_pool ~workers:3 (fun line -> "echo:" ^ line) (fun pool ->
      Alcotest.(check int) "pool size" 3 (Supervise.size pool);
      Alcotest.(check int) "all workers alive" 3 (Supervise.alive pool);
      Alcotest.(check string) "single request" "echo:hello"
        (reply_exn (Supervise.request pool ~key:"k1" "hello"));
      let reqs = List.init 20 (fun i -> (i, Printf.sprintf "key-%d" i,
                                         Printf.sprintf "msg-%d" i)) in
      let replies = Supervise.request_many pool reqs in
      Alcotest.(check int) "every slot answered" 20 (List.length replies);
      List.iter
        (fun (slot, outcome) ->
          Alcotest.(check string)
            (Printf.sprintf "slot %d" slot)
            (Printf.sprintf "echo:msg-%d" slot)
            (reply_exn outcome))
        replies;
      Alcotest.(check int) "no restarts in a clean run" 0
        (Supervise.restarts pool))

let test_broadcast () =
  (* each child learns its shard in [init]; the closure mutation happens
     after fork, so every worker sees only its own value *)
  let my_shard = ref (-1) in
  with_pool ~workers:3 ~init:(fun ~shard -> my_shard := shard)
    (fun line -> Printf.sprintf "%d:%s" !my_shard line)
    (fun pool ->
      let replies = Supervise.broadcast pool "ping" in
      Alcotest.(check int) "one reply per shard" 3 (List.length replies);
      List.iter
        (fun (shard, outcome) ->
          Alcotest.(check string)
            (Printf.sprintf "shard %d" shard)
            (Printf.sprintf "%d:ping" shard)
            (reply_exn outcome))
        replies)

let test_routing_is_stable () =
  with_pool ~workers:4 (fun line -> line) (fun pool ->
      List.iter
        (fun key ->
          let a = Supervise.shard_of pool key in
          let b = Supervise.shard_of pool key in
          Alcotest.(check int) ("routing of " ^ key) a b;
          Alcotest.(check bool) "in range" true (a >= 0 && a < 4))
        [ "alpha"; "beta"; "gamma"; "delta"; "" ])

(* --- crash recovery ---------------------------------------------------- *)

let test_external_kill_replays () =
  with_pool ~workers:2 (fun line -> "ok:" ^ line) (fun pool ->
      let key = "victim-key" in
      let shard = Supervise.shard_of pool key in
      let pid = List.nth (Supervise.pids pool) shard in
      Unix.kill pid Sys.sigkill;
      (* the next request on that shard hits a dead worker: the pool
         must notice, restart, replay, and still answer *)
      Alcotest.(check string) "request survives an external SIGKILL"
        ("ok:" ^ key)
        (reply_exn (Supervise.request pool ~key key));
      Alcotest.(check bool) "a restart was recorded" true
        (Supervise.restarts pool >= 1);
      Alcotest.(check int) "pool is whole again" 2 (Supervise.alive pool))

let suicide_handler line =
  if String.length line >= 3 && String.sub line 0 3 = "die" then
    Unix.kill (Unix.getpid ()) Sys.sigkill;
  "ok:" ^ line

let test_poison_request_is_lost () =
  with_pool ~workers:2 ~max_consecutive_crashes:10 suicide_handler
    (fun pool ->
      (match Supervise.request pool ~key:"die-1" "die-1" with
      | Supervise.Lost _ -> ()
      | Supervise.Reply r -> Alcotest.failf "poison request replied %S" r
      | Supervise.Deadline _ -> Alcotest.fail "poison request hit deadline");
      Alcotest.(check int) "exactly one lost request" 1
        (Supervise.lost pool);
      Alcotest.(check bool) "kill + replay-kill = two restarts" true
        (Supervise.restarts pool >= 2);
      (* the pool is not poisoned: ordinary traffic still flows,
         including on the shard the poison request crashed *)
      List.iter
        (fun key ->
          Alcotest.(check string) key ("ok:" ^ key)
            (reply_exn (Supervise.request pool ~key key)))
        [ "a"; "b"; "c"; "d" ])

let test_deadline_kills_silent_worker () =
  let handler line =
    if line = "stall" then Unix.sleepf 30.0;
    "ok:" ^ line
  in
  with_pool ~workers:1 ~deadline_s:0.3 handler (fun pool ->
      (match Supervise.request pool ~key:"slow" "stall" with
      | Supervise.Deadline d ->
        Alcotest.(check bool) "deadline value is the configured one" true
          (d >= 0.25 && d < 5.0)
      | Supervise.Reply r -> Alcotest.failf "stalled request replied %S" r
      | Supervise.Lost msg -> Alcotest.failf "stalled request lost: %s" msg);
      (* a deadline kill is not a crash: the worker is respawned and the
         shard keeps serving *)
      Alcotest.(check string) "shard recovered after the deadline kill"
        "ok:after"
        (reply_exn (Supervise.request pool ~key:"next" "after")))

let test_circuit_breaker () =
  let always_die _line = Unix.kill (Unix.getpid ()) Sys.sigkill; "" in
  with_pool ~workers:1 ~max_consecutive_crashes:2 always_die (fun pool ->
      (match Supervise.request pool ~key:"k" "boom" with
      | Supervise.Lost _ -> ()
      | _ -> Alcotest.fail "crash-looping request must be Lost");
      let restarts_after_trip = Supervise.restarts pool in
      (* breaker is open: further requests fail fast, no more forks *)
      (match Supervise.request pool ~key:"k2" "boom" with
      | Supervise.Lost _ -> ()
      | _ -> Alcotest.fail "open breaker must fail fast");
      Alcotest.(check int) "no restarts once the breaker is open"
        restarts_after_trip (Supervise.restarts pool);
      Alcotest.(check int) "the shard is marked dead" 0
        (Supervise.alive pool))

(* --- chaos determinism -------------------------------------------------- *)

let chaos_point = "test.supervise-kill"

let test_chaos_doom_set_is_deterministic () =
  Obs.Inject.register chaos_point;
  let keys = List.init 10 (fun i -> Printf.sprintf "prog-%c" (Char.chr (97 + i))) in
  let handler line =
    (* the child inherited the armed registry at fork: the decision is a
       pure hash of (seed, point, key), so a replayed doomed request is
       doomed again *)
    if Obs.Inject.should_fire chaos_point ~key:line then
      Unix.kill (Unix.getpid ()) Sys.sigkill;
    "ok:" ^ line
  in
  let run_pool () =
    with_pool ~workers:2 ~max_consecutive_crashes:100 handler (fun pool ->
        List.filter_map
          (fun key ->
            match Supervise.request pool ~key key with
            | Supervise.Lost _ -> Some key
            | Supervise.Reply _ -> None
            | Supervise.Deadline _ ->
              Alcotest.failf "unexpected deadline on %s" key)
          keys)
  in
  Fun.protect ~finally:Obs.Inject.disarm_all (fun () ->
      Obs.Inject.arm_chaos ~seed:42 ();
      (* the parent can predict the doomed set without forking anything:
         should_fire is pure under chaos arming *)
      let expected =
        List.filter (fun k -> Obs.Inject.should_fire chaos_point ~key:k) keys
      in
      Alcotest.(check bool) "seed 42 dooms at least one key" true
        (expected <> []);
      Alcotest.(check bool) "seed 42 spares at least one key" true
        (List.length expected < List.length keys);
      let first = run_pool () in
      let second = run_pool () in
      Alcotest.(check (list string))
        "lost set matches the parent's prediction" expected first;
      Alcotest.(check (list string))
        "two pools under one seed lose the same keys" first second)

(* --- the serve engine over a real pool ---------------------------------- *)

(* [Serve.handle_batch] with a 2-worker pool behind it: the routed
   answers must be byte-identical to the in-process ones, [stats] and
   [metrics] must merge across shards, and the merged request histogram
   must count each request once — at the parent, never again in a
   worker. Jobs stay at 1 so the in-process leg spawns no domain. *)

module Serve = Driver.Serve
module Json = Obs.Json

let req fields = Json.to_compact_string (Json.Obj fields)

let named_req id op name =
  req [ ("id", Json.Num (float_of_int id)); ("op", Json.Str op);
        ("name", Json.Str name) ]

let analyze_req id name source =
  req [ ("id", Json.Num (float_of_int id)); ("op", Json.Str "analyze");
        ("name", Json.Str name); ("source", Json.Str source) ]

let num_at path j =
  match
    Option.bind
      (List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j)
         path)
      Json.to_num
  with
  | Some v -> v
  | None -> Alcotest.failf "missing numeric field %s" (String.concat "." path)

let test_serve_sharded_matches_local () =
  Driver.Parallel.set_jobs 1;
  Obs.Hist.reset ();
  Obs.Probe.reset ();
  Obs.Probe.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Probe.set_enabled false;
      Obs.Probe.reset ();
      Obs.Hist.reset ();
      Driver.Fault.reset ();
      Driver.Incr.clear ())
  @@ fun () ->
  (* Every function body distinct, so no two programs share a
     content-addressed entry: per-shard stores then sum to the
     in-process store exactly. *)
  let progs =
    [ ("alpha", "int main() { return 1; }\n");
      ("beta", "int b(int x) { return x * 2; }\nint main() { return b(2); }\n");
      ("gamma", "int c(int x) { if (x > 1) return x; return 0 - x; }\nint main() { return c(5) + 7; }\n");
      ("delta", "int d(int y) { int s; s = 0; while (y > 0) { s = s + y; y = y - 1; } return s; }\nint main() { return d(4); }\n") ]
  in
  let batches =
    [ List.mapi (fun i (name, src) -> analyze_req (i + 1) name src) progs
      @ [ analyze_req 5 "broken" "int main( {";
          req [ ("id", Json.Num 6.); ("op", Json.Str "analyze") ] ];
      [ named_req 7 "scores" "alpha"; named_req 8 "invalidate" "beta";
        named_req 9 "scores" "beta"; named_req 10 "scores" "gamma";
        req [ ("id", Json.Num 11.); ("op", Json.Str "scores") ] ] ]
  in
  let sent = List.length (List.concat batches) in
  let stats_line = req [ ("id", Json.Num 12.); ("op", Json.Str "stats") ] in
  let metrics_line = req [ ("id", Json.Num 13.); ("op", Json.Str "metrics") ] in
  let run ?dispatcher lines =
    List.map Json.parse_exn (Serve.handle_batch ?dispatcher (ref false) lines)
  in
  let pool =
    Supervise.start ~workers:2 ~init:(fun ~shard:_ -> ())
      ~finalize:nop_finalize
      ~handler:(fun line -> Serve.handle_one_line line)
      ()
  in
  let routed, stats, metrics =
    Fun.protect ~finally:(fun () -> Supervise.stop pool) @@ fun () ->
    let shards =
      List.sort_uniq compare
        (List.map (fun (name, _) -> Supervise.shard_of pool name) progs)
    in
    Alcotest.(check (list int)) "the programs land on both shards" [ 0; 1 ]
      shards;
    let dispatcher = Serve.Sharded pool in
    let routed =
      List.concat_map
        (Serve.handle_batch ~dispatcher (ref false))
        batches
    in
    let stats = List.hd (run ~dispatcher [ stats_line ]) in
    let metrics = List.hd (run ~dispatcher [ metrics_line ]) in
    (routed, stats, metrics)
  in
  Driver.Fault.reset ();
  let local = List.concat_map (Serve.handle_batch (ref false)) batches in
  Alcotest.(check (list string)) "routed answers are the in-process answers"
    local routed;
  let local_stats = List.hd (run [ stats_line ]) in
  List.iter
    (fun field ->
      Alcotest.(check (float 0.))
        ("merged stats." ^ field ^ " sums the shards")
        (num_at [ field ] local_stats) (num_at [ field ] stats))
    [ "entries"; "bytes"; "hits"; "misses" ];
  Alcotest.(check (float 0.)) "stats reports the pool" 2.
    (num_at [ "workers" ] stats);
  Alcotest.(check (float 0.)) "metrics reports the pool" 2.
    (num_at [ "workers" ] metrics);
  Alcotest.(check int) "metrics has one row per shard" 2
    (match Json.member "shards" metrics with
    | Some (Json.Arr rows) -> List.length rows
    | _ -> -1);
  Alcotest.(check (float 0.)) "worker cache counters merge"
    (num_at [ "misses" ] stats)
    (num_at [ "counters"; "incr.miss"; "hits" ] metrics);
  Alcotest.(check (float 0.)) "serve.request.ns counts each request once"
    (float_of_int (sent + 1))
    (num_at [ "hists"; "serve.request.ns"; "count" ] metrics)

(* --- registration ------------------------------------------------------- *)

let suite =
  [ Alcotest.test_case "echo roundtrip across shards" `Quick
      test_echo_roundtrip;
    Alcotest.test_case "broadcast reaches every shard" `Quick test_broadcast;
    Alcotest.test_case "routing is stable" `Quick test_routing_is_stable;
    Alcotest.test_case "external SIGKILL: restart + replay" `Quick
      test_external_kill_replays;
    Alcotest.test_case "poison request becomes a typed Lost" `Quick
      test_poison_request_is_lost;
    Alcotest.test_case "deadline SIGKILLs a silent worker" `Slow
      test_deadline_kills_silent_worker;
    Alcotest.test_case "crash loop trips the circuit breaker" `Slow
      test_circuit_breaker;
    Alcotest.test_case "chaos doom set is deterministic" `Slow
      test_chaos_doom_set_is_deterministic;
    Alcotest.test_case "serve: routed answers equal in-process ones" `Quick
      test_serve_sharded_matches_local ]

let () =
  Alcotest.run "static-estimators-supervise" [ ("supervise", suite) ]
