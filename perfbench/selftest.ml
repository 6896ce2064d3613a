(* The benchmark's own test: every output check passes on a real result
   and fails on a deliberately corrupted one. Exit code 0 when each
   expectation holds. *)

module J = Obs.Json
module Run_record = Driver.Run_record

let failed = ref 0

let expect (what : string) (ok : bool) : unit =
  Printf.printf "%s  %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failed

(* Whether [check] records a failure. *)
let catches (check : Common.failures -> unit) : bool =
  let f = Common.failures () in
  check f;
  f.Common.n > 0

let replace ~(sub : string) ~(by : string) (s : string) : string =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("Selftest.replace: no " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let suite () =
  let baseline = Wl_suite.load_baseline () in
  let check r = Wl_suite.check ~baseline r in
  expect "suite: the baseline checked against itself passes" (check baseline = []);
  let first, rest =
    match baseline.Run_record.r_scores with
    | s :: rest -> (s, rest)
    | [] -> failwith "empty baseline"
  in
  let nudged = { first with Driver.Score.s_value = Float.succ first.Driver.Score.s_value } in
  expect "suite: a score one ulp off is caught"
    (check { baseline with Run_record.r_scores = nudged :: rest } <> []);
  expect "suite: a missing score is caught"
    (check { baseline with Run_record.r_scores = rest } <> []);
  expect "suite: a degraded program is caught"
    (check { baseline with Run_record.r_degraded = [ (first.Driver.Score.s_program, "profile") ] }
     <> [])

let corpus () =
  let spec =
    { Driver.Corpus_eval.c_seed = 1; c_per_class = 2; c_size = Corpus.Shape.small;
      c_classes = Corpus.Shape.all_classes }
  in
  let p1 = Wl_corpus.pass spec in
  let scores = Driver.Score.all () in
  let p2 = Wl_corpus.pass spec in
  let d1 = p1.Wl_corpus.digest in
  expect "corpus: a clean evaluation passes and repeats its digest"
    (p1.Wl_corpus.bad = [] && p2.Wl_corpus.bad = [] && d1 = p2.Wl_corpus.digest);
  let corrupted =
    match scores with
    | s :: rest -> { s with Driver.Score.s_value = s.Driver.Score.s_value +. 1.0 } :: rest
    | [] -> []
  in
  expect "corpus: a changed score changes the digest" (Common.score_digest corrupted <> d1);
  let o = Driver.Corpus_eval.evaluate spec in
  expect "corpus: a degraded row is caught"
    (Wl_corpus.row_failures { o with Driver.Corpus_eval.o_degraded = [ ("row", "compile") ] } <> []);
  expect "corpus: a divergent row is caught"
    (Wl_corpus.row_failures { o with Driver.Corpus_eval.o_divergent = 1 } <> [])

let serve () =
  let open Wl_serve in
  let progs = Array.of_list (programs 1) in
  let p = progs.(Array.length progs - 1) in
  Driver.Incr.clear ();
  let stop = ref false in
  let handle line = List.hd (Driver.Serve.handle_batch stop [ line ]) in
  reset_edits [| p |];
  ignore (handle (analyze_line ~id:(J.Str "prime") ~name:p.name p.original));
  p.edits.(0) <- Some 123_456;
  let source = render p in
  let line = analyze_line ~id:(J.Num 0.0) ~name:p.name source in
  let edit = { r_prog = p; r_source = source; r_line = line; r_edit = Some p.site_fns.(0) } in
  let again = { edit with r_edit = None } in
  let edited = handle line in
  let reanalyzed = handle line in
  let check rq response f = ignore (check_response f rq ~index:0 response) in
  expect "serve: a real edit response passes" (not (catches (check edit edited)));
  expect "serve: a real unchanged re-analyze passes" (not (catches (check again reanalyzed)));
  expect "serve: a response that is not ok is caught"
    (catches (check edit (replace ~sub:{|"ok":true|} ~by:{|"ok":false|} edited)));
  expect "serve: an edit with the wrong number of function misses is caught"
    (catches
       (check edit
          (replace ~sub:(Printf.sprintf {|"fn_misses":%d|} kinds_per_edit)
             ~by:{|"fn_misses":4|} edited)));
  expect "serve: an edit answered from the program cache is caught"
    (catches (check edit reanalyzed));
  expect "serve: a re-analyze that misses the program cache is caught"
    (catches (check again edited));
  expect "serve: a response to another request is caught"
    (catches (fun f -> ignore (check_response f edit ~index:1 edited)));
  let scores_of response =
    match Option.bind (Result.to_option (J.parse response)) (J.member "scores") with
    | Some s -> s
    | None -> failwith "no scores in the response"
  in
  let last = Hashtbl.create 1 in
  Hashtbl.replace last p.name (J.to_compact_string (scores_of edited));
  expect "serve: final scores equal to a cold analyze pass"
    (not (catches (fun f -> ignore (check_final f [| p |] last))));
  let corrupted =
    match scores_of edited with
    | J.Arr (J.Obj fields :: rest) ->
      let fields =
        List.map
          (function
            | "value", J.Num v -> ("value", J.Num (v +. 1.0))
            | field -> field)
          fields
      in
      J.Arr (J.Obj fields :: rest)
    | _ -> failwith "unexpected scores"
  in
  Hashtbl.replace last p.name (J.to_compact_string corrupted);
  expect "serve: final scores that differ from a cold analyze are caught"
    (catches (fun f -> ignore (check_final f [| p |] last)))

let companions () =
  let result value =
    { Common.workload = "selftest"; seed = 0; traced = false;
      env = Common.env_block ~jobs:1 ~seed:0 []; attempted = 1; failed = 0;
      failures = []; metrics = []; companions = [ ("count", value) ]; notes = [] }
  in
  Common.remove_tree (Common.out_path "companions-selftest-seed0-trace0.json");
  ignore (Common.check_companions (result "1"));
  expect "companions: a repeat with equal counts passes"
    (List.assoc "companions_repeat" (Common.check_companions (result "1")) = J.Bool true);
  expect "companions: a repeat with a different count is reported"
    (List.assoc "companions_repeat" (Common.check_companions (result "2")) = J.Bool false);
  Common.remove_tree (Common.out_path "companions-selftest-seed0-trace0.json")

(* The metrics the benchmark prints are the ones BENCHMARK.json lists,
   with the same units and in the same order. *)
let declared () =
  let ic = open_in_bin "BENCHMARK.json" in
  let j = J.parse_exn (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let listed key =
    List.map
      (fun m ->
        match (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "unit" m) J.to_str) with
        | Some n, Some u -> (n, u)
        | _ -> failwith "BENCHMARK.json: a metric without name or unit")
      (Option.value ~default:[] (Option.bind (J.member key j) J.to_list))
  in
  expect "BENCHMARK.json lists the end-to-end metrics the benchmark prints"
    (listed "end_to_end" = Common.end_to_end);
  expect "BENCHMARK.json lists the per-layer metrics the benchmark prints"
    (listed "per_layer" = Layers.per_layer)

let run () : int =
  Driver.Parallel.set_jobs 1;
  suite ();
  corpus ();
  serve ();
  companions ();
  declared ();
  Printf.printf "%s\n" (if !failed = 0 then "self-test passed" else "self-test FAILED");
  if !failed = 0 then 0 else 1
