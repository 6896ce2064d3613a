(* Benchmark harness.

   Three parts:
   1. Reproduction: prints every table and figure of the paper's
      evaluation (the same rows/series, from the 14-program suite).
   2. Suite-throughput: wall-clock time of the whole suite pipeline
      (compile + profile + smart estimates), sequential vs parallel, and
      the resulting speedup (~1x on a single-core machine by design).
   3. Bechamel micro-benchmarks: one Test.make per table/figure, timing
      the analysis machinery that experiment exercises (the paper's claim
      that estimation runs at "conventional optimization" speed).

   Run everything:        dune exec bench/main.exe
   Only the timings:      dune exec bench/main.exe -- --bench-only
   Only the experiments:  dune exec bench/main.exe -- --repro-only
   Only profile bench:    dune exec bench/main.exe -- --profile-only
   Parallelism:           dune exec bench/main.exe -- --jobs 8
   Observability:         dune exec bench/main.exe -- --trace
                          dune exec bench/main.exe -- --metrics-out FILE
   Fault policy:          dune exec bench/main.exe -- --strict
                          dune exec bench/main.exe -- --chaos SEED

   Like bin/main.exe, a run that completes with recorded faults prints
   the fault summary to stderr and exits 3.

   The profile-throughput section times the closure-compiled back end
   that every profile runs on against the tree walker it is tested
   against, over every (program, input) pair of the suite at jobs 1 and
   jobs N, with the minor-heap words each allocates per work unit, and
   writes the numbers to BENCH_profile.json (path override:
   --profile-json FILE).

   --corpus sweeps the generated-corpus pipeline (generate + compile +
   profile + every estimator) over corpus size x jobs and writes
   BENCH_corpus.json (path override: --corpus-json FILE).

   --solver-only benchmarks the dense vs sparse Markov solvers over
   synthetic 10^3..10^5-node graphs and writes BENCH_solver.json (path
   override: --solver-json FILE); --solver MODE selects the solver used
   by the reproduction/throughput sections (dense, sparse or auto).

   --probe-overhead times one cold analysis pass under probes off /
   probes on / probes+histograms on, plus the per-call cost of the
   recording primitives, and writes BENCH_overhead.json (path
   override: --overhead-json FILE) — the numbers EXPERIMENTS.md quotes
   for the telemetry plane's cost.

   On a single-core machine every BENCH_*.json env block is tagged
   "single_core": "true" and a warning is printed, because jobs > 1 then
   adds domain-scheduling overhead without speedup — the documented
   jobs-4-slower-than-jobs-1 anomaly. *)

open Bechamel

module Pipeline = Core.Pipeline
module Cfg = Cfg_ir.Cfg
module Context = Driver.Context
module Parallel = Driver.Parallel

(* Pre-compiled inputs for the staged benchmark functions, drawn from the
   shared suite cache so the bench harness and the experiments never
   recompile the same program twice in one process. *)
let compile_bench name = (Context.by_name name).Context.compiled

let lisp = lazy (compile_bench "lisp_mini")
let compress = lazy (compile_bench "compress_mini")
let bison = lazy (compile_bench "bison_mini")
let cholesky = lazy (compile_bench "cholesky_mini")
let tree = lazy (compile_bench "tree_mini")

let lisp_source =
  lazy (Option.get (Suite.Registry.find "lisp_mini")).Suite.Bench_prog.source

(* The profile of compress's first run, via the same cache (profiles are
   stored in run order). *)
let compress_profile =
  lazy (List.hd (Context.by_name "compress_mini").Context.profiles)

let strchr_arrays =
  (* the Table 2 vectors *)
  ([| 5.0; 4.0; 0.8; 4.0; 1.0 |], [| 3.0; 3.0; 2.0; 1.0; 0.0 |])

let tests : Test.t list =
  [ Test.make ~name:"table1:front-end (lisp_mini parse+check+cfg)"
      (Staged.stage (fun () ->
           ignore (Pipeline.compile ~name:"lisp" (Lazy.force lisp_source))));
    Test.make ~name:"table2:weight-matching score"
      (Staged.stage (fun () ->
           let estimate, actual = strchr_arrays in
           ignore (Core.Weight_matching.score ~estimate ~actual ~cutoff:0.6)));
    Test.make ~name:"fig2:miss-rate tally (compress_mini)"
      (Staged.stage (fun () ->
           let c = Lazy.force compress in
           let prof = Lazy.force compress_profile in
           ignore
             (Core.Missrate.rate c.Pipeline.prog prof
                (Core.Missrate.smart_predictor c.Pipeline.prog))));
    Test.make ~name:"fig3:smart AST estimate (lisp_mini, all functions)"
      (Staged.stage (fun () ->
           let c = Lazy.force lisp in
           ignore (Pipeline.intra_table c Pipeline.Ismart)));
    Test.make ~name:"fig4:loop+smart+markov intra (bison_mini)"
      (Staged.stage (fun () ->
           let c = Lazy.force bison in
           ignore (Pipeline.intra_table c Pipeline.Iloop);
           ignore (Pipeline.intra_table c Pipeline.Ismart);
           ignore (Pipeline.intra_table c Pipeline.Imarkov)));
    Test.make ~name:"fig5a:simple inter estimators (lisp_mini)"
      (Staged.stage (fun () ->
           let c = Lazy.force lisp in
           let intra = Pipeline.intra_provider c Pipeline.Ismart in
           List.iter
             (fun k ->
               ignore (Core.Inter_simple.estimate c.Pipeline.graph ~intra k))
             Core.Inter_simple.all_kinds));
    Test.make ~name:"fig5bc:markov call-graph solve (lisp_mini)"
      (Staged.stage (fun () ->
           let c = Lazy.force lisp in
           let intra = Pipeline.intra_provider c Pipeline.Ismart in
           ignore (Core.Markov_inter.estimate c.Pipeline.graph ~intra)));
    Test.make ~name:"fig6_7:markov intra solve (cholesky_mini)"
      (Staged.stage (fun () ->
           let c = Lazy.force cholesky in
           ignore (Pipeline.intra_table c Pipeline.Imarkov)));
    Test.make ~name:"fig8:recursion repair (tree_mini)"
      (Staged.stage (fun () ->
           let c = Lazy.force tree in
           let intra = Pipeline.intra_provider c Pipeline.Ismart in
           ignore (Core.Markov_inter.estimate c.Pipeline.graph ~intra)));
    Test.make ~name:"fig9:call-site ranking (compress_mini)"
      (Staged.stage (fun () ->
           let c = Lazy.force compress in
           let intra = Pipeline.intra_provider c Pipeline.Ismart in
           ignore (Pipeline.callsite_estimate c ~intra Pipeline.Imarkov_inter)));
    Test.make ~name:"fig10:cost model (compress_mini)"
      (Staged.stage (fun () ->
           let c = Lazy.force compress in
           let prof = Lazy.force compress_profile in
           ignore
             (Pipeline.modelled_time c prof ~optimized:[ "hash_probe" ])))
  ]

let run_benchmarks () =
  print_endline "=== Bechamel micro-benchmarks (analysis machinery) ===\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
            if ns > 1_000_000.0 then
              Printf.printf "  %-55s %10.3f ms/run\n%!" name (ns /. 1e6)
            else
              Printf.printf "  %-55s %10.1f us/run\n%!" name (ns /. 1e3)
          | _ -> Printf.printf "  %-55s (no estimate)\n%!" name)
        stats)
    tests

(* ------------------------------------------------------------------ *)
(* Suite throughput: the full per-program pipeline (compile, profile
   every input, smart intra estimates), sequential vs parallel. Both
   passes start from a cold cache; the differential test in
   [test/test_parallel.ml] asserts the two produce identical results, so
   this only reports wall-clock. *)

let warm_suite () =
  ignore
    (Parallel.map
       (fun (d : Context.prog_data) ->
         ignore (Pipeline.intra_table d.Context.compiled Pipeline.Ismart))
       (Context.all ()))

let run_suite_throughput (jobs : int) =
  let time_with j =
    Context.clear ();
    Parallel.set_jobs j;
    let t0 = Unix.gettimeofday () in
    warm_suite ();
    Unix.gettimeofday () -. t0
  in
  let n = List.length Suite.Registry.all in
  Printf.printf
    "=== Suite throughput (compile + profile + smart estimates, %d programs) ===\n\n"
    n;
  let seq = time_with 1 in
  let par = time_with jobs in
  Parallel.set_jobs jobs;
  Printf.printf "  sequential (--jobs 1)    %8.3f s\n" seq;
  Printf.printf "  parallel   (--jobs %-2d)   %8.3f s\n" jobs par;
  Printf.printf "  speedup                  %8.2fx" (seq /. par);
  if Parallel.default_jobs () < 2 then
    print_string "   (single-core machine: ~1x expected)";
  print_newline ();
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Profile throughput: tree vs closure-compiled back end over every
   (program, input) pair of the suite, at jobs 1 and jobs N. Lowering to
   closures happens once, outside the timed region — that is the
   deployment model (compile once, profile many inputs). The differential
   suite in [test/test_compile.ml] proves the two back ends produce
   bit-identical profiles, so this section only reports wall-clock and
   allocation. *)

(* One core means the domain pool can only time-slice: parallel configs
   measure scheduling overhead, not speedup. Say so once on stderr and
   tag every emitted JSON env block, so a BENCH file from such a machine
   is self-explaining. *)
let single_core () = Obs.Envmeta.cores () < 2

let warn_single_core () =
  if single_core () then
    prerr_endline
      "bench: warning: only one core available — jobs > 1 adds \
       domain-scheduling overhead without speedup, so parallel configs \
       will look slower than --jobs 1 (env blocks are tagged \
       \"single_core\": \"true\")"

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The same environment block the run records carry — plus the
   single-core tag — so bench numbers from different machines/commits
   can be told apart when compared. Shared by every BENCH_*.json. *)
let add_env_block (buf : Buffer.t) : unit =
  let env =
    Obs.Envmeta.common ()
    @ (if single_core () then [ ("single_core", "true") ] else [])
    @ [ ("timestamp",
         let t = Unix.gmtime (Unix.gettimeofday ()) in
         Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ"
           (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1) t.Unix.tm_mday
           t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec) ]
  in
  Buffer.add_string buf "  \"env\": {\n";
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": \"%s\"%s\n" (json_escape k)
           (json_escape v)
           (if i = List.length env - 1 then "" else ",")))
    env;
  Buffer.add_string buf "  },\n";
  (* Any latency histograms recorded while this bench ran (probes on
     during a diagnostic pass) ride next to env: count/sum/min/max and
     p50/p90/p99/p999, nanoseconds. Empty when probes stayed off. *)
  (match Obs.Hist.all () with
  | [] -> ()
  | hists ->
    Buffer.add_string buf "  \"hists\": {\n";
    List.iteri
      (fun i (name, s) ->
        Buffer.add_string buf
          (Printf.sprintf "    \"%s\": %s%s\n" (json_escape name)
             (Obs.Json.to_compact_string (Obs.Hist.summary_json s))
             (if i = List.length hists - 1 then "" else ",")))
      hists;
    Buffer.add_string buf "  },\n")

let run_profile_throughput (jobs : int) (json_path : string) =
  (* Compile (and profile-warm) the suite via the shared cache, then
     force the closure lowering for every program so neither back end
     pays one-time costs inside the timed region. *)
  let data = Context.all () in
  List.iter
    (fun (d : Context.prog_data) ->
      ignore (Pipeline.closure_exe d.Context.compiled))
    data;
  let pairs =
    List.concat_map
      (fun (d : Context.prog_data) ->
        List.map
          (fun (r : Suite.Bench_prog.run) ->
            ( d.Context.compiled,
              { Pipeline.argv = r.Suite.Bench_prog.r_argv;
                input = r.Suite.Bench_prog.r_input } ))
          d.Context.bench.Suite.Bench_prog.runs)
      data
  in
  let reps = 3 in
  (* The tree walker is the test oracle, not a production path, so it
     is called directly; the compiled back end runs through [run_once]
     like every profile the pipeline takes. *)
  let run_backend backend c (r : Pipeline.run) =
    match backend with
    | `Tree ->
      Cinterp.Eval.run ~argv:r.Pipeline.argv ~input:r.Pipeline.input
        c.Pipeline.prog
    | `Compiled -> Pipeline.run_once c r
  in
  let backend_to_string = function `Tree -> "tree" | `Compiled -> "compiled" in
  (* Best-of-[reps] wall clock for one full profiling sweep; the summed
     work units (executed instruction units) are identical across
     backends and jobs settings by construction. Each run also counts the
     minor-heap words its domain allocated, the machine-independent
     companion of the timing. *)
  let time_config backend (j : int) : float * float * float =
    Parallel.set_jobs j;
    let best = ref infinity in
    let work = ref 0.0 in
    let words = ref 0.0 in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let costs =
        Parallel.map
          (fun (c, r) ->
            let w0 = Gc.minor_words () in
            let units = (run_backend backend c r).Cinterp.Eval.work in
            (units, Gc.minor_words () -. w0))
          pairs
      in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      work := List.fold_left (fun acc (u, _) -> acc +. u) 0.0 costs;
      words := List.fold_left (fun acc (_, w) -> acc +. w) 0.0 costs
    done;
    (!best, !work, !words /. !work)
  in
  let n_programs = List.length data in
  let n_pairs = List.length pairs in
  Printf.printf
    "=== Profile throughput (%d programs, %d (program, input) pairs, \
     best of %d) ===\n\n"
    n_programs n_pairs reps;
  let configs =
    [ (`Tree, 1); (`Tree, jobs);
      (`Compiled, 1); (`Compiled, jobs) ]
  in
  let results =
    List.map
      (fun (backend, j) ->
        let seconds, work, words_per_unit = time_config backend j in
        Printf.printf
          "  %-8s  --jobs %-2d   %8.3f s   %12.0f work units/s   %6.2f \
           words/unit\n%!"
          (backend_to_string backend)
          j seconds (work /. seconds) words_per_unit;
        (backend, j, seconds, work, words_per_unit))
      configs
  in
  Parallel.set_jobs jobs;
  let seconds_of b j =
    let _, _, s, _, _ =
      List.find (fun (b', j', _, _, _) -> b' = b && j' = j) results
    in
    s
  in
  let speedup_1 = seconds_of `Tree 1 /. seconds_of `Compiled 1 in
  let speedup_n =
    seconds_of `Tree jobs /. seconds_of `Compiled jobs
  in
  Printf.printf "\n  compiled vs tree speedup:  %.2fx (--jobs 1), %.2fx (--jobs %d)\n\n"
    speedup_1 speedup_n jobs;
  let _, _, _, work_units, _ = List.hd results in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"suite\": \"%s\",\n" (json_escape "pldi94-estimators"));
  add_env_block buf;
  Buffer.add_string buf (Printf.sprintf "  \"programs\": %d,\n" n_programs);
  Buffer.add_string buf (Printf.sprintf "  \"run_pairs\": %d,\n" n_pairs);
  Buffer.add_string buf (Printf.sprintf "  \"reps\": %d,\n" reps);
  Buffer.add_string buf (Printf.sprintf "  \"work_units\": %.0f,\n" work_units);
  Buffer.add_string buf "  \"configs\": [\n";
  List.iteri
    (fun i (backend, j, seconds, work, words_per_unit) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"backend\": \"%s\", \"jobs\": %d, \"seconds\": %.6f, \
            \"work_units_per_s\": %.1f, \"minor_words_per_unit\": %.3f }%s\n"
           (backend_to_string backend)
           j seconds (work /. seconds) words_per_unit
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_compiled_vs_tree_jobs1\": %.3f,\n" speedup_1);
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_compiled_vs_tree_jobs%d\": %.3f\n" jobs
       speedup_n);
  Buffer.add_string buf "}\n";
  let oc = open_out json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [profile throughput written to %s]\n\n" json_path

(* ------------------------------------------------------------------ *)
(* Corpus throughput: the full generated-corpus pipeline (seeded
   generation, compile, fuel-budgeted profiling, every estimator,
   distribution aggregation) swept over corpus size x jobs. The score
   store is reset around each configuration — corpus sizes share class
   names, so stale records from a larger sweep would otherwise leak
   into a smaller one's aggregate. *)

let run_corpus_sweep (jobs : int) (json_path : string) =
  let per_class_sizes = [ 5; 10; 20 ] in
  let jobs_list = if jobs <= 1 then [ 1 ] else [ 1; jobs ] in
  Printf.printf
    "=== Corpus throughput (generate + compile + profile + every estimator, \
     size small) ===\n\n";
  let results =
    List.concat_map
      (fun per_class ->
        List.map
          (fun j ->
            Parallel.set_jobs j;
            Driver.Score.reset ();
            let spec =
              { Driver.Corpus_eval.default_spec with
                Driver.Corpus_eval.c_per_class = per_class;
                c_size = Corpus.Shape.small }
            in
            let t0 = Unix.gettimeofday () in
            let r = Driver.Corpus_eval.evaluate spec in
            let dt = Unix.gettimeofday () -. t0 in
            let n = r.Driver.Corpus_eval.o_programs in
            Printf.printf
              "  per-class %-3d (%3d programs)  --jobs %-2d   %8.3f s   \
               %7.1f programs/s\n%!"
              per_class n j dt
              (float_of_int n /. dt);
            (per_class, j, n, dt))
          jobs_list)
      per_class_sizes
  in
  Driver.Score.reset ();
  Parallel.set_jobs jobs;
  print_newline ();
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"suite\": \"%s\",\n"
       (json_escape "pldi94-estimators-corpus"));
  add_env_block buf;
  Buffer.add_string buf "  \"seed\": 1,\n  \"size\": \"small\",\n";
  Buffer.add_string buf "  \"configs\": [\n";
  List.iteri
    (fun i (per_class, j, n, dt) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"per_class\": %d, \"jobs\": %d, \"programs\": %d, \
            \"seconds\": %.6f, \"programs_per_s\": %.1f }%s\n"
           per_class j n dt
           (float_of_int n /. dt)
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [corpus throughput written to %s]\n\n" json_path

(* ------------------------------------------------------------------ *)
(* Solver scaling: dense elimination vs the sparse iterative path over
   synthetic huge graphs (10^3..10^5 nodes) — the regime ROADMAP item 2
   targets, far beyond the 60-400 LoC suite minis. Both generators are
   deterministic (pure functions of n), so the numbers are comparable
   across machines and commits. The CLI solver mode is saved and
   restored: this section times both paths explicitly. *)

(* A long CFG: straight-line flow partitioned into 25-block loop
   segments. Each segment ends in a 0.8 back edge to its header (the
   standard loop-guess probability) and a 0.2 exit into the next
   segment; every 7th block inside a segment is a 0.8/0.2 forward
   branch that skips one block. The last block returns. *)
let synthetic_cfg_arcs (n : int) : Linalg.Csr.arcs_iter =
 fun f ->
  for i = 0 to n - 2 do
    if i mod 25 = 24 then begin
      f i (i - 24) 0.8;
      f i (i + 1) 0.2
    end
    else if i mod 7 = 3 && i + 2 <= n - 1 then begin
      f i (i + 1) 0.8;
      f i (i + 2) 0.2
    end
    else f i (i + 1) 1.0
  done

(* A call graph shaped like a 4-ary tree (node i calls 4i+1..4i+4) with
   per-arc call weights cycling through 0.6..1.3 calls per invocation,
   a 0.3 direct-recursion self arc on every 13th node, and a low-weight
   cross arc (0.05) from every 11th node to an arbitrary other node —
   the irregular edges that keep the system from being a pure DAG. *)
let synthetic_callgraph_arcs (n : int) : Linalg.Csr.arcs_iter =
 fun f ->
  for i = 0 to n - 1 do
    for k = 0 to 3 do
      let child = (4 * i) + 1 + k in
      if child < n then
        f i child (0.6 +. (0.1 *. float_of_int ((i + k) mod 8)))
    done;
    if i mod 13 = 5 then f i i 0.3;
    if i mod 11 = 7 && n > 1 then begin
      let t = ((i * 7) + 3) mod n in
      if t <> i then f i t 0.05
    end
  done

let count_arcs (arcs : Linalg.Csr.arcs_iter) : int =
  let k = ref 0 in
  arcs (fun _ _ _ -> incr k);
  !k

let max_rel_diff (a : float array) (b : float array) : float =
  let m = ref 0.0 in
  Array.iteri
    (fun i av ->
      let d =
        Float.abs (av -. b.(i))
        /. Float.max 1.0 (Float.max (Float.abs av) (Float.abs b.(i)))
      in
      if d > !m then m := d)
    a;
  !m

let run_solver_bench (json_path : string) =
  let saved_mode = !Linalg.Linsolve.solver_mode in
  let saved_probes = Obs.Probe.enabled () in
  Fun.protect ~finally:(fun () ->
      Linalg.Linsolve.solver_mode := saved_mode;
      Obs.Probe.set_enabled saved_probes)
  @@ fun () ->
  Printf.printf
    "=== Solver scaling (dense elimination vs sparse iterative, synthetic \
     graphs) ===\n\n";
  let time_solve mode ~n arcs reps =
    Linalg.Linsolve.solver_mode := mode;
    let best = ref infinity in
    let result = ref [||] in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      result := Linalg.Linsolve.markov_frequencies_iter ~n ~source:0 arcs;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (!best, !result)
  in
  (* One probe-instrumented sparse solve per config reports the sweep
     count and final residual alongside the wall clock. *)
  let sparse_diag ~n arcs =
    Obs.Probe.set_enabled true;
    Obs.Probe.reset ();
    Linalg.Linsolve.solver_mode := Linalg.Linsolve.Sparse;
    ignore (Linalg.Linsolve.markov_frequencies_iter ~n ~source:0 arcs);
    let counter name =
      Option.map
        (fun c -> c.Obs.Probe.vmax)
        (List.assoc_opt name (Obs.Probe.counters ()))
    in
    let sweeps = counter "linsolve.gs.sweeps" in
    let residual = counter "linsolve.gs.residual" in
    Obs.Probe.set_enabled false;
    Obs.Probe.reset ();
    (sweeps, residual)
  in
  let configs =
    [ ("cfg", synthetic_cfg_arcs, [ 1_000; 3_000; 10_000; 100_000 ]);
      ("callgraph", synthetic_callgraph_arcs,
       [ 1_000; 3_000; 10_000; 100_000 ]) ]
  in
  let rows =
    List.concat_map
      (fun (label, gen, sizes) ->
        List.map
          (fun n ->
            let arcs = gen n in
            let nnz = count_arcs arcs in
            let reps = if n >= 10_000 then 1 else 3 in
            let sparse_s, sparse_x =
              time_solve Linalg.Linsolve.Sparse ~n arcs reps
            in
            let sweeps, residual = sparse_diag ~n arcs in
            (* the dense n*n build at 10^5 nodes is 80 GB — skip it *)
            let dense =
              if n > Linalg.Linsolve.dense_fallback_limit then None
              else begin
                let dense_s, dense_x =
                  time_solve Linalg.Linsolve.Dense ~n arcs reps
                in
                Some (dense_s, max_rel_diff dense_x sparse_x)
              end
            in
            (match dense with
            | Some (dense_s, diff) ->
              Printf.printf
                "  %-10s n=%-7d arcs=%-7d sparse %10.6f s   dense %10.6f \
                 s   speedup %8.1fx   max_rel_diff %.2e\n%!"
                label n nnz sparse_s dense_s (dense_s /. sparse_s) diff
            | None ->
              Printf.printf
                "  %-10s n=%-7d arcs=%-7d sparse %10.6f s   dense \
                 (skipped: system would be %d GB)\n%!"
                label n nnz sparse_s
                (n * n * 8 / 1_000_000_000));
            (label, n, nnz, sparse_s, sweeps, residual, dense))
          sizes)
      configs
  in
  print_newline ();
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"suite\": \"%s\",\n"
       (json_escape "pldi94-estimators-solver"));
  add_env_block buf;
  Buffer.add_string buf "  \"configs\": [\n";
  List.iteri
    (fun i (label, n, nnz, sparse_s, sweeps, residual, dense) ->
      let opt_num = function
        | Some v -> Printf.sprintf "%g" v
        | None -> "null"
      in
      let dense_s, speedup, diff =
        match dense with
        | Some (d, diff) -> (Some d, Some (d /. sparse_s), Some diff)
        | None -> (None, None, None)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"graph\": \"%s\", \"nodes\": %d, \"arcs\": %d, \
            \"sparse_seconds\": %.6f, \"gs_sweeps\": %s, \"residual\": \
            %s, \"dense_seconds\": %s, \"speedup\": %s, \"max_rel_diff\": \
            %s }%s\n"
           label n nnz sparse_s (opt_num sweeps) (opt_num residual)
           (opt_num dense_s) (opt_num speedup) (opt_num diff)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [solver scaling written to %s]\n\n" json_path

(* ------------------------------------------------------------------ *)
(* Incremental analysis: cold vs warm vs single-function-edit over the
   suite plus a 200-program generated corpus, through the Driver.Incr
   content-addressed store. The headline number is the cost of
   re-analyzing *everything* after a one-function edit: every unchanged
   function hits the store, so the warm edit pass should be orders of
   magnitude cheaper than the cold pass. Scores are asserted
   bit-identical between the cold, warm and reverted passes — the store
   may only change timings. *)

let run_incremental_bench (json_path : string) =
  let corpus_per_class = 50 in
  let corpus =
    List.concat_map
      (fun cls ->
        List.init corpus_per_class (fun index ->
            ( Printf.sprintf "%s_%03d" (Corpus.Shape.class_to_string cls)
                index,
              Corpus.Genprog.generate ~seed:1 ~cls ~size:Corpus.Shape.small
                ~index )))
      Corpus.Shape.all_classes
  in
  let suite =
    List.map
      (fun (p : Suite.Bench_prog.t) ->
        (p.Suite.Bench_prog.name, p.Suite.Bench_prog.source))
      Suite.Registry.all
  in
  let sources = suite @ corpus in
  let n = List.length sources in
  let analyze_all srcs =
    let t0 = Unix.gettimeofday () in
    let results =
      Parallel.map
        (fun (name, source) ->
          let a = Driver.Incr.analyze ~name source in
          ( name, a.Driver.Incr.an_scores, a.Driver.Incr.an_fn_hits,
            a.Driver.Incr.an_fn_misses ))
        srcs
    in
    let dt = Unix.gettimeofday () -. t0 in
    let hits = List.fold_left (fun acc (_, _, h, _) -> acc + h) 0 results in
    let misses =
      List.fold_left (fun acc (_, _, _, m) -> acc + m) 0 results
    in
    (dt, hits, misses, List.map (fun (nm, s, _, _) -> (nm, s)) results)
  in
  Printf.printf
    "=== Incremental analysis (%d suite + %d corpus programs, all intra \
     kinds + markov inter) ===\n\n"
    (List.length suite) (List.length corpus);
  Driver.Incr.clear ();
  Driver.Incr.reset_stats ();
  let t_cold, h_cold, m_cold, scores_cold = analyze_all sources in
  let t_warm, h_warm, m_warm, scores_warm = analyze_all sources in
  (* Edit exactly one function-worth of content in one program: append
     a fresh probe function. Every pre-existing function's content hash
     is unchanged, so only the probe misses. *)
  let edited_name =
    match corpus with (nm, _) :: _ -> nm | [] -> assert false
  in
  let probe = "\nint __incr_probe(int x) { return x + 1; }\n" in
  let sources_edited =
    List.map
      (fun (nm, src) ->
        if nm = edited_name then (nm, src ^ probe) else (nm, src))
      sources
  in
  let t_edit, h_edit, m_edit, _ = analyze_all sources_edited in
  let t_revert, h_revert, m_revert, scores_revert = analyze_all sources in
  let warm_identical = compare scores_cold scores_warm = 0 in
  let revert_identical = compare scores_cold scores_revert = 0 in
  let st = Driver.Incr.stats () in
  (* Restart-warm: populate a durable store from a cold pass, simulate
     kill -9 (drop all in-memory state and the unflushed journal fd),
     reopen the directory and re-analyze. Every intra solve should be
     served from the restored entries; scores must stay bit-identical. *)
  let store_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bench_incr_store_%d" (Unix.getpid ()))
  in
  Driver.Incr.clear ();
  Driver.Incr.reset_stats ();
  ignore (Driver.Incr.open_store store_dir);
  let t_pcold, h_pcold, m_pcold, _ = analyze_all sources in
  Driver.Incr.crash_store ();
  let restore = Driver.Incr.open_store store_dir in
  let t_restart, h_restart, m_restart, scores_restart =
    analyze_all sources
  in
  Driver.Incr.close_store ();
  let restart_identical = compare scores_cold scores_restart = 0 in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  (try rm_rf store_dir with Sys_error _ | Unix.Unix_error _ -> ());
  let row label t h m =
    Printf.printf "  %-26s %8.3f s   fn hits %6d   fn misses %6d\n" label t
      h m
  in
  row "cold (empty store)" t_cold h_cold m_cold;
  row "warm (no edit)" t_warm h_warm m_warm;
  row (Printf.sprintf "one fn edited (%s)" edited_name) t_edit h_edit m_edit;
  row "reverted" t_revert h_revert m_revert;
  row "cold + journal" t_pcold h_pcold m_pcold;
  row
    (Printf.sprintf "restart warm (%d restored)" restore.Driver.Incr.rs_restored)
    t_restart h_restart m_restart;
  Printf.printf "\n  cold/warm speedup            %8.1fx\n" (t_cold /. t_warm);
  Printf.printf "  cold/single-edit speedup     %8.1fx\n" (t_cold /. t_edit);
  Printf.printf "  cold/restart-warm speedup    %8.1fx\n"
    (t_cold /. t_restart);
  Printf.printf "  scores: warm %s cold, reverted %s cold, restarted %s cold\n\n"
    (if warm_identical then "==" else "!=")
    (if revert_identical then "==" else "!=")
    (if restart_identical then "==" else "!=");
  if not (warm_identical && revert_identical && restart_identical) then begin
    prerr_endline
      "bench: ERROR: incremental scores diverged from the cold pass";
    exit 1
  end;
  (* One probe-instrumented warm pass — untimed, outside every measured
     phase — populates the latency histograms the JSON block below
     publishes. The timed phases run with probes in the caller's state
     (off by default), so instrumentation cannot skew the speedups. *)
  let saved_probes = Obs.Probe.enabled () in
  Obs.Probe.set_enabled true;
  ignore (analyze_all sources);
  Obs.Probe.set_enabled saved_probes;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"suite\": \"%s\",\n"
       (json_escape "pldi94-estimators-incremental"));
  add_env_block buf;
  Buffer.add_string buf
    (Printf.sprintf "  \"programs\": %d,\n  \"suite_programs\": %d,\n"
       n (List.length suite));
  Buffer.add_string buf
    (Printf.sprintf "  \"corpus_programs\": %d,\n  \"jobs\": %d,\n"
       (List.length corpus) (Parallel.jobs ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"edited_program\": \"%s\",\n"
       (json_escape edited_name));
  let phase label t h m last =
    Buffer.add_string buf
      (Printf.sprintf
         "    { \"phase\": \"%s\", \"seconds\": %.6f, \"fn_hits\": %d, \
          \"fn_misses\": %d }%s\n"
         label t h m
         (if last then "" else ","))
  in
  Buffer.add_string buf "  \"phases\": [\n";
  phase "cold" t_cold h_cold m_cold false;
  phase "warm" t_warm h_warm m_warm false;
  phase "single_fn_edit" t_edit h_edit m_edit false;
  phase "revert" t_revert h_revert m_revert false;
  phase "cold_journaled" t_pcold h_pcold m_pcold false;
  phase "restart_warm" t_restart h_restart m_restart true;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_cold_vs_warm\": %.2f,\n" (t_cold /. t_warm));
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_cold_vs_single_edit\": %.2f,\n"
       (t_cold /. t_edit));
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_cold_vs_restart_warm\": %.2f,\n"
       (t_cold /. t_restart));
  Buffer.add_string buf
    (Printf.sprintf "  \"restored_entries\": %d,\n"
       restore.Driver.Incr.rs_restored);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scores_bit_identical\": %b,\n  \"store\": { \"entries\": %d, \
        \"bytes\": %d, \"hits\": %d, \"misses\": %d, \"evictions\": %d }\n"
       (warm_identical && revert_identical && restart_identical)
       st.Driver.Incr.st_entries st.Driver.Incr.st_bytes
       st.Driver.Incr.st_hits st.Driver.Incr.st_misses
       st.Driver.Incr.st_evictions);
  Buffer.add_string buf "}\n";
  let oc = open_out json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Driver.Incr.clear ();
  Printf.printf "  [incremental analysis written to %s]\n\n" json_path

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: one cold suite+corpus analysis pass timed under
   three configurations — probes off (master switch gates every site),
   probes on with histograms suppressed, and the full plane — plus the
   per-call cost of the recording primitives in a tight loop. The
   acceptance bar is full-plane overhead within ~2% of probes-off;
   EXPERIMENTS.md records the measured numbers. *)

let run_probe_overhead (json_path : string) =
  let corpus =
    List.concat_map
      (fun cls ->
        List.init 40 (fun index ->
            ( Printf.sprintf "ovh_%s_%03d"
                (Corpus.Shape.class_to_string cls) index,
              Corpus.Genprog.generate ~seed:3 ~cls ~size:Corpus.Shape.small
                ~index )))
      Corpus.Shape.all_classes
  in
  let suite =
    List.map
      (fun (p : Suite.Bench_prog.t) ->
        (p.Suite.Bench_prog.name, p.Suite.Bench_prog.source))
      Suite.Registry.all
  in
  let sources = suite @ corpus in
  let reps = 5 in
  let cold_pass () =
    Driver.Incr.clear ();
    Driver.Incr.reset_stats ();
    let t0 = Unix.gettimeofday () in
    ignore
      (Parallel.map
         (fun (name, source) -> ignore (Driver.Incr.analyze ~name source))
         sources);
    Unix.gettimeofday () -. t0
  in
  let median xs =
    let a = List.sort compare xs in
    List.nth a (List.length a / 2)
  in
  let timed ~probes ~hists =
    Obs.Probe.set_enabled probes;
    Obs.Hist.set_enabled hists;
    let t = cold_pass () in
    Obs.Probe.set_enabled false;
    Obs.Hist.set_enabled true;
    t
  in
  Printf.printf
    "=== Telemetry overhead (%d programs, cold pass, median of %d) ===\n\n"
    (List.length sources) reps;
  (* two untimed warm-ups, then the three configurations interleaved
     per round so machine drift hits them equally *)
  ignore (timed ~probes:false ~hists:true);
  ignore (timed ~probes:true ~hists:true);
  let off = ref [] and probes_on = ref [] and full = ref [] in
  for _ = 1 to reps do
    off := timed ~probes:false ~hists:true :: !off;
    probes_on := timed ~probes:true ~hists:false :: !probes_on;
    full := timed ~probes:true ~hists:true :: !full
  done;
  Obs.Probe.reset ();
  Obs.Hist.reset ();
  let t_off = median !off in
  let t_probes = median !probes_on in
  let t_full = median !full in
  let pct t = 100.0 *. (t -. t_off) /. t_off in
  Printf.printf "  probes off             %8.3f s\n" t_off;
  Printf.printf "  probes on, no hists    %8.3f s   (%+.2f%%)\n" t_probes
    (pct t_probes);
  Printf.printf "  probes + histograms    %8.3f s   (%+.2f%%)\n\n" t_full
    (pct t_full);
  let ns_per_call f =
    let n = 2_000_000 in
    let t0 = Unix.gettimeofday () in
    for i = 1 to n do
      f i
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  in
  Obs.Probe.set_enabled true;
  let count_ns = ns_per_call (fun _ -> Obs.Probe.count "overhead.count") in
  let observe_ns = ns_per_call (fun i -> Obs.Hist.observe "overhead.ns" i) in
  Obs.Probe.set_enabled false;
  let gated_ns = ns_per_call (fun i -> Obs.Hist.observe "overhead.ns" i) in
  Obs.Probe.reset ();
  Obs.Hist.reset ();
  Printf.printf "  Probe.count   %6.1f ns/call   Hist.observe %6.1f \
                 ns/call   disabled site %6.1f ns/call\n\n"
    count_ns observe_ns gated_ns;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"suite\": \"%s\",\n"
       (json_escape "pldi94-estimators-probe-overhead"));
  add_env_block buf;
  Buffer.add_string buf
    (Printf.sprintf
       "  \"programs\": %d,\n  \"reps\": %d,\n  \"probes_off_s\": %.6f,\n  \
        \"probes_on_s\": %.6f,\n  \"probes_on_pct\": %.3f,\n  \
        \"histograms_on_s\": %.6f,\n  \"histograms_on_pct\": %.3f,\n  \
        \"count_ns_per_call\": %.1f,\n  \"observe_ns_per_call\": %.1f,\n  \
        \"disabled_ns_per_call\": %.1f\n"
       (List.length sources) reps t_off t_probes (pct t_probes) t_full
       (pct t_full) count_ns observe_ns gated_ns);
  Buffer.add_string buf "}\n";
  let oc = open_out json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [probe overhead written to %s]\n\n" json_path

(* ------------------------------------------------------------------ *)
(* Command line. *)

let run bench_only repro_only profile_only corpus_only incremental_only
    overhead_only solver_only jobs solver strict chaos trace metrics_out
    profile_json corpus_json incremental_json overhead_json solver_json =
  Linalg.Linsolve.solver_mode := solver;
  if strict then Driver.Fault.set_strict true;
  Option.iter (fun seed -> Driver.Fault.arm_chaos ~seed ()) chaos;
  Parallel.set_jobs jobs;
  warn_single_core ();
  Driver.Trace.with_reporting ~trace ~metrics_out (fun () ->
      if incremental_only then run_incremental_bench incremental_json
      else if overhead_only then run_probe_overhead overhead_json
      else if solver_only then run_solver_bench solver_json
      else if corpus_only then run_corpus_sweep (max 2 jobs) corpus_json
      else if profile_only then run_profile_throughput (max 2 jobs) profile_json
      else begin
        if not bench_only then begin
          print_endline
            "=== Reproduction of every table and figure (PLDI 1994) ===\n";
          print_string (Driver.Experiments.run_all ());
          print_newline ()
        end;
        if not repro_only then begin
          run_suite_throughput (max 2 jobs);
          run_profile_throughput (max 2 jobs) profile_json;
          run_benchmarks ()
        end
      end);
  let faults = Driver.Fault.summary () in
  if faults <> "" then prerr_string faults;
  Driver.Fault.exit_code ()

let () =
  let open Cmdliner in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let json_path name default what =
    Arg.(value & opt string default
         & info [ name ] ~docv:"FILE"
             ~doc:(Printf.sprintf "Where to write the %s JSON." what))
  in
  (* [--jobs] above the runtime's domain limit is a usage error; 0 and
     below clamp to 1. *)
  let jobs_conv =
    let parse s =
      Result.bind (Arg.conv_parser Arg.int s) (fun n ->
          if n > Parallel.max_jobs then
            Error
              (`Msg
                (Printf.sprintf "%d jobs exceeds the limit of %d" n
                   Parallel.max_jobs))
          else Ok n)
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let term =
    Term.(
      const run
      $ flag "bench-only" "Skip the reproduction; run only the timings."
      $ flag "repro-only" "Run only the reproduction of every table and figure."
      $ flag "profile-only"
          "Run only the profile-throughput bench (tree walker vs compiled \
           back end)."
      $ flag "corpus" "Run only the corpus size x jobs throughput sweep."
      $ flag "incremental"
          "Run only the incremental-analysis bench (cold, warm, one-function \
           edit, revert, warm restart)."
      $ flag "probe-overhead" "Run only the telemetry overhead bench."
      $ flag "solver-only" "Run only the dense vs sparse solver bench."
      $ Arg.(value & opt jobs_conv (Parallel.default_jobs ())
             & info [ "jobs" ] ~docv:"N" ~doc:"Number of analysis domains.")
      $ Arg.(value
             & opt
                 (enum
                    [ ("dense", Linalg.Linsolve.Dense);
                      ("sparse", Linalg.Linsolve.Sparse);
                      ("auto", Linalg.Linsolve.Auto) ])
                 Linalg.Linsolve.Dense
             & info [ "solver" ] ~docv:"MODE"
                 ~doc:"Markov solver for the reproduction and throughput \
                       sections: dense, sparse or auto.")
      $ flag "strict" "Fail fast on the first fault instead of degrading."
      $ Arg.(value & opt (some int) None
             & info [ "chaos" ] ~docv:"SEED"
                 ~doc:"Arm every fault-injection point with a hash of $(docv).")
      $ flag "trace" "Print the span tree and counters to stderr at the end."
      $ Arg.(value & opt (some string) None
             & info [ "metrics-out" ] ~docv:"FILE"
                 ~doc:"Write span timings and counters as JSON to $(docv).")
      $ json_path "profile-json" "BENCH_profile.json" "profile-throughput"
      $ json_path "corpus-json" "BENCH_corpus.json" "corpus sweep"
      $ json_path "incremental-json" "BENCH_incremental.json"
          "incremental bench"
      $ json_path "overhead-json" "BENCH_overhead.json" "probe overhead"
      $ json_path "solver-json" "BENCH_solver.json" "solver bench")
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "bench"
             ~doc:"Reproduce the paper's evaluation and time the pipeline")
          term))
