(* Workload [corpus]: [Driver.Corpus_eval.evaluate] over a seeded corpus
   of all four classes at size medium, jobs 2. Many short programs with
   fuel-bounded runs: the only workload where the domain pool fans out,
   and where the front end and the estimators show beside the
   interpreter. Lowering and set-up are paid once per program. *)

module Corpus_eval = Driver.Corpus_eval
module Shape = Corpus.Shape

let jobs = 2
let per_class = 400

let spec (seed : int) : Corpus_eval.spec =
  { Corpus_eval.c_seed = seed; c_per_class = per_class; c_size = Shape.medium;
    c_classes = Shape.all_classes }

let tasks (spec : Corpus_eval.spec) =
  List.concat_map
    (fun cls -> List.init spec.Corpus_eval.c_per_class (fun i -> (cls, i)))
    spec.Corpus_eval.c_classes

let items (spec : Corpus_eval.spec) : Layers.item list =
  List.map
    (fun (cls, i) ->
      let b = Corpus_eval.bench_of spec cls i in
      { Layers.name = b.Suite.Bench_prog.name; source = b.Suite.Bench_prog.source;
        runs =
          List.map
            (fun (r : Suite.Bench_prog.run) ->
              { Core.Pipeline.argv = r.Suite.Bench_prog.r_argv;
                input = r.Suite.Bench_prog.r_input })
            b.Suite.Bench_prog.runs;
        fuel = Some Corpus_eval.corpus_fuel; callsites = false })
    (tasks spec)

(* Set-up: generate the sources and start the pool. *)
let setup (spec : Corpus_eval.spec) : int =
  Driver.Parallel.shutdown ();
  let bytes =
    List.fold_left
      (fun acc (cls, i) ->
        acc
        + String.length
            (Corpus.Genprog.generate ~seed:spec.Corpus_eval.c_seed ~cls
               ~size:spec.Corpus_eval.c_size ~index:i))
      0 (tasks spec)
  in
  Driver.Parallel.set_jobs jobs;
  ignore (Driver.Parallel.map Fun.id [ 0; 1 ]);
  bytes

(* A failure per degraded or divergent row. *)
let row_failures (o : Corpus_eval.outcome) : string list =
  List.map
    (fun (p, stage) -> Printf.sprintf "row %s degraded at %s" p stage)
    o.Corpus_eval.o_degraded
  @ List.init o.Corpus_eval.o_divergent (fun _ ->
        "a row exhausted its fuel budget (divergent)")

type pass = {
  wall : float;
  digest : string;      (* of every score the pass emitted *)
  bad : string list;    (* row failures *)
}

(* One [Corpus_eval.evaluate] of the corpus, the unit the timed phase
   repeats. *)
let pass (spec : Corpus_eval.spec) : pass =
  Driver.Score.reset ();
  Driver.Fault.reset ();
  let o, wall = Common.time (fun () -> Corpus_eval.evaluate spec) in
  { wall; digest = Common.score_digest (Driver.Score.all ()); bad = row_failures o }

let setups = 25

let run ~(seed : int) ~(seconds : float) ~(traced : bool) : Common.result =
  let spec = spec seed in
  let n_programs = List.length (tasks spec) in
  let setup_runs = List.init setups (fun _ -> Common.time (fun () -> setup spec)) in
  let setup_times = List.map snd setup_runs and bytes = fst (List.hd setup_runs) in
  let failures = Common.failures () in
  let env =
    Common.env_block ~jobs ~seed
      [ ("programs", string_of_int n_programs);
        ("per_class", string_of_int per_class); ("size", "medium");
        ("source_bytes", string_of_int bytes) ]
  in
  if not traced then begin
    let t_start = Common.now () in
    let rec loop acc =
      if acc <> [] && Common.now () -. t_start >= seconds then List.rev acc
      else begin
        let g0 = Gc.quick_stat () in
        let p = pass spec in
        let g1 = Gc.quick_stat () in
        List.iter (Common.fail failures) p.bad;
        loop ((p, g1.Gc.minor_words -. g0.Gc.minor_words) :: acc)
      end
    in
    let passes = loop [] in
    let walls = List.map (fun (p, _) -> p.wall) passes in
    let first, _ = List.hd passes in
    List.iteri
      (fun i (p, _) ->
        if p.digest <> first.digest then
          Common.fail failures
            (Printf.sprintf "pass %d: score digest differs from pass 1" (i + 1)))
      passes;
    let n = List.length passes in
    { Common.workload = "corpus"; seed; traced; env;
      attempted = n_programs * n; failed = failures.Common.n;
      failures = failures.Common.first;
      metrics =
        Common.complete Common.end_to_end
          [ ("setup_s", Common.median setup_times);
            ("wall_s", Common.median walls);
            ("programs_per_s", float_of_int (n_programs * n) /. Common.sum walls);
            ("p50_ms", 1000.0 *. Common.median walls);
            ("p99_ms", 1000.0 *. Common.quantile 0.99 walls);
            ("peak_rss_mb", Common.peak_rss_mb "self") ];
      companions = [ ("score_digest", first.digest) ];
      notes =
        [ ("passes", Common.J.Num (float_of_int n));
          ("setups_s", Common.J.Arr (List.map (fun t -> Common.J.Num t) setup_times));
          ("pass_walls_s", Common.J.Arr (List.map (fun w -> Common.J.Num w) walls));
          ("pass_minor_words",
           Common.J.Arr (List.map (fun (_, m) -> Common.J.Num m) passes)) ] }
  end
  else begin
    let items = items spec in
    let traced_pass, overhead =
      Layers.with_overhead (Layers.pipeline items) (fun p -> p.Layers.wall)
    in
    let unit_pass = Spans.with_span "corpus.unit" (fun () -> pass spec) in
    List.iter (Common.fail failures) unit_pass.bad;
    Layers.frontend_replay
      (List.map (fun (it : Layers.item) -> (it.Layers.name, it.Layers.source)) items);
    let spans = Spans.all () in
    Spans.write
      ~path:(Common.out_path (Printf.sprintf "spans-corpus-seed%d.json" seed))
      ~workload:"corpus" spans;
    { Common.workload = "corpus"; seed; traced; env;
      attempted = n_programs; failed = failures.Common.n;
      failures = failures.Common.first;
      metrics =
        Layers.complete
          (Layers.frontend_metrics spans ~bytes
           @ Layers.pipeline_metrics spans ~jobs ~traced:traced_pass ~overhead);
      companions =
        [ ("cinterp.work_units", Printf.sprintf "%.0f" traced_pass.Layers.work);
          ("cinterp.run_minor_words", Printf.sprintf "%.0f" traced_pass.Layers.run_minor);
          ("score_digest", unit_pass.digest) ];
      notes =
        [ ("unit_wall_s", Common.J.Num (Spans.total spans "corpus.unit")) ] }
  end
