(* Workload [suite]: the paper reproduction as a user runs it. A cold
   [Driver.Context], then [Driver.Experiments.run_all] over the 16
   programs and their 66 (program, input) runs, scores gathered by
   [Driver.Run_record.collect], at jobs 1. Interpretation is almost all
   of it, so this workload exposes the interpreter and hides the other
   layers. Its inputs are the fixed suite: the seed changes nothing. *)

module Drift = Driver.Drift
module Run_record = Driver.Run_record

let baseline_path = "BASELINE.json"

let load_baseline () : Run_record.t =
  match Run_record.read_file baseline_path with
  | Ok r -> r
  | Error e -> failwith ("cannot read the reference scores: " ^ e)

(* Every score that is not bit-exact against the baseline under
   [Drift.diff], plus every degraded program. Timings are not outputs. *)
let check ~(baseline : Run_record.t) (record : Run_record.t) : string list =
  let report =
    Drift.diff ~baseline ~current:{ record with Run_record.r_timings = [] } ()
  in
  List.filter_map
    (fun f ->
      match Drift.finding_key f with
      | Some k ->
        let kind =
          match f with
          | Drift.Changed _ -> "changed"
          | Drift.Missing _ -> "missing"
          | Drift.Added _ -> "added"
          | Drift.Degraded_program _ -> "degraded"
          | Drift.Timing_out_of_band _ -> "timing"
        in
        Some (Printf.sprintf "score %s: %s" kind (Driver.Score.key_to_string k))
      | None -> None)
    report.Drift.findings
  @ List.map
      (fun (p, stage) -> Printf.sprintf "program %s degraded at %s" p stage)
      record.Run_record.r_degraded

let reset () =
  Driver.Context.clear ();
  Driver.Score.reset ();
  Driver.Fault.reset ()

let work_units () : float =
  List.fold_left
    (fun acc (d : Driver.Context.prog_data) ->
      List.fold_left
        (fun a (p : Cinterp.Profile.t) -> a +. p.Cinterp.Profile.work)
        acc d.Driver.Context.profiles)
    0.0 (Driver.Context.all ())

(* One reproduction pass, the unit the timed phase repeats. *)
let pass () : Run_record.t * float =
  reset ();
  Common.time (fun () ->
      let (_ : string) = Driver.Experiments.run_all () in
      Run_record.collect ~meta:[] ())

let items () : Layers.item list =
  List.map
    (fun (b : Suite.Bench_prog.t) ->
      { Layers.name = b.Suite.Bench_prog.name; source = b.Suite.Bench_prog.source;
        runs =
          List.map
            (fun (r : Suite.Bench_prog.run) ->
              { Core.Pipeline.argv = r.Suite.Bench_prog.r_argv;
                input = r.Suite.Bench_prog.r_input })
            b.Suite.Bench_prog.runs;
        fuel = None; callsites = true })
    Suite.Registry.all

let sizes () =
  let runs = List.concat_map (fun (it : Layers.item) -> it.Layers.runs) (items ()) in
  [ ("programs", string_of_int (List.length Suite.Registry.all));
    ("runs", string_of_int (List.length runs)) ]

let setups = 25

(* One pass as a user runs it: in a fresh process, so that no pass
   inherits the heap an earlier one grew. [child] is that process's side:
   it prints one JSON line. With [full = false] it stops where its pass
   would begin: that start-up is the workload's set-up. *)
type pass_result = {
  startup : float;
  wall : float;
  minor : float;
  work : float;
  digest : string;
  rss : float;
}

let child ~(full : bool) : unit =
  let module J = Common.J in
  Driver.Parallel.set_jobs 1;
  let started = Common.now () in
  if not full then print_endline (J.to_compact_string (J.Obj [ ("started", J.Num started) ]))
  else begin
    let m0 = Gc.minor_words () in
    let record, wall = pass () in
    let minor = Gc.minor_words () -. m0 in
    let failures = check ~baseline:(load_baseline ()) record in
    print_endline
      (J.to_compact_string
         (J.Obj
            [ ("started", J.Num started); ("wall", J.Num wall); ("minor", J.Num minor);
              ("work", J.Num (work_units ()));
              ("digest", J.Str (Common.score_digest record.Run_record.r_scores));
              ("rss", J.Num (Common.peak_rss_mb "self"));
              ("failures", J.Arr (List.map (fun f -> J.Str f) failures)) ]))
  end

(* Run [child] in a fresh process of this executable. Returns its exit
   status, its line, and the time from the spawn to its [started]
   stamp (the monotonic clock is the same in both processes). *)
let spawn (flag : string) : Unix.process_status * Common.J.t option * float option =
  let module J = Common.J in
  let t0 = Common.now () in
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; flag |] in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  let status = Unix.close_process_in ic in
  let parsed = Option.bind line (fun l -> Result.to_option (J.parse l)) in
  let started = Option.bind parsed (fun j -> Option.bind (J.member "started" j) J.to_num) in
  (status, parsed, Option.map (fun t -> t -. t0) started)

(* Set-up: a fresh process's start-up, from its spawn to where its pass
   begins: the runtime, every library's initialisation and the jobs
   setting. *)
let startup (failures : Common.failures) : float =
  match spawn "--suite-start" with
  | Unix.WEXITED 0, _, Some s -> s
  | _ ->
    Common.fail failures "a suite process did not start";
    0.0

let fresh_pass (failures : Common.failures) : pass_result option =
  let module J = Common.J in
  let status, parsed, startup = spawn "--suite-pass" in
  let num k = Option.bind parsed (fun j -> Option.bind (J.member k j) J.to_num) in
  match (status, startup, num "wall", num "minor", num "work", num "rss",
         Option.bind parsed (fun j -> Option.bind (J.member "digest" j) J.to_str)) with
  | Unix.WEXITED 0, Some startup, Some wall, Some minor, Some work, Some rss, Some digest ->
    List.iter
      (fun f -> Common.fail failures (Option.value ~default:"" (J.to_str f)))
      (Option.value ~default:[]
         (Option.bind parsed (fun j -> Option.bind (J.member "failures" j) J.to_list)));
    Some { startup; wall; minor; work; digest; rss }
  | _ ->
    Common.fail failures "a suite pass did not complete";
    None

let run ~(seed : int) ~(seconds : float) ~(traced : bool) : Common.result =
  let jobs = 1 in
  Driver.Parallel.set_jobs jobs;
  let failures = Common.failures () in
  let setup_times = List.init setups (fun _ -> startup failures) in
  let baseline = load_baseline () in
  let attempted_per_pass = List.length baseline.Run_record.r_scores in
  let env = Common.env_block ~jobs ~seed (sizes ()) in
  if not traced then begin
    let t_start = Common.now () in
    let rec loop acc =
      if acc <> [] && Common.now () -. t_start >= seconds then List.rev acc
      else loop (fresh_pass failures :: acc)
    in
    let passes = List.filter_map Fun.id (loop []) in
    let walls = List.map (fun p -> p.wall) passes in
    let n = List.length passes in
    (* Different work or scores are wrong output; different allocation
       is only reported. *)
    let companions =
      match passes with
      | first :: rest ->
        List.iteri
          (fun i p ->
            if (p.work, p.digest) <> (first.work, first.digest) then
              Common.fail failures
                (Printf.sprintf "pass %d: work units or scores differ from pass 1" (i + 2)))
          rest;
        [ ("cinterp.work_units", Printf.sprintf "%.0f" first.work);
          ("gc.minor_words",
           if List.for_all (fun p -> p.minor = first.minor) rest then
             Printf.sprintf "%.0f" first.minor
           else "differs between passes");
          ("score_digest", first.digest) ]
      | [] -> []
    in
    { Common.workload = "suite"; seed; traced; env;
      attempted = attempted_per_pass * max 1 n; failed = failures.Common.n;
      failures = failures.Common.first;
      metrics =
        Common.complete Common.end_to_end
          [ ("setup_s", Common.median setup_times);
            ("wall_s", Common.median walls);
            ("programs_per_s",
             Common.ratio (float_of_int (List.length Suite.Registry.all * n)) (Common.sum walls));
            ("p50_ms", 1000.0 *. Common.median walls);
            ("p99_ms", 1000.0 *. Common.quantile 0.99 walls);
            ("peak_rss_mb", List.fold_left (fun m p -> Float.max m p.rss) 0.0 passes) ];
      companions;
      notes =
        [ ("passes", Common.J.Num (float_of_int n));
          ("setups_s", Common.J.Arr (List.map (fun t -> Common.J.Num t) setup_times));
          ("pass_walls_s", Common.J.Arr (List.map (fun w -> Common.J.Num w) walls));
          ("pass_startups_s", Common.J.Arr (List.map (fun p -> Common.J.Num p.startup) passes)) ] }
  end
  else begin
    let items = items () in
    let traced_pass, overhead =
      Layers.with_overhead (Layers.pipeline items) (fun p -> p.Layers.wall)
    in
    (* The program's own pass, with its two halves as spans: warming the
       context (compile + profile), then the experiments over it. *)
    reset ();
    let record =
      Spans.with_span "suite.unit" (fun () ->
          Spans.with_span "driver.context_warm" Driver.Context.warm;
          Spans.with_span "driver.experiments" (fun () ->
              let (_ : string) = Driver.Experiments.run_all () in
              Run_record.collect ~meta:[] ()))
    in
    List.iter (Common.fail failures) (check ~baseline record);
    if traced_pass.Layers.work <> work_units () then
      Common.fail failures "traced pass and the context interpreted different work";
    Layers.frontend_replay (List.map (fun (it : Layers.item) -> (it.Layers.name, it.Layers.source)) items);
    let spans = Spans.all () in
    Spans.write ~path:(Common.out_path (Printf.sprintf "spans-suite-seed%d.json" seed))
      ~workload:"suite" spans;
    let bytes = List.fold_left (fun a (it : Layers.item) -> a + String.length it.Layers.source) 0 items in
    { Common.workload = "suite"; seed; traced; env;
      attempted = attempted_per_pass; failed = failures.Common.n;
      failures = failures.Common.first;
      metrics =
        Layers.complete
          (Layers.frontend_metrics spans ~bytes
           @ Layers.pipeline_metrics spans ~jobs ~traced:traced_pass ~overhead
           @ [ ("driver.experiments_s", Spans.total spans "driver.experiments") ]);
      companions =
        [ ("cinterp.work_units", Printf.sprintf "%.0f" traced_pass.Layers.work);
          ("cinterp.run_minor_words", Printf.sprintf "%.0f" traced_pass.Layers.run_minor);
          ("score_digest", Common.score_digest record.Run_record.r_scores) ];
      notes =
        [ ("unit_wall_s", Common.J.Num (Spans.total spans "suite.unit")) ] }
  end
