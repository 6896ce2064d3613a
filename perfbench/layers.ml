(* The traced pass: the benchmark itself calls each layer's public
   functions in pipeline order, with a span around every call, and turns
   the spans into the per-layer metrics. Nothing inside the program is
   instrumented for it. *)

module P = Core.Pipeline

(* Every per-layer metric, with its unit, in the order BENCHMARK.json
   lists them. A traced run prints all of them; a layer the workload
   bypasses reads 0. *)
let per_layer : (string * string) list =
  [ ("cfront.parse_s", "s"); ("cfront.typecheck_s", "s");
    ("cfg_ir.build_s", "s"); ("cfront.bytes_per_s", "B/s");
    ("cfront.fnhash_s", "s");
    ("cinterp.lower_s", "s"); ("cinterp.run_s", "s");
    ("cinterp.work_units", "count"); ("cinterp.units_per_s", "1/s");
    ("cinterp.minor_words_per_unit", "words");
    ("core.intra_s.loop", "s"); ("core.intra_s.smart", "s");
    ("core.intra_s.markov", "s"); ("core.intra_s.structural", "s");
    ("core.intra_s.combined", "s"); ("core.inter_s", "s");
    ("core.callsite_s", "s"); ("core.score_s", "s");
    ("incr.analyze_p50_ms", "ms"); ("incr.frontend_share", "ratio");
    ("incr.fn_hit_ratio", "ratio"); ("incr.program_hit_ratio", "ratio");
    ("incr.store_bytes", "B"); ("persist.journal_bytes", "B");
    ("serve.handle_p50_ms", "ms"); ("serve.response_bytes", "B");
    ("serve.transport_p50_ms", "ms"); ("parallel.task_s", "s");
    ("parallel.efficiency", "ratio"); ("driver.experiments_s", "s");
    ("gc.minor_words", "words"); ("gc.major_collections", "count");
    ("trace.wall_s", "s"); ("trace.overhead_ratio", "ratio") ]

let complete (values : (string * float) list) : Common.metric list =
  Common.complete per_layer values

let kind_metric = function
  | P.Iloop -> "loop"
  | P.Ismart -> "smart"
  | P.Imarkov -> "markov"
  | P.Istructural -> "structural"
  | P.Icombined -> "combined"

(* One program of a batch workload: its source, its profiling runs, the
   fuel budget its workload gives each run, and whether the workload
   makes call-site estimates. [Corpus_eval.estimate_stage] makes none;
   the suite's experiments do ([Experiments.callsite_static_score]). *)
type item = {
  name : string;
  source : string;
  runs : P.run list;
  fuel : int option;
  callsites : bool;
}

let intra_cutoff = Driver.Corpus_eval.intra_cutoff
let inter_cutoff = Driver.Corpus_eval.inter_cutoff
let inter_kinds = Driver.Corpus_eval.inter_kinds

(* compile -> lower -> profile -> estimate -> score, one span per call.
   The estimates follow [Corpus_eval.estimate_stage]: each intra kind
   then its score, the smart intra again for the inter kinds, each inter
   kind then its score; then the call-site estimates if the item makes
   them. Returns the work units interpreted and the minor words the
   interpreter allocated (counted on the domain that ran it). *)
let program (it : item) : float * float =
  let sp name f = Spans.with_span ~program:it.name name f in
  let c = sp "pipeline.compile" (fun () -> P.compile ~name:it.name it.source) in
  ignore (sp "cinterp.lower" (fun () -> P.closure_exe c));
  let work = ref 0.0 and minor = ref 0.0 in
  let profiles =
    List.map
      (fun run ->
        let m0 = Gc.minor_words () in
        let o =
          sp "cinterp.run" (fun () ->
              match P.run_once ?fuel:it.fuel ~deadline_s:300.0 c run with
              | o -> o
              | exception Cinterp.Eval.Budget_exhausted (_, o) -> o)
        in
        minor := !minor +. (Gc.minor_words () -. m0);
        work := !work +. o.Cinterp.Eval.work;
        o.Cinterp.Eval.profile)
      it.runs
  in
  let score f = sp "core.score" (fun () -> ignore (P.mean_over_profiles profiles f)) in
  List.iter
    (fun k ->
      let estimate = sp ("core.intra." ^ kind_metric k) (fun () -> P.intra_provider c k) in
      score (fun p -> P.intra_score c ~estimate p ~cutoff:intra_cutoff))
    Driver.Corpus_eval.intra_kinds;
  let smart = sp "core.intra.smart" (fun () -> P.intra_provider c P.Ismart) in
  List.iter
    (fun k ->
      let estimate = sp "core.inter" (fun () -> P.inter_estimate c ~intra:smart k) in
      score (fun p ->
          Core.Weight_matching.score ~estimate ~actual:(P.inter_actual c p)
            ~cutoff:inter_cutoff))
    inter_kinds;
  if it.callsites then
    List.iter
      (fun k ->
        ignore (sp "core.callsite" (fun () -> P.callsite_estimate c ~intra:smart k)))
      inter_kinds;
  (!work, !minor)

type pass = {
  wall : float;
  work : float;
  run_minor : float;   (* minor words allocated inside interpreter runs *)
  minor_words : float; (* whole process, over the pass *)
  major_collections : int;
}

(* The pipeline over every item, fanned out through the domain pool with
   a [parallel.task] span around each task body. With [traced = false]
   the same calls run with no spans, for the tracing overhead. *)
let pipeline ~(traced : bool) (items : item list) : pass =
  Spans.set_enabled traced;
  let g0 = Gc.quick_stat () in
  let results, wall =
    Common.time (fun () ->
        Spans.with_span "pipeline" (fun () ->
            let root = Spans.current () in
            Driver.Parallel.map
              (fun it ->
                Spans.with_span ~parent:root ~program:it.name "parallel.task"
                  (fun () -> program it))
              items))
  in
  let g1 = Gc.quick_stat () in
  Spans.set_enabled true;
  { wall;
    work = Common.sum (List.map fst results);
    run_minor = Common.sum (List.map snd results);
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections }

(* The front end, call by call, on each source: the split that
   [Pipeline.compile] does not expose. A root of its own, outside the
   traced pass, so that the pass is not charged for it twice. *)
let frontend (name : string) (source : string) : unit =
  let sp n f = Spans.with_span ~program:name n f in
  let tunit =
    sp "cfront.parse" (fun () -> Cfront.Parser.parse_string ~file:(name ^ ".c") source)
  in
  let tc = sp "cfront.typecheck" (fun () -> Cfront.Typecheck.check tunit) in
  sp "cfg_ir.build" (fun () -> ignore (Cfg_ir.Callgraph.build (Cfg_ir.Build.build tc)))

let frontend_replay (sources : (string * string) list) : unit =
  Spans.with_span "replay.frontend" (fun () ->
      List.iter (fun (name, source) -> frontend name source) sources)

let frontend_metrics (spans : Spans.span list) ~(bytes : int) :
    (string * float) list =
  let parse = Spans.total spans "cfront.parse"
  and check = Spans.total spans "cfront.typecheck"
  and build = Spans.total spans "cfg_ir.build" in
  [ ("cfront.parse_s", parse); ("cfront.typecheck_s", check);
    ("cfg_ir.build_s", build); ("cfront.fnhash_s", Spans.total spans "cfront.fnhash");
    ("cfront.bytes_per_s", Common.ratio (float_of_int bytes) (parse +. check +. build)) ]

(* [run ~traced] once traced and once untraced, after an untraced
   warm-up run whose result is dropped: a process's first pass is slower
   than later ones while its heap grows, which would otherwise count as
   tracing overhead or hide it. *)
let with_overhead (run : traced:bool -> 'a) (wall : 'a -> float) : 'a * float =
  ignore (run ~traced:false);
  let traced = run ~traced:true in
  let untraced = run ~traced:false in
  (traced, Common.ratio (wall traced) (wall untraced) -. 1.0)

(* The per-layer metrics of a traced pipeline pass. *)
let pipeline_metrics (spans : Spans.span list) ~(jobs : int) ~(traced : pass)
    ~(overhead : float) : (string * float) list =
  let total = Spans.total spans in
  let run_s = total "cinterp.run" in
  [ ("cinterp.lower_s", total "cinterp.lower"); ("cinterp.run_s", run_s);
    ("cinterp.work_units", traced.work);
    ("cinterp.units_per_s", Common.ratio traced.work run_s);
    ("cinterp.minor_words_per_unit", Common.ratio traced.run_minor traced.work);
    ("core.inter_s", total "core.inter"); ("core.callsite_s", total "core.callsite");
    ("core.score_s", total "core.score");
    ("parallel.task_s", total "parallel.task");
    ("parallel.efficiency",
     Common.ratio (total "parallel.task") (float_of_int jobs *. traced.wall));
    ("gc.minor_words", traced.minor_words);
    ("gc.major_collections", float_of_int traced.major_collections);
    ("trace.wall_s", traced.wall);
    ("trace.overhead_ratio", overhead) ]
  @ List.map
      (fun k ->
        ("core.intra_s." ^ kind_metric k, total ("core.intra." ^ kind_metric k)))
      P.all_intra_kinds
