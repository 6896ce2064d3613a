(* The corpus engine:

   - [Driver.Stats.quantile] edge cases, pinned: empty series records an
     Estimate-stage fault and renders as —, a single element is every
     quantile of itself, NaN inputs propagate silently, p50 is exact on
     odd and even lengths;
   - generation is a pure function of (seed, class, size, index):
     byte-identical sources on repeated calls, different streams for
     different seeds;
   - every class generates programs that compile and terminate within
     the corpus fuel budget, and each class keeps its structural
     personality markers;
   - evaluation determinism: the same spec yields bit-identical
     aggregate [Score] records, rendered tables and degradation lists
     at jobs 1 and jobs 4 — and under chaos the fault set is
     jobs-independent (the [test_fault] guarantee extended to the
     corpus driver);
   - the profile stage shared with [Context]: a run that exhausts its
     fuel keeps a partial profile, marks its row divergent and records
     one Profile-stage fault and one [profile.partial] count. *)

module Shape = Corpus.Shape
module Genprog = Corpus.Genprog
module Stats = Driver.Stats
module Corpus_eval = Driver.Corpus_eval
module Fault = Driver.Fault
module Parallel = Driver.Parallel
module Score = Driver.Score
module Inject = Obs.Inject
module Pipeline = Core.Pipeline

let contains (haystack : string) (needle : string) : bool =
  let h = String.length haystack and n = String.length needle in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* Same discipline as [test_fault]: every test starts from and restores
   an idle process — no arming, no recorded faults or scores, jobs 1. *)
let pristine () =
  Inject.disarm_all ();
  Fault.reset ();
  Fault.set_strict false;
  Score.reset ();
  Parallel.set_jobs 1

let shielded (f : unit -> unit) () =
  pristine ();
  Fun.protect ~finally:pristine f

let exact = Alcotest.(check (float 0.0))
let close = Alcotest.(check (float 1e-9))

(* --- quantile ---------------------------------------------------------- *)

let test_quantile_empty () =
  let v = Stats.quantile 0.5 [] in
  Alcotest.(check bool) "empty series is NaN" true (Float.is_nan v);
  Alcotest.(check int) "one fault recorded" 1 (Fault.count ());
  (match Fault.sorted () with
  | [ f ] ->
    Alcotest.(check string) "estimate stage" "estimate"
      (Fault.stage_to_string f.Fault.f_stage);
    Alcotest.(check string) "default subject" "quantile" f.Fault.f_subject
  | fs -> Alcotest.failf "expected exactly one fault, got %d" (List.length fs));
  Alcotest.(check string) "renders as the marker" "—"
    (Driver.Text_table.pct v);
  (* the mean keeps the same convention (and its historical subject) *)
  Alcotest.(check bool) "empty mean is NaN" true
    (Float.is_nan (Stats.mean []));
  Alcotest.(check int) "mean recorded its own fault" 2 (Fault.count ())

let test_quantile_single () =
  List.iter
    (fun q -> exact (Printf.sprintf "p%g of singleton" q) 42.0
        (Stats.quantile q [ 42.0 ]))
    [ 0.0; 0.1; 0.5; 0.9; 1.0 ];
  Alcotest.(check int) "no faults" 0 (Fault.count ())

let test_quantile_nan_propagation () =
  let v = Stats.quantile 0.5 [ 1.0; Float.nan; 3.0 ] in
  Alcotest.(check bool) "NaN input propagates" true (Float.is_nan v);
  (* silent: the producing site already recorded the fault *)
  Alcotest.(check int) "no additional fault" 0 (Fault.count ())

let test_quantile_p50 () =
  exact "odd length: the middle element" 2.0
    (Stats.quantile 0.5 [ 3.0; 1.0; 2.0 ]);
  exact "even length: midpoint of the central pair" 2.5
    (Stats.quantile 0.5 [ 4.0; 1.0; 3.0; 2.0 ])

let test_quantile_bounds () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  exact "p0 is the minimum" 1.0 (Stats.quantile 0.0 xs);
  exact "p100 is the maximum" 10.0 (Stats.quantile 1.0 xs);
  close "p10 interpolates" 1.9 (Stats.quantile 0.1 xs);
  close "p90 interpolates" 9.1 (Stats.quantile 0.9 xs);
  exact "q below 0 clamps" 1.0 (Stats.quantile (-0.5) xs);
  exact "q above 1 clamps" 10.0 (Stats.quantile 1.5 xs)

(* Regression: an out-of-range q on an *empty* series used to format the
   fault from the unclamped value — "p150 quantile of empty series" for
   a request that quantile_opt would have evaluated as p100. The message
   must name the clamped quantile actually computed. *)
let test_quantile_empty_clamped_message () =
  let v = Stats.quantile 1.5 [] in
  Alcotest.(check bool) "still NaN" true (Float.is_nan v);
  (match Fault.sorted () with
  | [ f ] ->
    Alcotest.(check string) "clamped fault message"
      "p100 quantile of empty series" f.Fault.f_detail
  | fs -> Alcotest.failf "expected exactly one fault, got %d" (List.length fs));
  Fault.reset ();
  ignore (Stats.quantile (-3.0) []);
  match Fault.sorted () with
  | [ f ] ->
    Alcotest.(check string) "negative q clamps to p0"
      "p0 quantile of empty series" f.Fault.f_detail
  | fs -> Alcotest.failf "expected exactly one fault, got %d" (List.length fs)

(* Regression: the sort inside quantile_opt used polymorphic compare,
   under which -0.0 = 0.0 — so the sorted order of a signed-zero pair
   depended on *input* order, and a quantile landing on it could flip
   sign bit between runs. Float.compare's total order (-0.0 < 0.0)
   makes the result a pure function of the multiset. *)
let test_quantile_signed_zero_order_independent () =
  let a = Stats.quantile 0.0 [ -0.0; 0.0 ] in
  let b = Stats.quantile 0.0 [ 0.0; -0.0 ] in
  Alcotest.(check bool) "p0 identical (sign bit included) across orders"
    true (Float.sign_bit a = Float.sign_bit b);
  Alcotest.(check bool) "p0 of a signed-zero pair is -0.0" true
    (a = 0.0 && Float.sign_bit a);
  let hi = Stats.quantile 1.0 [ 0.0; -0.0 ] in
  Alcotest.(check bool) "p100 of a signed-zero pair is +0.0" true
    (hi = 0.0 && not (Float.sign_bit hi));
  (* subnormals sort by magnitude like any other float *)
  let tiny = Float.min_float *. epsilon_float in
  let xs = [ 0.0; tiny; -.tiny; -0.0 ] in
  Alcotest.(check bool) "p0 is the negative subnormal" true
    (compare (Stats.quantile 0.0 xs) (-.tiny) = 0);
  Alcotest.(check bool) "p100 is the positive subnormal" true
    (compare (Stats.quantile 1.0 xs) tiny = 0);
  Alcotest.(check int) "no faults" 0 (Fault.count ())

(* --- generation determinism ------------------------------------------- *)

let test_generation_deterministic () =
  List.iter
    (fun cls ->
      for index = 0 to 3 do
        let gen seed =
          Genprog.generate ~seed ~cls ~size:Shape.medium ~index
        in
        Alcotest.(check string)
          (Printf.sprintf "%s #%d reproducible"
             (Shape.class_to_string cls) index)
          (gen 1) (gen 1);
        Alcotest.(check bool)
          (Printf.sprintf "%s #%d differs across seeds"
             (Shape.class_to_string cls) index)
          true
          (gen 1 <> gen 2)
      done)
    Shape.all_classes

let test_generated_programs_terminate () =
  List.iter
    (fun cls ->
      for index = 0 to 4 do
        let name = Genprog.name cls index in
        let src =
          Genprog.generate ~seed:3 ~cls ~size:Shape.medium ~index
        in
        let c = Pipeline.compile ~name src in
        List.iter
          (fun (argv, input) ->
            let o =
              Pipeline.run_once ~fuel:Corpus_eval.corpus_fuel c
                { Pipeline.argv; input }
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s produced output" name)
              true
              (String.length o.Cinterp.Eval.stdout_text > 0))
          Genprog.runs
      done)
    Shape.all_classes

let test_class_personalities () =
  let src cls = Genprog.generate ~seed:1 ~cls ~size:Shape.medium ~index:0 in
  let expect cls marker =
    Alcotest.(check bool)
      (Printf.sprintf "%s contains %S" (Shape.class_to_string cls) marker)
      true
      (contains (src cls) marker)
  in
  expect Shape.Loop_nest "for (i0";
  expect Shape.Loop_nest "double";
  expect Shape.Branchy "switch";
  expect Shape.Branchy "fail(";
  expect Shape.Pointer_table "struct opdef";
  expect Shape.Pointer_table ".fn();";
  expect Shape.Recursive "walk0(";
  expect Shape.Recursive "int search(int i, int target, int sum)"

(* --- evaluation determinism across jobs -------------------------------- *)

let spec =
  { Corpus_eval.c_seed = 7; c_per_class = 3; c_size = Shape.small;
    c_classes = Shape.all_classes }

(* Evaluate from a pristine store and snapshot everything observable:
   the encoded score records (bit-exact via the JSON encoding), the
   rendered tables, and the degradation summary. *)
let snapshot (jobs : int) :
    string list * string * (string * string) list * int =
  pristine ();
  Parallel.set_jobs jobs;
  let r = Corpus_eval.evaluate spec in
  let scores =
    List.map
      (fun s -> Obs.Json.to_string (Driver.Run_record.score_to_json s))
      (Score.all ())
  in
  ( scores, r.Corpus_eval.o_rendered, r.Corpus_eval.o_degraded,
    r.Corpus_eval.o_divergent )

let test_jobs_invariance () =
  let s1, t1, d1, v1 = snapshot 1 in
  let s4, t4, d4, v4 = snapshot 4 in
  Alcotest.(check (list string)) "bit-identical score records" s1 s4;
  Alcotest.(check string) "identical rendered tables" t1 t4;
  Alcotest.(check (list (pair string string))) "identical degraded" d1 d4;
  Alcotest.(check int) "identical divergent count" v1 v4;
  (* 4 classes x (10 estimators x 4 statistics + 3 counters) *)
  Alcotest.(check int) "full distribution grid" 172 (List.length s1);
  List.iter
    (fun (s : Score.t) ->
      Alcotest.(check string) "corpus scores stay in their own experiment"
        "corpus" s.Score.s_experiment)
    (Score.all ())

let chaos_snapshot (jobs : int) (seed : int) :
    (string * string * string) list * (string * string) list * string =
  pristine ();
  Parallel.set_jobs jobs;
  Fault.arm_chaos ~seed ();
  let r = Corpus_eval.evaluate spec in
  let faults =
    List.map
      (fun (f : Fault.t) ->
        (Fault.stage_to_string f.Fault.f_stage, f.Fault.f_subject,
         f.Fault.f_detail))
      (Fault.sorted ())
  in
  Inject.disarm_all ();
  (faults, r.Corpus_eval.o_degraded, r.Corpus_eval.o_rendered)

let test_chaos_jobs_independent () =
  let seed = 424242 in
  let f1, d1, t1 = chaos_snapshot 1 seed in
  let f4, d4, t4 = chaos_snapshot 4 seed in
  Alcotest.(check (list (triple string string string)))
    "same seed, same fault set at jobs 1 and 4" f1 f4;
  Alcotest.(check (list (pair string string)))
    "same degraded rows" d1 d4;
  Alcotest.(check string) "same rendered tables" t1 t4;
  Alcotest.(check bool) "the chaos run recorded faults" true (f1 <> [])

(* --- the shared profile stage under an exhausted budget -------------- *)

(* [profile.fuel] armed once on one generated program: its first run
   exhausts the injected budget, so the row is divergent, keeps its
   partial profile (no degraded row) and leaves exactly one
   Profile-stage fault and one [profile.partial] count. *)
let test_fuel_partial_profile () =
  let victim = Genprog.name Shape.Loop_nest 1 in
  let was_enabled = Obs.Probe.enabled () in
  Obs.Probe.set_enabled true;
  Obs.Probe.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Probe.set_enabled was_enabled;
      Obs.Probe.reset ())
    (fun () ->
      Inject.arm ~key:victim ~count:1 "profile.fuel";
      let r =
        Corpus_eval.evaluate
          { Corpus_eval.c_seed = 1; c_per_class = 2; c_size = Shape.small;
            c_classes = [ Shape.Loop_nest ] }
      in
      Alcotest.(check int) "one divergent row" 1 r.Corpus_eval.o_divergent;
      Alcotest.(check (list (pair string string)))
        "the partial profile keeps the row" [] r.Corpus_eval.o_degraded;
      Alcotest.(check (list (list string)))
        "one Profile-stage fault"
        [ [ "profile"; victim; "run 0: fuel budget exhausted";
            "kept partial profile" ] ]
        (List.map
           (fun (f : Fault.t) ->
             [ Fault.stage_to_string f.Fault.f_stage; f.Fault.f_subject;
               f.Fault.f_detail; f.Fault.f_recovery ])
           (Fault.sorted ()));
      Alcotest.(check int) "profile.partial counted once" 1
        (match List.assoc_opt "profile.partial" (Obs.Probe.counters ()) with
        | Some c -> c.Obs.Probe.hits
        | None -> 0))

let suite =
  [ Alcotest.test_case "quantile: empty series faults and renders —" `Quick
      (shielded test_quantile_empty);
    Alcotest.test_case "quantile: singleton" `Quick
      (shielded test_quantile_single);
    Alcotest.test_case "quantile: NaN propagation" `Quick
      (shielded test_quantile_nan_propagation);
    Alcotest.test_case "quantile: exact p50, odd and even" `Quick
      (shielded test_quantile_p50);
    Alcotest.test_case "quantile: bounds and interpolation" `Quick
      (shielded test_quantile_bounds);
    Alcotest.test_case "quantile: empty-series fault names the clamped q"
      `Quick (shielded test_quantile_empty_clamped_message);
    Alcotest.test_case "quantile: signed zeros and subnormals sort totally"
      `Quick (shielded test_quantile_signed_zero_order_independent);
    Alcotest.test_case "generation is a pure function of its parameters"
      `Quick test_generation_deterministic;
    Alcotest.test_case "every class compiles and terminates under fuel"
      `Slow test_generated_programs_terminate;
    Alcotest.test_case "class personality markers" `Quick
      test_class_personalities;
    Alcotest.test_case "aggregate records bit-identical at jobs 1 and 4"
      `Slow (shielded test_jobs_invariance);
    Alcotest.test_case "chaos fault set is jobs-independent" `Slow
      (shielded test_chaos_jobs_independent);
    Alcotest.test_case "exhausted fuel keeps a partial profile" `Quick
      (shielded test_fuel_partial_profile) ]
