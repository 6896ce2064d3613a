(* The fault-tolerance layer, exercised through deterministic fault
   injection ([Obs.Inject] armed via [Driver.Fault]):

   - each registered injection point, armed in turn (and several at
     once), at jobs 1 and jobs 4: the suite completes, degraded rows are
     annotated, recoverable stages record their recovery, and the exit
     code reflects the degradation;
   - chaos mode: the same seed produces the identical degradation
     pattern and identical rendered output at any jobs setting;
   - the byte-identity guarantee: with injection disarmed, output is
     byte-identical to a run where the machinery was never touched;
   - the [Context] cache under faults: strict mode abandons the key so
     a fail-once loader succeeds on retry; degrade mode publishes the
     fault entry so waiters never recompute;
   - a qcheck fuzz property: [Pipeline.compile] is total over arbitrary
     bytes and mutated suite sources — only the documented front-end
     taxonomy escapes. *)

module Parallel = Driver.Parallel
module Context = Driver.Context
module Experiments = Driver.Experiments
module Fault = Driver.Fault
module Inject = Obs.Inject
module Pipeline = Core.Pipeline

let contains (haystack : string) (needle : string) : bool =
  let h = String.length haystack and n = String.length needle in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* Every test starts from — and restores — a fully idle process: no
   arming, no recorded faults, sequential pool, cold cache, degrade
   mode. The rest of the alcotest binary must never see fault state. *)
let pristine () =
  Inject.disarm_all ();
  Fault.reset ();
  Fault.set_strict false;
  Context.clear ();
  Parallel.set_jobs 1

let shielded (f : unit -> unit) () =
  pristine ();
  Fun.protect ~finally:pristine f

let run_exp (id : string) : string =
  match Experiments.find id with
  | Some f -> f ()
  | None -> Alcotest.failf "unknown experiment %s" id

let bench_name (b : Suite.Bench_prog.t) = b.Suite.Bench_prog.name

(* --- registry --------------------------------------------------------- *)

let test_registry () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is registered" p)
        true
        (List.mem p (Inject.registered ())))
    Fault.injection_points;
  Alcotest.(check bool) "registry idle by default" false (Inject.armed ())

(* --- every injection point, in turn ----------------------------------- *)

(* One warm pass with the program-stage points armed on distinct
   programs, then the solver/estimator/worker points against the warmed
   cache. Run at jobs 1 and jobs 4: the degradation semantics must not
   depend on the pool. *)
let exercise_points (jobs : int) () =
  Parallel.set_jobs jobs;

  (* compile / profile / profile.fuel — armed together, one suite pass *)
  Inject.arm ~key:"queens_mini" "compile";
  Inject.arm ~key:"tree_mini" "profile";
  Inject.arm ~key:"life_mini" "profile.fuel";
  let was_enabled = Obs.Probe.enabled () in
  Obs.Probe.set_enabled true;
  Obs.Probe.reset ();
  let entries, partial_hits =
    Fun.protect
      ~finally:(fun () ->
        Obs.Probe.set_enabled was_enabled;
        Obs.Probe.reset ())
      (fun () ->
        let entries = Context.all_entries () in
        ( entries,
          match List.assoc_opt "profile.partial" (Obs.Probe.counters ()) with
          | Some c -> c.Obs.Probe.hits
          | None -> 0 ))
  in
  Alcotest.(check int) "every program reported"
    (List.length Suite.Registry.all)
    (List.length entries);
  List.iter
    (fun (b, e) ->
      match (bench_name b, e) with
      | "queens_mini", Error f ->
        Alcotest.(check string) "queens_mini degrades at compile" "compile"
          (Fault.stage_to_string f.Fault.f_stage)
      | "tree_mini", Error f ->
        Alcotest.(check string) "tree_mini degrades at profile" "profile"
          (Fault.stage_to_string f.Fault.f_stage)
      | (("queens_mini" | "tree_mini") as n), Ok _ ->
        Alcotest.failf "%s should have degraded" n
      | _, Ok _ -> ()
      | n, Error f ->
        Alcotest.failf "%s unexpectedly degraded (%s)" n f.Fault.f_exn)
    entries;
  (* budget exhaustion is recoverable: life_mini keeps its (partial)
     profiles and stays healthy, but the recovery is on the record *)
  Alcotest.(check bool) "partial profiles recorded as faults" true
    (List.exists
       (fun (f : Fault.t) ->
         f.Fault.f_subject = "life_mini"
         && f.Fault.f_recovery = "kept partial profile")
       (Fault.sorted ()));
  Alcotest.(check int) "profile.partial counts every exhausted run"
    (Suite.Bench_prog.n_runs (Option.get (Suite.Registry.find "life_mini")))
    partial_hits;
  Alcotest.(check int) "degraded run exits 3" Fault.degraded_exit_code
    (Fault.exit_code ());
  let t1 = run_exp "table1" in
  Alcotest.(check bool) "degraded row is annotated" true
    (contains t1 "queens_mini \xe2\x80\xa0");
  Alcotest.(check bool) "degradation note names the stage" true
    (contains t1 "degraded at the compile stage");
  Alcotest.(check bool) "healthy rows still render" true
    (contains t1 "lisp_mini");

  (* solve.intra — the Markov chain collapses to the loop fallback; the
     figure still renders every row *)
  Inject.disarm_all ();
  Fault.reset ();
  Inject.arm "solve.intra";
  let f4 = run_exp "fig4" in
  Alcotest.(check bool) "fig4 completes on the fallback chain" true
    (not (contains f4 "DEGRADED"));
  Alcotest.(check bool) "intra fallbacks recorded" true (Fault.count () > 0);

  (* solve.inter — degradation chain ends in the call-site estimate *)
  Inject.disarm_all ();
  Fault.reset ();
  Inject.arm "solve.inter";
  let d = Context.by_name "compress_mini" in
  let intra = Pipeline.intra_provider d.Context.compiled Pipeline.Ismart in
  let est =
    Pipeline.inter_estimate d.Context.compiled ~intra Pipeline.Imarkov_inter
  in
  Alcotest.(check bool) "fallback estimate is finite and usable" true
    (Array.length est > 0
    && Array.for_all (fun v -> Float.is_finite v && v >= 0.0) est);
  Alcotest.(check bool) "inter fallback recorded" true (Fault.count () > 0);

  (* estimate — an estimator-table failure degrades one experiment to a
     notice, not the process *)
  Inject.disarm_all ();
  Fault.reset ();
  Inject.arm ~key:"hash_mini" "estimate";
  let f4 = run_exp "fig4" in
  Alcotest.(check bool) "experiment degrades to a notice" true
    (contains f4 "DEGRADED");
  Alcotest.(check int) "estimator fault exits 3" Fault.degraded_exit_code
    (Fault.exit_code ());

  (* worker — a pool task dying outside every inner capture *)
  Inject.disarm_all ();
  Fault.reset ();
  Inject.arm ~key:"0" "worker";
  let t1 = run_exp "table1" in
  Alcotest.(check bool) "worker death degrades the experiment" true
    (contains t1 "DEGRADED")

(* --- chaos mode ------------------------------------------------------- *)

let chaos_pattern (jobs : int) (seed : int) :
    (string * string) list * string =
  pristine ();
  Parallel.set_jobs jobs;
  Fault.arm_chaos ~seed ();
  let pattern =
    List.map
      (fun (b, e) ->
        ( bench_name b,
          match e with
          | Ok _ -> "ok"
          | Error f -> Fault.stage_to_string f.Fault.f_stage ))
      (Context.all_entries ())
  in
  let rendered = run_exp "table1" in
  Inject.disarm_all ();
  (pattern, rendered)

let test_chaos_deterministic () =
  let seed = 424242 in
  let p1, t1 = chaos_pattern 1 seed in
  let p4, t4 = chaos_pattern 4 seed in
  Alcotest.(check (list (pair string string)))
    "same seed, same degradation pattern at jobs 1 and 4" p1 p4;
  Alcotest.(check string) "same seed, same rendered output" t1 t4;
  Alcotest.(check bool) "the chaos run degraded something" true
    (List.exists (fun (_, s) -> s <> "ok") p1)

(* --- byte-identity with injection disabled ---------------------------- *)

let test_disarmed_byte_identity () =
  let render () = run_exp "table1" ^ "\n" ^ run_exp "fig2" in
  let before = render () in
  Alcotest.(check int) "healthy run exits 0" 0 (Fault.exit_code ());
  (* arm the whole registry, then disarm: the machinery must leave no
     residue in the output *)
  Fault.arm_chaos ~seed:7 ();
  Inject.disarm_all ();
  Fault.reset ();
  Context.clear ();
  let after = render () in
  Alcotest.(check string)
    "disabled injection leaves the output byte-identical" before after;
  Alcotest.(check int) "still healthy" 0 (Fault.exit_code ())

(* --- the cache under faults ------------------------------------------- *)

(* Strict mode abandons the computing key on failure: a loader that
   fails once (count-limited injection) then succeeds must succeed on
   retry — the cache is never poisoned. *)
let test_strict_abandons_key () =
  Fault.set_strict true;
  Inject.arm ~key:"queens_mini" ~count:1 "compile";
  (match Context.by_name "queens_mini" with
  | _ -> Alcotest.fail "strict mode must re-raise the injected fault"
  | exception Inject.Injected ("compile", "queens_mini") -> ()
  | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e));
  let d = Context.by_name "queens_mini" in
  Alcotest.(check string) "retry recomputes and succeeds" "queens_mini"
    (bench_name d.Context.bench)

(* Degrade mode publishes the fault as the entry: the injection is
   exhausted after one firing, so a recompute would succeed — a second
   lookup must still observe the *published* fault, proving waiters are
   served the entry instead of recomputing. *)
let test_degrade_publishes_fault () =
  Inject.arm ~key:"queens_mini" ~count:1 "compile";
  (match Context.by_name "queens_mini" with
  | _ -> Alcotest.fail "expected a degraded program"
  | exception Fault.Degraded f ->
    Alcotest.(check string) "fault carries the stage" "compile"
      (Fault.stage_to_string f.Fault.f_stage));
  (match Context.by_name "queens_mini" with
  | _ -> Alcotest.fail "cache recomputed instead of serving the fault"
  | exception Fault.Degraded _ -> ());
  Alcotest.(check int) "degraded exit code" Fault.degraded_exit_code
    (Fault.exit_code ())

(* --- fuzz: the compile front end is total ----------------------------- *)

(* The documented compile-stage taxonomy. Anything else escaping
   [Pipeline.compile] is a front-end crash. *)
let documented_escape = function
  | Cfront.Preproc.Error _ | Cfront.Lexer.Error _ | Cfront.Parser.Error _
  | Cfront.Typecheck.Error _ | Cfront.Ctypes.Type_error _
  | Cfg_ir.Build.Error _ ->
    true
  | _ -> false

let gen_compile_input : string QCheck.arbitrary =
  let open QCheck.Gen in
  let raw = string_size ~gen:char (int_bound 400) in
  let sources =
    List.map (fun b -> b.Suite.Bench_prog.source) Suite.Registry.all
  in
  let mutated =
    oneofl sources >>= fun src ->
    let n = String.length src in
    frequency
      [ ( 2,
          (* delete a slice *)
          int_bound (n - 1) >>= fun i ->
          int_bound (n - i) >|= fun len ->
          String.sub src 0 i ^ String.sub src (i + len) (n - i - len) );
        ( 2,
          (* overwrite one byte *)
          int_bound (n - 1) >>= fun i ->
          char >|= fun c ->
          String.mapi (fun j x -> if j = i then c else x) src );
        ( 1,
          (* insert a confusing token *)
          int_bound n >>= fun i ->
          oneofl
            [ "}"; "{"; "*"; ";"; "int"; "else"; "\""; "/*"; "0x"; "(";
              "case"; "#" ]
          >|= fun tok -> String.sub src 0 i ^ tok ^ String.sub src i (n - i)
        ) ]
  in
  QCheck.make
    ~print:(Printf.sprintf "%S")
    (frequency [ (1, raw); (3, mutated) ])

let prop_compile_total =
  QCheck.Test.make
    ~name:
      "Pipeline.compile is total over junk — only the documented \
       taxonomy escapes"
    ~count:300 gen_compile_input (fun src ->
      match Pipeline.compile ~name:"fuzz" src with
      | _ -> true
      | exception e ->
        if documented_escape e then true
        else
          QCheck.Test.fail_reportf "undocumented escape: %s"
            (Printexc.to_string e))

(* ---------------------------------------------------------------------- *)

let suite =
  [ Alcotest.test_case "every point is registered" `Quick
      (shielded test_registry);
    Alcotest.test_case "each injection point in turn, jobs 1" `Slow
      (shielded (exercise_points 1));
    Alcotest.test_case "each injection point in turn, jobs 4" `Slow
      (shielded (exercise_points 4));
    Alcotest.test_case "chaos: same seed, same degradation at any jobs"
      `Slow
      (shielded test_chaos_deterministic);
    Alcotest.test_case "disarmed injection is byte-invisible" `Slow
      (shielded test_disarmed_byte_identity);
    Alcotest.test_case "strict mode leaves the cache retryable" `Quick
      (shielded test_strict_abandons_key);
    Alcotest.test_case "degrade mode publishes the fault entry" `Quick
      (shielded test_degrade_publishes_fault);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xfa017 |])
      prop_compile_total ]
