(* Shared, memoized experiment context: each suite program compiled once
   and profiled once per input. Every experiment — and the bench harness —
   draws from this cache, so running all of them costs one pass over the
   suite no matter how many consumers ask.

   The cache is content-keyed (program name + digest of source and run
   set): re-registering a program with different source or inputs
   recomputes instead of serving stale data, and entries surviving a
   [clear] race are still correct by construction.

   Fault tolerance: a cell holds a *result* — [Ok prog_data] or the
   [Fault.t] that took the program down. In the default (degrade) mode a
   failing program publishes its fault instead of poisoning the key:
   waiters blocked on the in-flight marker receive the fault rather than
   recomputing, [all] serves the healthy subset, and the experiments
   render a degraded row. Under [--strict] the computing loader re-raises
   with the original backtrace and *abandons* the key, so a later retry
   (e.g. after a transient, count-limited injection) recomputes from
   scratch instead of hitting a stale failure.

   Concurrency: the table is a mutex-protected memo with in-flight
   markers. A loader that finds no entry claims the key, computes
   outside the lock, publishes, and broadcasts; concurrent loaders of
   the same key block on the condition instead of duplicating the
   compile. [warm] fans the per-program pipeline stages (compile, then
   every profiling run) across the [Parallel] pool and merges in
   registry order, which is what makes [all] deterministic regardless
   of the jobs setting. *)

module Pipeline = Core.Pipeline
module Profile = Cinterp.Profile
module Eval = Cinterp.Eval

type prog_data = {
  bench : Suite.Bench_prog.t;
  compiled : Pipeline.compiled;
  profiles : Profile.t list;
}

type entry = (prog_data, Fault.t) result

(* Wall-clock ceiling per profiling run. Healthy suite runs finish in
   well under a second; the ceiling only exists so a runaway interpreter
   (a bug, or injected chaos) surfaces as a partial-profile fault
   instead of hanging the suite. *)
let run_deadline_s = 300.0

(* The fuel budget the ["profile.fuel"] injection point shrinks runs to:
   small enough that every suite program exhausts it, so arming the
   point deterministically exercises the partial-profile path. *)
let injected_fuel = 10

(* ------------------------------------------------------------------ *)
(* Content keys. *)

let key (bench : Suite.Bench_prog.t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf bench.Suite.Bench_prog.source;
  List.iter
    (fun (r : Suite.Bench_prog.run) ->
      Buffer.add_char buf '\x00';
      List.iter
        (fun a ->
          Buffer.add_string buf a;
          Buffer.add_char buf '\x01')
        r.Suite.Bench_prog.r_argv;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf r.Suite.Bench_prog.r_input)
    bench.Suite.Bench_prog.runs;
  bench.Suite.Bench_prog.name ^ ":"
  ^ Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* The memo table. *)

type cell =
  | Computing  (* claimed by a loader; wait on [cell_changed] *)
  | Done of entry

let m = Mutex.create ()
let cell_changed = Condition.create ()
let cache : (string, cell) Hashtbl.t = Hashtbl.create 16

let clear () =
  Mutex.lock m;
  Hashtbl.reset cache;
  Condition.broadcast cell_changed;
  Mutex.unlock m

let publish k e =
  Mutex.lock m;
  Hashtbl.replace cache k (Done e);
  Condition.broadcast cell_changed;
  Mutex.unlock m

let abandon k =
  Mutex.lock m;
  (match Hashtbl.find_opt cache k with
  | Some Computing -> Hashtbl.remove cache k
  | _ -> ());
  Condition.broadcast cell_changed;
  Mutex.unlock m

(* ------------------------------------------------------------------ *)
(* The per-program pipeline stages, shared with [Corpus_eval]. Callers
   wrap each stage in their own [Fault.capture] with their own recovery
   text. *)

let drop_recovery = "program dropped from suite (degraded row)"

let compile_stage (bench : Suite.Bench_prog.t) : Pipeline.compiled =
  let name = bench.Suite.Bench_prog.name in
  Obs.Inject.fire "compile" ~key:name;
  let c = Pipeline.compile ~name bench.Suite.Bench_prog.source in
  (* Lower to closures as part of the (parallel) compile stage, so the
     one-time cost is off the profiling path and spread across the
     domain pool during warm-up. *)
  ignore (Pipeline.closure_exe c);
  c

let compile_entry (bench : Suite.Bench_prog.t) :
    (Pipeline.compiled, Fault.t) result =
  Fault.capture ~stage:Fault.Compile
    ~subject:bench.Suite.Bench_prog.name ~recovery:drop_recovery (fun () ->
      compile_stage bench)

(* One (program, run) interpretation under [fuel] (none by default).
   Exhausting the fuel or wall-clock budget is a *recoverable* fault:
   the partial profile is kept and the program stays healthy. Returns
   the profile and whether the budget ran out — the corpus's divergence
   marker. *)
let profile_stage ?fuel (compiled : Pipeline.compiled) (run_index : int)
    (r : Suite.Bench_prog.run) : Profile.t * bool =
  let name = compiled.Pipeline.name in
  Obs.Inject.fire "profile" ~key:name;
  let fuel =
    if Obs.Inject.should_fire "profile.fuel" ~key:name then
      Some injected_fuel
    else fuel
  in
  let run =
    { Pipeline.argv = r.Suite.Bench_prog.r_argv;
      input = r.Suite.Bench_prog.r_input }
  in
  match Pipeline.run_once ?fuel ~deadline_s:run_deadline_s compiled run with
  | o -> (o.Eval.profile, false)
  | exception Eval.Budget_exhausted (stop, outcome) ->
    Obs.Probe.count "profile.partial";
    Fault.record
      { Fault.f_stage = Fault.Profile; f_subject = name;
        f_detail =
          Printf.sprintf "run %d: %s budget exhausted" run_index
            (Eval.budget_stop_to_string stop);
        f_exn = ""; f_backtrace = "";
        f_recovery = "kept partial profile" };
    (outcome.Eval.profile, true)

let profiles_entry (bench : Suite.Bench_prog.t)
    (compiled : Pipeline.compiled) : (Profile.t list, Fault.t) result =
  Fault.capture ~stage:Fault.Profile
    ~subject:bench.Suite.Bench_prog.name ~recovery:drop_recovery (fun () ->
      List.mapi
        (fun i r -> fst (profile_stage compiled i r))
        bench.Suite.Bench_prog.runs)

let compute (bench : Suite.Bench_prog.t) : entry =
  match compile_entry bench with
  | Error f -> Error f
  | Ok compiled -> (
    match profiles_entry bench compiled with
    | Error f -> Error f
    | Ok profiles -> Ok { bench; compiled; profiles })

let load (bench : Suite.Bench_prog.t) : entry =
  let k = key bench in
  Mutex.lock m;
  let rec get () =
    match Hashtbl.find_opt cache k with
    | Some (Done e) ->
      Mutex.unlock m;
      Obs.Probe.count "context.cache_hit";
      e
    | Some Computing ->
      Obs.Probe.count "context.cache_wait";
      Condition.wait cell_changed m;
      get ()
    | None ->
      Hashtbl.replace cache k Computing;
      Mutex.unlock m;
      Obs.Probe.count "context.cache_miss";
      (match compute bench with
      | e -> publish k e; e
      | exception e ->
        (* strict mode (or a bug below the captures): leave the key
           retryable, never poisoned *)
        let bt = Printexc.get_raw_backtrace () in
        abandon k;
        Printexc.raise_with_backtrace e bt)
  in
  get ()

(* ------------------------------------------------------------------ *)
(* Parallel warm-up: claim every missing program, fan the compile stage
   out per program, then the profile stage per (program, run) pair, and
   publish assembled results. Pure fan-out/merge: stage outputs are
   indexed by input position, never by completion order. Worker-level
   task deaths (the ["worker"] injection point, or anything thrown
   outside the stage captures) degrade the one program they belong to;
   in strict mode [Fault.absorb] re-raises instead and every claimed key
   is abandoned. *)

let absorb_slot ~(subject : string) ?detail
    (slot : (('a, Fault.t) result, exn * Printexc.raw_backtrace) result) :
    ('a, Fault.t) result =
  match slot with
  | Ok entry -> entry
  | Error (e, bt) ->
    Error
      (Fault.absorb ~stage:Fault.Worker ~subject ?detail
         ~recovery:drop_recovery e bt)

let warm () : unit =
  Obs.Probe.with_span "context.warm" @@ fun () ->
  Mutex.lock m;
  let missing =
    List.filter
      (fun b ->
        let k = key b in
        match Hashtbl.find_opt cache k with
        | Some _ -> false
        | None ->
          Hashtbl.replace cache k Computing;
          Obs.Probe.count "context.cache_miss";
          true)
      Suite.Registry.all
  in
  Mutex.unlock m;
  if missing <> [] then begin
    match
      let compiled_entries =
        List.map2
          (fun (b : Suite.Bench_prog.t) slot ->
            absorb_slot ~subject:b.Suite.Bench_prog.name slot)
          missing
          (Parallel.map_results compile_entry missing)
      in
      (* Fan the profile stage out per (program, run) pair of the
         healthy compiles. *)
      let flat_runs =
        List.concat
          (List.map2
             (fun (b : Suite.Bench_prog.t) ce ->
               match ce with
               | Ok c ->
                 List.mapi (fun i r -> (b, c, i, r)) b.Suite.Bench_prog.runs
               | Error _ -> [])
             missing compiled_entries)
      in
      let flat_profiles =
        List.map2
          (fun ((b : Suite.Bench_prog.t), _, i, _) slot ->
            absorb_slot ~subject:b.Suite.Bench_prog.name
              ~detail:(Printf.sprintf "run %d" i) slot)
          flat_runs
          (Parallel.map_results
             (fun (b, c, i, r) ->
               Fault.capture ~stage:Fault.Profile
                 ~subject:b.Suite.Bench_prog.name
                 ~detail:(Printf.sprintf "run %d" i)
                 ~recovery:drop_recovery (fun () ->
                   fst (profile_stage c i r)))
             flat_runs)
      in
      (* Reassemble the flat profile list program by program, in run
         order, and publish each entry. A program with any faulted run
         degrades to its first (lowest-index) fault. *)
      let rec split n = function
        | rest when n = 0 -> ([], rest)
        | p :: rest ->
          let taken, rest = split (n - 1) rest in
          (p :: taken, rest)
        | [] -> invalid_arg "Context.warm: profile count mismatch"
      in
      let leftover =
        List.fold_left2
          (fun profiles (b : Suite.Bench_prog.t) ce ->
            match ce with
            | Error f ->
              publish (key b) (Error f);
              profiles
            | Ok c ->
              let mine, rest =
                split (List.length b.Suite.Bench_prog.runs) profiles
              in
              let entry =
                match
                  List.find_map
                    (function Error f -> Some f | Ok _ -> None)
                    mine
                with
                | Some f -> Error f
                | None ->
                  Ok
                    { bench = b; compiled = c;
                      profiles =
                        List.map
                          (function Ok p -> p | Error _ -> assert false)
                          mine }
              in
              publish (key b) entry;
              rest)
          flat_profiles missing compiled_entries
      in
      assert (leftover = [])
    with
    | () -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      List.iter (fun b -> abandon (key b)) missing;
      Printexc.raise_with_backtrace e bt
  end

let all_entries () : (Suite.Bench_prog.t * entry) list =
  warm ();
  List.map (fun b -> (b, load b)) Suite.Registry.all

let all () : prog_data list =
  List.filter_map
    (fun (_, e) -> match e with Ok d -> Some d | Error _ -> None)
    (all_entries ())

let degraded () : (string * Fault.t) list =
  List.filter_map
    (fun ((b : Suite.Bench_prog.t), e) ->
      match e with
      | Ok _ -> None
      | Error f -> Some (b.Suite.Bench_prog.name, f))
    (all_entries ())

let by_name (name : string) : prog_data =
  match Suite.Registry.find name with
  | Some bench -> (
    match load bench with
    | Ok d -> d
    | Error f -> raise (Fault.Degraded f))
  | None -> invalid_arg ("unknown suite program " ^ name)
