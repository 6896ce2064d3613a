(* Work-queue scheduler on OCaml 5 domains.

   One process-wide pool sized by [set_jobs]. Tasks are closures pushed
   onto a mutex-protected queue; [jobs - 1] worker domains plus the
   calling domain drain it. Results land in a per-call array indexed by
   input position, so merge order never depends on scheduling — the
   determinism the differential tests assert.

   Error handling: every slot always runs (a failure in one task never
   short-circuits the others, at any jobs setting, so the set of
   side effects is jobs-independent), and every failure is kept with its
   index and raw backtrace. [map_results] hands the per-slot outcomes to
   callers that degrade per item; [map] re-raises — the original
   exception with its original backtrace for a single failure,
   [Worker_errors] (ordered by input index) for several.

   Each slot passes the ["worker"] injection point (key = input index)
   before its task body, so the chaos harness can kill tasks at the
   pool boundary deterministically; disarmed, the check is one atomic
   load.

   Thread-safety contract with the rest of the tree: tasks must only
   read shared state (the analysis passes are pure per call; the config
   record in [Core.Config] is written strictly between parallel
   regions). The only writes a task performs land in its own slot of
   the per-call result array, under the pool mutex. *)

let default_jobs () = Domain.recommended_domain_count ()

let jobs_setting = Atomic.make (default_jobs ())

let jobs () = Atomic.get jobs_setting

exception Worker_errors of (int * exn * Printexc.raw_backtrace) list

let () =
  Printexc.register_printer (function
    | Worker_errors errors ->
      Some
        (Printf.sprintf "Driver.Parallel.Worker_errors([%s])"
           (String.concat "; "
              (List.map
                 (fun (i, e, _) ->
                   Printf.sprintf "task %d: %s" i (Printexc.to_string e))
                 errors)))
    | _ -> None)

(* Tasks run with this flag set; a nested [map] sees it and runs inline
   rather than re-entering the queue it is being drained from. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type pool = {
  size : int;  (* concurrency level: workers + the calling domain *)
  m : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let run_task_inline task =
  Domain.DLS.set in_task true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_task false) task

let worker_loop (p : pool) : unit =
  let rec loop () =
    Mutex.lock p.m;
    while Queue.is_empty p.queue && not p.stop do
      Condition.wait p.work_available p.m
    done;
    match Queue.take_opt p.queue with
    | Some task ->
      Mutex.unlock p.m;
      run_task_inline task;
      loop ()
    | None ->
      (* stopped and drained *)
      Mutex.unlock p.m
  in
  loop ()

let create_pool (size : int) : pool =
  let p =
    { size; m = Mutex.create (); work_available = Condition.create ();
      queue = Queue.create (); stop = false; workers = [||] }
  in
  p.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p));
  p

let retire_pool (p : pool) : unit =
  Mutex.lock p.m;
  p.stop <- true;
  Condition.broadcast p.work_available;
  Mutex.unlock p.m;
  Array.iter Domain.join p.workers;
  p.workers <- [||]

(* The current pool; guarded by [pool_lock]. Only the main domain
   creates, resizes or retires pools. *)
let pool_lock = Mutex.create ()
let current_pool : pool option ref = ref None
let exit_hook_installed = ref false

(* Retiring the pool joins its workers; doing that from a task running
   on one of those workers (or from the calling domain mid-drain) can
   never complete — the domain would be waiting for itself. Fail fast
   instead of deadlocking. *)
let reject_reentrant what =
  if Domain.DLS.get in_task then
    invalid_arg
      (Printf.sprintf
         "Parallel.%s: called from inside a Parallel task; resizing or \
          retiring the pool from a task would deadlock"
         what)

let shutdown () =
  reject_reentrant "shutdown";
  Mutex.lock pool_lock;
  (match !current_pool with
  | Some p -> current_pool := None; Mutex.unlock pool_lock; retire_pool p
  | None -> Mutex.unlock pool_lock)

(* The OCaml runtime runs at most 128 domains in one process
   ([Max_domains] in 5.1, the default of OCAMLRUNPARAM's [d] from 5.2);
   a pool of [n] jobs runs [n] of them, the calling domain included.
   Refusing a larger level here keeps the next fan-out from dying in
   [Domain.spawn]. *)
let max_jobs = 128

let set_jobs (n : int) : unit =
  reject_reentrant "set_jobs";
  if n > max_jobs then
    invalid_arg
      (Printf.sprintf "Parallel.set_jobs: %d jobs exceeds the limit of %d" n
         max_jobs);
  let n = max 1 n in
  if n <> Atomic.get jobs_setting then begin
    Atomic.set jobs_setting n;
    shutdown ()
  end

(* Size of the live pool, [None] when no pool has been spun up (or the
   last one was retired). Purely observational — [serve stats] reports
   it so a client can see whether a [resize] has taken effect yet
   (pools are created lazily on the next fan-out). *)
let pool_size () : int option =
  Mutex.lock pool_lock;
  let s = Option.map (fun p -> p.size) !current_pool in
  Mutex.unlock pool_lock;
  s

let get_pool () : pool =
  Mutex.lock pool_lock;
  let p =
    match !current_pool with
    | Some p when p.size = jobs () -> p
    | stale ->
      (match stale with Some p -> retire_pool p | None -> ());
      let p = create_pool (jobs ()) in
      current_pool := Some p;
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        at_exit shutdown
      end;
      p
  in
  Mutex.unlock pool_lock;
  p

(* One slot: the worker injection gate, then the task body. Identical on
   the sequential and pooled paths — the chaos harness's jobs-
   independence depends on that. *)
let run_one (f : 'a -> 'b) (x : 'a) (i : int) :
    ('b, exn * Printexc.raw_backtrace) result =
  Obs.Hist.time "parallel.task.ns" (fun () ->
      match
        Obs.Inject.fire "worker" ~key:(string_of_int i);
        f x
      with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))

(* One fan-out/merge cycle yielding per-slot outcomes. The caller seeds
   the queue, then alternates between draining tasks itself and sleeping
   on [all_done] until every slot is filled. *)
let map_results (f : 'a -> 'b) (xs : 'a list) :
    ('b, exn * Printexc.raw_backtrace) result list =
  let n = List.length xs in
  if jobs () <= 1 || n <= 1 || Domain.DLS.get in_task then
    List.mapi (fun i x -> run_one f x i) xs
  else begin
    let p = get_pool () in
    let input = Array.of_list xs in
    let results : ('b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let remaining = ref n in
    let all_done = Condition.create () in
    (* Spans opened inside tasks attach below the span that scheduled
       the fan-out, whichever domain runs them. *)
    let parent = Obs.Probe.current_span () in
    let run_slot i =
      let outcome =
        Obs.Probe.with_parent parent (fun () ->
            if Obs.Probe.enabled () then begin
              Obs.Probe.count "parallel.task";
              Obs.Probe.count
                (Printf.sprintf "parallel.tasks.d%d"
                   (Domain.self () :> int))
            end;
            run_one f input.(i) i)
      in
      Mutex.lock p.m;
      results.(i) <- Some outcome;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock p.m
    in
    Mutex.lock p.m;
    for i = 0 to n - 1 do
      Queue.push (fun () -> run_slot i) p.queue
    done;
    Condition.broadcast p.work_available;
    let rec drain () =
      if !remaining > 0 then
        match Queue.take_opt p.queue with
        | Some task ->
          Mutex.unlock p.m;
          run_task_inline task;
          Mutex.lock p.m;
          drain ()
        | None ->
          (* queue empty but tasks still in flight on workers *)
          Condition.wait all_done p.m;
          drain ()
    in
    drain ();
    Mutex.unlock p.m;
    List.init n (fun i -> Option.get results.(i))
  end

let map (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let slots = map_results f xs in
  let errors =
    List.concat
      (List.mapi
         (fun i -> function Error (e, bt) -> [ (i, e, bt) ] | Ok _ -> [])
         slots)
  in
  match errors with
  | [] ->
    List.map (function Ok v -> v | Error _ -> assert false) slots
  | [ (_, e, bt) ] -> Printexc.raise_with_backtrace e bt
  | errors -> raise (Worker_errors errors)

let run (thunks : (unit -> 'a) list) : 'a list = map (fun t -> t ()) thunks
