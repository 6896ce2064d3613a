(** Deterministic work-queue scheduler on OCaml 5 domains.

    A single process-wide pool of worker domains drains a shared task
    queue; {!map} fans a list of independent computations out across the
    pool and merges the results back in input order, so the output of a
    parallel map is byte-identical to [List.map] whenever the tasks
    themselves are deterministic and independent. The parallelism level
    is a process-wide setting ([--jobs] on the command line):

    - [jobs <= 1] runs everything inline in the calling domain — the
      sequential reference path that the differential tests compare
      against;
    - [jobs = n > 1] keeps [n - 1] worker domains and lets the calling
      domain drain the queue too while it waits, so [n] tasks run
      concurrently.

    Nested {!map} calls (a task that itself maps) run inline in the
    domain that is executing the task: the pool never deadlocks waiting
    on itself, and nesting cannot change results.

    Error handling: every slot always runs — one failing task never
    short-circuits the rest, at any jobs setting — and every failure is
    collected with its input index and raw backtrace. {!map} re-raises:
    a single failure re-raises the original exception with its original
    backtrace; several raise {!Worker_errors} ordered by input index.
    {!map_results} returns the per-slot outcomes instead, for callers
    (the suite cache) that degrade per item rather than abort.

    Every slot also passes the ["worker"] fault-injection point
    ({!Obs.Inject}, key = input index as a string) before its task body,
    on the sequential and pooled paths alike, so chaos runs kill the
    same tasks at every jobs setting. *)

exception Worker_errors of (int * exn * Printexc.raw_backtrace) list
(** Raised by {!map} when more than one task failed: every failure, with
    its input index and the raw backtrace captured where it was thrown,
    in input-index order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default parallelism. *)

val jobs : unit -> int
(** The current process-wide parallelism level (>= 1). *)

val max_jobs : int
(** The largest parallelism level {!set_jobs} accepts: the OCaml
    runtime's per-process domain limit (128). *)

val set_jobs : int -> unit
(** Set the parallelism level (clamped to >= 1; above {!max_jobs} it
    raises [Invalid_argument] and keeps the current level). If a pool of a
    different size is running it is retired (its workers join) and the
    next {!map} spawns a fresh one — so the level may be resized
    between fan-outs at any point in a process's life (the serve
    daemon does, between request batches). Raises [Invalid_argument]
    when called from inside a {!map} task: retiring the pool would
    join the very domain making the call, deadlocking it. *)

val pool_size : unit -> int option
(** Size of the live worker pool, or [None] when none is running
    (before the first fan-out, or after {!shutdown}/a pending resize —
    pools are created lazily by the next {!map}). Observational only;
    [serve stats] reports it. *)

val map_results :
  ('a -> 'b) -> 'a list -> ('b, exn * Printexc.raw_backtrace) result list
(** [map_results f xs] runs every [f x] (up to [jobs ()] concurrently)
    and returns each slot's outcome in input order, never raising
    itself. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element of [xs], running up to
    [jobs ()] applications concurrently, and returns the results in
    input order. On failure, re-raises (see the error-handling notes
    above). *)

val run : (unit -> 'a) list -> 'a list
(** [run thunks] executes the thunks across the pool and returns their
    results in input order — [map] for heterogeneous stage lists. *)

val shutdown : unit -> unit
(** Retire the pool, joining all worker domains. The next {!map} call
    respawns it; useful around benchmarks that must not see idle
    workers from an earlier configuration. Registered [at_exit].
    Raises [Invalid_argument] from inside a {!map} task, like
    {!set_jobs}. *)
