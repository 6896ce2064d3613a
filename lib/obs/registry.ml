(* The canonical metric-name registry.

   Every counter, gauge and histogram the tree emits through Probe/Hist
   is declared here with its kind and meaning; the DESIGN.md telemetry
   table is generated from the same data, and a test walks a full chaos
   suite run asserting every emitted name resolves against this table —
   a silent metric rename breaks the build the same way a score drift
   does. Names with a dynamic tail (per-domain task tallies, per-stage
   fault counts) register as prefixes. *)

type kind = Counter | Gauge | Hist

type entry = {
  e_name : string;      (* exact name, or the prefix when e_prefix *)
  e_prefix : bool;      (* true: matches every name starting with e_name *)
  e_kind : kind;
  e_meaning : string;
}

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Hist -> "hist"

let exact name kind meaning =
  { e_name = name; e_prefix = false; e_kind = kind; e_meaning = meaning }

let prefix name kind meaning =
  { e_name = name; e_prefix = true; e_kind = kind; e_meaning = meaning }

let entries : entry list =
  [ (* serve daemon *)
    exact "serve.request.ns" Hist
      "end-to-end latency of each client request line, recorded once \
       per request at the answering parent (units: ns)";
    exact "serve.handle.ns" Hist
      "worker-side handling latency of one forwarded request (units: ns)";
    exact "serve.shed" Counter
      "requests rejected with the overloaded marker by the admission gate";
    exact "serve.slow" Counter
      "requests slower than --slow-ms appended to the slow-request log";
    exact "serve.queue_depth" Gauge
      "pending request lines queued behind the admission gate (socket \
       carrier)";
    exact "serve.worker_death" Counter "supervised worker processes that died";
    exact "serve.worker_restart" Counter
      "supervised worker processes respawned after a death";
    exact "serve.worker_lost" Counter
      "requests answered with the worker_lost marker after replay failed";
    exact "serve.deadline_kill" Counter
      "workers killed for overrunning the per-request deadline";
    (* analysis context / session cache *)
    exact "context.cache_hit" Counter "session program-cache hits";
    exact "context.cache_miss" Counter "session program-cache misses";
    exact "context.cache_wait" Counter
      "lookups that blocked on another task filling the same slot";
    exact "profile.work_units" Counter
      "work units (executed instructions + blocks) of each profiling run";
    exact "profile.minor_words_per_unit" Counter
      "minor-heap words the profiling domain allocated per work unit, one \
       observation per run";
    exact "profile.partial" Counter
      "profiling runs that exhausted their fuel or wall-clock budget and \
       kept a partial profile (suite and corpus)";
    (* parallel runner *)
    exact "parallel.task" Counter "tasks executed by Parallel.map";
    exact "parallel.task.ns" Hist
      "per-task dispatch-to-completion latency in Parallel.map (units: ns)";
    prefix "parallel.tasks.d" Counter
      "tasks executed per worker domain (suffix: domain id)";
    (* fault containment *)
    prefix "fault." Counter
      "captured faults per stage (suffix: compile/profile/solve/estimate/\
       experiment/worker/persist)";
    (* incremental store *)
    exact "incr.hit" Counter "incremental store hits";
    exact "incr.miss" Counter "incremental store misses";
    exact "incr.evict" Counter "entries evicted to stay under the byte budget";
    exact "incr.snapshot" Counter "store snapshots persisted to disk";
    exact "incr.bytes" Counter
      "byte level of the store at each update (observe history of the gauge)";
    exact "incr.bytes" Gauge "current resident bytes of the incremental store";
    exact "incr.restored" Counter "entries restored from a persisted snapshot";
    exact "incr.analyze.ns" Hist
      "latency of one Incr.analyze call, cache hits included (units: ns)";
    (* linear solvers *)
    exact "linsolve.solve" Counter "dense LU solves";
    exact "linsolve.solve.ns" Hist
      "latency of one linear solve, dense or sparse (units: ns)";
    exact "linsolve.singular" Counter "solves that hit a singular system";
    exact "linsolve.pivot" Counter "smallest pivot magnitude per dense solve";
    exact "linsolve.sparse.solve" Counter "sparse iterative solves";
    exact "linsolve.fallback.power" Counter
      "sparse solves that fell back to power iteration";
    exact "linsolve.fallback.dense" Counter
      "sparse solves that fell back to dense LU";
    exact "linsolve.gs.diverged" Counter "Gauss-Seidel divergence bailouts";
    exact "linsolve.gs.sweeps" Counter "Gauss-Seidel sweeps per solve";
    exact "linsolve.gs.relaxations" Counter
      "Gauss-Seidel relaxation steps per solve";
    exact "linsolve.gs.sccs" Counter
      "strongly connected components per Gauss-Seidel solve";
    exact "linsolve.gs.residual" Counter
      "final Gauss-Seidel residual per solve";
    exact "linsolve.power.iters" Counter "power-iteration rounds per solve";
    exact "linsolve.power.residual" Counter
      "final power-iteration residual per solve";
    exact "linsolve.power.diverged" Counter "power-iteration divergences";
    exact "scratch.grow" Counter "scratch arena reallocations";
    (* markov estimators *)
    exact "markov_intra.solve_n" Counter
      "system size per intraprocedural Markov solve";
    exact "markov_intra.damping_retry" Counter
      "intra solves retried with damping";
    exact "markov_intra.fallback_estimate" Counter
      "intra solves replaced by the heuristic estimate";
    exact "markov_intra.flat_fallback" Counter
      "intra solves replaced by flat frequencies";
    exact "markov_inter.self_arc_clamp" Counter
      "self-recursion arcs clamped per interprocedural solve";
    exact "markov_inter.invalid_solve" Counter
      "interprocedural solves rejected as invalid";
    exact "markov_inter.scc_scale_step" Counter
      "SCC rescaling steps in the interprocedural solver";
    exact "markov_inter.scc_repaired" Counter
      "SCCs repaired by rescaling";
    exact "markov_inter.call_site_fallback" Counter
      "call sites estimated by the fallback split";
    exact "markov_inter.flat_fallback" Counter
      "interprocedural solves replaced by flat frequencies";
    exact "markov_inter.damp_round" Counter
      "interprocedural damping rounds" ]

let lookup kind name =
  List.find_opt
    (fun e ->
      e.e_kind = kind
      && (if e.e_prefix then
            String.length name > String.length e.e_name
            && String.sub name 0 (String.length e.e_name) = e.e_name
          else e.e_name = name))
    entries

let registered kind name = lookup kind name <> None
