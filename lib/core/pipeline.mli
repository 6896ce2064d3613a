(** End-to-end orchestration: compile C source, profile it on inputs, and
    score every estimator with the paper's protocol (section 3): a static
    estimate is scored against each profile separately and averaged;
    profiling-as-estimate is scored by matching each profile against the
    normalized aggregate of the others.

    Thread safety: every function here is pure per call — all mutation
    (parser state, typing context, CFG builder, interpreter memory and
    profile counters) lives in values created by the call itself, so
    distinct programs can be compiled, profiled and estimated
    concurrently from different domains. The one piece of shared state
    an estimate reads is {!Config.current}; callers that mutate it (the
    ablation experiments) must do so strictly between parallel
    regions. *)

module Ast = Cfront.Ast
module Typecheck = Cfront.Typecheck
module Usage = Cfront.Usage
module Parser = Cfront.Parser
module Cfg = Cfg_ir.Cfg
module Build = Cfg_ir.Build
module Callgraph = Cfg_ir.Callgraph
module Eval = Cinterp.Eval
module Compile = Cinterp.Compile
module Profile = Cinterp.Profile

(** A compiled program: typed AST, CFGs, call graph, plus lazily built
    shared state (closure-compiled executable, per-function usage memo).
    The mutable fields are lock-protected; the record may be shared
    freely across domains. *)
type compiled = private {
  name : string;
  source : string;
  tc : Typecheck.t;
  prog : Cfg.program;
  graph : Callgraph.t;
  exe_lock : Mutex.t;
  mutable exe : Compile.prog option;
  usage_lock : Mutex.t;
  usage_tbl : (string, Usage.t) Hashtbl.t;
  hash_lock : Mutex.t;
  mutable unit_sig : string option;
  hash_tbl : (string, string) Hashtbl.t;
}

(** [compile ?defines ~name source] runs preprocess → parse → typecheck →
    CFG construction → call-graph construction.

    @raise Cfront.Parser.Error or {!Typecheck.Error} on invalid source. *)
val compile : ?defines:(string * string) list -> name:string -> string -> compiled

(** The closure-compiled executable, built on first use and memoized
    (thread-safe). Call during warm-up to move the one-time lowering
    cost off the profiling path. *)
val closure_exe : compiled -> Compile.prog

(** Memoized [Usage.of_fun] for estimator sweeps (thread-safe). *)
val usage_of : compiled -> Cfg.fn -> Usage.t

(** Memoized per-function content hash ({!Cfront.Fnhash}), thread-safe.
    Covers the function's signature and body (whitespace/comment
    invariant), the globals it mentions, its callees' prototypes and
    the translation unit's struct/enum signature — everything an intra
    estimate can depend on besides {!Config.current} and the solver
    mode, which cache keys must add separately. *)
val fn_hash : compiled -> Cfg.fn -> string

(** One profiling run: command-line arguments and stdin contents. *)
type run = { argv : string list; input : string }

(** Interpret the program once with the closure-compiled {!Compile}
    back end, collecting a profile. [deadline_s] bounds the run's
    wall-clock time; exceeding it (or [fuel]) raises
    {!Eval.Budget_exhausted} carrying the partial outcome — a runaway
    run yields a partial profile, never a hang. *)
val run_once :
  ?fuel:int ->
  ?deadline_s:float ->
  compiled ->
  run ->
  Eval.outcome

(** Profiles for a list of runs. *)
val profile_runs :
  ?fuel:int ->
  ?deadline_s:float ->
  compiled ->
  run list ->
  Profile.t list

(** {1 Intra-procedural estimates} *)

type intra_kind =
  | Iloop        (** AST walk, branches 50/50 *)
  | Ismart       (** AST walk + branch heuristics *)
  | Imarkov      (** CFG Markov chain *)
  | Istructural  (** CFG-only dominance-based extension *)
  | Icombined    (** Markov chain with Wu-Larus probabilities *)

val intra_kind_to_string : intra_kind -> string
val intra_kind_of_string : string -> intra_kind option

(** Every intra kind, in the fixed presentation order. *)
val all_intra_kinds : intra_kind list

(** The block-frequency estimate of a single function — the unit of
    work the incremental store caches. {!intra_table} is one call per
    defined function. *)
val intra_freqs_fn : compiled -> intra_kind -> Cfg.fn -> float array

(** Per-function block-frequency arrays for every defined function. *)
val intra_table : compiled -> intra_kind -> (string, float array) Hashtbl.t

(** As {!intra_table}, memoized behind a lookup function. *)
val intra_provider : compiled -> intra_kind -> string -> float array

(** A profile's block counts viewed as an intra estimate (the metric's
    profiling column). *)
val intra_of_profile : Profile.t -> string -> float array

(** Invocation-weighted per-function weight-matching score against one
    profile (the Figure 4 metric). *)
val intra_score :
  compiled ->
  estimate:(string -> float array) ->
  Profile.t ->
  cutoff:float ->
  float

(** {1 Inter-procedural estimates} *)

type inter_kind = Isimple of Inter_simple.kind | Imarkov_inter

val inter_kind_to_string : inter_kind -> string

(** Estimated invocation counts in call-graph node order. *)
val inter_estimate :
  compiled -> intra:(string -> float array) -> inter_kind -> float array

(** Measured invocation counts, same order. *)
val inter_actual : compiled -> Profile.t -> float array

val inter_score :
  estimate:float array -> actual:float array -> cutoff:float -> float

(** {1 Call-site ranking} *)

(** Estimated direct-call-site frequencies in {!Cfg.direct_sites} order. *)
val callsite_estimate :
  compiled -> intra:(string -> float array) -> inter_kind -> float array

val callsite_actual : compiled -> Profile.t -> float array

(** {1 Cross-validation protocol} *)

(** Mean score of a fixed estimate against each profile. *)
val mean_over_profiles : Profile.t list -> (Profile.t -> float) -> float

(** Mean score of profiling-as-estimate: each profile is evaluated against
    the aggregate of the others (or itself, if it is the only one). *)
val cross_profile_mean :
  compiled ->
  Profile.t list ->
  (train:Profile.t -> eval_p:Profile.t -> float) ->
  float

(** {1 The Figure 10 cost model} *)

(** Static cost per block: one unit plus one per expression node. *)
val block_costs : Cfg.fn -> float array

(** Cost factor of blocks in "optimized" functions (0.5 ~ -O2 on
    compress-like integer code). *)
val optimized_cost_factor : float

(** Modelled run time of [profile] when [optimized] functions are compiled
    with optimization. *)
val modelled_time : compiled -> Profile.t -> optimized:string list -> float
