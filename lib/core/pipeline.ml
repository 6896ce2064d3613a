(* End-to-end orchestration: compile C source, profile it on inputs, and
   score every estimator against the profiles with the paper's protocol.

   Scoring protocol (paper section 3):
   - a static estimate is compared separately to each profile and the
     scores averaged;
   - profiling-as-an-estimate is scored by matching each profile against
     the normalized aggregate of all the *other* profiles.

   Thread-safety audit (the parallel suite pipeline relies on this):
   [compile] threads all parser/typechecker/builder state through values
   it allocates; [run_once]/[profile_runs] mutate only the interpreter
   state and profile counters created for that run; the estimate tables
   built below are written once before the provider closure escapes and
   read-only afterwards. No function in this module writes global
   state. Estimators read [Config.current], which the ablation
   experiments mutate strictly between parallel regions. *)

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

type compiled = {
  name : string;
  source : string;
  tc : Typecheck.t;
  prog : Cfg.program;
  graph : Callgraph.t;
  exe_lock : Mutex.t;
  mutable exe : Compile.prog option;
      (* memoized closure-compiled program; [exe_lock] guards both the
         write and the read — the compiled record is shared across
         domains and a racy read of [exe] could observe a partially
         published value under the OCaml memory model *)
  usage_lock : Mutex.t;
  usage_tbl : (string, Usage.t) Hashtbl.t;
      (* per-function [Usage.of_fun] memo shared by estimator sweeps *)
  hash_lock : Mutex.t;
  mutable unit_sig : string option;
      (* memoized [Fnhash.unit_signature]; guarded by [hash_lock] *)
  hash_tbl : (string, string) Hashtbl.t;
      (* per-function [Fnhash.fn_hash] memo; guarded by [hash_lock] *)
}

let compile ?(defines = []) ~(name : string) (source : string) : compiled =
  Obs.Probe.with_span "compile" (fun () ->
      let tunit =
        Obs.Probe.with_span "parse" (fun () ->
            Parser.parse_string ~defines ~file:(name ^ ".c") source)
      in
      let tc = Obs.Probe.with_span "typecheck" (fun () -> Typecheck.check tunit) in
      let prog = Obs.Probe.with_span "cfg" (fun () -> Build.build tc) in
      { name; source; tc; prog; graph = Callgraph.build prog;
        exe_lock = Mutex.create (); exe = None;
        usage_lock = Mutex.create (); usage_tbl = Hashtbl.create 16;
        hash_lock = Mutex.create (); unit_sig = None;
        hash_tbl = Hashtbl.create 16 })

(* The closure-compiled executable for [c], built on first use. *)
let closure_exe (c : compiled) : Compile.prog =
  Mutex.lock c.exe_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.exe_lock)
    (fun () ->
      match c.exe with
      | Some exe -> exe
      | None ->
        let exe =
          Obs.Probe.with_span "compile.closures" (fun () ->
              Compile.compile c.prog)
        in
        c.exe <- Some exe;
        exe)

(* Memoized [Usage.of_fun]; a [Usage.t] is immutable after construction,
   so sharing one across estimator sweeps (and domains) is safe. *)
let usage_of (c : compiled) (fn : Cfg.fn) : Usage.t =
  Mutex.lock c.usage_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.usage_lock)
    (fun () ->
      match Hashtbl.find_opt c.usage_tbl fn.Cfg.fn_name with
      | Some u -> u
      | None ->
        let u = Usage.of_fun c.tc fn.Cfg.fn_def in
        Hashtbl.replace c.usage_tbl fn.Cfg.fn_name u;
        u)

(* Memoized per-function content hash (Cfront.Fnhash): the incremental
   store (Driver.Incr) keys intra solutions by it. The [Usage] summary
   is computed outside [hash_lock] so the two memo locks never nest. *)
let fn_hash (c : compiled) (fn : Cfg.fn) : string =
  let usage = usage_of c fn in
  Mutex.lock c.hash_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.hash_lock)
    (fun () ->
      match Hashtbl.find_opt c.hash_tbl fn.Cfg.fn_name with
      | Some h -> h
      | None ->
        let unit_sig =
          match c.unit_sig with
          | Some s -> s
          | None ->
            let s = Cfront.Fnhash.unit_signature c.tc in
            c.unit_sig <- Some s;
            s
        in
        let h = Cfront.Fnhash.fn_hash c.tc ~unit_sig usage fn.Cfg.fn_def in
        Hashtbl.replace c.hash_tbl fn.Cfg.fn_name h;
        h)

(* One profiling run: command-line arguments and stdin contents. *)
type run = { argv : string list; input : string }

(* With probes on, each run also observes its interpreter cost: the work
   units executed and the minor-heap words the calling domain allocated
   per unit. Budget-stopped runs report their partial cost. *)
let run_once ?fuel ?deadline_s (c : compiled) (r : run) : Eval.outcome =
  Obs.Probe.with_span "profile" (fun () ->
      let run () =
        Compile.run ?fuel ?deadline_s ~argv:r.argv ~input:r.input
          (closure_exe c)
      in
      if not (Obs.Probe.enabled ()) then run ()
      else begin
        let words0 = Gc.minor_words () in
        let observe (o : Eval.outcome) =
          let words = Gc.minor_words () -. words0 in
          Obs.Probe.observe "profile.work_units" o.Eval.work;
          if o.Eval.work > 0.0 then
            Obs.Probe.observe "profile.minor_words_per_unit"
              (words /. o.Eval.work)
        in
        match run () with
        | o ->
          observe o;
          o
        | exception (Eval.Budget_exhausted (_, o) as stop) ->
          observe o;
          raise stop
      end)

let profile_runs ?fuel ?deadline_s (c : compiled)
    (runs : run list) : Profile.t list =
  List.map
    (fun r -> (run_once ?fuel ?deadline_s c r).Eval.profile)
    runs

(* ------------------------------------------------------------------ *)
(* Intra-procedural estimates: per-function block frequency arrays. *)

type intra_kind = Iloop | Ismart | Imarkov | Istructural | Icombined

let intra_kind_to_string = function
  | Iloop -> "loop"
  | Ismart -> "smart"
  | Imarkov -> "markov"
  | Istructural -> "structural"
  | Icombined -> "markov-wl"

let intra_kind_of_string = function
  | "loop" -> Some Iloop
  | "smart" -> Some Ismart
  | "markov" -> Some Imarkov
  | "structural" -> Some Istructural
  | "markov-wl" -> Some Icombined
  | _ -> None

let all_intra_kinds = [ Iloop; Ismart; Imarkov; Istructural; Icombined ]

(* The block-frequency estimate of one function — the unit of work the
   incremental store caches. *)
let intra_freqs_fn (c : compiled) (kind : intra_kind) (fn : Cfg.fn) :
    float array =
  (* The Markov kinds degrade to the loop estimate of the same
     function when their solve chain exhausts — the weakest
     estimator the paper still found useful, and one that cannot
     fail. *)
  let loop_fallback =
    ("loop estimate",
     fun () -> Ast_estimator.block_freqs c.tc fn Ast_estimator.Loop)
  in
  match kind with
  | Iloop -> Ast_estimator.block_freqs c.tc fn Ast_estimator.Loop
  | Ismart -> Ast_estimator.block_freqs c.tc fn Ast_estimator.Smart
  | Imarkov ->
    Markov_intra.block_freqs ~usage:(usage_of c fn)
      ~inject_key:c.name ~fallback:loop_fallback c.tc fn
  | Istructural -> Structural_estimator.block_freqs_refined fn
  | Icombined ->
    Markov_intra.block_freqs_combined ~usage:(usage_of c fn)
      ~inject_key:c.name ~fallback:loop_fallback c.tc fn

let intra_table (c : compiled) (kind : intra_kind) :
    (string, float array) Hashtbl.t =
  Obs.Probe.with_span ("intra." ^ intra_kind_to_string kind) (fun () ->
  Obs.Inject.fire "estimate" ~key:c.name;
  let table = Hashtbl.create 32 in
  List.iter
    (fun fn ->
      Hashtbl.replace table fn.Cfg.fn_name (intra_freqs_fn c kind fn))
    c.prog.Cfg.prog_fns;
  table)

let intra_provider (c : compiled) (kind : intra_kind) :
    string -> float array =
  let table = intra_table c kind in
  fun name -> Hashtbl.find table name

(* Block counts of a profile as an intra "estimate" (for scoring the
   profiling column). *)
let intra_of_profile (p : Profile.t) : string -> float array =
 fun name -> Profile.block_counts p name

(* Invocation-weighted per-function weight-matching score of an intra
   estimate against one profile (Figure 4's metric). Functions that the
   evaluation profile never invokes carry no weight. *)
let intra_score (c : compiled) ~(estimate : string -> float array)
    (eval_profile : Profile.t) ~(cutoff : float) : float =
  let pairs =
    List.filter_map
      (fun fn ->
        let inv = Profile.invocations eval_profile fn in
        if inv <= 0.0 then None
        else begin
          let actual = Profile.block_counts eval_profile fn.Cfg.fn_name in
          let score =
            Weight_matching.score ~estimate:(estimate fn.Cfg.fn_name)
              ~actual ~cutoff
          in
          Some (score, inv)
        end)
      c.prog.Cfg.prog_fns
  in
  Weight_matching.weighted_mean pairs

(* ------------------------------------------------------------------ *)
(* Inter-procedural estimates: invocation counts per function. *)

type inter_kind =
  | Isimple of Inter_simple.kind
  | Imarkov_inter

let inter_kind_to_string = function
  | Isimple k -> Inter_simple.kind_to_string k
  | Imarkov_inter -> "markov"

(* Estimated invocation counts, in call-graph node order. The paper
   builds every inter-procedural estimator on the smart intra
   estimates. *)
let inter_estimate (c : compiled) ~(intra : string -> float array)
    (kind : inter_kind) : float array =
  Obs.Probe.with_span ("inter." ^ inter_kind_to_string kind) (fun () ->
      Obs.Inject.fire "estimate" ~key:c.name;
      let assoc =
        match kind with
        | Isimple k -> Inter_simple.estimate c.graph ~intra k
        | Imarkov_inter ->
          (Markov_inter.estimate ~inject_key:c.name c.graph ~intra)
            .Markov_inter.freqs
      in
      Array.of_list (List.map snd assoc))

(* Actual invocation counts, same order. *)
let inter_actual (c : compiled) (p : Profile.t) : float array =
  Array.map
    (fun name ->
      let fn = Option.get (Cfg.find_fn c.prog name) in
      Profile.invocations p fn)
    c.graph.Callgraph.names

let inter_score ~(estimate : float array) ~(actual : float array)
    ~(cutoff : float) : float =
  Weight_matching.score ~estimate ~actual ~cutoff

(* ------------------------------------------------------------------ *)
(* Call-site ranking. *)

(* Estimated direct-call-site frequencies in [Cfg.direct_sites] order. *)
let callsite_estimate (c : compiled) ~(intra : string -> float array)
    (kind : inter_kind) : float array =
  let inv = inter_estimate c ~intra kind in
  let by_name name =
    match Callgraph.node_of_name c.graph name with
    | Some i -> inv.(i)
    | None -> 0.0
  in
  Callsite_rank.estimate c.prog ~intra ~inter:by_name
  |> List.map snd |> Array.of_list

let callsite_actual (c : compiled) (p : Profile.t) : float array =
  Callsite_rank.actual c.prog p |> List.map snd |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Cross-validation over a program's profiles. *)

(* Mean score of a fixed estimate against each profile. *)
let mean_over_profiles (profiles : Profile.t list)
    (score_against : Profile.t -> float) : float =
  match profiles with
  | [] -> invalid_arg "mean_over_profiles: no profiles"
  | _ ->
    List.fold_left (fun acc p -> acc +. score_against p) 0.0 profiles
    /. float_of_int (List.length profiles)

(* Mean score of profiling-as-estimate: each profile is predicted by the
   aggregate of the others (or by itself if it is the only one). *)
let cross_profile_mean (c : compiled) (profiles : Profile.t list)
    (score : train:Profile.t -> eval_p:Profile.t -> float) : float =
  match profiles with
  | [] -> invalid_arg "cross_profile_mean: no profiles"
  | [ p ] -> score ~train:p ~eval_p:p
  | _ ->
    let n = List.length profiles in
    let total = ref 0.0 in
    List.iteri
      (fun i p ->
        let others = List.filteri (fun j _ -> j <> i) profiles in
        let train = Profile.aggregate c.prog others in
        total := !total +. score ~train ~eval_p:p)
      profiles;
    !total /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Cost model for the selective-optimization experiment (Figure 10). *)

(* Static cost of a block: one unit plus one per expression node. *)
let block_costs (fn : Cfg.fn) : float array =
  let expr_nodes (e : Ast.expr) =
    let n = ref 0 in
    Ast.iter_expr (fun _ -> incr n) e;
    !n
  in
  Array.map
    (fun (b : Cfg.block) ->
      let instrs =
        List.fold_left
          (fun acc instr ->
            acc
            +
            match instr with
            | Cfg.Iexpr e -> expr_nodes e
            | Cfg.Ilocal_init (_, d) -> (
              match d.Ast.d_init with
              | Some (Ast.Iexpr e) -> expr_nodes e
              | _ -> 1))
          0 b.Cfg.b_instrs
      in
      let term =
        match b.Cfg.b_term with
        | Cfg.Tbranch (br, _, _) -> expr_nodes br.Cfg.br_cond
        | Cfg.Tswitch (e, _, _) -> expr_nodes e
        | Cfg.Treturn (Some e) -> expr_nodes e
        | Cfg.Tjump _ | Cfg.Treturn None -> 0
      in
      1.0 +. float_of_int (instrs + term))
    fn.Cfg.fn_blocks

(* Speedup factor applied to blocks of optimized functions: gcc -O2 on
   unoptimized code bought roughly 2x on compress-like integer code. *)
let optimized_cost_factor = 0.5

(* Modelled run time of [profile] when the functions in [optimized] are
   compiled with optimization. *)
let modelled_time (c : compiled) (profile : Profile.t)
    ~(optimized : string list) : float =
  List.fold_left
    (fun acc fn ->
      let costs = block_costs fn in
      let counts = Profile.block_counts profile fn.Cfg.fn_name in
      let factor =
        if List.mem fn.Cfg.fn_name optimized then optimized_cost_factor
        else 1.0
      in
      let fn_time = ref 0.0 in
      Array.iteri
        (fun i cost -> fn_time := !fn_time +. (cost *. counts.(i)))
        costs;
      acc +. (factor *. !fn_time))
    0.0 c.prog.Cfg.prog_fns
