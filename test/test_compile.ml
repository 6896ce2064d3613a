(* Differential tests for the closure-compiled interpreter back end.

   The contract under test: [Cinterp.Compile] and the reference tree
   walker [Cinterp.Eval] are observationally identical — bit-identical
   profiles (block counts, branch taken/not-taken, call-site counts,
   work units; compared through the %.17g [Profile.save] text), the same
   stdout, the same exit codes, the same [Runtime_error] diagnostics
   (out-of-bounds, use-after-free, division by zero), and the same
   [Budget_exhausted] stops with bit-identical partial profiles when a
   fuel or wall-clock budget runs out mid-execution.

   Coverage: the whole 16-program suite on every registered input, a
   qcheck property over generated programs (arrays, pointers, helper
   calls, doubles, switch/loops, printf), and pinned regressions for the
   fuel limit and each diagnostic class. *)

module Pipeline = Core.Pipeline
module Profile = Cinterp.Profile
module Eval = Cinterp.Eval
module Compile = Cinterp.Compile
module Value = Cinterp.Value
module Cfg = Cfg_ir.Cfg

let compile src = Pipeline.compile ~name:"t" src

(* The two back ends under comparison, called directly: the tree
   walker is the oracle, and production profiling runs the compiled
   one. *)
type backend = Tree | Compiled

let run_with backend ?fuel ?deadline_s ?(argv = []) ?(input = "") c =
  match backend with
  | Tree -> Eval.run ?fuel ?deadline_s ~argv ~input c.Pipeline.prog
  | Compiled ->
    Compile.run ?fuel ?deadline_s ~argv ~input (Pipeline.closure_exe c)

(* Compare every observable of one run under both back ends. *)
let check_identical name ?fuel ?argv ?input c =
  let t = run_with Tree ?fuel ?argv ?input c in
  let k = run_with Compiled ?fuel ?argv ?input c in
  Alcotest.(check int) (name ^ ": exit code") t.Eval.exit_code k.Eval.exit_code;
  Alcotest.(check string)
    (name ^ ": stdout") t.Eval.stdout_text k.Eval.stdout_text;
  Alcotest.(check string)
    (name ^ ": profile bits")
    (Profile.save t.Eval.profile)
    (Profile.save k.Eval.profile)

(* ------------------------------------------------------------------ *)
(* The whole suite, every input: profiles must agree to the last bit. *)

let test_suite_differential () =
  List.iter
    (fun (p : Suite.Bench_prog.t) ->
      let c =
        Pipeline.compile ~name:p.Suite.Bench_prog.name
          p.Suite.Bench_prog.source
      in
      List.iteri
        (fun i (r : Suite.Bench_prog.run) ->
          check_identical
            (Printf.sprintf "%s input %d" p.Suite.Bench_prog.name i)
            ~argv:r.Suite.Bench_prog.r_argv ~input:r.Suite.Bench_prog.r_input
            c)
        p.Suite.Bench_prog.runs)
    Suite.Registry.all

(* ------------------------------------------------------------------ *)
(* argv interning and getchar share runtime paths with string literals;
   exercise them against a program that consumes both. *)

let test_argv_and_stdin () =
  let c =
    compile
      {|
int main(int argc, char **argv) {
  int ch; int n = 0; int i;
  while ((ch = getchar()) != -1) { n = n + ch; }
  for (i = 0; i < argc; i++) { puts(argv[i]); }
  printf("argc=%d sum=%d %s\n", argc, n, "prog");
  return argc;
}|}
  in
  check_identical "argv+getchar" ~argv:[ "alpha"; "prog" ] ~input:"hi\n" c;
  check_identical "no argv" ~argv:[] ~input:"" c

(* ------------------------------------------------------------------ *)
(* Diagnostics: both back ends must raise Runtime_error with the same
   message, at the same point in execution (stdout up to the fault is
   part of the comparison). *)

let observe backend ?fuel ?deadline_s c =
  match run_with backend ?fuel ?deadline_s c with
  | o -> Ok (o.Eval.exit_code, o.Eval.stdout_text)
  | exception Value.Runtime_error m -> Error m
  | exception Eval.Budget_exhausted (stop, o) ->
    (* fold the stop kind and the partial observables into the compared
       value: both back ends must stop at the same point *)
    Error
      (Printf.sprintf "budget:%s:%s:%s"
         (Eval.budget_stop_to_string stop)
         o.Eval.stdout_text
         (Profile.save o.Eval.profile))

let outcome_t =
  Alcotest.(result (pair int string) string)

let check_same_error name ?fuel ?(expect : string option) src =
  let c = compile src in
  let t = observe Tree ?fuel c in
  let k = observe Compiled ?fuel c in
  Alcotest.(check outcome_t) (name ^ ": same outcome") t k;
  match expect with
  | None ->
    Alcotest.(check bool) (name ^ ": raised") true (Result.is_error t)
  | Some m -> Alcotest.(check outcome_t) (name ^ ": message") (Error m) t

let test_diagnostics () =
  check_same_error "array store out of bounds"
    ~expect:"store out of bounds (main.a, offset 5 of 3)"
    "int main(void) { int a[3]; a[5] = 1; return 0; }";
  check_same_error "array load out of bounds"
    "int main(void) { int a[3]; return a[7]; }";
  check_same_error "use after free"
    {|int main(void) {
        int *p = (int *) malloc(2 * sizeof(int));
        p[0] = 1;
        free(p);
        return p[0];
      }|};
  check_same_error "dead local"
    {|int *leak(void) { int x = 3; return &x; }
      int main(void) { int *p = leak(); return *p; }|};
  check_same_error "division by zero" ~expect:"division by zero"
    "int main(void) { int x = 0; return 1 / x; }";
  check_same_error "modulo by zero" ~expect:"modulo by zero"
    "int main(void) { int x = 0; return 1 % x; }";
  check_same_error "null deref" ~expect:"null pointer dereference"
    "int main(void) { int *p = 0; return *p; }";
  check_same_error "undefined function"
    ~expect:"call to undefined function ghost"
    "int ghost(int);\nint main(void) { return ghost(1); }"

let test_fuel_limit () =
  (* Fuel exhaustion is no longer a fatal [Runtime_error]: both back
     ends raise [Budget_exhausted (Fuel, outcome)] carrying the partial
     profile accumulated so far, and those partials are bit-identical
     (the per-block decrement order is the same). *)
  let c = compile "int main(void) { while (1) { } return 0; }" in
  let partial backend =
    match run_with backend ~fuel:1000 c with
    | _ -> Alcotest.fail "expected fuel exhaustion"
    | exception Eval.Budget_exhausted (Eval.Fuel, o) ->
      (o.Eval.stdout_text, Profile.save o.Eval.profile)
  in
  let t_out, t_prof = partial Tree in
  let k_out, k_prof = partial Compiled in
  Alcotest.(check string) "partial stdout identical" t_out k_out;
  Alcotest.(check string) "partial profile bits identical" t_prof k_prof;
  Alcotest.(check bool) "partial profile is non-empty" true
    (String.length t_prof > 0);
  (* A program that finishes exactly within its budget behaves the same
     under both back ends. *)
  let c = compile "int main(void) { int i; for (i = 0; i < 10; i++) { } return i; }" in
  check_identical "tight fuel" ~fuel:100 c

let test_wall_clock_limit () =
  (* An already-expired deadline stops the runaway loop at the first
     clock check — a fixed number of blocks in — so the partial profiles
     are still bit-identical across back ends. *)
  let c = compile "int main(void) { while (1) { } return 0; }" in
  let partial backend =
    match run_with backend ~deadline_s:0.0 c with
    | _ -> Alcotest.fail "expected wall-clock exhaustion"
    | exception Eval.Budget_exhausted (Eval.Wall_clock, o) ->
      Profile.save o.Eval.profile
  in
  Alcotest.(check string) "partial profile bits identical"
    (partial Tree) (partial Compiled)

(* ------------------------------------------------------------------ *)
(* Shared-state memos on the compiled record. *)

let test_memoization () =
  let c = compile "int f(void) { return 1; } int main(void) { return f(); }" in
  Alcotest.(check bool)
    "closure_exe memoized" true
    (Pipeline.closure_exe c == Pipeline.closure_exe c);
  let fn = List.hd c.Pipeline.prog.Cfg.prog_fns in
  Alcotest.(check bool)
    "usage_of memoized" true
    (Pipeline.usage_of c fn == Pipeline.usage_of c fn)

(* ------------------------------------------------------------------ *)
(* qcheck: generated programs agree under both back ends. The generator
   ([Qgen], test/qgen.ml) leans into the pre-resolution surface: array
   indexing, pointer arguments, helper calls (profiled call sites),
   doubles, globals, string output, switch and every loop form — with
   all divisions guarded so no generated program faults. *)

let gen_program = Qgen.gen_program

(* Generated loops may diverge ([while (x > 0) { x--; x++; }]); a small
   fuel budget turns those into a [Budget_exhausted] stop whose partial
   observables must also be identical across back ends. *)
let prop_backends_identical =
  QCheck.Test.make
    ~name:"compiled back end is observationally identical to the tree walker"
    ~count:150 gen_program (fun src ->
      let c = compile src in
      let obs backend =
        match run_with backend ~fuel:200_000 c with
        | o ->
          Ok (o.Eval.exit_code, o.Eval.stdout_text, Profile.save o.Eval.profile)
        | exception Value.Runtime_error m -> Error m
        | exception Eval.Budget_exhausted (stop, o) ->
          Error
            (Printf.sprintf "budget:%s:%s:%s"
               (Eval.budget_stop_to_string stop)
               o.Eval.stdout_text
               (Profile.save o.Eval.profile))
      in
      obs Tree = obs Compiled)

let suite =
  [ Alcotest.test_case "suite-wide profile bit-identity" `Slow
      test_suite_differential;
    Alcotest.test_case "argv and stdin" `Quick test_argv_and_stdin;
    Alcotest.test_case "identical diagnostics" `Quick test_diagnostics;
    Alcotest.test_case "fuel limit" `Quick test_fuel_limit;
    Alcotest.test_case "wall-clock limit" `Quick test_wall_clock_limit;
    Alcotest.test_case "memoized shared state" `Quick test_memoization;
    QCheck_alcotest.to_alcotest prop_backends_identical ]
