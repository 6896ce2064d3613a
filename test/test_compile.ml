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

(* Flow conservation holds for every complete run's profile. *)
let check_conserved name c (profile : Profile.t) =
  Alcotest.(check (list string))
    (name ^ ": flow conservation") []
    (Profile.conservation_violations c.Pipeline.prog profile)

(* Compare every observable of one run under both back ends. *)
let check_identical name ?fuel ?argv ?input c =
  let t = run_with Tree ?fuel ?argv ?input c in
  let k = run_with Compiled ?fuel ?argv ?input c in
  check_conserved name c k.Eval.profile;
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

(* The unboxed integer closures, fused indexed access and shared dead
   slots must keep every observable of the boxed reference: wraparound,
   shift counts, C division, bounds and liveness messages, and the point
   at which a non-integer read from an [int] cell is converted. *)
let test_fast_paths () =
  check_identical "int and char wraparound"
    (compile
       {|int main(void) {
          int x = 2147483647; int y = 2147483600; int z = 65536; int i;
          char c = 120;
          x++; printf("%d\n", x);
          x--; printf("%d\n", x);
          y += 100; printf("%d\n", y);
          z = z * z; printf("%d\n", z);
          z = 123456789; z *= 1000; printf("%d\n", z);
          for (i = 0; i < 5; i++) { c += 3; printf("%d ", c); }
          c -= 300; printf("%d\n", c);
          c = 127; c++; printf("%d\n", c);
          c = -128; --c; printf("%d\n", c);
          c = 100; c *= 3; printf("%d\n", c);
          return 0;
        }|});
  check_identical "shift counts"
    (compile
       {|int main(void) {
          int one = 1; int m = -8; int k;
          printf("%d %d %d\n", one << 31, one << 32, one << 33);
          printf("%d %d %d\n", m >> 1, m >> 31, m >> 35);
          for (k = 29; k < 36; k++) printf("%d ", 3 << k);
          printf("%d\n", 0x40000000 << 1);
          return 0;
        }|});
  check_identical "negative division"
    (compile
       {|int main(void) {
          int a = -7; int b = 2; int min = -2147483647 - 1; int neg = -1;
          printf("%d %d %d %d\n", a / b, a % b, 7 / -b, 7 % -b);
          printf("%d %d\n", a / -b, a % -b);
          printf("%d\n", min / neg);
          a /= b; b %= 3; printf("%d %d\n", a, b);
          return 0;
        }|});
  check_same_error "indexed store out of bounds through a pointer"
    ~expect:"store out of bounds (main.a, offset 4 of 4)"
    {|void put(int *a, int i, int v) { a[i] = v; }
      int main(void) { int a[4]; put(a, 2, 5); put(a, 4, 1); return 0; }|};
  check_same_error "indexed load out of bounds through a pointer"
    ~expect:"load out of bounds (main.a, offset -1 of 4)"
    {|int get(int *a, int i) { return a[i]; }
      int main(void) { int a[4]; a[0] = 1; return get(a, 0) + get(a, -1); }|};
  (* A pointer read from an [int] cell is converted only after the other
     operand ran: here the other operand fails first. *)
  check_same_error "pointer in an int cell, converted late"
    ~expect:"division by zero"
    {|int zero = 0;
      int f(void) { printf("f ran\n"); return 1 / zero; }
      int main(void) {
        int x; int y = 0; int **pp = (int **) &x;
        *pp = &y;
        return x + f();
      }|};
  check_identical "non-integers in int cells compare as values"
    (compile
       {|int main(void) {
          int x; int y; int z = 0; int w;
          int **px = (int **) &x; int **py = (int **) &y;
          double *pw = (double *) &w;
          *px = &z; *py = &z; *pw = 2.5;
          printf("%d %d %d\n", x == 0, x != 0, x == y);
          printf("%d %d %d\n", w == 2, w + 1, w < 3);
          return 0;
        }|});
  check_same_error "dead slots shared across calls"
    ~expect:"use of freed or dead object (leak.x)"
    {|int *leak(int v) { int x = v; return &x; }
      int main(void) {
        int i; int *p; int *q; int s = 0;
        for (i = 0; i < 1000; i++) { p = leak(i); s = s + i; }
        q = leak(s);
        printf("%d %d\n", s, p == q);
        return *p;
      }|};
  check_identical "switch on a char"
    (compile
       {|int main(void) {
          char c; int letters = 0; int digits = 0; int other = 0;
          for (c = 40; c < 126; c++) {
            switch (c) {
            case 'a': case 'b': case 'c': letters++; break;
            case '0': case '1': case '2': digits++; break;
            default: other++;
            }
          }
          c = 200;
          switch (c) { case -56: printf("wrapped\n"); break; default: printf("no\n"); }
          printf("%d %d %d\n", letters, digits, other);
          return 0;
        }|})

(* Register locals (scalars whose address is never taken) live in the
   frame, outside the block store. Block ids must still be numbered as
   if every local were allocated, and a local whose address is taken
   anywhere must stay in memory. *)
let test_registers () =
  check_identical "address-taken locals between registers compare by id"
    (compile
       {|int order(int *p, int *q) { return (p < q) + 2 * (p == q); }
        int main(void) {
          int r1 = 1; int a = 10; int r2 = 2; int b = 20; int r3; double r4 = 0.5;
          int *pa = &a; int *pb = &b; int *pc = pa;
          for (r3 = 0; r3 < 3; r3++) {
            printf("%d %d %d %d\n", pa < pb, pb <= pa, order(pa, pb), order(pc, pa));
            pc = r3 == 1 ? pb : pa;
            r4 += r1 + r2;
          }
          printf("%g %d\n", r4, *pa + *pb);
          return r1 + r2;
        }|});
  check_identical "address taken only in a nested block or a dead branch"
    (compile
       {|int main(void) {
          int x = 5; int y = 0; int n = 0; int *p = 0;
          if (y) { p = &x; *p = 100; }
          while (n < 4) {
            { int *q = &n; *q = *q + 1; }
            x += n;
          }
          printf("%d %d %d\n", x, n, p == 0);
          return x;
        }|});
  check_same_error "use after return of an address-taken local"
    ~expect:"use of freed or dead object (leak.x)"
    {|int *leak(int v) { int r = v * 2; int x = r; int s = x + 1; return &x; }
      int main(void) {
        int i; int t = 0; int *p;
        for (i = 0; i < 5; i++) { p = leak(i); t += i; }
        printf("%d\n", t);
        return *p;
      }|};
  (* A diagnostic that prints a block id: [x] is block 4 only if the
     registers [r], [a], [b] and [k] take ids of their own. *)
  check_same_error "block ids in a diagnostic"
    ~expect:"strchr: bad cell <ptr 4:0>"
    {|int warm(int a) { int b = a + 1; return b; }
      int probe(void) {
        int k = 2; int x = 1; int *cells[2];
        cells[0] = &x; cells[1] = 0;
        return strchr((char *) cells, 'a') != 0;
      }
      int main(void) { int r = warm(7); return probe() + r; }|};
  check_identical "brace initializers of scalars"
    (compile
       {|int main(void) {
          int x = { 3 + 4 }; double d = { 2 }; char c = { 300 }; int *p = { &x };
          int y = { x * 2 };
          x += 1; y++; d *= 1.5;
          printf("%d %d %g %d %d\n", x, y, d, c, *p);
          return x + y;
        }|});
  check_identical "self-referencing updates"
    (compile
       {|int bump(int *p) { *p = *p + 10; return *p; }
        int main(void) {
          int x = 5; int y = 1; int z = 3; double d = 1.5; char *s = "abc";
          x += x++; printf("%d\n", x);
          z -= z--; printf("%d\n", z);
          z = 4; z *= ++z; printf("%d\n", z);
          d += d++; printf("%g\n", d);
          x = bump(&y) + x; printf("%d %d\n", x, y);
          x = x + bump(&y); printf("%d %d\n", x, y);
          while (*s) s++;
          printf("%d\n", *s);
          return x;
        }|})

(* The oracle itself: exits are allowed their one short successor, and a
   single miscounted block, branch or call is reported. *)
let test_conservation () =
  let c =
    compile
      {|int depth = 0;
        int pick(int x) { return x % 3; }
        int walk(int n) {
          int i; int s = 0;
          for (i = 0; i < n; i++) {
            switch (pick(i)) { case 0: s++; break; case 1: s += 2; break; default: s--; }
          }
          if (n > 40) exit(s);
          return s;
        }
        int main(void) {
          int (*f)(int) = walk; int t = 0; int k;
          for (k = 0; k < 50; k += 10) t += f(k) + walk(k + 1);
          return t;
        }|}
  in
  check_identical "exit" c;
  let o = run_with Compiled c in
  Alcotest.(check int) "exited from walk(41)" 29 o.Eval.exit_code;
  let broken mutate =
    let p = Profile.load (Profile.save o.Eval.profile) in
    mutate p;
    Profile.conservation_violations c.Pipeline.prog p <> []
  in
  let walk = Profile.fn_counters o.Eval.profile "walk" in
  let bump (a : float array) i = a.(i) <- a.(i) +. 2.0 in
  let branch =
    let rec find i = if walk.Profile.branch_taken.(i) > 0.0 then i else find (i + 1) in
    find 0
  in
  Alcotest.(check bool) "block miscount caught" true
    (broken (fun p ->
         bump (Profile.fn_counters p "walk").Profile.block_counts
           (Array.length walk.Profile.block_counts - 1)));
  Alcotest.(check bool) "branch miscount caught" true
    (broken (fun p -> bump (Profile.fn_counters p "walk").Profile.branch_taken branch));
  Alcotest.(check bool) "call-site miscount caught" true
    (broken (fun p -> bump p.Profile.site_counts 0))

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
          if Profile.conservation_violations c.Pipeline.prog o.Eval.profile
             <> []
          then QCheck.Test.fail_report "flow conservation violated";
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
    Alcotest.test_case "unboxed and fused fast paths" `Quick test_fast_paths;
    Alcotest.test_case "register locals" `Quick test_registers;
    Alcotest.test_case "flow conservation oracle" `Quick test_conservation;
    Alcotest.test_case "fuel limit" `Quick test_fuel_limit;
    Alcotest.test_case "wall-clock limit" `Quick test_wall_clock_limit;
    Alcotest.test_case "memoized shared state" `Quick test_memoization;
    QCheck_alcotest.to_alcotest prop_backends_identical ]
