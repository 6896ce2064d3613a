(* The backend-differential program generator of test/test_compile.ml,
   which checks the compiled back end against the tree-walking oracle
   on its programs.  It leans into the pre-resolution surface:
   array indexing, pointer arguments, helper calls (profiled call
   sites), doubles, globals, string output, switch and every loop form
   — with all divisions guarded so no generated program faults.  Loops
   *may* diverge ([while (x > 0) { x--; x++; }]); consumers run these
   under a fuel budget and compare the partial observables. *)

let gen_program : string QCheck.arbitrary =
  let open QCheck.Gen in
  let simple =
    oneofl
      [ "x++;"; "y += x;"; "x = y - 1;"; "g = g + (x & 15);"; "bump(&y);";
        "arr[x & 7] = y;"; "y = y + arr[(x + y) & 7];"; "d = d * 0.5 + x;";
        "y = x / ((y & 7) + 1);"; "x = y % ((x & 3) + 2);";
        "y += helper(x & 7);"; "printf(\"%d,\", x ^ y);"; "g ^= y;";
        "x = (int) d;"; "y = -x + (x << 1);" ]
  in
  let rec stmt depth =
    if depth <= 0 then simple
    else
      frequency
        [ (4, simple);
          (2, map2 (Printf.sprintf "if (x > %d) { %s }") (int_bound 9)
                 (stmt (depth - 1)));
          (1, map2 (Printf.sprintf "if ((y & 1) == %d) { %s } else { g--; }")
                 (int_bound 1) (stmt (depth - 1)));
          (1, map (Printf.sprintf "while (x > 0) { x--; %s }")
                 (stmt (depth - 1)));
          (1, map (Printf.sprintf "do { y--; %s } while (y > 0);")
                 (stmt (depth - 1)));
          (1, map2 (Printf.sprintf "for (i = 0; i < %d; i++) { %s }")
                 (int_range 1 5) (stmt (depth - 1)));
          (1, map
                 (Printf.sprintf
                    "switch (x & 3) { case 0: %s break; case 1: y++; break; \
                     default: g++; }")
                 (stmt (depth - 1))) ]
  in
  let body =
    list_size (int_range 1 10) (stmt 3) >|= fun stmts ->
    Printf.sprintf
      {|int g = 3;
double d = 0.25;
int arr[8];
void bump(int *p) { *p = *p + 1; }
int helper(int n) {
  int i; int s = 0;
  for (i = 0; i < (n & 3) + 1; i++) { s += i; }
  return s;
}
int main(void) {
  int x = 5; int y = 2; int i;
  %s
  printf("%%d %%d %%d %%g\n", x, y, g, d);
  return (x + y) & 7;
}|}
      (String.concat "\n  " stmts)
  in
  QCheck.make body ~print:(fun s -> s)
