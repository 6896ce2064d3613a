(* Statement-level differential testing: random structured mini-programs
   (int variables, assignments, arithmetic, if/while) are rendered to C
   and interpreted, and the printed final state is compared against an
   OCaml reference interpreter with Int32 semantics. This exercises the
   whole stack — preprocessor, parser, type checker, CFG construction and
   interpreter — against an independent executable specification.

   The mini language, its C renderer, the reference interpreter and the
   generator live in [Mini] (test/mini.ml); this file owns only the
   properties. *)

module Pipeline = Core.Pipeline
open Mini

let prop_differential =
  QCheck.Test.make ~name:"whole pipeline matches the reference interpreter"
    ~count:200 gen_stmts (fun stmts ->
      let src = render_program stmts in
      let c = Pipeline.compile ~name:"diff" src in
      let o = Pipeline.run_once c { Pipeline.argv = []; input = "" } in
      let expected = ref_run stmts in
      if o.Cinterp.Eval.stdout_text <> expected then
        QCheck.Test.fail_reportf "interpreter: %s\nreference:  %s"
          o.Cinterp.Eval.stdout_text expected
      else true)

(* A couple of fixed regression programs through the same machinery. *)
let test_fixed_cases () =
  let cases =
    [ [ Assign (0, Bin ('*', Var 0, Const 1000000l));
        Assign (0, Bin ('*', Var 0, Var 0)) ];
      [ While (Var 1, [ Assign (1, Bin ('-', Var 1, Const 1l)) ]) ];
      [ If (Bin ('&', Var 2, Const 1l), [ Assign (3, Const (-7l)) ],
            [ Assign (3, Const 7l) ]) ] ]
  in
  List.iter
    (fun stmts ->
      let src = render_program stmts in
      let c = Pipeline.compile ~name:"diff" src in
      let o = Pipeline.run_once c { Pipeline.argv = []; input = "" } in
      Alcotest.(check string) "fixed case" (ref_run stmts)
        o.Cinterp.Eval.stdout_text)
    cases

let suite =
  [ Alcotest.test_case "fixed cases" `Quick test_fixed_cases;
    QCheck_alcotest.to_alcotest prop_differential ]
