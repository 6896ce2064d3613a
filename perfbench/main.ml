(* The repository benchmark. Run it through run.py, which builds it:

     python3 perfbench/run.py --workload suite|corpus|serve_edit
       --seed N --seconds S --trace 0|1

   from the root of a checkout. The last line of standard output is the
   result: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 they are the
   per-layer ones, from a separate traced run. Everything else (env
   block, companions, failures, spans) goes to .bench_out/.

     python3 perfbench/run.py --self-test

   shows that every output check fails on a deliberately corrupted
   result. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload suite|corpus|serve_edit --seed N --seconds S \
     --trace 0|1\n       main.exe --self-test";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | ("--self-test" | "--suite-pass" | "--suite-start") as flag :: rest ->
      parse ((String.sub flag 2 (String.length flag - 2), "1") :: acc) rest
    | flag :: value :: rest
      when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_opt k =
    match get k with
    | None -> usage ()
    | Some v -> (match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  if get "self-test" <> None then exit (Selftest.run ())
  (* Internal: one suite pass, or its start-up alone, in a fresh process
     spawned by [suite]. *)
  else if get "suite-pass" <> None then Wl_suite.child ~full:true
  else if get "suite-start" <> None then Wl_suite.child ~full:false
  else begin
    let seed = int_opt "seed" and seconds = float_of_int (int_opt "seconds") in
    let traced =
      match get "trace" with Some "1" -> true | Some "0" -> false | _ -> usage ()
    in
    if seconds <= 0.0 then usage ();
    let result =
      match get "workload" with
      | Some "suite" -> Wl_suite.run ~seed ~seconds ~traced
      | Some "corpus" -> Wl_corpus.run ~seed ~seconds ~traced
      | Some "serve_edit" -> Wl_serve.run ~seed ~seconds ~traced
      | _ -> usage ()
    in
    Driver.Parallel.shutdown ();
    Common.emit result
  end
