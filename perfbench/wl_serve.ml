(* Workload [serve_edit]: a real [bin serve --socket PATH --store DIR
   --jobs 1] daemon, driven the way an editor or build tool drives it.
   One client connection, a closed loop (each request waits for its
   reply), one request per batch. The stream is seeded: about three
   single-function edits for every re-analyze of an unchanged source,
   over the 16 suite programs and a seeded corpus sample. An edit
   reparses the whole program but solves one function again and writes
   the store and its journal; a re-analyze only reads them. Requests
   carry no profiling runs, so the interpreter does no work here.

   The timed phase repeats one pass of the stream. A pass is [blocks]
   blocks of four rounds; a round asks for every program once, in a
   seeded order, and each program is re-analyzed unchanged in one seeded
   round of each block and edited in the other three. So every seed
   sends each program equally often, and the mix does not depend on the
   seed. Each pass starts from the same store contents (cleared and
   primed again, untimed), so every pass does the same work and the
   store's size does not depend on how many passes fit in the run. *)

module J = Obs.Json
module Incr = Driver.Incr

(* The daemon, as run.py builds it. *)
let daemon = "_build/default/bin/main.exe"
let blocks = 5
let rounds_per_block = 4
let corpus_per_class = 10
let setups = 9

(* Every intra kind is solved again for the one edited function. *)
let kinds_per_edit = List.length Core.Pipeline.all_intra_kinds

(* ------------------------------------------------------------------ *)
(* Programs and edits. *)

type prog = {
  name : string;
  original : string;
  sites : int array;          (* offsets just past each function body's '{' *)
  site_fns : string array;    (* the function each site opens *)
  edits : int option array;   (* the constant each site currently carries *)
}

(* Where each function body opens, from the parser's positions. *)
let sites_of ~(name : string) (source : string) : (int * string) array =
  let tunit = Cfront.Parser.parse_string ~file:(name ^ ".c") source in
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) source;
  let starts = Array.of_list (List.rev !starts) in
  List.filter_map
    (function
      | Cfront.Ast.Gfun f ->
        let p = f.Cfront.Ast.f_body.Cfront.Ast.spos in
        let line = p.Cfront.Token.line - 1 in
        if line < 0 || line >= Array.length starts then None
        else
          let off = starts.(line) + p.Cfront.Token.col - 1 in
          if off >= 0 && off < String.length source && source.[off] = '{' then
            Some (off + 1, f.Cfront.Ast.f_name)
          else None
      | _ -> None)
    tunit.Cfront.Ast.globals
  |> Array.of_list

let programs (seed : int) : prog list =
  let suite =
    List.map
      (fun (b : Suite.Bench_prog.t) -> (b.Suite.Bench_prog.name, b.Suite.Bench_prog.source))
      Suite.Registry.all
  in
  let corpus =
    List.concat_map
      (fun cls ->
        List.init corpus_per_class (fun i ->
            ( Corpus.Genprog.name cls i,
              Corpus.Genprog.generate ~seed ~cls ~size:Corpus.Shape.medium ~index:i )))
      Corpus.Shape.all_classes
  in
  List.map
    (fun (name, original) ->
      let sites = sites_of ~name original in
      if Array.length sites = 0 then
        failwith ("no editable function body found in " ^ name);
      { name; original; sites = Array.map fst sites; site_fns = Array.map snd sites;
        edits = Array.make (Array.length sites) None })
    (suite @ corpus)

let render (p : prog) : string =
  let buf = Buffer.create (String.length p.original + 64) in
  let pos = ref 0 in
  Array.iteri
    (fun i site ->
      match p.edits.(i) with
      | None -> ()
      | Some k ->
        Buffer.add_substring buf p.original !pos (site - !pos);
        Buffer.add_string buf (Printf.sprintf " int perfbench_edit = %d;" k);
        pos := site)
    p.sites;
  Buffer.add_substring buf p.original !pos (String.length p.original - !pos);
  Buffer.contents buf

let reset_edits (progs : prog array) : unit =
  Array.iter (fun p -> Array.fill p.edits 0 (Array.length p.edits) None) progs

(* One request of the stream and what its response must say. *)
type request = {
  r_prog : prog;
  r_source : string;
  r_line : string;
  r_edit : string option;
      (* the edited function: a program miss and [kinds_per_edit] misses;
         [None] for an unchanged re-analyze: a program hit, no misses *)
}

let analyze_line ~(id : J.t) ~(name : string) (source : string) : string =
  J.to_compact_string
    (J.Obj
       [ ("id", id); ("op", J.Str "analyze"); ("name", J.Str name);
         ("source", J.Str source) ])

(* The stream of pass [pass]: the same choices on every pass, each edit
   with a constant no earlier request used, so an edit is always new
   content. Applies the edits to [progs] as it goes. *)
let stream ~(seed : int) ~(pass : int) (progs : prog array) : request list =
  reset_edits progs;
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let n = Array.length progs in
  let shuffled () =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let stream_len = blocks * rounds_per_block * n in
  if (pass + 1) * stream_len >= 900_000 then failwith "too many passes";
  let index = ref 0 in
  List.concat
    (List.init blocks (fun _ ->
         let reanalyze_round = Array.init n (fun _ -> Random.State.int rng rounds_per_block) in
         List.concat
           (List.init rounds_per_block (fun round ->
                Array.to_list
                  (Array.map
                     (fun k ->
                       let p = progs.(k) in
                       let i = !index in
                       incr index;
                       let edit =
                         if round = reanalyze_round.(k) then None
                         else begin
                           let site = Random.State.int rng (Array.length p.sites) in
                           p.edits.(site) <- Some (100_000 + (pass * stream_len) + i);
                           Some p.site_fns.(site)
                         end
                       in
                       let source = render p in
                       { r_prog = p; r_source = source; r_edit = edit;
                         r_line = analyze_line ~id:(J.Num (float_of_int i)) ~name:p.name source })
                     (shuffled ()))))))

(* The checks on one response. Returns its fn hits and misses. *)
let check_response (failures : Common.failures) (rq : request) ~(index : int)
    (line : string) : (int * int * bool * string) option =
  let bad msg =
    Common.fail failures (Printf.sprintf "request %d (%s): %s" index rq.r_prog.name msg);
    None
  in
  match J.parse line with
  | Error e -> bad ("response is not JSON: " ^ e)
  | Ok j ->
    let num k = Option.bind (J.member k j) J.to_num in
    let bool k = match J.member k j with Some (J.Bool b) -> Some b | _ -> None in
    (match (bool "ok", bool "program_hit", num "fn_hits", num "fn_misses", J.member "scores" j) with
    | Some true, Some program_hit, Some hits, Some misses, Some scores ->
      let hits = int_of_float hits and misses = int_of_float misses in
      if num "id" <> Some (float_of_int index) then bad "wrong id"
      else if rq.r_edit <> None && program_hit then bad "edit answered as a program hit"
      else if rq.r_edit <> None && misses <> kinds_per_edit then
        bad (Printf.sprintf "edit: %d function misses, expected %d" misses kinds_per_edit)
      else if rq.r_edit = None && not program_hit then
        bad "unchanged re-analyze missed the program cache"
      else if rq.r_edit = None && misses <> 0 then
        bad (Printf.sprintf "unchanged re-analyze: %d function misses" misses)
      else Some (hits, misses, program_hit, J.to_compact_string scores)
    | Some false, _, _, _, _ -> bad ("not ok: " ^ line)
    | _ -> bad "response lacks ok/program_hit/fn_hits/fn_misses/scores")

(* Final scores must equal a cold in-process analyze of the same source. *)
let check_final (failures : Common.failures) (progs : prog array)
    (last_scores : (string, string) Hashtbl.t) : int =
  Array.iter
    (fun p ->
      Incr.clear ();
      let a = Incr.analyze ~name:p.name (render p) in
      let cold = J.to_compact_string (Driver.Serve.scores_json a.Incr.an_scores) in
      match Hashtbl.find_opt last_scores p.name with
      | Some s when s = cold -> ()
      | Some _ -> Common.fail failures (p.name ^ ": final scores differ from a cold analyze")
      | None -> Common.fail failures (p.name ^ ": no scores from the daemon"))
    progs;
  Incr.clear ();
  Array.length progs

(* ------------------------------------------------------------------ *)
(* The daemon. *)

type daemon = { pid : int; fd : Unix.file_descr; ic : in_channel }

let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send (d : daemon) (line : string) : unit = write_all d.fd (line ^ "\n\n") 0
let recv (d : daemon) : string = input_line d.ic

let spawn ~(exe : string) ~(dir : string) : daemon =
  Common.remove_tree dir;
  Common.mkdir_p dir;
  (* Relative, so the socket path stays short wherever the checkout is. *)
  let sock = Filename.concat dir "sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--store"; Filename.concat dir "store";
         "--jobs"; "1" |]
      null null log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  let deadline = Common.now () +. 60.0 in
  let rec connect () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      live := List.filter (( <> ) pid) !live;
      failwith ("the daemon exited at start; see " ^ Filename.concat dir "daemon.log"));
    if Sys.file_exists sock then Driver.Transport.connect_unix sock
    else if Common.now () > deadline then failwith "the daemon did not listen within 60 s"
    else (Unix.sleepf 0.002; connect ())
  in
  let fd = connect () in
  { pid; fd; ic = Unix.in_channel_of_descr fd }

(* Ask the daemon to stop, wait for it to exit, and return its status. *)
let stop (d : daemon) : Unix.process_status =
  (try
     send d {|{"id":"stop","op":"shutdown"}|};
     ignore (recv d)
   with _ -> ());
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  let deadline = Common.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Common.now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      snd (Unix.waitpid [] d.pid)
    | _, status -> status
  in
  let status = wait () in
  live := List.filter (( <> ) d.pid) !live;
  status

let prime (failures : Common.failures) (d : daemon) (progs : prog array)
    (last_scores : (string, string) Hashtbl.t) : unit =
  Array.iter
    (fun p ->
      send d (analyze_line ~id:(J.Str "prime") ~name:p.name p.original);
      let line = recv d in
      match Option.bind (Result.to_option (J.parse line)) (J.member "scores") with
      | Some s when String.length line > 0 ->
        Hashtbl.replace last_scores p.name (J.to_compact_string s)
      | _ -> Common.fail failures (p.name ^ ": priming failed: " ^ line))
    progs

type pass_stats = {
  wall : float;
  latencies : float list;     (* seconds, request order *)
  response_bytes : int;
  fn_hits : int;
  fn_misses : int;
  program_hits : int;
}

let socket_pass (failures : Common.failures) (d : daemon) ~(seed : int)
    ~(pass : int) (progs : prog array) (last_scores : (string, string) Hashtbl.t)
    : pass_stats =
  let requests = stream ~seed ~pass progs in
  let timed, wall =
    Common.time (fun () ->
        List.map
          (fun rq ->
            let t0 = Common.now () in
            send d rq.r_line;
            let line = recv d in
            (rq, line, Common.now () -. t0))
          requests)
  in
  let bytes = ref 0 and hits = ref 0 and misses = ref 0 and phits = ref 0 in
  List.iteri
    (fun i (rq, line, _) ->
      bytes := !bytes + String.length line + 1;
      match check_response failures rq ~index:i line with
      | Some (h, m, phit, scores) ->
        Hashtbl.replace last_scores rq.r_prog.name scores;
        hits := !hits + h;
        misses := !misses + m;
        if phit then incr phits
      | None -> ())
    timed;
  { wall; latencies = List.map (fun (_, _, l) -> l) timed; response_bytes = !bytes;
    fn_hits = !hits; fn_misses = !misses; program_hits = !phits }

let setup_daemon (failures : Common.failures) ~(exe : string) ~(index : int)
    (progs : prog array) (last_scores : (string, string) Hashtbl.t) : daemon * float =
  Common.time (fun () ->
      let d = spawn ~exe ~dir:(Common.out_path (Printf.sprintf "serve/daemon%d" index)) in
      reset_edits progs;
      prime failures d progs last_scores;
      d)

(* ------------------------------------------------------------------ *)
(* The traced replays: the same stream, in-process. *)

let fresh_store (name : string) : string =
  let dir = Common.out_path ("serve/" ^ name) in
  Common.remove_tree dir;
  Incr.clear ();
  ignore (Incr.open_store dir);
  dir

type replay = {
  rp_wall : float;
  rp_minor : float;
  rp_major : int;
  rp_hits : int;
  rp_misses : int;
  rp_program_hits : int;
  rp_unexpected : int;  (* requests whose program hit was not the expected one *)
  rp_store_bytes : int;
  rp_journal_bytes : int;
}

(* The stream through [Incr.analyze] on a fresh store that journals to
   disk, primed as the daemon is. *)
let analyze_replay ~(seed : int) (progs : prog array) ~(traced : bool) : replay =
  let dir = fresh_store (if traced then "replay-traced" else "replay") in
  reset_edits progs;
  Array.iter (fun p -> ignore (Incr.analyze ~name:p.name p.original)) progs;
  let requests = stream ~seed ~pass:0 progs in
  Spans.set_enabled traced;
  let g0 = Gc.quick_stat () in
  let results, wall =
    Common.time (fun () ->
        Spans.with_span "serve.analyze_replay" (fun () ->
            List.map
              (fun rq ->
                Spans.with_span ~program:rq.r_prog.name "incr.analyze" (fun () ->
                    (rq, Incr.analyze ~name:rq.r_prog.name rq.r_source)))
              requests))
  in
  let g1 = Gc.quick_stat () in
  Spans.set_enabled true;
  let count f = List.length (List.filter f results) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let journal = Common.file_size (Filename.concat dir Driver.Persist.journal_name) in
  let store_bytes = (Incr.stats ()).Incr.st_bytes in
  Incr.close_store ();
  Incr.clear ();
  { rp_wall = wall; rp_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    rp_major = g1.Gc.major_collections - g0.Gc.major_collections;
    rp_hits = sum (fun (_, a) -> a.Incr.an_fn_hits);
    rp_misses = sum (fun (_, a) -> a.Incr.an_fn_misses);
    rp_program_hits = count (fun (_, a) -> a.Incr.an_program_hit);
    rp_unexpected = count (fun (rq, a) -> a.Incr.an_program_hit = (rq.r_edit <> None));
    rp_store_bytes = store_bytes; rp_journal_bytes = journal }

(* [Serve.handle_batch] on the same lines, one request per batch, with
   the daemon's telemetry switched on as the daemon has it. *)
let handle_replay ~(seed : int) (progs : prog array) : int =
  ignore (fresh_store "replay-handle");
  Obs.Probe.set_enabled true;
  let stop = ref false in
  let batch line =
    let out = Driver.Serve.handle_batch stop [ line ] in
    Driver.Fault.reset ();
    Incr.republish_gauges ();
    out
  in
  reset_edits progs;
  Array.iter
    (fun p -> ignore (batch (analyze_line ~id:(J.Str "prime") ~name:p.name p.original)))
    progs;
  let requests = stream ~seed ~pass:0 progs in
  let bytes =
    Spans.with_span "serve.handle_replay" (fun () ->
        List.fold_left
          (fun acc rq ->
            let out =
              Spans.with_span ~program:rq.r_prog.name "serve.handle" (fun () ->
                  batch rq.r_line)
            in
            List.fold_left (fun a l -> a + String.length l + 1) acc out)
          0 requests)
  in
  Obs.Probe.set_enabled false;
  Obs.Probe.reset ();
  Incr.close_store ();
  Incr.clear ();
  bytes

(* What an edit costs, layer by layer: the calls [Incr.analyze] makes
   for an edit whose other functions hit the store. Compiling for the
   handle and the smart table the fixpoint reads are outside the layer
   spans. *)
let edit_replay (edits : request list) : unit =
  let module P = Core.Pipeline in
  Spans.with_span "replay.edit" (fun () ->
      List.iter
        (fun rq ->
          let name = rq.r_prog.name in
          let sp n f = Spans.with_span ~program:name n f in
          Layers.frontend name rq.r_source;
          let c = P.compile ~name rq.r_source in
          let fns = c.P.prog.Cfg_ir.Cfg.prog_fns in
          sp "cfront.fnhash" (fun () -> List.iter (fun fn -> ignore (P.fn_hash c fn)) fns);
          let fn = List.find (fun fn -> Some fn.Cfg_ir.Cfg.fn_name = rq.r_edit) fns in
          List.iter
            (fun k ->
              ignore
                (sp ("core.intra." ^ Layers.kind_metric k) (fun () ->
                     P.intra_freqs_fn c k fn)))
            P.all_intra_kinds;
          let smart = P.intra_table c P.Ismart in
          ignore
            (sp "core.inter" (fun () ->
                 Core.Markov_inter.estimate ~inject_key:name c.P.graph
                   ~intra:(Hashtbl.find smart))))
        edits)

(* ------------------------------------------------------------------ *)

let run ~(seed : int) ~(seconds : float) ~(traced : bool) : Common.result =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fun.protect ~finally:(fun () -> Common.remove_tree (Common.out_path "serve")) @@ fun () ->
  if not (Sys.file_exists daemon) then failwith ("no daemon executable at " ^ daemon);
  let progs = Array.of_list (programs seed) in
  let failures = Common.failures () in
  let last_scores = Hashtbl.create 64 in
  let env =
    Common.env_block ~jobs:1 ~seed
      [ ("programs", string_of_int (Array.length progs));
        ("requests_per_pass", string_of_int (blocks * rounds_per_block * Array.length progs));
        ("reanalyzes_per_block", "1 per program in 4 requests") ]
  in
  let n_setups = if traced then 1 else setups in
  let setup_times = ref [] in
  let d = ref None in
  for i = 1 to n_setups do
    let di, t = setup_daemon failures ~exe:daemon ~index:i progs last_scores in
    setup_times := t :: !setup_times;
    (match !d with Some old -> ignore (stop old) | None -> ());
    d := Some di
  done;
  let d = Option.get !d in
  let t_start = Common.now () in
  let rec loop pass acc =
    if acc <> [] && (traced || Common.now () -. t_start >= seconds) then List.rev acc
    else begin
      if pass > 0 then begin
        (* Back to the primed store, untimed. *)
        send d {|{"id":"reset","op":"invalidate"}|};
        ignore (recv d);
        reset_edits progs;
        prime failures d progs last_scores
      end;
      loop (pass + 1) (socket_pass failures d ~seed ~pass progs last_scores :: acc)
    end
  in
  let passes = loop 0 [] in
  let peak_rss = Common.peak_rss_mb (string_of_int d.pid) in
  let compared = check_final failures progs last_scores in
  (match stop d with
  | Unix.WEXITED 0 -> ()
  | _ -> Common.fail failures "the daemon did not exit cleanly");
  let latencies = List.concat_map (fun p -> p.latencies) passes in
  let walls = List.map (fun p -> p.wall) passes in
  let first = List.hd passes in
  List.iteri
    (fun i p ->
      if (p.response_bytes, p.fn_hits, p.fn_misses, p.program_hits)
         <> (first.response_bytes, first.fn_hits, first.fn_misses, first.program_hits)
      then
        Common.fail failures
          (Printf.sprintf "pass %d: response bytes or store counts differ from pass 1" (i + 1)))
    passes;
  let n_requests = List.length latencies in
  let companions =
    [ ("serve.response_bytes", string_of_int first.response_bytes);
      ("incr.fn_hits", string_of_int first.fn_hits);
      ("incr.fn_misses", string_of_int first.fn_misses);
      ("incr.program_hits", string_of_int first.program_hits) ]
  in
  let notes =
    [ ("passes", J.Num (float_of_int (List.length passes)));
      ("setups_s", J.Arr (List.map (fun t -> J.Num t) (List.rev !setup_times)));
      ("latency_samples", J.Num (float_of_int n_requests));
      ("pass_walls_s", J.Arr (List.map (fun w -> J.Num w) walls)) ]
  in
  if not traced then
    { Common.workload = "serve_edit"; seed; traced; env;
      attempted = n_requests + compared; failed = failures.Common.n;
      failures = failures.Common.first;
      metrics =
        Common.complete Common.end_to_end
          [ ("setup_s", Common.median !setup_times);
            ("wall_s", Common.median walls);
            ("programs_per_s", float_of_int n_requests /. Common.sum walls);
            ("p50_ms", 1000.0 *. Common.quantile 0.5 latencies);
            ("p99_ms", 1000.0 *. Common.quantile 0.99 latencies);
            ("peak_rss_mb", peak_rss) ];
      companions; notes }
  else begin
    let replay, overhead =
      Layers.with_overhead (analyze_replay ~seed progs) (fun r -> r.rp_wall)
    in
    if replay.rp_unexpected > 0 then
      Common.fail failures
        (Printf.sprintf "in-process: %d program hits not as expected" replay.rp_unexpected);
    let handle_bytes = handle_replay ~seed progs in
    if handle_bytes <> first.response_bytes then
      Common.fail failures "in-process responses differ in size from the daemon's";
    let requests = stream ~seed ~pass:0 progs in
    let edits = List.filter (fun rq -> rq.r_edit <> None) requests in
    edit_replay edits;
    let spans = Spans.all () in
    Spans.write
      ~path:(Common.out_path (Printf.sprintf "spans-serve_edit-seed%d.json" seed))
      ~workload:"serve_edit" spans;
    let ms name = 1000.0 *. Common.quantile 0.5 (Spans.durations spans name) in
    let frontend =
      Layers.frontend_metrics spans
        ~bytes:(List.fold_left (fun a rq -> a + String.length rq.r_source) 0 edits)
    in
    let frontend_s =
      Spans.total spans "cfront.parse" +. Spans.total spans "cfront.typecheck"
      +. Spans.total spans "cfg_ir.build"
    in
    let socket_p50 = 1000.0 *. Common.quantile 0.5 latencies in
    { Common.workload = "serve_edit"; seed; traced; env;
      attempted = n_requests + compared + List.length requests; failed = failures.Common.n;
      failures = failures.Common.first;
      metrics =
        Layers.complete
          (frontend
           @ List.map
               (fun k ->
                 let m = Layers.kind_metric k in
                 ("core.intra_s." ^ m, Spans.total spans ("core.intra." ^ m)))
               Core.Pipeline.all_intra_kinds
           @ [ ("incr.analyze_p50_ms", ms "incr.analyze");
               ("incr.frontend_share",
                Common.ratio frontend_s (Spans.total spans "incr.analyze"));
               ("incr.fn_hit_ratio",
                Common.ratio (float_of_int replay.rp_hits)
                  (float_of_int (replay.rp_hits + replay.rp_misses)));
               ("incr.program_hit_ratio",
                Common.ratio (float_of_int replay.rp_program_hits)
                  (float_of_int (List.length requests)));
               ("incr.store_bytes", float_of_int replay.rp_store_bytes);
               ("persist.journal_bytes", float_of_int replay.rp_journal_bytes);
               ("serve.handle_p50_ms", ms "serve.handle");
               ("serve.response_bytes", float_of_int handle_bytes);
               ("serve.transport_p50_ms", socket_p50 -. ms "serve.handle");
               ("core.inter_s", Spans.total spans "core.inter");
               ("gc.minor_words", replay.rp_minor);
               ("gc.major_collections", float_of_int replay.rp_major);
               ("trace.wall_s", replay.rp_wall);
               ("trace.overhead_ratio", overhead) ]);
      companions =
        companions
        @ [ ("incr.replay_fn_hits", string_of_int replay.rp_hits);
            ("incr.replay_fn_misses", string_of_int replay.rp_misses) ];
      notes = notes @ [ ("socket_p50_ms", J.Num socket_p50) ] }
  end
