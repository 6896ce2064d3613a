(* What every workload shares: clocks, statistics, memory readings, the
   environment block, the machine-independent companions and the result
   line the benchmark prints last. *)

module J = Obs.Json

let now () : float = Int64.to_float (Obs.Probe.now_ns ()) /. 1e9

let time (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Every file the benchmark writes goes under this directory of the
   checkout it runs in. *)
let out_dir = ".bench_out"

let rec mkdir_p (dir : string) : unit =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree (path : string) : unit =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun e -> remove_tree (Filename.concat path e))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* A path under [out_dir]; its parent directory exists on return. *)
let out_path (name : string) : string =
  let path = Filename.concat out_dir name in
  mkdir_p (Filename.dirname path);
  path

let file_size (path : string) : int =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it. *)
let quantile (q : float) (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum (xs : float list) : float = List.fold_left ( +. ) 0.0 xs

let ratio (a : float) (b : float) : float = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Memory: the peak resident set (VmHWM) of a live process. *)

let peak_rss_mb (pid : string) : float =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* The digest of a set of score records: every field, values by their
   exact bits. Equal digests mean bit-identical scores. *)

let score_digest (scores : Driver.Score.t list) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s : Driver.Score.t) ->
      Buffer.add_string buf (Driver.Score.key_to_string (Driver.Score.key s));
      Buffer.add_string buf
        (Printf.sprintf "=%Lx\n" (Int64.bits_of_float s.Driver.Score.s_value)))
    (List.sort (fun a b -> compare (Driver.Score.key a) (Driver.Score.key b)) scores);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* The result of one run. *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* The end-to-end metrics, with their units, as BENCHMARK.json lists
   them. An untraced run of every workload prints each of them. *)
let end_to_end : (string * string) list =
  [ ("setup_s", "s"); ("wall_s", "s"); ("programs_per_s", "1/s");
    ("p50_ms", "ms"); ("p99_ms", "ms"); ("peak_rss_mb", "MB") ]

(* Attach units to exactly the metrics of [names], in their order. *)
let complete (names : (string * string) list) (values : (string * float) list) :
    metric list =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name names) then invalid_arg ("unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      metric name unit (Option.value ~default:0.0 (List.assoc_opt name values)))
    names

type result = {
  workload : string;
  seed : int;
  traced : bool;
  env : (string * string) list;      (* Envmeta.common + run settings *)
  attempted : int;
  failed : int;
  failures : string list;            (* the first few, for the log *)
  metrics : metric list;
  companions : (string * string) list;  (* machine-independent counts *)
  notes : (string * J.t) list;       (* everything else worth keeping *)
}

let max_failures_kept = 20

(* A failure list that keeps its count exact but its text bounded. *)
type failures = { mutable n : int; mutable first : string list }

let failures () = { n = 0; first = [] }

let fail (f : failures) (msg : string) : unit =
  f.n <- f.n + 1;
  if f.n <= max_failures_kept then f.first <- f.first @ [ msg ]

let env_block ~(jobs : int) ~(seed : int) (sizes : (string * string) list) :
    (string * string) list =
  Obs.Envmeta.common ()
  @ [ ("jobs", string_of_int jobs); ("seed", string_of_int seed) ]
  @ sizes

(* Companions must repeat exactly between runs of one workload and seed.
   Each run compares its companions with the last run of the same
   workload and seed in this checkout, then records its own. Results
   from a host with another core count are marked not comparable and
   are not compared. *)
let check_companions (r : result) : (string * J.t) list =
  let path =
    out_path
      (Printf.sprintf "companions-%s-seed%d-trace%d.json" r.workload r.seed
         (if r.traced then 1 else 0))
  in
  let cores = List.assoc "cores" r.env in
  let previous =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Result.to_option (J.parse s)
  in
  let verdict =
    match previous with
    | None -> [ ("companions_repeat", J.Str "first run of this seed") ]
    | Some prev ->
      let field j k = Option.bind (J.member k j) J.to_str in
      if field prev "cores" <> Some cores then
        [ ("companions_repeat", J.Str "not comparable: different core count") ]
      else
        let mismatches =
          List.filter_map
            (fun (k, v) ->
              match Option.bind (J.member "companions" prev) (fun c -> field c k) with
              | Some v' when v' <> v ->
                Some (J.Str (Printf.sprintf "%s: %s then %s" k v' v))
              | _ -> None)
            r.companions
        in
        if mismatches = [] then [ ("companions_repeat", J.Bool true) ]
        else
          [ ("companions_repeat", J.Bool false);
            ("companion_mismatches", J.Arr mismatches) ]
  in
  let oc = open_out_bin path in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("cores", J.Str cores);
            ("companions",
             J.Obj (List.map (fun (k, v) -> (k, J.Str v)) r.companions)) ]));
  close_out oc;
  verdict

(* Write the full result file, print a readable summary, then the result
   line: the last line of standard output. *)
let emit (r : result) : unit =
  let verdict = check_companions r in
  (match List.assoc_opt "companion_mismatches" verdict with
  | Some (J.Arr ms) ->
    List.iter
      (fun m ->
        Printf.printf "companion mismatch: %s\n" (Option.value ~default:"" (J.to_str m)))
      ms
  | _ -> ());
  let metrics_json =
    J.Obj
      (List.map
         (fun m ->
           (m.m_name, J.Obj [ ("value", J.Num m.m_value); ("unit", J.Str m.m_unit) ]))
         r.metrics)
  in
  let full =
    J.Obj
      ([ ("workload", J.Str r.workload);
         ("seed", J.Num (float_of_int r.seed));
         ("trace", J.Bool r.traced);
         ("env", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) r.env));
         ("attempted", J.Num (float_of_int r.attempted));
         ("failed", J.Num (float_of_int r.failed));
         ("failures", J.Arr (List.map (fun s -> J.Str s) r.failures));
         ("metrics", metrics_json);
         ("companions",
          J.Obj (List.map (fun (k, v) -> (k, J.Str v)) r.companions)) ]
      @ verdict @ r.notes)
  in
  let path =
    out_path
      (Printf.sprintf "result-%s-seed%d-trace%d.json" r.workload r.seed
         (if r.traced then 1 else 0))
  in
  let oc = open_out_bin path in
  output_string oc (J.to_string full);
  close_out oc;
  Printf.printf "env: %s\n"
    (J.to_compact_string (J.Obj (List.map (fun (k, v) -> (k, J.Str v)) r.env)));
  List.iter (fun f -> Printf.printf "failure: %s\n" f) r.failures;
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6g %s\n" m.m_name m.m_value m.m_unit)
    r.metrics;
  Printf.printf "full result: %s\n" path;
  print_endline
    (J.to_compact_string
       (J.Obj
          [ ("correct", J.Bool (r.failed = 0));
            ("attempted", J.Num (float_of_int r.attempted));
            ("failed", J.Num (float_of_int r.failed));
            ("metrics", metrics_json) ]))
