(* In-memory spans recorded around calls into each layer's public
   functions. A span is (id, name, start, stop, parent, program); spans
   of one run share the run's workload, which the output file records
   once. Nothing is written until [write] at the end of the run.

   Spans may be recorded from several domains (the corpus pool): the
   ambient parent is domain-local, the finished-span list is shared under
   a mutex. A task running on another domain names its parent
   explicitly. *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;   (* 0 = a root *)
  program : string;
}

let lock = Mutex.create ()
let finished : span list ref = ref []
let next_id = Atomic.make 1
let ambient : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* Off only for the untraced twin of a traced pass. *)
let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b

let with_span ?parent ?(program = "") (name : string) (f : unit -> 'a) : 'a =
  if not (Atomic.get enabled) then f () else
  let id = Atomic.fetch_and_add next_id 1 in
  let outer = Domain.DLS.get ambient in
  let parent = Option.value parent ~default:outer in
  Domain.DLS.set ambient id;
  let start_ns = Obs.Probe.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop_ns = Obs.Probe.now_ns () in
      Domain.DLS.set ambient outer;
      Mutex.protect lock (fun () ->
          finished :=
            { id; name; start_ns; stop_ns; parent; program } :: !finished))
    f

let current () : int = Domain.DLS.get ambient

let all () : span list =
  List.sort (fun a b -> compare a.id b.id) (Mutex.protect lock (fun () -> !finished))

let seconds (s : span) : float =
  Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* Self time: the span's duration minus the part of its interval that
   its children cover. Children of one parent may overlap (pool tasks on
   two domains), so the covered part is the union of their intervals. *)
let self_seconds (children : (int, span list) Hashtbl.t) (s : span) : float =
  let kids =
    List.sort
      (fun a b -> compare a.start_ns b.start_ns)
      (Option.value ~default:[] (Hashtbl.find_opt children s.id))
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) k ->
        let lo = max k.start_ns (max reach s.start_ns)
        and hi = min k.stop_ns s.stop_ns in
        if hi > lo then (Int64.add acc (Int64.sub hi lo), hi)
        else (acc, max reach hi))
      (0L, s.start_ns) kids
  in
  (Int64.to_float (Int64.sub s.stop_ns s.start_ns) -. Int64.to_float covered)
  /. 1e9

let children_index (spans : span list) : (int, span list) Hashtbl.t =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.parent
        (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    spans;
  tbl

let durations (spans : span list) (name : string) : float list =
  List.filter_map
    (fun s -> if s.name = name then Some (seconds s) else None)
    spans

(* Total duration of every span called [name]. *)
let total (spans : span list) (name : string) : float =
  List.fold_left ( +. ) 0.0 (durations spans name)

(* Per-name totals and self times, for the run's layer table. *)
let layer_table (spans : span list) : (string * int * float * float) list =
  let children = children_index spans in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let n, d, self =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        (n + 1, d +. seconds s, self +. self_seconds children s))
    spans;
  Hashtbl.fold (fun name (n, d, self) acc -> (name, n, d, self) :: acc) tbl []
  |> List.sort compare

let write ~(path : string) ~(workload : string) (spans : span list) : unit =
  let module J = Obs.Json in
  let children = children_index spans in
  let base = match spans with [] -> 0L | s :: _ -> s.start_ns in
  let span_json s =
    J.Obj
      [ ("id", J.Num (float_of_int s.id));
        ("name", J.Str s.name);
        ("parent", J.Num (float_of_int s.parent));
        ("program", J.Str s.program);
        ("start_s", J.Num (Int64.to_float (Int64.sub s.start_ns base) /. 1e9));
        ("dur_s", J.Num (seconds s));
        ("self_s", J.Num (self_seconds children s)) ]
  in
  let layers =
    List.map
      (fun (name, n, d, self) ->
        J.Obj
          [ ("name", J.Str name); ("count", J.Num (float_of_int n));
            ("total_s", J.Num d); ("self_s", J.Num self) ])
      (layer_table spans)
  in
  let oc = open_out_bin path in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("workload", J.Str workload); ("layers", J.Arr layers);
            ("spans", J.Arr (List.map span_json spans)) ]));
  close_out oc
