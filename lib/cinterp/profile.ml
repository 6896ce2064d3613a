(* Execution profiles: the counters the paper's evaluation needs.

   - basic-block execution counts per function,
   - per-branch taken / not-taken counts (branch prediction miss rates),
   - call-site execution counts (call-site ranking),
   - per-function executed "work" units (the Figure 10 cost model).

   Function invocation counts are the entry block's count. *)

module Cfg = Cfg_ir.Cfg

type fn_counters = {
  block_counts : float array;      (* indexed by block id *)
  branch_taken : float array;      (* indexed by block id of the branch *)
  branch_not_taken : float array;
}

type t = {
  fns : (string, fn_counters) Hashtbl.t;
  site_counts : float array;       (* indexed by call-site id *)
  mutable work : float;            (* total executed instruction units *)
}

let create (p : Cfg.program) : t =
  let fns = Hashtbl.create 32 in
  List.iter
    (fun fn ->
      let n = Cfg.n_blocks fn in
      Hashtbl.replace fns fn.Cfg.fn_name
        { block_counts = Array.make n 0.0;
          branch_taken = Array.make n 0.0;
          branch_not_taken = Array.make n 0.0 })
    p.Cfg.prog_fns;
  { fns;
    site_counts = Array.make (Array.length p.Cfg.prog_sites) 0.0;
    work = 0.0 }

let fn_counters (t : t) name : fn_counters = Hashtbl.find t.fns name

let block_counts (t : t) name : float array =
  (fn_counters t name).block_counts

(* Invocation count of a function = its entry block count. *)
let invocations (t : t) (fn : Cfg.fn) : float =
  (fn_counters t fn.Cfg.fn_name).block_counts.(fn.Cfg.fn_entry)

let total_blocks (t : t) : float =
  Hashtbl.fold
    (fun _ c acc -> acc +. Array.fold_left ( +. ) 0.0 c.block_counts)
    t.fns 0.0

(* ------------------------------------------------------------------ *)
(* Serialization: the paper's architecture separates the instrumenting
   compiler from an off-line analysis tool that "read both profile and
   analysis information"; a stable text format gives this reproduction
   the same workflow (run once, score many estimators later). *)

let save (t : t) : string =
  let buf = Buffer.create 1024 in
  let floats arr =
    String.concat " "
      (Array.to_list (Array.map (Printf.sprintf "%.17g") arr))
  in
  Buffer.add_string buf "profile-v1\n";
  Buffer.add_string buf (Printf.sprintf "work %.17g\n" t.work);
  Buffer.add_string buf
    (Printf.sprintf "sites %d %s\n" (Array.length t.site_counts)
       (floats t.site_counts));
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.fns []
    |> List.sort compare
  in
  List.iter
    (fun name ->
      let c = Hashtbl.find t.fns name in
      Buffer.add_string buf
        (Printf.sprintf "fn %s %d\n" name (Array.length c.block_counts));
      Buffer.add_string buf ("blocks " ^ floats c.block_counts ^ "\n");
      Buffer.add_string buf ("taken " ^ floats c.branch_taken ^ "\n");
      Buffer.add_string buf ("nottaken " ^ floats c.branch_not_taken ^ "\n"))
    names;
  Buffer.contents buf

exception Parse_error of string

let load (text : string) : t =
  let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
  let parse_floats s =
    String.split_on_char ' ' s
    |> List.filter (( <> ) "")
    |> List.map float_of_string
    |> Array.of_list
  in
  let fail msg = raise (Parse_error msg) in
  match lines with
  | "profile-v1" :: rest ->
    let fns = Hashtbl.create 16 in
    let work = ref 0.0 in
    let sites = ref [||] in
    let rec go = function
      | [] -> ()
      | line :: rest when String.length line > 5 && String.sub line 0 5 = "work "
        ->
        work := float_of_string (String.sub line 5 (String.length line - 5));
        go rest
      | line :: rest
        when String.length line > 6 && String.sub line 0 6 = "sites " -> begin
        let payload = String.sub line 6 (String.length line - 6) in
        match String.index_opt payload ' ' with
        | Some i ->
          let n = int_of_string (String.sub payload 0 i) in
          let arr =
            parse_floats (String.sub payload i (String.length payload - i))
          in
          if Array.length arr <> n then fail "site count mismatch";
          sites := arr;
          go rest
        | None ->
          if int_of_string payload <> 0 then fail "site count mismatch";
          sites := [||];
          go rest
      end
      | line :: blocks :: taken :: nottaken :: rest
        when String.length line > 3 && String.sub line 0 3 = "fn " -> begin
        match String.split_on_char ' ' line with
        | [ _; name; n ] ->
          let n = int_of_string n in
          let cut prefix s =
            let pl = String.length prefix in
            if String.length s >= pl && String.sub s 0 pl = prefix then
              String.sub s pl (String.length s - pl)
            else fail ("expected " ^ prefix)
          in
          let counters =
            { block_counts = parse_floats (cut "blocks " blocks);
              branch_taken = parse_floats (cut "taken " taken);
              branch_not_taken = parse_floats (cut "nottaken " nottaken) }
          in
          if Array.length counters.block_counts <> n then
            fail ("block count mismatch in " ^ name);
          Hashtbl.replace fns name counters;
          go rest
        | _ -> fail "malformed fn line"
      end
      | line :: _ -> fail ("unexpected line: " ^ line)
    in
    go rest;
    { fns; site_counts = !sites; work = !work }
  | _ -> fail "not a profile-v1 file"

(* Sum a list of profiles after normalizing each to the same total basic
   block count (paper section 3: "we normalized them to have the same
   total basic block counts, then summed each block's counts"). The
   common total is the mean of the inputs' totals. *)
let aggregate (p : Cfg.program) (profiles : t list) : t =
  match profiles with
  | [] -> invalid_arg "Profile.aggregate: empty"
  | _ ->
    let totals = List.map total_blocks profiles in
    let target =
      List.fold_left ( +. ) 0.0 totals /. float_of_int (List.length totals)
    in
    let out = create p in
    List.iter2
      (fun prof total ->
        let scale = if total > 0.0 then target /. total else 0.0 in
        Hashtbl.iter
          (fun name c ->
            let oc = fn_counters out name in
            Array.iteri
              (fun i v -> oc.block_counts.(i) <- oc.block_counts.(i) +. (scale *. v))
              c.block_counts;
            Array.iteri
              (fun i v -> oc.branch_taken.(i) <- oc.branch_taken.(i) +. (scale *. v))
              c.branch_taken;
            Array.iteri
              (fun i v ->
                oc.branch_not_taken.(i) <- oc.branch_not_taken.(i) +. (scale *. v))
              c.branch_not_taken)
          prof.fns;
        Array.iteri
          (fun i v -> out.site_counts.(i) <- out.site_counts.(i) +. (scale *. v))
          prof.site_counts;
        out.work <- out.work +. (scale *. prof.work))
      profiles totals;
    out

(* ------------------------------------------------------------------ *)
(* Flow conservation: an oracle that depends on no interpreter. A
   complete run enters each block exactly as often as control flows into
   it, so the counters must satisfy, per function:

   - a branch block's count = its taken + not-taken counts;
   - a non-entry block's count = its inflow: the counts of the blocks
     that jump to it plus the taken / not-taken counts of the branches
     that target it;
   - switch arms are not counted separately, so the blocks a switch
     targets are checked in aggregate: what their inflow leaves
     unexplained sums to the switch blocks' counts;
   - the entry count = its inflow + the direct call-site counts of the
     function (+1 for [main]); calls through pointers are checked in
     aggregate over all functions.

   A run that ends in [exit()]/[abort()] leaves the block that called it
   without a successor, so under an executed exit site each equation may
   fall short by one. Both interpreters share these counters, so this
   catches counter bugs that comparing the two cannot. *)

let conservation_violations (p : Cfg.program) (t : t) : string list =
  let out = ref [] in
  let report fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let site_count (cs : Cfg.call_site) = t.site_counts.(cs.Cfg.cs_id) in
  let exited =
    Array.exists
      (fun (cs : Cfg.call_site) ->
        match cs.Cfg.cs_callee with
        | Cfg.Builtin ("exit" | "abort") -> site_count cs > 0.0
        | _ -> false)
      p.Cfg.prog_sites
  in
  let slack = if exited then 1.0 else 0.0 in
  (* [supplied] flowed in or was called for; [got] was counted. *)
  let conserved ~supplied ~got = got <= supplied && supplied -. got <= slack in
  let direct = Hashtbl.create 16 in
  let indirect = ref 0.0 in
  Array.iter
    (fun (cs : Cfg.call_site) ->
      match cs.Cfg.cs_callee with
      | Cfg.Direct f ->
        let n = Option.value ~default:0.0 (Hashtbl.find_opt direct f) in
        Hashtbl.replace direct f (n +. site_count cs)
      | Cfg.Indirect -> indirect := !indirect +. site_count cs
      | Cfg.Builtin _ -> ())
    p.Cfg.prog_sites;
  let unexplained_entries = ref 0.0 in
  List.iter
    (fun (fn : Cfg.fn) ->
      let name = fn.Cfg.fn_name in
      let c = fn_counters t name in
      let n = Cfg.n_blocks fn in
      let inflow = Array.make n 0.0 in
      let switch_target = Array.make n false in
      let switch_out = ref 0.0 in
      Array.iter
        (fun (b : Cfg.block) ->
          let id = b.Cfg.b_id in
          match b.Cfg.b_term with
          | Cfg.Tjump s -> inflow.(s) <- inflow.(s) +. c.block_counts.(id)
          | Cfg.Tbranch (_, tt, ff) ->
            let taken = c.branch_taken.(id) in
            let not_taken = c.branch_not_taken.(id) in
            if not (conserved ~supplied:c.block_counts.(id)
                      ~got:(taken +. not_taken))
            then
              report "%s: branch block %d counted %.17g but left %.17g times"
                name id c.block_counts.(id) (taken +. not_taken);
            inflow.(tt) <- inflow.(tt) +. taken;
            inflow.(ff) <- inflow.(ff) +. not_taken
          | Cfg.Tswitch (_, cases, default) ->
            List.iter
              (fun s -> switch_target.(s) <- true)
              (default :: List.map snd cases);
            switch_out := !switch_out +. c.block_counts.(id)
          | Cfg.Treturn _ -> ())
        fn.Cfg.fn_blocks;
      let switch_in = ref 0.0 in
      Array.iteri
        (fun id count ->
          let rest = count -. inflow.(id) in
          if id = fn.Cfg.fn_entry then begin
            let called =
              Option.value ~default:0.0 (Hashtbl.find_opt direct name)
              +. if name = "main" then 1.0 else 0.0
            in
            if rest < called -. slack then
              report "%s: entered %.17g times but called %.17g times directly"
                name rest called;
            unexplained_entries := !unexplained_entries +. (rest -. called)
          end
          else if switch_target.(id) then begin
            if rest < -.slack then
              report "%s: block %d counted %.17g but entered %.17g times"
                name id count inflow.(id);
            switch_in := !switch_in +. rest
          end
          else if not (conserved ~supplied:inflow.(id) ~got:count) then
            report "%s: block %d counted %.17g but entered %.17g times" name
              id count inflow.(id))
        c.block_counts;
      if not (conserved ~supplied:!switch_out ~got:!switch_in) then
        report "%s: switch arms counted %.17g but switches ran %.17g times"
          name !switch_in !switch_out)
    p.Cfg.prog_fns;
  if not (conserved ~supplied:!indirect ~got:!unexplained_entries) then
    report "entries not explained by direct calls: %.17g, indirect calls: %.17g"
      !unexplained_entries !indirect;
  List.rev !out
