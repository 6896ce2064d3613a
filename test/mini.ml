(* The differential-testing mini language used by
   test/test_differential.ml: int variables, assignments, arithmetic,
   if/while — rendered to C on one side and executed by an Int32
   reference interpreter on the other.  The semantics here are the
   *specification*; the C pipeline is the implementation under test. *)

type aexpr =
  | Var of int              (* variable index 0..n_vars-1 *)
  | Const of int32
  | Bin of char * aexpr * aexpr  (* + - * & | ^ *)

type mstmt =
  | Assign of int * aexpr
  | If of aexpr * mstmt list * mstmt list
  | While of aexpr * mstmt list  (* guarded: decrements a counter *)

let n_vars = 4
let var_name i = Printf.sprintf "v%d" i

(* --- rendering to C --------------------------------------------------- *)

let rec render_expr = function
  | Var i -> var_name i
  | Const n ->
    if Int32.compare n 0l < 0 then Printf.sprintf "(%ld)" n
    else Int32.to_string n
  | Bin (op, a, b) ->
    Printf.sprintf "(%s %c %s)" (render_expr a) op (render_expr b)

let rec render_stmt buf indent s =
  let pad = String.make indent ' ' in
  match s with
  | Assign (v, e) ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s = %s;\n" pad (var_name v) (render_expr e))
  | If (c, t, f) ->
    Buffer.add_string buf
      (Printf.sprintf "%sif (%s) {\n" pad (render_expr c));
    List.iter (render_stmt buf (indent + 2)) t;
    Buffer.add_string buf (Printf.sprintf "%s} else {\n" pad);
    List.iter (render_stmt buf (indent + 2)) f;
    Buffer.add_string buf (Printf.sprintf "%s}\n" pad)
  | While (c, body) ->
    (* guard via a fuel counter so both sides terminate identically *)
    Buffer.add_string buf
      (Printf.sprintf "%swhile ((%s) && fuel > 0) {\n%s  fuel--;\n" pad
         (render_expr c) pad);
    List.iter (render_stmt buf (indent + 2)) body;
    Buffer.add_string buf (Printf.sprintf "%s}\n" pad)

let render_program (stmts : mstmt list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "int main(void) {\n  int fuel = 50;\n";
  for i = 0 to n_vars - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  int %s = %d;\n" (var_name i) (i + 1))
  done;
  List.iter (render_stmt buf 2) stmts;
  Buffer.add_string buf "  printf(\"";
  for _ = 0 to n_vars - 1 do
    Buffer.add_string buf "%d "
  done;
  Buffer.add_string buf "\"";
  for i = 0 to n_vars - 1 do
    Buffer.add_string buf (Printf.sprintf ", %s" (var_name i))
  done;
  Buffer.add_string buf ");\n  return 0;\n}\n";
  Buffer.contents buf

(* --- reference interpreter ------------------------------------------- *)

type state = { vars : int32 array; mutable fuel : int }

let rec ref_expr st = function
  | Var i -> st.vars.(i)
  | Const n -> n
  | Bin (op, a, b) ->
    let x = ref_expr st a and y = ref_expr st b in
    (match op with
    | '+' -> Int32.add x y
    | '-' -> Int32.sub x y
    | '*' -> Int32.mul x y
    | '&' -> Int32.logand x y
    | '|' -> Int32.logor x y
    | '^' -> Int32.logxor x y
    | _ -> assert false)

let rec ref_stmt st = function
  | Assign (v, e) -> st.vars.(v) <- ref_expr st e
  | If (c, t, f) ->
    if ref_expr st c <> 0l then List.iter (ref_stmt st) t
    else List.iter (ref_stmt st) f
  | While (c, body) ->
    while ref_expr st c <> 0l && st.fuel > 0 do
      st.fuel <- st.fuel - 1;
      List.iter (ref_stmt st) body
    done

let ref_run (stmts : mstmt list) : string =
  let st = { vars = Array.init n_vars (fun i -> Int32.of_int (i + 1)); fuel = 50 } in
  List.iter (ref_stmt st) stmts;
  String.concat ""
    (List.init n_vars (fun i -> Printf.sprintf "%ld " st.vars.(i)))

(* --- generator -------------------------------------------------------- *)

let gen_stmts : mstmt list QCheck.arbitrary =
  let open QCheck.Gen in
  let gen_var = int_bound (n_vars - 1) in
  let rec gen_expr depth =
    if depth <= 0 then
      oneof
        [ map (fun i -> Var i) gen_var;
          map (fun n -> Const (Int32.of_int n)) (int_range (-50) 50) ]
    else
      frequency
        [ (1, map (fun i -> Var i) gen_var);
          (1, map (fun n -> Const (Int32.of_int n)) (int_range (-50) 50));
          (3,
           oneofl [ '+'; '-'; '*'; '&'; '|'; '^' ] >>= fun op ->
           map2 (fun a b -> Bin (op, a, b)) (gen_expr (depth - 1))
             (gen_expr (depth - 1))) ]
  in
  let rec gen_stmt depth =
    if depth <= 0 then
      map2 (fun v e -> Assign (v, e)) gen_var (gen_expr 2)
    else
      frequency
        [ (3, map2 (fun v e -> Assign (v, e)) gen_var (gen_expr 2));
          (1,
           gen_expr 1 >>= fun c ->
           list_size (int_range 1 3) (gen_stmt (depth - 1)) >>= fun t ->
           list_size (int_range 0 2) (gen_stmt (depth - 1)) >|= fun f ->
           If (c, t, f));
          (1,
           gen_expr 1 >>= fun c ->
           list_size (int_range 1 3) (gen_stmt (depth - 1)) >|= fun body ->
           While (c, body)) ]
  in
  QCheck.make
    (QCheck.Gen.list_size (int_range 1 8) (gen_stmt 2))
    ~print:(fun stmts -> render_program stmts)
