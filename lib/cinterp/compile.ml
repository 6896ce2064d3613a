(* Closure-compiled back end for the profiling interpreter.

   [Eval] walks the typed AST for every executed instruction, re-querying
   the typechecker's side tables ([Typecheck.type_of], resolutions), the
   struct registry ([Ctypes.size_of], field offsets) and the call-site
   hashtable on each visit. Profiling is this reproduction's substitute
   for the paper's gcc instrumentation runs, so that walk dominates suite
   wall time.

   This module lowers each CFG block once into OCaml closures with
   everything resolvable at compile time pre-resolved:

   - expression types, element sizes and field offsets are baked into the
     closures (no side-table lookups at run time);
   - locals are addressed by pre-computed slot index in the frame, with
     the aggregate-vs-scalar load decision made once;
   - globals are addressed by a dense index into a per-run pointer array
     instead of a name hashtable;
   - string literals get a per-literal cache slot (still allocated lazily,
     in first-execution order, so the block store evolves exactly as under
     [Eval]);
   - direct call targets and builtin dispatch are looked up ahead of time,
     and each call site carries its profile counter index.

   The frame is a [Value.value array], one slot per local:

   - a register (a scalar local whose address is never taken: no [&x]
     anywhere in the function, and no list initializer; see
     [register_slots]) holds the local's value itself. Reads, stores,
     compound assignments, [++]/[--], parameter binding and its
     initializer use the slot directly, with no block, lookup or check;
   - every other local holds the [Vptr] of its block, so an aggregate is
     read without building a pointer.

   Block ids are reserved, not allocated: [call_fn] takes one id per
   register too, through [Memory.reserve], which fills the table slot
   with the local's shared dead record at once. Ids, pointer order
   ([Eval.ordered] compares block ids) and every diagnostic that prints
   an id are therefore those of [Eval], which allocates every local.

   The hot loop allocates as little as the boxed value model allows:

   - [int]/[char] operators run on unboxed OCaml ints ([compile_int],
     [icode]); branch conditions compile to [bool] tests, index and
     switch operands to ints. Values are boxed once, where they are
     stored, passed or returned. A cell typed [int] may still hold a
     pointer or float stored through a cast, so loads stay boxed and each
     consumer converts them exactly where [Eval] does; an [int]/[char]
     register always holds a [Vint] and is read unboxed;
   - [a[i]], [s.f] and [p->f] are read and written through
     [Memory.load_at]/[store_at] from the base pointer, without building
     the offset pointer;
   - a call passes its arguments in an array, and blocks run in a
     top-level recursion, so a call allocates no list and no closure;
   - a returned call's memory locals are replaced in the store by one
     dead record per local declaration, shared by every activation
     ([c_local_dead]); dead and freed blocks keep no cells;
   - work units are not summed per block: every block subtracts its cost
     from fuel and [Eval] adds the same cost to work, so [run] sets work
     to the fuel spent.

   The contract with [Eval] is strict: identical evaluation order,
   identical diagnostics (the [Value.Runtime_error] messages are the
   same), identical memory-block allocation order (block ids are
   observable through pointer comparisons), and therefore bit-identical
   [Profile.t] counters. [test/test_compile.ml] enforces this
   differentially over the whole suite and generated programs, and
   checks every profile against [Profile.conservation_violations]. *)

module Ast = Cfront.Ast
module Cfg = Cfg_ir.Cfg
module Ctypes = Cfront.Ctypes
module Typecheck = Cfront.Typecheck

exception Error = Value.Runtime_error

(* ------------------------------------------------------------------ *)
(* Per-run state. Everything here is created by [run]; the compiled
   closures are shared across runs (and domains) and never mutated. *)

type state = {
  mem : Memory.t;
  bctx : Builtins.ctx;
  globals : Value.ptr array;            (* by [global_order] position *)
  string_cache : Value.ptr option array;(* by literal index: fast path *)
  strings : (string, Value.ptr) Hashtbl.t;
      (* content-keyed intern table, shared with argv strings so literal
         and argv interning interleave exactly as under [Eval] *)
  fcounters : Profile.fn_counters array;(* by [cfn.c_index] *)
  profile : Profile.t;
  mutable fuel : int;
  deadline : float; (* absolute gettimeofday seconds; [infinity] = none *)
  mutable clock_tick : int; (* blocks until the next wall-clock read *)
}

(* The current call's locals, by slot: a register's value, or the
   [Vptr] of the block holding any other local. *)
type frame = Value.value array

let null_ptr = { Value.blk = -1; off = 0 }

(* The block of a local that is not a register. *)
let slot_ptr (fr : frame) (slot : int) : Value.ptr =
  match Array.unsafe_get fr slot with
  | Value.Vptr p -> p
  | _ -> invalid_arg "Compile.slot_ptr"

type ev = state -> frame -> Value.value   (* compiled expression *)
type lv = state -> frame -> Value.ptr     (* compiled lvalue *)
type ie = state -> frame -> int           (* compiled unboxed integer *)
type test = state -> frame -> bool        (* compiled truth value *)

(* An [int]/[char]-typed expression compiled for a consumer that wants an
   integer. [Inode] is an operator evaluated without boxing its operands
   or its result; it returns [n] exactly when the boxed closure would
   return [Vint n], with the same effects and errors. Anything else stays
   an [Ibox]: a cell typed [int] can still hold a pointer or a float
   stored through a cast, so a load is converted by its consumer, at the
   point where the boxed code would convert it. *)
type icode = Iconst of int | Inode of ie | Ibox of ev

(* ------------------------------------------------------------------ *)
(* Compiled program representation. *)

type cterm =
  | Cjump of int
  | Cbranch of test * int * int
  | Cswitch of ie * (int, int) Hashtbl.t * int
  | Creturn of ev

type cblock = {
  cb_instrs : (state -> frame -> unit) array;
  cb_cost : int;            (* 1 + number of instructions (fuel units) *)
  cb_term : cterm;
}

type cfn = {
  c_name : string;
  c_index : int;                        (* position in [prog_fns] *)
  c_entry : int;
  mutable c_blocks : cblock array;      (* patched in phase 2 *)
  c_local_sizes : int array;
  c_local_tags : string array;
  c_local_dead : Memory.block array;    (* shared by every activation *)
  c_regs : bool array;                  (* by slot: a register local *)
  c_bind_params : (state -> frame -> Value.value -> unit) array;
  c_coerce_ret : Value.value -> Value.value;
}

type prog = {
  p_src : Cfg.program;
  p_fns : (string, cfn) Hashtbl.t;
  p_fn_list : cfn array;                (* [prog_fns] order *)
  p_main : cfn option;
  p_main_arity : int;                   (* 0, 2, or -1 (unsupported) *)
  p_global_sizes : int array;
  p_global_tags : string array;
  p_global_inits : (int * (state -> frame -> Value.ptr -> unit)) list;
      (* (global index, initializer writer), declaration order *)
  p_n_strings : int;
}

(* ------------------------------------------------------------------ *)
(* Runtime helpers shared by the compiled closures. *)

let intern_rt (st : state) (s : string) : Value.ptr =
  match Hashtbl.find_opt st.strings s with
  | Some p -> p
  | None ->
    let p = Memory.alloc st.mem (String.length s + 1) ~tag:"string literal" in
    Memory.write_cstring st.mem p s;
    Hashtbl.replace st.strings s p;
    p

let truthy = Value.to_bool

(* The profiling hot loop: closure application plus counter bumps. A
   top-level recursion, so a call allocates no loop closure. *)
let rec exec_blocks (st : state) (fr : frame) (blocks : cblock array)
    (counters : Profile.fn_counters) (bid : int) : Value.value =
  if st.fuel <= 0 then raise Eval.Out_of_fuel;
  st.clock_tick <- st.clock_tick - 1;
  if st.clock_tick <= 0 then begin
    st.clock_tick <- Eval.clock_check_interval;
    if Unix.gettimeofday () >= st.deadline then raise Eval.Out_of_wall_clock
  end;
  let blk = blocks.(bid) in
  let bc = counters.Profile.block_counts in
  bc.(bid) <- bc.(bid) +. 1.0;
  st.fuel <- st.fuel - blk.cb_cost;
  let instrs = blk.cb_instrs in
  for i = 0 to Array.length instrs - 1 do
    instrs.(i) st fr
  done;
  match blk.cb_term with
  | Cjump next -> exec_blocks st fr blocks counters next
  | Cbranch (cond, t, f) ->
    if cond st fr then begin
      let bt = counters.Profile.branch_taken in
      bt.(bid) <- bt.(bid) +. 1.0;
      exec_blocks st fr blocks counters t
    end
    else begin
      let bnt = counters.Profile.branch_not_taken in
      bnt.(bid) <- bnt.(bid) +. 1.0;
      exec_blocks st fr blocks counters f
    end
  | Cswitch (scrutinee, table, default) ->
    let v = scrutinee st fr in
    exec_blocks st fr blocks counters
      (match Hashtbl.find table v with t -> t | exception Not_found -> default)
  | Creturn e -> e st fr

(* Mirror of [Eval.exec_fn]: allocate locals (same order, same tags),
   bind parameters, run the blocks, kill the locals, coerce the result.
   A register starts as the [Vint 0] of a fresh cell and only reserves
   its block id, which is dead from the start and never killed. *)
and call_fn (st : state) (cf : cfn) (args : Value.value array) : Value.value =
  let n = Array.length cf.c_local_sizes in
  let regs = cf.c_regs in
  let fr = Array.make n (Value.Vint 0) in
  for i = 0 to n - 1 do
    if regs.(i) then Memory.reserve st.mem cf.c_local_dead.(i)
    else
      fr.(i) <-
        Value.Vptr
          (Memory.alloc st.mem cf.c_local_sizes.(i) ~tag:cf.c_local_tags.(i))
  done;
  for i = 0 to Array.length args - 1 do
    cf.c_bind_params.(i) st fr args.(i)
  done;
  let result =
    exec_blocks st fr cf.c_blocks st.fcounters.(cf.c_index) cf.c_entry
  in
  for i = 0 to n - 1 do
    if not regs.(i) then Memory.kill st.mem (slot_ptr fr i) cf.c_local_dead.(i)
  done;
  cf.c_coerce_ret result

(* Evaluate call arguments left to right into a fresh array; the common
   arities build it inline. *)
let args_evaluator (cargs : ev array) : state -> frame -> Value.value array =
  match cargs with
  | [||] -> fun _ _ -> [||]
  | [| a |] -> fun st fr -> [| a st fr |]
  | [| a; b |] ->
    fun st fr ->
      let x = a st fr in
      let y = b st fr in
      [| x; y |]
  | [| a; b; c |] ->
    fun st fr ->
      let x = a st fr in
      let y = b st fr in
      let z = c st fr in
      [| x; y; z |]
  | _ ->
    fun st fr ->
      let out = Array.make (Array.length cargs) (Value.Vint 0) in
      Array.iteri (fun i f -> out.(i) <- f st fr) cargs;
      out

(* ------------------------------------------------------------------ *)
(* Unboxed integer operators. *)

let boxed_of_icode : icode -> ev = function
  | Iconst n ->
    let v = Value.Vint n in
    fun _ _ -> v
  | Inode f -> fun st fr -> Value.Vint (f st fr)
  | Ibox e -> e

(* [Value.int_of] of the expression's value. *)
let int_of_icode : icode -> ie = function
  | Iconst n -> fun _ _ -> n
  | Inode f -> f
  | Ibox e -> fun st fr -> Value.int_of (e st fr)

let test_of_icode : icode -> test = function
  | Iconst n ->
    let b = n <> 0 in
    fun _ _ -> b
  | Inode f -> fun st fr -> f st fr <> 0
  | Ibox e -> fun st fr -> truthy (e st fr)

(* [Eval.apply_binop] on two integer operands (no float context, no
   pointer arithmetic), for the operators that yield an integer. *)
let int_arith : Ast.binop -> int -> int -> int = function
  | Ast.Badd -> fun x y -> Value.wrap32 (x + y)
  | Ast.Bsub -> fun x y -> Value.wrap32 (x - y)
  | Ast.Bmul -> fun x y -> Value.wrap32 (x * y)
  | Ast.Bdiv ->
    fun x y ->
      if y = 0 then Value.error "division by zero";
      Value.wrap32 (x / y)
  | Ast.Bmod ->
    fun x y ->
      if y = 0 then Value.error "modulo by zero";
      Value.wrap32 (x mod y)
  | Ast.Bshl -> fun x y -> Value.wrap32 (x lsl (y land 31))
  | Ast.Bshr -> fun x y -> Value.wrap32 (x asr (y land 31))
  | Ast.Bband -> fun x y -> Value.wrap32 (x land y)
  | Ast.Bbor -> fun x y -> Value.wrap32 (x lor y)
  | Ast.Bbxor -> fun x y -> Value.wrap32 (x lxor y)
  | _ -> invalid_arg "Compile.int_arith"

let int_compare : Ast.binop -> int -> int -> bool = function
  | Ast.Blt -> fun (x : int) y -> x < y
  | Ast.Bgt -> fun (x : int) y -> x > y
  | Ast.Ble -> fun (x : int) y -> x <= y
  | Ast.Bge -> fun (x : int) y -> x >= y
  | Ast.Beq -> fun (x : int) y -> x = y
  | Ast.Bne -> fun (x : int) y -> x <> y
  | _ -> invalid_arg "Compile.int_compare"

(* [Eval.apply_binop]'s comparisons on boxed values, as a truth value. *)
let compare_values ~(float_ctx : bool) :
    Ast.binop -> Value.value -> Value.value -> bool = function
  | Ast.Blt -> Eval.ordered ~float_ctx (fun c z -> c < z)
  | Ast.Bgt -> Eval.ordered ~float_ctx (fun c z -> c > z)
  | Ast.Ble -> Eval.ordered ~float_ctx (fun c z -> c <= z)
  | Ast.Bge -> Eval.ordered ~float_ctx (fun c z -> c >= z)
  | Ast.Beq -> Value.equal_values
  | Ast.Bne -> fun va vb -> not (Value.equal_values va vb)
  | _ -> invalid_arg "Compile.compare_values"

(* A binary operator on a boxed left value and an integer operand, the
   operand evaluated after the value: [fast] when both are [Vint],
   [slow] on the boxed values otherwise. *)
let lift2v (fast : int -> int -> 'r)
    (slow : Value.value -> Value.value -> 'r) (b : icode) :
    Value.value -> state -> frame -> 'r =
  match b with
  | Iconst y ->
    let vy = Value.Vint y in
    fun va _ _ ->
      (match va with Value.Vint x -> fast x y | _ -> slow va vy)
  | Inode fb ->
    fun va st fr ->
      let y = fb st fr in
      (match va with
      | Value.Vint x -> fast x y
      | _ -> slow va (Value.Vint y))
  | Ibox cb ->
    fun va st fr ->
      let vb = cb st fr in
      (match (va, vb) with
      | Value.Vint x, Value.Vint y -> fast x y
      | _ -> slow va vb)

(* The same with both operands compiled, evaluated left to right. *)
let lift2 (fast : int -> int -> 'r)
    (slow : Value.value -> Value.value -> 'r) (a : icode) (b : icode) :
    state -> frame -> 'r =
  match (a, b) with
  | Ibox ca, Ibox cb ->
    fun st fr ->
      let va = ca st fr in
      let vb = cb st fr in
      (match (va, vb) with
      | Value.Vint x, Value.Vint y -> fast x y
      | _ -> slow va vb)
  | Ibox ca, _ ->
    let k = lift2v fast slow b in
    fun st fr -> k (ca st fr) st fr
  | (Iconst _ | Inode _), (Iconst _ | Inode _) ->
    let fa = int_of_icode a in
    let fb = int_of_icode b in
    fun st fr ->
      let x = fa st fr in
      fast x (fb st fr)
  | (Iconst _ | Inode _), Ibox cb ->
    let fa = int_of_icode a in
    fun st fr ->
      let x = fa st fr in
      (match cb st fr with
      | Value.Vint y -> fast x y
      | vb -> slow (Value.Vint x) vb)

(* An lvalue as a base address plus a cell offset (see [compile_place]). *)
type place =
  | Pfield of lv * int            (* base + constant offset *)
  | Pindex of lv * ie * int       (* base + index * element size *)

let lv_of_place : place -> lv = function
  | Pfield (base, 0) -> base
  | Pfield (base, off) -> fun st fr -> Memory.offset (base st fr) off
  | Pindex (base, idx, scale) ->
    fun st fr ->
      let b = base st fr in
      let ix = idx st fr in
      Memory.offset b (ix * scale)

(* ------------------------------------------------------------------ *)
(* Compile-time environment. *)

type cenv = {
  tc : Typecheck.t;
  reg : Ctypes.registry;
  site_of_expr : (Ast.node_id, int) Hashtbl.t;
  fns : (string, cfn) Hashtbl.t;
  global_index : (string, int) Hashtbl.t;
  string_index : (string, int) Hashtbl.t;
  mutable n_strings : int;
  mutable fn_info : Typecheck.fun_info option; (* function being compiled *)
  mutable regs : bool array;                   (* its [c_regs] *)
}

let ty_of (env : cenv) (e : Ast.expr) : Ctypes.ty =
  Typecheck.type_of env.tc e

let size_of (env : cenv) (t : Ctypes.ty) : int =
  try Ctypes.size_of env.reg t
  with Ctypes.Type_error m -> Value.error "%s" m

let pointee (env : cenv) (e : Ast.expr) : Ctypes.ty option =
  match ty_of env e with Ctypes.Tptr t -> Some t | _ -> None

let local_ty (env : cenv) (slot : int) : Ctypes.ty =
  match env.fn_info with
  | Some fi -> fi.Typecheck.fi_locals.(slot).Typecheck.l_ty
  | None -> Value.error "local reference outside a function"

(* The slot of the register local that [e] names, if it names one. *)
let register_of (env : cenv) (e : Ast.expr) : int option =
  match (e.Ast.enode, Typecheck.resolution_of env.tc e) with
  | Ast.Ident _, Some (Typecheck.Rlocal slot) when env.regs.(slot) -> Some slot
  | _ -> None

let string_idx (env : cenv) (s : string) : int =
  match Hashtbl.find_opt env.string_index s with
  | Some i -> i
  | None ->
    let i = env.n_strings in
    Hashtbl.replace env.string_index s i;
    env.n_strings <- i + 1;
    i

(* The undecayed type of the object designated by an Index/Field/Arrow
   lvalue (compile-time mirror of [Eval.designated_ty]). *)
let designated_ty (env : cenv) (e : Ast.expr) : Ctypes.ty =
  match e.Ast.enode with
  | Ast.Index (a, i) -> begin
    match (ty_of env a, ty_of env i) with
    | Ctypes.Tptr t, _ -> t
    | _, Ctypes.Tptr t -> t
    | t, _ -> Value.error "indexing %s" (Ctypes.to_string t)
  end
  | Ast.Field (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tstruct si -> (Ctypes.find_field env.reg si fname).Ctypes.fld_ty
    | t -> Value.error ".%s on %s" fname (Ctypes.to_string t)
  end
  | Ast.Arrow (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tptr (Ctypes.Tstruct si) ->
      (Ctypes.find_field env.reg si fname).Ctypes.fld_ty
    | t -> Value.error "->%s on %s" fname (Ctypes.to_string t)
  end
  | _ -> ty_of env e

(* ------------------------------------------------------------------ *)
(* Expression compilation. Each function returns a closure; all matches
   on types/resolutions happen here, once. *)

let rec compile_expr (env : cenv) (e : Ast.expr) : ev =
  match e.Ast.enode with
  | Ast.IntLit n ->
    let v = Value.Vint (Value.wrap32 n) in
    fun _ _ -> v
  | Ast.CharLit c ->
    let v = Value.Vint c in
    fun _ _ -> v
  | Ast.FloatLit f ->
    let v = Value.Vfloat f in
    fun _ _ -> v
  | Ast.StringLit s ->
    let idx = string_idx env s in
    fun st _ -> begin
      match st.string_cache.(idx) with
      | Some p -> Value.Vptr p
      | None ->
        let p = intern_rt st s in
        st.string_cache.(idx) <- Some p;
        Value.Vptr p
    end
  | Ast.Ident _ -> compile_ident env e
  | Ast.Binop _ | Ast.Unop ((Ast.Unot | Ast.Ubnot | Ast.Uneg), _)
    when Ctypes.is_integer (ty_of env e) ->
    boxed_of_icode (compile_int env e)
  | Ast.Unop (op, a) -> compile_unop env op a
  | Ast.Binop (op, a, b) -> compile_binop env op a b
  | Ast.Assign (op, lhs, rhs) -> compile_assign env op lhs rhs
  | Ast.Cond (c, a, b) ->
    let cc = compile_test env c in
    let ca = compile_expr env a in
    let cb = compile_expr env b in
    fun st fr -> if cc st fr then ca st fr else cb st fr
  | Ast.Call (fn, args) -> compile_call env e fn args
  | Ast.Cast ((Ctypes.Tint | Ctypes.Tchar), _) ->
    boxed_of_icode (compile_int env e)
  | Ast.Cast (ty, a) -> begin
    let ca = compile_expr env a in
    match ty with
    | Ctypes.Tvoid ->
      fun st fr ->
        ignore (ca st fr);
        Value.Vint 0
    | Ctypes.Tptr _ ->
      fun st fr ->
        let v = ca st fr in
        if Value.is_null v then Value.Vint 0 else v
    | _ -> fun st fr -> Eval.coerce ty (ca st fr)
  end
  | Ast.Index _ | Ast.Field _ | Ast.Arrow _ -> begin
    let ty = designated_ty env e in
    match (ty, compile_place env e) with
    | (Ctypes.Tstruct _ | Ctypes.Tarray _), place ->
      let loc = lv_of_place place in
      fun st fr -> Value.Vptr (loc st fr)
    | _, Pfield (base, off) -> fun st fr -> Memory.load_at st.mem (base st fr) off
    | _, Pindex (base, idx, scale) ->
      fun st fr ->
        let b = base st fr in
        let ix = idx st fr in
        Memory.load_at st.mem b (ix * scale)
  end
  | Ast.SizeofT ty ->
    let v = Value.Vint (size_of env ty) in
    fun _ _ -> v
  | Ast.SizeofE a ->
    let v = Value.Vint (size_of env (ty_of env a)) in
    fun _ _ -> v
  | Ast.PreIncr a -> compile_incr_decr env a ~delta:1 ~pre:true
  | Ast.PreDecr a -> compile_incr_decr env a ~delta:(-1) ~pre:true
  | Ast.PostIncr a -> compile_incr_decr env a ~delta:1 ~pre:false
  | Ast.PostDecr a -> compile_incr_decr env a ~delta:(-1) ~pre:false
  | Ast.Comma (a, b) ->
    let ca = compile_expr env a in
    let cb = compile_expr env b in
    fun st fr ->
      ignore (ca st fr);
      cb st fr

(* An [int]/[char]-typed expression as [icode] (see its definition). *)
and compile_int (env : cenv) (e : Ast.expr) : icode =
  match e.Ast.enode with
  | Ast.IntLit n -> Iconst (Value.wrap32 n)
  | Ast.CharLit c -> Iconst c
  | Ast.Ident _ -> begin
    match Typecheck.resolution_of env.tc e with
    | Some (Typecheck.Renum v) -> Iconst v
    | Some (Typecheck.Rlocal slot) when env.regs.(slot) ->
      (* Every store to an [int]/[char] register is coerced: it holds a
         [Vint]. *)
      Inode
        (fun _ fr ->
          match Array.unsafe_get fr slot with
          | Value.Vint n -> n
          | _ -> invalid_arg "Compile: int register")
    | _ -> Ibox (compile_ident env e)
  end
  | Ast.Binop
      ( (Ast.Blt | Ast.Bgt | Ast.Ble | Ast.Bge | Ast.Beq | Ast.Bne | Ast.Bland
        | Ast.Blor),
        _,
        _ )
  | Ast.Unop (Ast.Unot, _) ->
    let t = compile_test env e in
    Inode (fun st fr -> if t st fr then 1 else 0)
  | Ast.Binop (op, a, b) ->
    let ta = ty_of env a and tb = ty_of env b in
    if Ctypes.is_integer ta && Ctypes.is_integer tb then begin
      let app = compile_apply_binop env ~ta ~tb op in
      Inode
        (lift2 (int_arith op)
           (fun va vb -> Value.int_of (app va vb))
           (compile_int env a) (compile_int env b))
    end
    else Ibox (compile_binop env op a b)
  | Ast.Unop (Ast.Uplus, a) -> compile_int env a
  | Ast.Unop (Ast.Ubnot, a) ->
    let fa = compile_int_of env a in
    Inode (fun st fr -> Value.wrap32 (lnot (fa st fr)))
  | Ast.Unop (Ast.Uneg, a) -> begin
    match compile_int env a with
    | (Iconst _ | Inode _) as ia ->
      let fa = int_of_icode ia in
      Inode (fun st fr -> Value.wrap32 (-fa st fr))
    | Ibox _ -> Ibox (compile_unop env Ast.Uneg a)
  end
  | Ast.Cast (((Ctypes.Tint | Ctypes.Tchar) as ty), a) -> begin
    let wrap = if ty = Ctypes.Tchar then Value.wrap8 else Value.wrap32 in
    match
      if Ctypes.is_integer (ty_of env a) then compile_int env a
      else Ibox (compile_expr env a)
    with
    | (Iconst _ | Inode _) as ia ->
      let fa = int_of_icode ia in
      Inode (fun st fr -> wrap (fa st fr))
    | Ibox ca -> Ibox (fun st fr -> Eval.coerce ty (ca st fr))
  end
  | _ -> Ibox (compile_expr env e)

(* [Value.int_of] of any expression, as an unboxed closure. *)
and compile_int_of (env : cenv) (e : Ast.expr) : ie =
  if Ctypes.is_integer (ty_of env e) then int_of_icode (compile_int env e)
  else
    let ce = compile_expr env e in
    fun st fr -> Value.int_of (ce st fr)

(* The truth value of a condition: comparisons and logical operators
   yield a [bool] directly, never a boxed 0/1. *)
and compile_test (env : cenv) (e : Ast.expr) : test =
  match e.Ast.enode with
  | Ast.Binop
      ( ((Ast.Blt | Ast.Bgt | Ast.Ble | Ast.Bge | Ast.Beq | Ast.Bne) as op),
        a,
        b ) ->
    let ta = ty_of env a and tb = ty_of env b in
    let slow =
      compare_values ~float_ctx:(ta = Ctypes.Tdouble || tb = Ctypes.Tdouble) op
    in
    if Ctypes.is_integer ta && Ctypes.is_integer tb then
      lift2 (int_compare op) slow (compile_int env a) (compile_int env b)
    else
      let ca = compile_expr env a in
      let cb = compile_expr env b in
      fun st fr ->
        let va = ca st fr in
        let vb = cb st fr in
        slow va vb
  | Ast.Binop (Ast.Bland, a, b) ->
    let ta = compile_test env a in
    let tb = compile_test env b in
    fun st fr -> ta st fr && tb st fr
  | Ast.Binop (Ast.Blor, a, b) ->
    let ta = compile_test env a in
    let tb = compile_test env b in
    fun st fr -> ta st fr || tb st fr
  | Ast.Unop (Ast.Unot, a) ->
    let ta = compile_test env a in
    fun st fr -> not (ta st fr)
  | _ when Ctypes.is_integer (ty_of env e) -> test_of_icode (compile_int env e)
  | _ ->
    let ce = compile_expr env e in
    fun st fr -> truthy (ce st fr)

and compile_ident (env : cenv) (e : Ast.expr) : ev =
  match Typecheck.resolution_of env.tc e with
  | Some (Typecheck.Renum v) ->
    let v = Value.Vint v in
    fun _ _ -> v
  | Some (Typecheck.Rfun name) ->
    let v = Value.Vfun (Value.Fuser name) in
    fun _ _ -> v
  | Some (Typecheck.Rbuiltin name) ->
    let v = Value.Vfun (Value.Fbuiltin name) in
    fun _ _ -> v
  | Some (Typecheck.Rlocal slot) -> begin
    match local_ty env slot with
    | Ctypes.Tstruct _ | Ctypes.Tarray _ -> fun _ fr -> fr.(slot) (* a [Vptr] *)
    | _ when env.regs.(slot) -> fun _ fr -> fr.(slot)
    | _ -> fun st fr -> Memory.load st.mem (slot_ptr fr slot)
  end
  | Some (Typecheck.Rglobal gname) -> begin
    let d = Hashtbl.find env.tc.Typecheck.globals gname in
    match Hashtbl.find_opt env.global_index gname with
    | None -> fun _ _ -> Value.error "global %s has no storage" gname
    | Some gi -> begin
      match d.Ast.d_ty with
      | Ctypes.Tstruct _ | Ctypes.Tarray _ ->
        fun st _ -> Value.Vptr st.globals.(gi)
      | _ -> fun st _ -> Memory.load st.mem st.globals.(gi)
    end
  end
  | None ->
    let msg =
      Printf.sprintf "unresolved identifier at %s"
        (Format.asprintf "%a" Cfront.Token.pp_pos e.Ast.epos)
    in
    fun _ _ -> raise (Error msg)

and compile_lvalue (env : cenv) (e : Ast.expr) : lv =
  match e.Ast.enode with
  | Ast.Ident name -> begin
    match Typecheck.resolution_of env.tc e with
    | Some (Typecheck.Rlocal slot) ->
      if env.regs.(slot) then invalid_arg "Compile: register has no address";
      fun _ fr -> slot_ptr fr slot
    | Some (Typecheck.Rglobal gname) -> begin
      match Hashtbl.find_opt env.global_index gname with
      | Some gi -> fun st _ -> st.globals.(gi)
      | None -> fun _ _ -> Value.error "global %s has no storage" gname
    end
    | _ -> fun _ _ -> Value.error "%s is not an object" name
  end
  | Ast.Unop (Ast.Uderef, a) -> compile_expect_ptr env a
  | Ast.Index _ | Ast.Field _ | Ast.Arrow _ -> lv_of_place (compile_place env e)
  | _ -> fun _ _ -> Value.error "expression is not an lvalue"

(* [a[i]], [s.f] and [p->f] split into a base address and a cell offset,
   so a scalar access reads or writes the cell without building the
   offset pointer. *)
and compile_place (env : cenv) (e : Ast.expr) : place =
  match e.Ast.enode with
  | Ast.Index (a, i) -> begin
    (* Mirror [Eval.eval_lvalue]: when [a] is the pointer, evaluate the
       base from [a] and the index from [i]; otherwise the reversed
       [i[a]] form evaluates the base from [i] first. *)
    match ty_of env a with
    | Ctypes.Tptr t ->
      let base = compile_expect_ptr env a in
      let scale = size_of env t in
      Pindex (base, compile_int_of env i, scale)
    | _ ->
      let base = compile_expect_ptr env i in
      let scale = size_of env (Option.get (pointee env i)) in
      Pindex (base, compile_int_of env a, scale)
  end
  | Ast.Field (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tstruct si ->
      let off = (Ctypes.find_field env.reg si fname).Ctypes.fld_offset in
      Pfield (compile_lvalue env a, off)
    | t ->
      let msg =
        Printf.sprintf ".%s on %s" fname (Ctypes.to_string t)
      in
      Pfield ((fun _ _ -> raise (Error msg)), 0)
  end
  | Ast.Arrow (a, fname) -> begin
    match ty_of env a with
    | Ctypes.Tptr (Ctypes.Tstruct si) ->
      let off = (Ctypes.find_field env.reg si fname).Ctypes.fld_offset in
      Pfield (compile_expect_ptr env a, off)
    | t ->
      let msg =
        Printf.sprintf "->%s on %s" fname (Ctypes.to_string t)
      in
      Pfield ((fun _ _ -> raise (Error msg)), 0)
  end
  | _ -> invalid_arg "Compile.compile_place"

and compile_expect_ptr (env : cenv) (e : Ast.expr) : lv =
  match aggregate_address env e with
  | Some loc -> loc
  | None ->
    let ce = compile_expr env e in
    fun st fr ->
      match ce st fr with
      | Value.Vptr p -> p
      | Value.Vint 0 -> Value.error "null pointer dereference"
      | v -> Value.error "expected a pointer, got %s" (Value.to_string v)

(* The address of a local or global array or struct named directly:
   known to be a pointer, so no [Vptr] is built to be taken apart. *)
and aggregate_address (env : cenv) (e : Ast.expr) : lv option =
  match (e.Ast.enode, Typecheck.resolution_of env.tc e) with
  | Ast.Ident _, Some (Typecheck.Rlocal slot) -> begin
    match local_ty env slot with
    | Ctypes.Tstruct _ | Ctypes.Tarray _ -> Some (fun _ fr -> slot_ptr fr slot)
    | _ -> None
  end
  | Ast.Ident _, Some (Typecheck.Rglobal gname) -> begin
    match
      ( (Hashtbl.find env.tc.Typecheck.globals gname).Ast.d_ty,
        Hashtbl.find_opt env.global_index gname )
    with
    | (Ctypes.Tstruct _ | Ctypes.Tarray _), Some gi ->
      Some (fun st _ -> st.globals.(gi))
    | _ -> None
  end
  | _ -> None

and compile_unop (env : cenv) (op : Ast.unop) (a : Ast.expr) : ev =
  match op with
  | Ast.Uplus -> compile_expr env a
  | Ast.Uneg ->
    let ca = compile_expr env a in
    fun st fr -> begin
      match ca st fr with
      | Value.Vint n -> Value.Vint (Value.wrap32 (-n))
      | Value.Vfloat f -> Value.Vfloat (-.f)
      | v -> Value.error "cannot negate %s" (Value.to_string v)
    end
  | Ast.Unot | Ast.Ubnot -> assert false (* int-typed: compile_int *)
  | Ast.Uderef -> begin
    match ty_of env a with
    | Ctypes.Tptr (Ctypes.Tfun _) -> compile_expr env a
    | Ctypes.Tptr t -> begin
      let p = compile_expect_ptr env a in
      match t with
      | Ctypes.Tarray _ | Ctypes.Tstruct _ ->
        fun st fr -> Value.Vptr (p st fr)
      | _ -> fun st fr -> Memory.load st.mem (p st fr)
    end
    | t ->
      let msg = Printf.sprintf "dereferencing %s" (Ctypes.to_string t) in
      fun _ _ -> raise (Error msg)
  end
  | Ast.Uaddr -> begin
    match a.Ast.enode with
    | Ast.Ident _
      when (match Typecheck.resolution_of env.tc a with
           | Some (Typecheck.Rfun _ | Typecheck.Rbuiltin _) -> true
           | _ -> false) ->
      compile_expr env a
    | _ ->
      let loc = compile_lvalue env a in
      fun st fr -> Value.Vptr (loc st fr)
  end

(* Boxed arithmetic: pointer and [double] operands. *)
and compile_binop (env : cenv) (op : Ast.binop) (a : Ast.expr) (b : Ast.expr)
    : ev =
  let ca = compile_expr env a in
  let cb = compile_expr env b in
  let app = compile_apply_binop env ~ta:(ty_of env a) ~tb:(ty_of env b) op in
  fun st fr ->
    let va = ca st fr in
    let vb = cb st fr in
    app va vb

(* Specialized [Eval.apply_binop]: the type dispatch, element sizes and
   float-context decision happen at compile time. *)
and compile_apply_binop (env : cenv) ~(ta : Ctypes.ty) ~(tb : Ctypes.ty)
    (op : Ast.binop) : Value.value -> Value.value -> Value.value =
  let int_op op =
    let f = int_arith op in
    fun va vb -> Value.Vint (f (Value.int_of va) (Value.int_of vb))
  in
  let float_ctx = ta = Ctypes.Tdouble || tb = Ctypes.Tdouble in
  let arith ffloat =
    if float_ctx then fun va vb ->
      Value.Vfloat (ffloat (Value.float_of va) (Value.float_of vb))
    else int_op op
  in
  match op with
  | Ast.Badd -> begin
    match (ta, tb) with
    | Ctypes.Tptr t, _ ->
      let sz = size_of env t in
      fun va vb ->
        let p = Eval.expect_ptr_value va in
        Value.Vptr (Memory.offset p (Value.int_of vb * sz))
    | _, Ctypes.Tptr t ->
      let sz = size_of env t in
      fun va vb ->
        let p = Eval.expect_ptr_value vb in
        Value.Vptr (Memory.offset p (Value.int_of va * sz))
    | _ -> arith ( +. )
  end
  | Ast.Bsub -> begin
    match (ta, tb) with
    | Ctypes.Tptr t, Ctypes.Tptr _ ->
      let sz = size_of env t in
      fun va vb -> begin
        match (va, vb) with
        | Value.Vptr p, Value.Vptr q when p.Value.blk = q.Value.blk ->
          Value.Vint ((p.Value.off - q.Value.off) / sz)
        | Value.Vptr _, Value.Vptr _ ->
          Value.error "subtracting pointers into different objects"
        | _ -> Value.error "pointer subtraction on non-pointers"
      end
    | Ctypes.Tptr t, _ ->
      let sz = size_of env t in
      fun va vb ->
        let p = Eval.expect_ptr_value va in
        Value.Vptr (Memory.offset p (-Value.int_of vb * sz))
    | _ -> arith ( -. )
  end
  | Ast.Bmul -> arith ( *. )
  | Ast.Bdiv ->
    if float_ctx then fun va vb -> begin
      let d = Value.float_of vb in
      if d = 0.0 then Value.error "floating division by zero";
      Value.Vfloat (Value.float_of va /. d)
    end
    else fun va vb -> begin
      let d = Value.int_of vb in
      if d = 0 then Value.error "division by zero";
      Value.Vint (Value.wrap32 (Value.int_of va / d))
    end
  | Ast.Bmod ->
    fun va vb ->
      let d = Value.int_of vb in
      if d = 0 then Value.error "modulo by zero";
      Value.Vint (Value.wrap32 (Value.int_of va mod d))
  | Ast.Bshl | Ast.Bshr | Ast.Bband | Ast.Bbor | Ast.Bbxor -> int_op op
  | Ast.Blt | Ast.Bgt | Ast.Ble | Ast.Bge | Ast.Beq | Ast.Bne | Ast.Bland
  | Ast.Blor ->
    assert false (* int-typed: compile_test *)

and compile_assign (env : cenv) (op : Ast.assign_op) (lhs : Ast.expr)
    (rhs : Ast.expr) : ev =
  let tl = ty_of env lhs in
  match (op, tl) with
  | Ast.Aplain, Ctypes.Tstruct si ->
    let dst = compile_lvalue env lhs in
    let src = compile_expr env rhs in
    let size = (Ctypes.find env.reg si).Ctypes.str_size in
    fun st fr ->
      let d = dst st fr in
      let s =
        match src st fr with
        | Value.Vptr p -> p
        | v -> Value.error "struct assignment from %s" (Value.to_string v)
      in
      Memory.blit st.mem ~src:s ~dst:d size;
      Value.Vptr d
  | Ast.Aplain, _ -> begin
    match lhs.Ast.enode with
    | Ast.Index _ | Ast.Field _ | Ast.Arrow _ -> begin
      let place = compile_place env lhs in
      let crhs = compile_expr env rhs in
      match place with
      | Pfield (base, off) ->
        fun st fr ->
          let b = base st fr in
          let v = Eval.coerce tl (crhs st fr) in
          Memory.store_at st.mem b off v;
          v
      | Pindex (base, idx, scale) ->
        fun st fr ->
          let b = base st fr in
          let ix = idx st fr in
          let v = Eval.coerce tl (crhs st fr) in
          Memory.store_at st.mem b (ix * scale) v;
          v
    end
    | _ -> begin
      let crhs = compile_expr env rhs in
      match register_of env lhs with
      | Some slot ->
        fun st fr ->
          let v = Eval.coerce tl (crhs st fr) in
          fr.(slot) <- v;
          v
      | None ->
        let loc = compile_lvalue env lhs in
        fun st fr ->
          let l = loc st fr in
          let v = Eval.coerce tl (crhs st fr) in
          Memory.store st.mem l v;
          v
    end
  end
  | _, (Ctypes.Tint | Ctypes.Tchar) when Ctypes.is_integer (ty_of env rhs) ->
    (* Integer compound assignment: the operator runs unboxed and the
       result is boxed once, for the store. *)
    let bop = Option.get (Ast.binop_of_assign op) in
    let app = compile_apply_binop env ~ta:tl ~tb:(ty_of env rhs) bop in
    let apply =
      lift2v (int_arith bop)
        (fun va vb -> Value.int_of (app va vb))
        (compile_int env rhs)
    in
    let wrap = if tl = Ctypes.Tchar then Value.wrap8 else Value.wrap32 in
    compile_update env lhs ~post:false (fun old st fr ->
        Value.Vint (wrap (apply old st fr)))
  | _, _ ->
    let bop = Option.get (Ast.binop_of_assign op) in
    let crhs = compile_expr env rhs in
    let app = compile_apply_binop env ~ta:tl ~tb:(ty_of env rhs) bop in
    compile_update env lhs ~post:false (fun old st fr ->
        let vr = crhs st fr in
        Eval.coerce tl (app old vr))

(* Read-modify-write of a scalar lvalue: the address first, then the old
   value, then [fresh old] (which may run further code) is stored. The
   value is the stored one, or the old one when [post]. *)
and compile_update (env : cenv) (lhs : Ast.expr) ~(post : bool)
    (fresh : Value.value -> state -> frame -> Value.value) : ev =
  match register_of env lhs with
  | Some slot ->
    fun st fr ->
      let old = fr.(slot) in
      let v = fresh old st fr in
      fr.(slot) <- v;
      if post then old else v
  | None ->
    let loc = compile_lvalue env lhs in
    fun st fr ->
      let l = loc st fr in
      let old = Memory.load st.mem l in
      let v = fresh old st fr in
      Memory.store st.mem l v;
      if post then old else v

and compile_incr_decr (env : cenv) (a : Ast.expr) ~(delta : int)
    ~(pre : bool) : ev =
  let ty = ty_of env a in
  let fresh_of : Value.value -> Value.value =
    match ty with
    | Ctypes.Tptr t ->
      let d = delta * size_of env t in
      fun old -> begin
        match old with
        | Value.Vptr p -> Value.Vptr (Memory.offset p d)
        | Value.Vint 0 -> Value.error "arithmetic on a null pointer"
        | _ -> Eval.coerce ty (Value.Vint (Value.int_of old + delta))
      end
    | Ctypes.Tdouble ->
      let d = float_of_int delta in
      fun old -> Value.Vfloat (Value.float_of old +. d)
    | Ctypes.Tint | Ctypes.Tchar ->
      let wrap = if ty = Ctypes.Tchar then Value.wrap8 else Value.wrap32 in
      fun old -> begin
        match old with
        | Value.Vint n -> Value.Vint (wrap (n + delta))
        | _ -> Eval.coerce ty (Value.Vint (Value.int_of old + delta))
      end
    | _ -> fun old -> Eval.coerce ty (Value.Vint (Value.int_of old + delta))
  in
  compile_update env a ~post:(not pre) (fun old _ _ -> fresh_of old)

(* Calls: the site counter index, argument passing convention and callee
   dispatch are all resolved at compile time. *)
and compile_call (env : cenv) (e : Ast.expr) (fn_expr : Ast.expr)
    (args : Ast.expr list) : ev =
  let site = Hashtbl.find_opt env.site_of_expr e.Ast.eid in
  let cargs =
    List.map
      (fun (a : Ast.expr) ->
        match ty_of env a with
        | Ctypes.Tstruct _ ->
          let loc = compile_lvalue env a in
          fun st fr -> Value.Vptr (loc st fr)
        | _ -> compile_expr env a)
      args
  in
  let bump : state -> unit =
    match site with
    | Some cs_id ->
      fun st ->
        st.profile.Profile.site_counts.(cs_id) <-
          st.profile.Profile.site_counts.(cs_id) +. 1.0
    | None -> fun _ -> ()
  in
  let direct_resolution =
    match fn_expr.Ast.enode with
    | Ast.Ident _ -> Typecheck.resolution_of env.tc fn_expr
    | _ -> None
  in
  let eval_args = args_evaluator (Array.of_list cargs) in
  match direct_resolution with
  | Some (Typecheck.Rbuiltin name) ->
    fun st fr ->
      bump st;
      let argv = List.map (fun f -> f st fr) cargs in
      Builtins.call st.bctx name argv
  | Some (Typecheck.Rfun name) -> begin
    match Hashtbl.find_opt env.fns name with
    | Some target ->
      fun st fr ->
        bump st;
        call_fn st target (eval_args st fr)
    | None ->
      (* Prototype without definition: [Eval] still evaluates the
         arguments before failing the lookup. *)
      fun st fr ->
        bump st;
        ignore (eval_args st fr);
        Value.error "call to undefined function %s" name
  end
  | _ ->
    let callee = compile_expr env fn_expr in
    let fns = env.fns in
    fun st fr -> begin
      bump st;
      let v = callee st fr in
      let argv = eval_args st fr in
      match v with
      | Value.Vfun (Value.Fbuiltin name) ->
        Builtins.call st.bctx name (Array.to_list argv)
      | Value.Vfun (Value.Fuser name) -> begin
        match Hashtbl.find_opt fns name with
        | Some target -> call_fn st target argv
        | None -> Value.error "call to undefined function %s" name
      end
      | v -> Value.error "calling a non-function value %s" (Value.to_string v)
    end

(* Initializer writers (compile-time mirror of [Eval.write_init]). *)
and compile_write_init (env : cenv) (ty : Ctypes.ty) (init : Ast.init) :
    state -> frame -> Value.ptr -> unit =
  match (ty, init) with
  | ( Ctypes.Tarray (Ctypes.Tchar, _),
      Ast.Iexpr { Ast.enode = Ast.StringLit s; _ } ) ->
    fun st _ loc -> Memory.write_cstring st.mem loc s
  | _, Ast.Iexpr e when Ctypes.is_scalar (Ctypes.decay ty) ->
    let ce = compile_expr env e in
    fun st fr loc -> Memory.store st.mem loc (Eval.coerce ty (ce st fr))
  | Ctypes.Tstruct si, Ast.Iexpr e ->
    let ce = compile_expr env e in
    let size = (Ctypes.find env.reg si).Ctypes.str_size in
    fun st fr loc -> begin
      match ce st fr with
      | Value.Vptr src -> Memory.blit st.mem ~src ~dst:loc size
      | v -> Value.error "struct initializer is %s" (Value.to_string v)
    end
  | Ctypes.Tarray (t, _), Ast.Ilist items ->
    let sz = size_of env t in
    let writers =
      List.mapi (fun i item -> (i * sz, compile_write_init env t item)) items
    in
    fun st fr loc ->
      List.iter
        (fun (off, w) -> w st fr (Memory.offset loc off))
        writers
  | Ctypes.Tstruct si, Ast.Ilist items ->
    let flds = Ctypes.fields env.reg si in
    let writers =
      List.mapi
        (fun i item ->
          let fld = List.nth flds i in
          (fld.Ctypes.fld_offset, compile_write_init env fld.Ctypes.fld_ty item))
        items
    in
    fun st fr loc ->
      List.iter
        (fun (off, w) -> w st fr (Memory.offset loc off))
        writers
  | _, Ast.Ilist [ item ] -> compile_write_init env ty item
  | _ ->
    let msg =
      Printf.sprintf "unsupported initializer for %s" (Ctypes.to_string ty)
    in
    fun _ _ _ -> raise (Error msg)

(* ------------------------------------------------------------------ *)
(* Block / function / program compilation. *)

let compile_instr (env : cenv) : Cfg.instr -> state -> frame -> unit =
  function
  | Cfg.Iexpr e ->
    let ce = compile_expr env e in
    fun st fr -> ignore (ce st fr)
  | Cfg.Ilocal_init (slot, d) -> begin
    match d.Ast.d_init with
    | Some (Ast.Iexpr e) when env.regs.(slot) ->
      let ce = compile_expr env e in
      let ty = d.Ast.d_ty in
      fun st fr -> fr.(slot) <- Eval.coerce ty (ce st fr)
    | Some init ->
      let w = compile_write_init env d.Ast.d_ty init in
      fun st fr -> w st fr (slot_ptr fr slot)
    | None -> fun _ _ -> ()
  end

let compile_term (env : cenv) : Cfg.terminator -> cterm = function
  | Cfg.Tjump next -> Cjump next
  | Cfg.Tbranch (br, t, f) -> Cbranch (compile_test env br.Cfg.br_cond, t, f)
  | Cfg.Tswitch (scrutinee, cases, default) ->
    (* First match wins under [List.assoc_opt]; preserve that. *)
    let table = Hashtbl.create (List.length cases) in
    List.iter
      (fun (v, t) -> if not (Hashtbl.mem table v) then Hashtbl.add table v t)
      cases;
    Cswitch (compile_int_of env scrutinee, table, default)
  | Cfg.Treturn (Some e) -> Creturn (compile_expr env e)
  | Cfg.Treturn None -> Creturn (fun _ _ -> Value.Vint 0)

let compile_block (env : cenv) (b : Cfg.block) : cblock =
  { cb_instrs =
      Array.of_list (List.map (compile_instr env) b.Cfg.b_instrs);
    cb_cost = 1 + List.length b.Cfg.b_instrs;
    cb_term = compile_term env b.Cfg.b_term }

let bind_param (env : cenv) (regs : bool array) (li : Typecheck.local_info)
    (i : int) : state -> frame -> Value.value -> unit =
  match li.Typecheck.l_ty with
  | Ctypes.Tstruct si ->
    let size = (Ctypes.find env.reg si).Ctypes.str_size in
    fun st fr v -> begin
      match v with
      | Value.Vptr src -> Memory.blit st.mem ~src ~dst:(slot_ptr fr i) size
      | v -> Value.error "struct argument is %s" (Value.to_string v)
    end
  | ty when regs.(i) -> fun _ fr v -> fr.(i) <- Eval.coerce ty v
  | ty -> fun st fr v -> Memory.store st.mem (slot_ptr fr i) (Eval.coerce ty v)

(* The escape pass: a local is a register when it is a scalar, no [&x]
   names it anywhere in the function (dead code included), and its
   initializer, if any, is one expression. *)
let register_slots (tc : Typecheck.t) (fn : Cfg.fn) : bool array =
  let regs =
    Array.map
      (fun (li : Typecheck.local_info) ->
        match li.Typecheck.l_ty with
        | Ctypes.Tint | Ctypes.Tchar | Ctypes.Tdouble | Ctypes.Tptr _ -> true
        | _ -> false)
      fn.Cfg.fn_info.Typecheck.fi_locals
  in
  let on_expr (e : Ast.expr) =
    match e.Ast.enode with
    | Ast.Unop (Ast.Uaddr, a) -> begin
      match (a.Ast.enode, Typecheck.resolution_of tc a) with
      | Ast.Ident _, Some (Typecheck.Rlocal slot) -> regs.(slot) <- false
      | _ -> ()
    end
    | _ -> ()
  in
  let on_decl (d : Ast.decl) =
    match (d.Ast.d_init, Hashtbl.find_opt tc.Typecheck.decl_slots d.Ast.d_id) with
    | Some (Ast.Ilist _), Some slot when slot >= 0 -> regs.(slot) <- false
    | _ -> ()
  in
  let on_stmt (s : Ast.stmt) =
    match s.Ast.snode with
    | Ast.Sblock items ->
      List.iter (function Ast.Bdecl d -> on_decl d | Ast.Bstmt _ -> ()) items
    | Ast.Sfor (Ast.Fdecl ds, _, _, _) -> List.iter on_decl ds
    | _ -> ()
  in
  Ast.iter_stmt ~on_stmt ~on_expr fn.Cfg.fn_def.Ast.f_body;
  regs

let compile (src : Cfg.program) : prog =
  let tc = src.Cfg.prog_tc in
  let site_of_expr = Hashtbl.create 64 in
  Array.iter
    (fun cs ->
      Hashtbl.replace site_of_expr cs.Cfg.cs_expr.Ast.eid cs.Cfg.cs_id)
    src.Cfg.prog_sites;
  let env =
    { tc; reg = tc.Typecheck.tunit.Ast.structs; site_of_expr;
      fns = Hashtbl.create 32; global_index = Hashtbl.create 32;
      string_index = Hashtbl.create 64; n_strings = 0; fn_info = None;
      regs = [||] }
  in
  List.iteri
    (fun i name -> Hashtbl.replace env.global_index name i)
    tc.Typecheck.global_order;
  (* Phase 1: create every function's record so direct-call closures can
     capture their targets even across forward/mutual recursion. *)
  let fn_list =
    List.mapi
      (fun i (fn : Cfg.fn) ->
        let fi = fn.Cfg.fn_info in
        let regs = register_slots tc fn in
        let tags =
          Array.map
            (fun (li : Typecheck.local_info) ->
              fn.Cfg.fn_name ^ "." ^ li.Typecheck.l_name)
            fi.Typecheck.fi_locals
        in
        let cf =
          { c_name = fn.Cfg.fn_name; c_index = i; c_entry = fn.Cfg.fn_entry;
            c_blocks = [||];
            c_local_sizes =
              Array.map
                (fun (li : Typecheck.local_info) ->
                  size_of env li.Typecheck.l_ty)
                fi.Typecheck.fi_locals;
            c_local_tags = tags;
            c_local_dead = Array.map Memory.dead_block tags;
            c_regs = regs;
            c_bind_params =
              Array.mapi
                (fun i li -> bind_param env regs li i)
                fi.Typecheck.fi_locals;
            c_coerce_ret = Eval.coerce fn.Cfg.fn_def.Ast.f_ret }
        in
        Hashtbl.replace env.fns fn.Cfg.fn_name cf;
        cf)
      src.Cfg.prog_fns
  in
  (* Phase 2: compile bodies against the complete function table. *)
  List.iter2
    (fun (fn : Cfg.fn) cf ->
      env.fn_info <- Some fn.Cfg.fn_info;
      env.regs <- cf.c_regs;
      cf.c_blocks <- Array.map (compile_block env) fn.Cfg.fn_blocks)
    src.Cfg.prog_fns fn_list;
  env.fn_info <- None;
  env.regs <- [||];
  (* Global initializers, compiled in declaration order. *)
  let global_inits =
    List.filter_map
      (fun name ->
        let d = Hashtbl.find tc.Typecheck.globals name in
        match d.Ast.d_init with
        | Some init ->
          Some
            ( Hashtbl.find env.global_index name,
              compile_write_init env d.Ast.d_ty init )
        | None -> None)
      tc.Typecheck.global_order
  in
  let main = Hashtbl.find_opt env.fns "main" in
  let main_arity =
    match Cfg.find_fn src "main" with
    | None -> -1
    | Some fn -> begin
      match fn.Cfg.fn_def.Ast.f_params with
      | [] -> 0
      | [ _; _ ] -> 2
      | _ -> -1
    end
  in
  { p_src = src;
    p_fns = env.fns;
    p_fn_list = Array.of_list fn_list;
    p_main = main;
    p_main_arity = main_arity;
    p_global_sizes =
      Array.of_list
        (List.map
           (fun name ->
             size_of env (Hashtbl.find tc.Typecheck.globals name).Ast.d_ty)
           tc.Typecheck.global_order);
    p_global_tags =
      Array.of_list
        (List.map (fun name -> "global " ^ name) tc.Typecheck.global_order);
    p_global_inits = global_inits;
    p_n_strings = env.n_strings }

(* ------------------------------------------------------------------ *)
(* Entry point: mirror of [Eval.run]. *)

let run ?(fuel = Eval.default_fuel) ?deadline_s ?(argv = []) ?(input = "")
    (p : prog) : Eval.outcome =
  let deadline, clock_tick =
    match deadline_s with
    | None -> (infinity, max_int)
    | Some s -> (Unix.gettimeofday () +. s, Eval.clock_check_interval)
  in
  let mem = Memory.create () in
  let profile = Profile.create p.p_src in
  let st =
    { mem; bctx = Builtins.create_ctx ~input mem;
      globals =
        Array.make (Array.length p.p_global_sizes) null_ptr;
      string_cache = Array.make (max p.p_n_strings 1) None;
      strings = Hashtbl.create 32;
      fcounters =
        Array.map
          (fun cf -> Profile.fn_counters profile cf.c_name)
          p.p_fn_list;
      profile; fuel; deadline; clock_tick }
  in
  (* Every block subtracts its cost from fuel and [Eval] adds the same
     cost to work, so the spent fuel is the work, exactly. *)
  let finish code =
    st.profile.Profile.work <- float_of_int (fuel - st.fuel);
    { Eval.exit_code = code; stdout_text = Builtins.output st.bctx;
      profile = st.profile; work = st.profile.Profile.work }
  in
  match p.p_main with
  | None -> Value.error "program has no main function"
  | Some main_cf -> begin
    try
      (* Globals: allocate all storage in declaration order, then run the
         initializers — the same two passes as [Eval.init_globals]. *)
      let dummy = [||] in
      Array.iteri
        (fun i size ->
          st.globals.(i) <-
            Memory.alloc mem size ~tag:p.p_global_tags.(i))
        p.p_global_sizes;
      List.iter
        (fun (gi, w) -> w st dummy st.globals.(gi))
        p.p_global_inits;
      let args =
        match p.p_main_arity with
        | 0 -> [||]
        | 2 ->
          let all = "prog" :: argv in
          let argc = List.length all in
          let arr = Memory.alloc mem (argc + 1) ~tag:"argv" in
          List.iteri
            (fun i s ->
              let sp = intern_rt st s in
              Memory.store mem (Memory.offset arr i) (Value.Vptr sp))
            all;
          Memory.store mem (Memory.offset arr argc) (Value.Vint 0);
          [| Value.Vint argc; Value.Vptr arr |]
        | _ -> Value.error "main must take () or (int, char **)"
      in
      let result = call_fn st main_cf args in
      finish (match result with Value.Vint n -> n | _ -> 0)
    with
    | Builtins.Exit_program code -> finish code
    | Eval.Out_of_fuel ->
      raise (Eval.Budget_exhausted (Eval.Fuel, finish (-1)))
    | Eval.Out_of_wall_clock ->
      raise (Eval.Budget_exhausted (Eval.Wall_clock, finish (-1)))
  end
