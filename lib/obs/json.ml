(* A minimal JSON implementation: a value type, a strict recursive-
   descent parser and a printer. The repository deliberately carries no
   JSON dependency — the run-record/baseline machinery (Driver.Run_record)
   and the test suite both need to *read* the documents the observability
   layer writes, so the reader lives here at the bottom of the tree next
   to the probes that produce the data. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string (* JSON text, printed as is; [parse] never yields it *)

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing. *)

let escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/Infinity; [Num] printing must never corrupt the
   document, so non-finite floats become strings (the reader side of
   this convention lives with each schema, e.g. [Run_record]). Finite
   floats print with enough digits to round-trip bit-exactly — the
   drift gate compares scores for equality across processes. *)
let float_repr (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let rec print (buf : Buffer.t) (indent : int) (v : t) : unit =
  let pad n = String.make (2 * n) ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
    if Float.is_finite v then Buffer.add_string buf (float_repr v)
    else Buffer.add_string buf (Printf.sprintf "\"%s\"" (string_of_float v))
  | Raw text -> Buffer.add_string buf text
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 1));
        print buf (indent + 1) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 1));
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        print buf (indent + 1) item)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf '}'

let to_string (v : t) : string =
  let buf = Buffer.create 4096 in
  print buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Single-line printer for newline-delimited protocols ([Driver.Serve]):
   no indentation, no interior newlines, no trailing newline — the
   framing layer owns the newline. *)
let rec print_compact (buf : Buffer.t) (v : t) : unit =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
    if Float.is_finite v then Buffer.add_string buf (float_repr v)
    else Buffer.add_string buf (Printf.sprintf "\"%s\"" (string_of_float v))
  | Raw text -> Buffer.add_string buf text
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        print_compact buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        print_compact buf item)
      fields;
    Buffer.add_char buf '}'

let to_compact_string (v : t) : string =
  let buf = Buffer.create 1024 in
  print_compact buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing. *)

(* The document, and with [~members] where each member of a top-level
   object lies in [s] (start, end), in document order. *)
let parse_doc ~(members : bool) (s : string) :
    (t * (string * (int * int)) list, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let depth = ref 0 in
  let value_end = ref 0 in
  let spans = ref [] in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
        | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
        | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
        | Some 'u' ->
          advance ();
          let code = ref 0 in
          for _ = 1 to 4 do
            (match peek () with
            | Some ('0' .. '9' as c) ->
              code := (!code * 16) + (Char.code c - Char.code '0')
            | Some ('a' .. 'f' as c) ->
              code := (!code * 16) + (Char.code c - Char.code 'a' + 10)
            | Some ('A' .. 'F' as c) ->
              code := (!code * 16) + (Char.code c - Char.code 'A' + 10)
            | _ -> fail "bad \\u escape");
            advance ()
          done;
          (* Encode the code point as UTF-8; the writer only emits
             \u00XX control escapes, but accept the full BMP. *)
          let c = !code in
          if c < 0x80 then Buffer.add_char buf (Char.chr c)
          else if c < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xc0 lor (c lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xe0 lor (c lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3f)));
            Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3f)))
          end;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if !pos = d0 then fail "expected digits"
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          incr depth;
          let rec fields_from () =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            skip_ws ();
            let start = !pos in
            let v = value () in
            if members && !depth = 1 then
              spans := (k, (start, !value_end)) :: !spans;
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields_from ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          fields_from ();
          decr depth;
          Obj (List.rev !fields)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          incr depth;
          let rec elements () =
            items := value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          elements ();
          decr depth;
          Arr (List.rev !items)
        end
      | Some '"' -> Str (string_body ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> Num (number ())
      | _ -> fail "expected a value"
    in
    value_end := !pos;
    skip_ws ();
    v
  in
  match
    let v = value () in
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok (v, List.rev !spans)
  | exception Parse_error msg -> Error msg

let parse (s : string) : (t, string) result =
  Result.map fst (parse_doc ~members:false s)

let parse_members (s : string) :
    (t * (string * (int * int)) list, string) result =
  parse_doc ~members:true s

let parse_exn (s : string) : t =
  match parse s with Ok v -> v | Error msg -> raise (Parse_error msg)

(* ------------------------------------------------------------------ *)
(* Accessors: total lookups returning options, so schema readers can
   give precise errors instead of pattern-match failures. *)

let member (name : string) (v : t) : t option =
  match v with Obj fields -> List.assoc_opt name fields | _ -> None

let to_list (v : t) : t list option =
  match v with Arr items -> Some items | _ -> None

let to_str (v : t) : string option =
  match v with Str s -> Some s | _ -> None

(* Numbers, honouring the non-finite-floats-as-strings convention. *)
let to_num (v : t) : float option =
  match v with
  | Num f -> Some f
  | Str s -> float_of_string_opt s
  | _ -> None
