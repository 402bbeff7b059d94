type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* NaN propagates freely through the percentile math on empty-ish
   columns; JSON has no NaN/inf, so they serialize as null and the
   schema marks those fields nullable. *)
let num x = if Float.is_finite x then Float x else Null

let escape buf s =
  Buffer.add_char buf '"';
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
  Buffer.add_char buf '"'

let float_literal x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.9g" x

let rec write buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x ->
      if Float.is_finite x then Buffer.add_string buf (float_literal x)
      else Buffer.add_string buf "null"
  | Str s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          write buf ~indent ~level:(level + 1) item)
        items;
      nl ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          escape buf k;
          Buffer.add_string buf (if indent then ": " else ":");
          write buf ~indent ~level:(level + 1) item)
        fields;
      nl ();
      pad level;
      Buffer.add_char buf '}'

let to_string ?(indent = true) v =
  let buf = Buffer.create 1024 in
  write buf ~indent ~level:0 v;
  if indent then Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: a small recursive-descent reader, enough to re-read and    *)
(* validate everything this module writes.                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let of_string s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= len && String.equal (String.sub s !pos (String.length word)) word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* ASCII round-trips; anything above is replaced — the
                 writer never emits non-ASCII escapes. *)
              Buffer.add_char buf
                (if code < 0x80 then Char.chr code else '?');
              pos := !pos + 4;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  (* [sequence close item] — the items of an array or object after its
     opening bracket, up to [close]. *)
  let sequence close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec items acc =
        let v = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            items (v :: acc)
        | Some c when Char.equal c close ->
            advance ();
            List.rev (v :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      items []
  in
  let rec member () =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    (k, parse_value ())
  and parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' -> Obj (sequence '}' member)
    | Some '[' -> List (sequence ']' parse_value)
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos < len then Error "trailing garbage" else Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Structural schema: exact key sets, element-wise list types.         *)
(* ------------------------------------------------------------------ *)

type schema =
  | Bool_s
  | Int_s
  | Num_s  (** Int or Float *)
  | Str_s
  | Nullable of schema
  | List_of of schema
  | Obj_of of (string * schema) list  (** exactly these keys, any order *)
  | Tagged of string * (string * schema) list
      (** the string member names the case *)

let rec first_error f = function
  | [] -> Ok ()
  | x :: rest -> Result.bind (f x) (fun () -> first_error f rest)

let rec validate schema v ~path =
  let err want =
    Error (Printf.sprintf "%s: expected %s" (if String.equal path "" then "$" else path) want)
  in
  match (schema, v) with
  | Bool_s, Bool _ -> Ok ()
  | Int_s, Int _ -> Ok ()
  | Num_s, (Int _ | Float _) -> Ok ()
  | Str_s, Str _ -> Ok ()
  | Nullable _, Null -> Ok ()
  | Nullable inner, v -> validate inner v ~path
  | List_of inner, List items ->
      first_error
        (fun (i, x) -> validate inner x ~path:(Printf.sprintf "%s[%d]" path i))
        (List.mapi (fun i x -> (i, x)) items)
  | Obj_of spec, Obj fields -> (
      let known k = List.exists (fun (k', _) -> String.equal k k') in
      match
        ( List.find_opt (fun (k, _) -> not (known k fields)) spec,
          List.find_opt (fun (k, _) -> not (known k spec)) fields )
      with
      | Some (k, _), _ -> Error (Printf.sprintf "%s: missing key %S" path k)
      | None, Some (k, _) -> Error (Printf.sprintf "%s: unexpected key %S" path k)
      | None, None ->
          first_error
            (fun (k, inner) -> validate inner (List.assoc k fields) ~path:(path ^ "." ^ k))
            spec)
  | Tagged (key, cases), Obj fields -> (
      match List.assoc_opt key fields with
      | Some (Str tag) when List.mem_assoc tag cases ->
          validate (List.assoc tag cases) v ~path
      | _ -> err (Printf.sprintf "a known %S tag" key))
  | Bool_s, _ -> err "bool"
  | Int_s, _ -> err "int"
  | Num_s, _ -> err "number"
  | Str_s, _ -> err "string"
  | List_of _, _ -> err "array"
  | (Obj_of _ | Tagged _), _ -> err "object"

let check schema v = validate schema v ~path:""

(* ------------------------------------------------------------------ *)
(* Typed descriptions: schema, writer and reader from one definition.  *)
(* A reader's error starts with the path below the value it read       *)
(* (".key", "[i]") followed by ": cause"; [read] roots it at "$".      *)
(* ------------------------------------------------------------------ *)

type 'a desc = { schema : schema; render : 'a -> t; read : t -> ('a, string) result }

type 'a field = { key : string; fschema : schema; get : 'a -> t }

let schema d = d.schema

let value d x = d.render x

let read d v = Result.map_error (fun e -> "$" ^ e) (d.read v)

let leaf schema want render of_t =
  let read v = Option.to_result ~none:(": expected " ^ want) (of_t v) in
  { schema; render; read }

let int = leaf Int_s "int" (fun i -> Int i) (function Int i -> Some i | _ -> None)

let float =
  leaf Num_s "number" num (function Float x -> Some x | Int i -> Some (float_of_int i) | _ -> None)

let str = leaf Str_s "string" (fun s -> Str s) (function Str s -> Some s | _ -> None)

let bool = leaf Bool_s "bool" (fun b -> Bool b) (function Bool b -> Some b | _ -> None)

(* [num] writes NaN as null, so null reads back as whatever [d] makes
   of NaN: NaN for [float], an error for the other leaves. *)
let nullable d =
  let read = function Null -> d.read (Float Float.nan) | v -> d.read v in
  { d with schema = Nullable d.schema; read }

let option d =
  {
    schema = Nullable d.schema;
    render = (function None -> Null | Some x -> d.render x);
    read = (function Null -> Ok None | v -> Result.map Option.some (d.read v));
  }

let list d =
  let rec read_all i acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest -> (
        match d.read v with
        | Ok x -> read_all (i + 1) (x :: acc) rest
        | Error e -> Error (Printf.sprintf "[%d]%s" i e))
  in
  {
    schema = List_of d.schema;
    render = (fun xs -> List (List.map d.render xs));
    read = (function List vs -> read_all 0 [] vs | _ -> Error ": expected array");
  }

let obj fields =
  {
    schema = Obj_of (List.map (fun f -> (f.key, f.fschema)) fields);
    render = (fun x -> Obj (List.map (fun f -> (f.key, f.get x)) fields));
    read = (fun _ -> Error ": write-only description");
  }

let field key d get = { key; fschema = d.schema; get = (fun x -> d.render (get x)) }

(* Fields accumulate in reverse; [build] applies the constructor to the
   members read so far, in declaration order. *)
type ('r, 'k) record = {
  fields : 'r field list;
  build : (string * t) list -> ('k, string) result;
}

let record ctor = { fields = []; build = (fun _ -> Ok ctor) }

let mem ?default key d get r =
  let read_mem members =
    match (List.assoc_opt key members, default) with
    | Some v, _ -> Result.map_error (fun e -> "." ^ key ^ e) (d.read v)
    | None, Some x -> Ok x
    | None, None -> Error (Printf.sprintf ": missing key %S" key)
  in
  {
    fields = field key d get :: r.fields;
    build =
      (fun members ->
        Result.bind (r.build members) (fun k -> Result.map k (read_mem members)));
  }

let seal r =
  {
    (obj (List.rev r.fields)) with
    read = (function Obj members -> r.build members | _ -> Error ": expected object");
  }

let tagged key tag cases =
  let with_tag = function Obj_of spec -> Obj_of ((key, Str_s) :: spec) | s -> s in
  {
    schema = Tagged (key, List.map (fun (name, d) -> (name, with_tag d.schema)) cases);
    render =
      (fun x ->
        match (List.assoc (tag x) cases).render x with
        | Obj members -> Obj ((key, Str (tag x)) :: members)
        | v -> v);
    read =
      (fun v ->
        match member key v with
        | Some (Str name) when List.mem_assoc name cases -> (List.assoc name cases).read v
        | _ -> Error (Printf.sprintf ": expected a known %S tag" key));
  }

let conv write of_a d =
  {
    schema = d.schema;
    render = (fun x -> d.render (write x));
    read = (fun v -> Result.bind (d.read v) (fun a -> Result.map_error (( ^ ) ": ") (of_a a)));
  }

let write_file ~file d x =
  Out_channel.with_open_text file (fun oc -> output_string oc (to_string (d.render x)));
  match of_string (In_channel.with_open_text file In_channel.input_all) with
  | Error e -> failwith (Printf.sprintf "%s: unparseable artifact: %s" file e)
  | Ok v -> (
      match check d.schema v with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "%s: schema violation at %s" file e))
