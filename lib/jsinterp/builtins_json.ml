(* The JSON object: stringify and parse. *)

open Value
open Builtins_util

(* SerializeJSONObject / SerializeJSONArray steps 1-2: a value already on
   the stack is a cycle. The caller pops [o] when its members are done; an
   exception abandons the whole call, and [stack] with it. *)
let enter ctx stack (o : obj) =
  if Hashtbl.mem stack o.oid then
    Ops.type_error ctx "JSON.stringify: cyclic structure";
  Hashtbl.replace stack o.oid ()

(* SerializeJSONProperty. [stack] holds the oids of the objects being
   serialised (ECMA-262's state.[[Stack]]), so a cycle is detected in O(1)
   per level and throws a TypeError instead of recursing forever.
   [to_json] is false for the value a toJSON call returned, which the spec
   serialises without consulting toJSON again. *)
let rec serialize ctx stack ~indent ~cur ~to_json (v : value) : string option =
  match v with
  | Undefined ->
      if fire ctx Quirk.Q_json_stringify_undefined_string then Some "undefined"
      else None
  | Null -> Some "null"
  | Bool b -> Some (if b then "true" else "false")
  | Num f ->
      if Float.is_nan f || Float.abs f = Float.infinity then
        if fire ctx Quirk.Q_json_stringify_nan_literal then
          Some (Ops.number_to_string f)
        else Some "null"
      else Some (Ops.number_to_string f)
  | Str s -> Some (quote s)
  | Obj { call = Some _; _ } -> None
  | Obj ({ arr = Some a; _ } as o) ->
      enter ctx stack o;
      let next = cur ^ indent in
      let sep, open_pad, close_pad =
        if indent = "" then (",", "", "")
        else (",\n" ^ next, "\n" ^ next, "\n" ^ cur)
      in
      let parts =
        List.map
          (fun el ->
            match serialize ctx stack ~indent ~cur:next ~to_json:true el with
            | Some s -> s
            | None -> "null")
          (Array.to_list (Array.sub a.elems 0 (min a.alen (Array.length a.elems))))
      in
      Hashtbl.remove stack o.oid;
      if parts = [] then Some "[]"
      else Some ("[" ^ open_pad ^ String.concat sep parts ^ close_pad ^ "]")
  | Obj o -> (
      match if to_json then Ops.get_obj ctx o "toJSON" else Undefined with
      | Obj { call = Some _; _ } as fn ->
          serialize ctx stack ~indent ~cur ~to_json:false
            (ctx.call_hook ctx fn v [])
      | _ ->
          enter ctx stack o;
          let next = cur ^ indent in
          let sep, colon, open_pad, close_pad =
            if indent = "" then (",", ":", "", "")
            else (",\n" ^ next, ": ", "\n" ^ next, "\n" ^ cur)
          in
          let parts =
            List.filter_map
              (fun k ->
                match
                  serialize ctx stack ~indent ~cur:next ~to_json:true
                    (Ops.get_obj ctx o k)
                with
                | Some s -> Some (quote k ^ colon ^ s)
                | None -> None)
              (Ops.enum_keys ctx o)
          in
          Hashtbl.remove stack o.oid;
          if parts = [] then Some "{}"
          else Some ("{" ^ open_pad ^ String.concat sep parts ^ close_pad ^ "}"))

and quote (s : string) : string =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\x00' .. '\x1f' ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let stringify ctx ~indent (v : value) : string option =
  serialize ctx (Hashtbl.create 8) ~indent ~cur:"" ~to_json:true v

(* recursive-descent JSON parser *)
type pstate = { src : string; mutable pos : int }

exception Bad_json of string

let parse ctx (src : string) : value =
  let allow_trailing_comma = fire ctx Quirk.Q_json_parse_trailing_comma in
  let st = { src; pos = 0 } in
  let peek () = if st.pos < String.length src then Some src.[st.pos] else None in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          st.pos <- st.pos + 1;
          true
      | _ -> false
    do
      ()
    done
  in
  let expect c =
    if peek () = Some c then st.pos <- st.pos + 1
    else raise (Bad_json (Printf.sprintf "expected '%c'" c))
  in
  let rec value () : value =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string ())
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise (Bad_json "unexpected character")
  and obj () =
    expect '{';
    let o = make_obj ~oclass:"Object" ~proto:(proto_of ctx "Object") () in
    skip_ws ();
    if peek () = Some '}' then (st.pos <- st.pos + 1; Obj o)
    else begin
      let rec members () =
        skip_ws ();
        (match peek () with
        | Some '}' when allow_trailing_comma -> ()
        | _ ->
            let k = string () in
            skip_ws ();
            expect ':';
            let v = value () in
            set_own o k (mkprop v);
            skip_ws ();
            if peek () = Some ',' then begin
              st.pos <- st.pos + 1;
              members ()
            end);
      in
      members ();
      skip_ws ();
      expect '}';
      Obj o
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (st.pos <- st.pos + 1; Obj (Ops.make_array ctx []))
    else begin
      let items = ref [] in
      let rec elems () =
        skip_ws ();
        (match peek () with
        | Some ']' when allow_trailing_comma -> ()
        | _ ->
            items := value () :: !items;
            skip_ws ();
            if peek () = Some ',' then begin
              st.pos <- st.pos + 1;
              elems ()
            end)
      in
      elems ();
      skip_ws ();
      expect ']';
      Obj (Ops.make_array ctx (List.rev !items))
    end
  and string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> raise (Bad_json "unterminated string")
      | Some '"' -> st.pos <- st.pos + 1
      | Some '\\' ->
          st.pos <- st.pos + 1;
          (match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\x0c'
          | Some 'u' ->
              if st.pos + 4 >= String.length src then raise (Bad_json "bad \\u");
              let hex = String.sub src (st.pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some v when v < 128 -> Buffer.add_char buf (Char.chr v)
              | Some _ -> Buffer.add_char buf '?'
              | None -> raise (Bad_json "bad \\u"));
              st.pos <- st.pos + 4
          | Some c -> Buffer.add_char buf c
          | None -> raise (Bad_json "unterminated escape"));
          st.pos <- st.pos + 1;
          loop ()
      | Some c ->
          Buffer.add_char buf c;
          st.pos <- st.pos + 1;
          loop ()
    in
    loop ();
    Buffer.contents buf
  and keyword () =
    let try_kw kw v =
      if
        st.pos + String.length kw <= String.length src
        && String.sub src st.pos (String.length kw) = kw
      then begin
        st.pos <- st.pos + String.length kw;
        Some v
      end
      else None
    in
    match try_kw "true" (Bool true) with
    | Some v -> v
    | None -> (
        match try_kw "false" (Bool false) with
        | Some v -> v
        | None -> (
            match try_kw "null" Null with
            | Some v -> v
            | None -> raise (Bad_json "bad keyword")))
  and number () =
    let start = st.pos in
    (if peek () = Some '-' then st.pos <- st.pos + 1);
    while
      match peek () with
      | Some ('0' .. '9' | '.' | 'e' | 'E' | '+' | '-') ->
          st.pos <- st.pos + 1;
          true
      | _ -> false
    do
      ()
    done;
    let text = String.sub src start (st.pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> raise (Bad_json "bad number")
  in
  let v = value () in
  skip_ws ();
  if st.pos <> String.length src then raise (Bad_json "trailing characters");
  v

let install ctx (json : obj) : unit =
  def_method ctx json "stringify" 3 (fun ctx _ args ->
      let indent =
        match arg 2 args with
        | Num f when f > 0.0 -> String.make (min 10 (Float.to_int f)) ' '
        | Str s -> s
        | _ -> ""
      in
      match stringify ctx ~indent (arg 0 args) with
      | Some s -> Str s
      | None -> Undefined);
  def_method ctx json "parse" 2 (fun ctx _ args ->
      let src = Ops.to_string ctx (arg 0 args) in
      match parse ctx src with
      | v -> v
      | exception Bad_json msg ->
          Ops.syntax_error ctx ("JSON.parse: " ^ msg))
