type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Emission *)

let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Ba_harness.Json: non-finite float (NaN/inf have no JSON encoding)"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_string s =
  let buf = Buffer.create (String.length s + 8) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let is_scalar = function Null | Bool _ | Int _ | Float _ | String _ -> true | List _ | Obj _ -> false

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let pad depth = Buffer.add_string buf (String.make (2 * depth) ' ') in
  let rec emit depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items when (not pretty) || List.for_all is_scalar items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf (if pretty then ", " else ",");
            emit depth item)
          items;
        Buffer.add_char buf ']'
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            emit (depth + 1) item)
          items;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields when not pretty ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, fv) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (escape_string k);
            Buffer.add_char buf ':';
            emit depth fv)
          fields;
        Buffer.add_char buf '}'
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, fv) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf ": ";
            emit (depth + 1) fv)
          fields;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (minimal recursive descent; enough for our own output plus
   ordinary hand-written JSON). *)

type cursor = { src : string; mutable pos : int }

let fail cur msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | Some x -> fail cur (Printf.sprintf "expected %C, found %C" c x)
  | None -> fail cur (Printf.sprintf "expected %C, found end of input" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "invalid literal (expected %s)" word)

let add_utf8 buf code =
  (* Encode a BMP code point as UTF-8; surrogate pairs are not combined
     (our emitter never produces them for the data we serialize). *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some '"' -> advance cur; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance cur; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance cur; Buffer.add_char buf '/'; go ()
        | Some 'n' -> advance cur; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance cur; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance cur; Buffer.add_char buf '\t'; go ()
        | Some 'b' -> advance cur; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance cur; Buffer.add_char buf '\012'; go ()
        | Some 'u' ->
            advance cur;
            if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
            let hex = String.sub cur.src cur.pos 4 in
            (* Exactly four hex digits: [int_of_string] alone would also
               accept underscores and signs. *)
            if
              not
                (String.for_all
                   (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
                   hex)
            then fail cur "invalid \\u escape";
            let code = int_of_string ("0x" ^ hex) in
            cur.pos <- cur.pos + 4;
            add_utf8 buf code;
            go ()
        | _ -> fail cur "invalid escape")
    | Some c when Char.code c < 0x20 -> fail cur "unescaped control character in string"
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

(* The JSON number grammar, exactly: an optional '-', then "0" or a digit
   string without a leading zero, then optionally '.' and at least one
   digit, then optionally 'e'/'E', an optional sign and at least one
   digit. *)
let parse_number cur =
  let start = cur.pos in
  let is_digit () = match peek cur with Some '0' .. '9' -> true | _ -> false in
  let digits what =
    if not (is_digit ()) then fail cur ("expected a digit " ^ what);
    while is_digit () do
      advance cur
    done
  in
  if peek cur = Some '-' then advance cur;
  if peek cur = Some '0' then begin
    advance cur;
    if is_digit () then fail cur "leading zero in number"
  end
  else digits "in number";
  let frac = peek cur = Some '.' in
  if frac then begin
    advance cur;
    digits "after '.'"
  end;
  let exp = match peek cur with Some ('e' | 'E') -> true | _ -> false in
  if exp then begin
    advance cur;
    (match peek cur with Some ('+' | '-') -> advance cur | _ -> ());
    digits "in exponent"
  end;
  let s = String.sub cur.src start (cur.pos - start) in
  match if frac || exp then None else int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      (* a fraction, an exponent, or an integer too large for [int] *)
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail cur (Printf.sprintf "invalid number %S" s))

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']' in array"
        in
        List (items [])
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let field () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              fields (f :: acc)
          | Some '}' ->
              advance cur;
              List.rev (f :: acc)
          | _ -> fail cur "expected ',' or '}' in object"
        in
        Obj (fields [])
      end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage after JSON value";
  v

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_list = function List items -> Some items | _ -> None
