type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Parser: recursive descent over the input string. Depth is capped so an
   adversarial frame of 100k nested brackets returns an error instead of
   overflowing the stack ("never a crash" protocol contract). *)

let max_depth = 64

exception Fail of string

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise (Fail (Printf.sprintf "%s at byte %d" msg st.pos))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

(* Encode a Unicode scalar value as UTF-8 bytes into the buffer. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 st =
  let digit () =
    match peek st with
    | Some c ->
      advance st;
      (match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "invalid \\u escape")
    | None -> fail st "truncated \\u escape"
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let u = hex4 st in
          (* Surrogate pair: a high surrogate must be followed by an
             escaped low surrogate; combine them, else reject. *)
          if u >= 0xD800 && u <= 0xDBFF then begin
            if peek st = Some '\\' then advance st
            else fail st "unpaired surrogate";
            if peek st = Some 'u' then advance st
            else fail st "unpaired surrogate";
            let lo = hex4 st in
            if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate";
            add_utf8 buf
              (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if u >= 0xDC00 && u <= 0xDFFF then fail st "unpaired surrogate"
          else add_utf8 buf u
        | _ -> fail st "invalid escape"));
      loop ()
    | Some c when Char.code c < 0x20 -> fail st "raw control byte in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_while pred =
    let rec go () =
      match peek st with
      | Some c when pred c ->
        advance st;
        go ()
      | _ -> ()
    in
    go ()
  in
  if peek st = Some '-' then advance st;
  consume_while (function '0' .. '9' -> true | _ -> false);
  if peek st = Some '.' then begin
    advance st;
    consume_while (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let token = String.sub st.s start (st.pos - start) in
  match float_of_string_opt token with
  | Some v -> v
  | None -> fail st (Printf.sprintf "invalid number %S" token)

let rec parse_value st depth =
  if depth > max_depth then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ()
        | Some '}' -> advance st
        | _ -> fail st "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st (depth + 1) in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements ()
        | Some ']' -> advance st
        | _ -> fail st "expected ',' or ']'"
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st 0 with
  | v ->
    skip_ws st;
    if st.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
  | exception Fail msg -> Error msg

(* Printer. *)

let escape_into buf s =
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
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* 2^53: the largest power of two below which every integer is exact in
   float64 and %.0f prints it verbatim. *)
let max_exact_int = 9007199254740992.0

let number_to_string v =
  if not (Float.is_finite v) then
    invalid_arg "Json.to_string: non-finite number";
  if Float.is_integer v && Float.abs v < max_exact_int then
    Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.17g" v in
    (* %.17g always round-trips float64; it never emits 'inf'/'nan' here
       because non-finite values were rejected above. *)
    s

let to_string v =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num v -> Buffer.add_string buf (number_to_string v)
    | Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit v)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          emit v)
        fields;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf

let to_string_pretty root =
  let buf = Buffer.create 4096 in
  let pad depth = Buffer.add_string buf (String.make (2 * depth) ' ') in
  let block depth opening closing emit_item items =
    Buffer.add_string buf opening;
    Buffer.add_char buf '\n';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (depth + 1);
        emit_item item)
      items;
    Buffer.add_char buf '\n';
    pad depth;
    Buffer.add_string buf closing
  in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num v -> Buffer.add_string buf (number_to_string v)
    | Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items -> block depth "[" "]" (emit (depth + 1)) items
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      block depth "{" "}"
        (fun (k, v) ->
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\": ";
          emit (depth + 1) v)
        fields
  in
  emit 0 root;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Num a, Num b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Str a, Str b -> String.equal a b
  | Arr a, Arr b -> List.equal equal a b
  | Obj a, Obj b ->
    List.equal (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb) a b
  | _ -> false

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
