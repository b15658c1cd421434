type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

let int n = Number (float_of_int n)

let find key = function
  | Object members -> List.assoc_opt key members
  | Null | Bool _ | Number _ | String _ | Array _ -> None

let as_string = function String s -> Some s | _ -> None

let as_int = function
  | Number f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let find_string key t = Option.bind (find key t) as_string
let find_int key t = Option.bind (find key t) as_int

let find_list key t =
  match find key t with Some (Array xs) -> Some xs | _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

(* Strings are written straight into the output buffer: unescaped runs
   are copied with one [Buffer.add_substring] each, and only the bytes
   that need an escape are handled one at a time. *)
let hex = "0123456789abcdef"

let add_escaped buf s =
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s !run (i - !run);
        run := i + 1;
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex.[Char.code c lsr 4];
            Buffer.add_char buf hex.[Char.code c land 15])
    | _ -> ()
  done;
  Buffer.add_substring buf s !run (String.length s - !run)

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* JSON has no literal for infinities or NaN, so a non-finite number is
   written as [null]. *)
let number_text f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let spaces = String.make 64 ' '

let rec add_spaces buf n =
  if n <= String.length spaces then Buffer.add_substring buf spaces 0 n
  else begin
    Buffer.add_string buf spaces;
    add_spaces buf (n - String.length spaces)
  end

let newline ~minify buf level =
  if not minify then begin
    Buffer.add_char buf '\n';
    add_spaces buf (2 * level)
  end

let rec write ~minify ~indent buf t =
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Number f -> Buffer.add_string buf (number_text f)
  | String s -> add_quoted buf s
  | Array [] -> Buffer.add_string buf "[]"
  | Array items ->
      Buffer.add_char buf '[';
      write_items ~minify ~indent buf items;
      newline ~minify buf indent;
      Buffer.add_char buf ']'
  | Object [] -> Buffer.add_string buf "{}"
  | Object members ->
      Buffer.add_char buf '{';
      write_members ~minify ~indent buf members;
      newline ~minify buf indent;
      Buffer.add_char buf '}'

(* Container bodies are written by plain recursion over the list (no
   closure per container); [indent] is the container's own level. *)
and write_items ~minify ~indent buf = function
  | [] -> ()
  | item :: rest ->
      newline ~minify buf (indent + 1);
      write ~minify ~indent:(indent + 1) buf item;
      (match rest with [] -> () | _ :: _ -> Buffer.add_char buf ',');
      write_items ~minify ~indent buf rest

and write_members ~minify ~indent buf = function
  | [] -> ()
  | (key, value) :: rest ->
      newline ~minify buf (indent + 1);
      add_quoted buf key;
      Buffer.add_string buf (if minify then ":" else ": ");
      write ~minify ~indent:(indent + 1) buf value;
      (match rest with [] -> () | _ :: _ -> Buffer.add_char buf ',');
      write_members ~minify ~indent buf rest

let to_string ?(minify = false) t =
  let buf = Buffer.create 256 in
  write ~minify ~indent:0 buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Atomic file output: write to a temporary file in the destination
   directory (same filesystem, so the rename is atomic) and rename
   over the target.  An interrupted writer leaves the old file — or
   no file — never a truncated one. *)
let write_file_atomic path content =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc content)
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let to_file ?minify path t = write_file_atomic path (to_string ?minify t)

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Error of string * int * int

type state = { src : string; mutable pos : int; mutable line : int;
               mutable col : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let error st msg = raise (Error (msg, st.line, st.col))

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> error st (Printf.sprintf "expected %C" c)

let literal st word value =
  String.iter (fun c -> expect st c) word;
  value

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c when c >= '0' && c <= '9' ->
        v := (!v * 16) + Char.code c - Char.code '0'
    | Some c when c >= 'a' && c <= 'f' ->
        v := (!v * 16) + Char.code c - Char.code 'a' + 10
    | Some c when c >= 'A' && c <= 'F' ->
        v := (!v * 16) + Char.code c - Char.code 'A' + 10
    | _ -> error st "invalid \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        let line = st.line and col = st.col in
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some 'u' ->
            advance st;
            let cp = parse_hex4 st in
            (* Surrogate pairs for astral characters: a high half must be
               followed by a low half, and a low half on its own encodes
               nothing (its UTF-8 bytes would not be valid UTF-8). *)
            let cp =
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                let line = st.line and col = st.col in
                expect st '\\';
                expect st 'u';
                let low = parse_hex4 st in
                if low < 0xDC00 || low > 0xDFFF then
                  raise
                    (Error
                       ( Printf.sprintf
                           "high surrogate \\u%04x must be followed by a \
                            low surrogate, not \\u%04x"
                           cp low,
                         line,
                         col ));
                0x10000 + ((cp - 0xD800) lsl 10) + (low - 0xDC00)
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                raise
                  (Error
                     ( Printf.sprintf "lone low surrogate \\u%04x" cp,
                       line,
                       col ))
              else cp
            in
            if cp >= 0x10000 then begin
              Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
              Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
            end
            else add_utf8 buf cp;
            go ()
        | _ -> error st "invalid escape")
    | Some c when Char.code c < 0x20 -> error st "control character in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos and line = st.line and col = st.col in
  let take_while pred =
    let rec go () =
      match peek st with
      | Some c when pred c -> advance st; go ()
      | _ -> ()
    in
    go ()
  in
  if peek st = Some '-' then advance st;
  take_while (fun c -> c >= '0' && c <= '9');
  if peek st = Some '.' then begin
    advance st;
    take_while (fun c -> c >= '0' && c <= '9')
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      take_while (fun c -> c >= '0' && c <= '9')
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f when Float.is_finite f -> Number f
  | Some _ ->
      raise
        (Error (Printf.sprintf "number %s is out of range" text, line, col))
  | None -> error st (Printf.sprintf "malformed number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin advance st; Object [] end
      else
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let value = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, value) :: acc)
          | Some '}' ->
              advance st;
              Object (List.rev ((key, value) :: acc))
          | _ -> error st "expected , or }"
        in
        members []
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin advance st; Array [] end
      else
        let rec items acc =
          let value = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (value :: acc)
          | Some ']' ->
              advance st;
              Array (List.rev (value :: acc))
          | _ -> error st "expected , or ]"
        in
        items []
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %C" c)

let of_string src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  match
    let v = parse_value st in
    skip_ws st;
    (v, peek st)
  with
  | v, None -> Ok v
  | _, Some c ->
      Error
        (Printf.sprintf "trailing content at %d:%d (%C)" st.line st.col c)
  | exception Error (msg, line, col) ->
      Error (Printf.sprintf "JSON error at %d:%d: %s" line col msg)

let of_string_exn src =
  match of_string src with Ok v -> v | Error msg -> failwith msg
