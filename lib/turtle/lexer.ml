type token =
  | Iriref of string
  | Pname of string * string
  | Blank_label of string
  | Anon
  | String_lit of string
  | Langtag of string
  | Integer_lit of string
  | Decimal_lit of string
  | Double_lit of string
  | Kw_a
  | Kw_true
  | Kw_false
  | At_prefix
  | At_base
  | Kw_prefix
  | Kw_base
  | Dot
  | Semicolon
  | Comma
  | Lbracket
  | Rbracket
  | Lparen
  | Rparen
  | Caret_caret
  | Eof

type located = { token : token; line : int; col : int }

exception Error of string * int * int

(* The scanner reads from a sliding byte window refilled on demand, so
   tokenizing a channel never materialises the source: peak memory is
   the window (64 KiB) however large the document.  Every decision
   point below needs at most [max_lookahead] bytes (the longest
   keyword probe, "prefix" plus its boundary character), so a refill
   that tops the window up whenever fewer remain preserves the exact
   semantics of the old whole-string scanner. *)
type state = {
  refill : bytes -> int -> int -> int;
      (* [refill buf off len] reads ≤ len bytes at off; 0 = EOF *)
  buf : bytes;
  mutable len : int;  (* valid bytes in [buf] *)
  mutable pos : int;  (* cursor into [buf] *)
  mutable eof : bool;  (* the refill function is exhausted *)
  mutable line : int;
  mutable col : int;
}

let max_lookahead = 8
let window_size = 65536

(* Guarantee [k] readable bytes at [pos] (or EOF): compact the window
   and refill.  No token construct keeps absolute positions across
   [ensure] calls, so sliding the buffer is invisible above. *)
let ensure st k =
  if st.len - st.pos < k && not st.eof then begin
    let rem = st.len - st.pos in
    Bytes.blit st.buf st.pos st.buf 0 rem;
    st.pos <- 0;
    st.len <- rem;
    let cap = Bytes.length st.buf in
    let continue = ref true in
    while !continue && st.len < cap do
      let n = st.refill st.buf st.len (cap - st.len) in
      if n = 0 then begin
        st.eof <- true;
        continue := false
      end
      else begin
        st.len <- st.len + n;
        if st.len - st.pos >= k then continue := false
      end
    done
  end

(* Lookahead is int-coded: the byte [i] places past the cursor, or
   [-1] at end of input.  (A [char option] costs a fresh [Some] box per
   byte without flambda.) *)
let peek_at st i =
  if st.pos + i >= st.len then ensure st (i + 1);
  if st.pos + i < st.len then Char.code (Bytes.unsafe_get st.buf (st.pos + i))
  else -1

let peek st = peek_at st 0
let code = Char.code

(* Step over one byte of any kind.  LF ends a line; so does a bare CR
   (classic-Mac or mixed-EOL input), while in a CRLF pair only the LF
   counts. *)
let advance st =
  let c = peek st in
  if c = code '\n' || (c = code '\r' && peek_at st 1 <> code '\n') then begin
    st.line <- st.line + 1;
    st.col <- 1
  end
  else if c >= 0 then st.col <- st.col + 1;
  if st.pos < st.len then st.pos <- st.pos + 1

(* Step over [n] bytes already seen in the window, none a line break. *)
let skip st n =
  st.pos <- st.pos + n;
  st.col <- st.col + n

let error st msg = raise (Error (msg, st.line, st.col))
let position st = (st.line, st.col)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* Byte classes, one bit each.  A stretch of a token body is found as a
   maximal run of its class inside the window and copied in one go. *)
let iri_body = 1  (* anything but '>', '\\' and whitespace *)
let dquote_body = 2  (* anything but '"', '\\' and line breaks *)
let squote_body = 4  (* anything but '\'', '\\' and line breaks *)
let comment_body = 8  (* anything but line breaks *)
let pn_chars = 16  (* letters, digits, '_', '-', bytes ≥ 0x80 *)
let local_plain = 32  (* [pn_chars] and ':' *)
let lang_chars = 64  (* letters, digits, '-' *)
let blank = 128  (* ' ' and '\t' *)
let digit = 256

let classes =
  Array.init 256 (fun i ->
      let c = Char.chr i in
      let letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
      let is_digit = c >= '0' && c <= '9' in
      let line_break = c = '\n' || c = '\r' in
      let pn = letter || is_digit || c = '_' || c = '-' || i >= 0x80 in
      let bit b m = if b then m else 0 in
      bit (not (c = '>' || c = '\\' || c = ' ' || c = '\t' || line_break))
        iri_body
      lor bit (not (c = '"' || c = '\\' || line_break)) dquote_body
      lor bit (not (c = '\'' || c = '\\' || line_break)) squote_body
      lor bit (not line_break) comment_body
      lor bit pn pn_chars
      lor bit (pn || c = ':') local_plain
      lor bit (letter || is_digit || c = '-') lang_chars
      lor bit (c = ' ' || c = '\t') blank
      lor bit is_digit digit)

let is_pn_chars_base c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || Char.code c >= 0x80

(* Is byte code [c] (possibly -1) in class [mask]? *)
let is_in mask c = c >= 0 && Array.unsafe_get classes c land mask <> 0

(* Length of the [mask] run at the cursor, stopping at the window end. *)
let run st mask =
  let buf = st.buf and len = st.len in
  let i = ref st.pos in
  while
    !i < len
    && Array.unsafe_get classes (Char.code (Bytes.unsafe_get buf !i)) land mask
       <> 0
  do
    incr i
  done;
  !i - st.pos

(* The byte [n] past the cursor if it is in the window, else -1. *)
let window_byte st n =
  if st.pos + n < st.len then Char.code (Bytes.unsafe_get st.buf (st.pos + n))
  else -1

(* The [n] run bytes at the cursor, stepped over. *)
let take st n =
  let s = Bytes.sub_string st.buf st.pos n in
  skip st n;
  s

let add_run buf st n =
  Buffer.add_subbytes buf st.buf st.pos n;
  skip st n

(* A [mask] run that may cross window refills. *)
let read_run st mask =
  let buf = Buffer.create 16 in
  while is_in mask (peek st) do
    add_run buf st (run st mask)
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Escapes                                                             *)
(* ------------------------------------------------------------------ *)

(* Encode a Unicode scalar value as UTF-8 into the buffer. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex_value st c =
  match Char.unsafe_chr c with
  | '0' .. '9' -> c - code '0'
  | 'a' .. 'f' -> c - code 'a' + 10
  | 'A' .. 'F' -> c - code 'A' + 10
  | ch -> error st (Printf.sprintf "invalid hex digit %C" ch)

(* Called just past "\u" or "\U".  The value must be a Unicode scalar
   value: [add_utf8] cannot encode one past U+10FFFF and surrogates are
   no characters.  A bad one is reported at its backslash, which lies
   two bytes back on this line. *)
let read_unicode_escape st n buf =
  let line = st.line and col = st.col - 2 in
  let cp = ref 0 in
  for _ = 1 to n do
    let c = peek st in
    if c < 0 then error st "unterminated \\u escape";
    cp := (!cp * 16) + hex_value st c;
    skip st 1
  done;
  if !cp > 0x10FFFF || (!cp >= 0xD800 && !cp <= 0xDFFF) then
    raise
      (Error
         (Printf.sprintf "U+%04X is not a Unicode scalar value" !cp, line, col));
  add_utf8 buf !cp

(* Escapes shared by strings; IRIs only allow \u / \U. *)
let read_string_escape st buf =
  let c = peek st in
  if c < 0 then error st "unterminated escape";
  match Char.unsafe_chr c with
  | 'u' -> skip st 1; read_unicode_escape st 4 buf
  | 'U' -> skip st 1; read_unicode_escape st 8 buf
  | ch ->
      let decoded =
        match ch with
        | 'n' -> '\n'
        | 't' -> '\t'
        | 'r' -> '\r'
        | 'b' -> '\b'
        | 'f' -> '\012'
        | '"' | '\'' | '\\' -> ch
        | _ -> error st (Printf.sprintf "invalid escape \\%c" ch)
      in
      skip st 1;
      Buffer.add_char buf decoded

(* ------------------------------------------------------------------ *)
(* Token bodies                                                        *)
(* ------------------------------------------------------------------ *)

(* IRIREF and short-string readers first scan their body as one run in
   the window.  A run ending at its terminator is copied once; anything
   else — an escape, an error, the window's end — copies the run into a
   [Buffer] and goes on byte by byte, refilling as it needs.  Names,
   language tags and numbers always build their token in a [Buffer]. *)

let read_iriref st =
  skip st 1; (* '<' *)
  let n = run st iri_body in
  if window_byte st n = code '>' then begin
    let iri = take st n in
    skip st 1;
    iri
  end
  else begin
    let buf = Buffer.create (n + 32) in
    add_run buf st n;
    let rec go () =
      let c = peek st in
      if c < 0 then error st "unterminated IRI"
      else
        match Char.unsafe_chr c with
        | '>' -> skip st 1; Buffer.contents buf
        | '\\' ->
            skip st 1;
            let e = peek st in
            if e = code 'u' then begin skip st 1; read_unicode_escape st 4 buf end
            else if e = code 'U' then begin skip st 1; read_unicode_escape st 8 buf end
            else error st "only \\u/\\U escapes are allowed in IRIs";
            go ()
        | ' ' | '\t' | '\r' | '\n' -> error st "whitespace in IRI"
        | _ -> add_run buf st (run st iri_body); go ()
    in
    go ()
  end

(* In a long string a run of k ≥ 3 quotes means k−3 content quotes
   followed by the terminator (greedy per the Turtle grammar); runs of
   1–2 quotes are content.  Line breaks are content too. *)
let read_long_string st quote body buf =
  let q = code quote in
  let rec go () =
    let c = peek st in
    if c < 0 then error st "unterminated string"
    else if c = q then begin
      let quotes = ref 0 in
      while peek st = q do
        incr quotes;
        skip st 1
      done;
      for _ = 1 to (if !quotes >= 3 then !quotes - 3 else !quotes) do
        Buffer.add_char buf quote
      done;
      if !quotes >= 3 then Buffer.contents buf else go ()
    end
    else
      match Char.unsafe_chr c with
      | '\\' -> skip st 1; read_string_escape st buf; go ()
      | ('\n' | '\r') as ch -> advance st; Buffer.add_char buf ch; go ()
      | _ -> add_run buf st (run st body); go ()
  in
  go ()

(* Quoted strings: short "..."/'...' and long """...""" / '''...'''. *)
let read_string st quote =
  skip st 1; (* first quote *)
  let q = code quote in
  let body = if quote = '"' then dquote_body else squote_body in
  if peek st = q && peek_at st 1 = q then begin
    skip st 2;
    read_long_string st quote body (Buffer.create 64)
  end
  else
    let n = run st body in
    if window_byte st n = q then begin
      let s = take st n in
      skip st 1;
      s
    end
    else begin
      let buf = Buffer.create (n + 32) in
      add_run buf st n;
      let rec go () =
        let c = peek st in
        if c < 0 then error st "unterminated string"
        else if c = q then begin skip st 1; Buffer.contents buf end
        else
          match Char.unsafe_chr c with
          | '\\' -> skip st 1; read_string_escape st buf; go ()
          | '\n' | '\r' -> error st "newline in string"
          | _ -> add_run buf st (run st body); go ()
      in
      go ()
    end

(* PN_LOCAL: letters, digits, '_', '-', '.', ':', '%XX' and \-escaped
   punctuation.  Trailing dots belong to the statement terminator. *)
let read_pn_local st =
  let buf = Buffer.create 16 in
  let rec go () =
    let c = peek st in
    if c < 0 then Buffer.contents buf
    else
      match Char.unsafe_chr c with
      | '.' ->
          (* Only take the dot if a local character follows. *)
          let c2 = peek_at st 1 in
          if is_in local_plain c2 || c2 = code '.' || c2 = code '%' then begin
            skip st 1;
            Buffer.add_char buf '.';
            go ()
          end
          else Buffer.contents buf
      | '%' ->
          let h1 = peek_at st 1 and h2 = peek_at st 2 in
          if h1 < 0 || h2 < 0 then error st "truncated %-escape in local name";
          (* The two bytes are not checked to be hex digits and may even
             be line breaks, hence [advance]. *)
          advance st; advance st; advance st;
          Buffer.add_char buf '%';
          Buffer.add_char buf (Char.unsafe_chr h1);
          Buffer.add_char buf (Char.unsafe_chr h2);
          go ()
      | '\\' -> (
          skip st 1;
          let e = peek st in
          if e < 0 then error st "invalid local name escape";
          match Char.unsafe_chr e with
          | ( '_' | '~' | '.' | '-' | '!' | '$' | '&' | '\'' | '(' | ')'
            | '*' | '+' | ',' | ';' | '=' | '/' | '?' | '#' | '@' | '%' ) as ch
            ->
              skip st 1;
              Buffer.add_char buf ch;
              go ()
          | _ -> error st "invalid local name escape")
      | _ when is_in local_plain c ->
          add_run buf st (run st local_plain);
          go ()
      | _ -> Buffer.contents buf
  in
  go ()

let read_pn_prefix st =
  let buf = Buffer.create 8 in
  let rec go () =
    let c = peek st in
    if c = code '.' then begin
      let c2 = peek_at st 1 in
      if is_in pn_chars c2 || c2 = code '.' then begin
        skip st 1;
        Buffer.add_char buf '.';
        go ()
      end
      else Buffer.contents buf
    end
    else if is_in pn_chars c then begin
      add_run buf st (run st pn_chars);
      go ()
    end
    else Buffer.contents buf
  in
  go ()

(* After '@': the tag itself. *)
let read_langtag st =
  let tag = read_run st lang_chars in
  if tag = "" then error st "empty language tag" else tag

(* At "_:". *)
let read_blank_label st =
  skip st 2;
  let label = read_pn_local st in
  if label = "" then error st "empty blank node label" else label

(* Numbers: [+-]? digits ('.' digits)? ([eE] [+-]? digits)?, where the
   '.' joins only when a digit follows it. *)
let read_number st =
  let buf = Buffer.create 16 in
  let take () =
    Buffer.add_char buf (Char.unsafe_chr (peek st));
    skip st 1
  in
  let is_sign c = c = code '+' || c = code '-' in
  let rec digits () = if is_in digit (peek st) then begin take (); digits () end in
  if is_sign (peek st) then take ();
  digits ();
  let decimal = peek st = code '.' && is_in digit (peek_at st 1) in
  if decimal then begin take (); digits () end;
  let e = peek st in
  let exponent = e = code 'e' || e = code 'E' in
  if exponent then begin
    take ();
    if is_sign (peek st) then take ();
    digits ()
  end;
  let s = Buffer.contents buf in
  if exponent then Double_lit s
  else if decimal then Decimal_lit s
  else if s = "" || s = "+" || s = "-" then error st "malformed number"
  else Integer_lit s

let keyword_at st kw =
  (* Case-insensitive match of a bare word at the current position.
     Needs length kw + 1 bytes of lookahead (the boundary check) —
     bounded by [max_lookahead] for every keyword we probe. *)
  let n = String.length kw in
  assert (n < max_lookahead);
  let i = ref 0 in
  while
    !i < n
    &&
    let c = peek_at st !i in
    c >= 0
    && Char.lowercase_ascii (Char.unsafe_chr c) = Char.lowercase_ascii kw.[!i]
  do
    incr i
  done;
  !i = n && not (is_in local_plain (peek_at st n))

let consume_word st kw = skip st (String.length kw)

(* Whitespace and comments.  A comment ends at LF or at a bare CR:
   stopping only at LF made a CR-terminated comment swallow the rest of
   the document's data on CR-only line endings. *)
let skip_blank st =
  let continue = ref true in
  while !continue do
    let c = peek st in
    if is_in blank c then skip st (run st blank)
    else if c = code '\n' || c = code '\r' then advance st
    else if c = code '#' then begin
      skip st (run st comment_body);
      while st.pos = st.len && not st.eof do
        ensure st 1;
        skip st (run st comment_body)
      done
    end
    else continue := false
  done

let next_token st =
  skip_blank st;
  let line = st.line and col = st.col in
  let c = peek st in
  let tok =
    if c < 0 then Eof
    else
      match Char.unsafe_chr c with
      | '<' -> Iriref (read_iriref st)
      | ('"' | '\'') as quote -> String_lit (read_string st quote)
      | '.' ->
          if is_in digit (peek_at st 1) then read_number st
          else begin skip st 1; Dot end
      | ';' -> skip st 1; Semicolon
      | ',' -> skip st 1; Comma
      | '[' ->
          (* [[]] (ANON) is recognised by the parser from Lbracket
             Rbracket: deciding it here would need unbounded lookahead
             past whitespace, which a streaming window cannot give. *)
          skip st 1;
          Lbracket
      | ']' -> skip st 1; Rbracket
      | '(' -> skip st 1; Lparen
      | ')' -> skip st 1; Rparen
      | '^' ->
          skip st 1;
          if peek st = code '^' then begin skip st 1; Caret_caret end
          else error st "expected ^^"
      | '@' ->
          skip st 1;
          if keyword_at st "prefix" then begin consume_word st "prefix"; At_prefix end
          else if keyword_at st "base" then begin consume_word st "base"; At_base end
          else Langtag (read_langtag st)
      | '_' ->
          if peek_at st 1 = code ':' then Blank_label (read_blank_label st)
          else error st "expected _: for blank node"
      | '+' | '-' | '0' .. '9' -> read_number st
      | ':' ->
          skip st 1;
          Pname ("", read_pn_local st)
      | ch when is_pn_chars_base ch ->
          if keyword_at st "a" then begin consume_word st "a"; Kw_a end
          else if keyword_at st "true" then begin consume_word st "true"; Kw_true end
          else if keyword_at st "false" then begin consume_word st "false"; Kw_false end
          else if keyword_at st "prefix" then begin consume_word st "prefix"; Kw_prefix end
          else if keyword_at st "base" then begin consume_word st "base"; Kw_base end
          else begin
            let prefix = read_pn_prefix st in
            if peek st = code ':' then begin
              skip st 1;
              Pname (prefix, read_pn_local st)
            end
            else error st (Printf.sprintf "expected ':' after %S" prefix)
          end
      | ch -> error st (Printf.sprintf "unexpected character %C" ch)
  in
  { token = tok; line; col }

type stream = state

let no_refill _ _ _ = 0

let stream_of_string src =
  (* The whole string is the window; the refill function is never
     consulted.  One copy, same complexity as the old scanner. *)
  { refill = no_refill;
    buf = Bytes.of_string src;
    len = String.length src;
    pos = 0;
    eof = true;
    line = 1;
    col = 1 }

let stream_of_channel ic =
  { refill = (fun buf off len -> In_channel.input ic buf off len);
    buf = Bytes.create window_size;
    len = 0;
    pos = 0;
    eof = false;
    line = 1;
    col = 1 }

let next st = next_token st

let tokenize src =
  let st = stream_of_string src in
  let rec go acc =
    let t = next_token st in
    if t.token = Eof then List.rev (t :: acc) else go (t :: acc)
  in
  go []
