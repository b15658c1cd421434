type token =
  | Iriref of string
  | Pname of string * string
  | Blank_label of string
  | At_ref of string
  | At_pname of string * string
  | String_lit of string
  | Langtag of string
  | Integer_lit of string
  | Decimal_lit of string
  | Double_lit of string
  | Kw of string
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Pipe
  | Comma
  | Semicolon
  | Star
  | Plus
  | Question
  | Bang
  | Caret
  | Tilde
  | Dot
  | Caret_caret
  | Eof

type located = { token : token; line : int; col : int }

exception Error = Turtle.Lexer.Error

module T = Turtle.Lexer

let code = Char.code
let punct st tok = T.advance st; tok

let digit_follows st =
  let c = T.peek_at st 1 in
  c >= code '0' && c <= code '9'

let number st =
  match T.read_number st with
  | T.Integer_lit s -> Integer_lit s
  | T.Decimal_lit s -> Decimal_lit s
  | T.Double_lit s -> Double_lit s
  | _ -> assert false (* read_number returns only number tokens *)

(* A prefixed name, or the bare word when no ':' follows its
   PN_PREFIX. *)
let name st =
  let prefix = T.read_pn_prefix st in
  if T.peek st = code ':' then begin
    T.advance st;
    `Pname (prefix, T.read_pn_local st)
  end
  else `Word prefix

let keywords =
  [ "PREFIX"; "BASE"; "IRI"; "BNODE"; "LITERAL"; "NONLITERAL"; "TRUE";
    "FALSE"; "A"; "AND"; "OR"; "NOT"; "CLOSED"; "EXTRA"; "OPEN" ]

(* Turtle's blanks and '#' comments, plus '//' comments to the end of
   the line. *)
let rec skip_blank st =
  T.skip_blank st;
  if T.peek st = code '/' && T.peek_at st 1 = code '/' then begin
    while T.peek st >= 0 && T.peek st <> code '\n' && T.peek st <> code '\r' do
      T.advance st
    done;
    skip_blank st
  end

let next_token st =
  skip_blank st;
  let line, col = T.position st in
  let c = T.peek st in
  let tok =
    if c < 0 then Eof
    else
      match Char.chr c with
      | '<' -> Iriref (T.read_iriref st)
      | ('"' | '\'') as quote -> String_lit (T.read_string st quote)
      | '{' -> punct st Lbrace
      | '}' -> punct st Rbrace
      | '(' -> punct st Lparen
      | ')' -> punct st Rparen
      | '[' -> punct st Lbracket
      | ']' -> punct st Rbracket
      | '|' -> punct st Pipe
      | ',' -> punct st Comma
      | ';' -> punct st Semicolon
      | '*' -> punct st Star
      | '+' -> if digit_follows st then number st else punct st Plus
      | '?' -> punct st Question
      | '!' -> punct st Bang
      | '~' -> punct st Tilde
      | '^' ->
          T.advance st;
          if T.peek st = code '^' then punct st Caret_caret else Caret
      | '@' ->
          T.advance st;
          let c = T.peek st in
          if c = code '<' then At_ref (T.read_iriref st)
          else
            (* A LANGTAG as Turtle reads it, or a reference if a ':' follows. *)
            let line, col = T.position st in
            let tag = if c = code ':' || c >= 0x80 then "" else T.read_langtag st in
            let prefix = tag ^ T.read_pn_prefix st in
            if T.peek st = code ':' then (
              T.advance st;
              At_pname (prefix, T.read_pn_local st))
            else if prefix = tag then Langtag tag
            else raise (Error (Printf.sprintf "invalid language tag %S" prefix, line, col))
      | '.' -> if digit_follows st then number st else punct st Dot
      | '-' | '0' .. '9' -> number st
      | '_' ->
          if T.peek_at st 1 = code ':' then Blank_label (T.read_blank_label st)
          else T.error st "expected _: for blank node"
      | ':' | 'A' .. 'Z' | 'a' .. 'z' | '\128' .. '\255' -> (
          match name st with
          | `Pname (prefix, local) -> Pname (prefix, local)
          | `Word word ->
              let upper = String.uppercase_ascii word in
              if List.mem upper keywords then Kw upper
              else T.error st (Printf.sprintf "unknown keyword %S" word))
      | ch -> T.error st (Printf.sprintf "unexpected character %C" ch)
  in
  { token = tok; line; col }

let tokenize src =
  let st = T.stream_of_string src in
  let rec go acc =
    let t = next_token st in
    if t.token = Eof then List.rev (t :: acc) else go (t :: acc)
  in
  go []
