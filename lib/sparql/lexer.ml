type token =
  | Iriref of string
  | Pname of string * string
  | Var of string
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
  | Dot
  | Semicolon
  | Comma
  | Star
  | Plus
  | Caret_caret
  | Amp_amp
  | Pipe_pipe
  | Bang
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
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

(* Keywords and builtin function names, uppercased. *)
let keywords =
  [ "SELECT"; "ASK"; "WHERE"; "FILTER"; "OPTIONAL"; "UNION"; "PREFIX";
    "BASE"; "GROUP"; "BY"; "HAVING"; "DISTINCT"; "COUNT"; "AS"; "EXISTS";
    "NOT"; "TRUE"; "FALSE"; "A"; "ISIRI"; "ISURI"; "ISLITERAL"; "ISBLANK";
    "DATATYPE"; "BOUND"; "REGEX"; "STR" ]

(* '<' opens an IRI unless the byte after it makes it an operator:
   '=' for '<=', or whatever can only start a comparison operand
   (whitespace, a variable, a number, a string, '(' or the end of
   input) for '<'. *)
let less_than st =
  let c = T.peek_at st 1 in
  if c = code '=' then begin T.advance st; punct st Le end
  else if c < 0 then punct st Lt
  else
    match Char.chr c with
    | ' ' | '\t' | '\r' | '\n' | '?' | '$' | '0' .. '9' | '(' | '"' | '\'' ->
        punct st Lt
    | _ -> Iriref (T.read_iriref st)

(* The byte after a one-byte operator decides between it and its
   two-byte form. *)
let pair st second two one =
  T.advance st;
  if T.peek st = code second then punct st two
  else
    match one with
    | Some tok -> tok
    | None -> T.error st (Printf.sprintf "expected %c%c" second second)

let next_token st =
  T.skip_blank st;
  let line, col = T.position st in
  let c = T.peek st in
  let tok =
    if c < 0 then Eof
    else
      match Char.chr c with
      | '<' -> less_than st
      | '>' -> pair st '=' Ge (Some Gt)
      | ('"' | '\'') as quote -> String_lit (T.read_string st quote)
      | '?' | '$' ->
          (* VARNAME through the PN_PREFIX scanner: letters, digits,
             '_', '-', bytes >= 0x80 and inner dots. *)
          T.advance st;
          let name = T.read_pn_prefix st in
          if name = "" then T.error st "empty variable name" else Var name
      | '{' -> punct st Lbrace
      | '}' -> punct st Rbrace
      | '(' -> punct st Lparen
      | ')' -> punct st Rparen
      | ';' -> punct st Semicolon
      | ',' -> punct st Comma
      | '*' -> punct st Star
      | '+' -> if digit_follows st then number st else punct st Plus
      | '-' | '0' .. '9' -> number st
      | '!' -> pair st '=' Neq (Some Bang)
      | '=' -> punct st Eq
      | '&' -> pair st '&' Amp_amp None
      | '|' -> pair st '|' Pipe_pipe None
      | '^' -> pair st '^' Caret_caret None
      | '@' -> T.advance st; Langtag (T.read_langtag st)
      | '.' -> if digit_follows st then number st else punct st Dot
      | '_' ->
          (* A blank node, resolved by the parser. *)
          if T.peek_at st 1 = code ':' then Pname ("_", T.read_blank_label st)
          else T.error st "expected _: for blank node"
      | ':' | 'A' .. 'Z' | 'a' .. 'z' | '\128' .. '\255' ->
          let word = T.read_pn_prefix st in
          if T.peek st = code ':' then begin
            T.advance st;
            Pname (word, T.read_pn_local st)
          end
          else
            let upper = String.uppercase_ascii word in
            if List.mem upper keywords then Kw upper
            else T.error st (Printf.sprintf "unknown keyword %S" word)
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
