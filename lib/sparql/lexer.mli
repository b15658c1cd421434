(** Lexer for the SPARQL fragment accepted by {!Parse}.

    Terms are read through {!Turtle.Lexer}'s scanners: IRIs, prefixed
    names, blank-node labels ([Pname ("_", label)]), language tags, the
    four string forms and numbers follow Turtle's productions, escapes
    included. *)

type token =
  | Iriref of string
  | Pname of string * string
  | Var of string            (** [?x] or [$x], sigil stripped *)
  | String_lit of string
  | Langtag of string
  | Integer_lit of string
  | Decimal_lit of string
  | Double_lit of string
  | Kw of string             (** keyword, uppercased: SELECT, ASK, … *)
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
  | Amp_amp                  (** [&&] *)
  | Pipe_pipe                (** [||] *)
  | Bang
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | Eof

type located = { token : token; line : int; col : int }

exception Error of string * int * int
(** {!Turtle.Lexer.Error}: [(message, line, col)], 1-based. *)

val tokenize : string -> located list
