(** Lexer for the ShEx compact syntax (ShExC).

    Covers the fragment of ShExC the paper uses (Examples 1, 6, 13–14)
    plus the extensions implemented by the core library: prefixes,
    shape labels, triple constraints with cardinalities, value sets,
    node kinds, shape references, inverse ([^]) and negated ([!])
    constraints, and grouping.

    Terms are read through {!Turtle.Lexer}'s scanners: IRIs, prefixed
    names, blank-node labels, the four string forms and numbers follow
    Turtle's productions, escapes included.  Comments are [#] and [//]
    to the end of the line. *)

type token =
  | Iriref of string           (** [<...>] *)
  | Pname of string * string   (** prefixed name (prefix, local) *)
  | Blank_label of string      (** [_:label], prefix stripped *)
  | At_ref of string           (** [@<label>]: the IRI text *)
  | At_pname of string * string  (** [@prefix:local] *)
  | String_lit of string
  | Langtag of string
  | Integer_lit of string
  | Decimal_lit of string
  | Double_lit of string
  | Kw of string
      (** bare keywords, uppercased: [PREFIX], [BASE], [IRI], [BNODE],
          [LITERAL], [NONLITERAL], [TRUE], [FALSE], [A] *)
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Pipe
  | Comma
  | Semicolon
      (** ShEx 2 separates triple constraints with [;]; we accept it as
          a synonym of [,] *)
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

exception Error of string * int * int
(** {!Turtle.Lexer.Error}: [(message, line, col)], 1-based. *)

val tokenize : string -> located list
