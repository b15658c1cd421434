(** Hand-written lexer for the Turtle family of RDF syntaxes
    (Turtle, N-Triples).

    Produces a stream of located tokens.  String literals are decoded
    (escape sequences resolved to UTF-8); IRIs and prefixed names are
    kept textual for the parser to resolve. *)

type token =
  | Iriref of string        (** [<...>], brackets stripped, \u-decoded *)
  | Pname of string * string
      (** prefixed name, split at the first colon: (prefix, local) *)
  | Blank_label of string   (** [_:label], prefix stripped *)
  | Anon                    (** [[]] — anonymous blank node *)
  | String_lit of string    (** decoded contents of any quote form *)
  | Langtag of string       (** [@en], [@] stripped *)
  | Integer_lit of string
  | Decimal_lit of string
  | Double_lit of string
  | Kw_a                    (** the predicate keyword [a] *)
  | Kw_true
  | Kw_false
  | At_prefix               (** [@prefix] *)
  | At_base                 (** [@base] *)
  | Kw_prefix               (** SPARQL-style [PREFIX] *)
  | Kw_base                 (** SPARQL-style [BASE] *)
  | Dot
  | Semicolon
  | Comma
  | Lbracket
  | Rbracket
  | Lparen
  | Rparen
  | Caret_caret             (** [^^] *)
  | Eof

type located = { token : token; line : int; col : int }

exception Error of string * int * int
(** [Error (message, line, col)] — 1-based positions. *)

type stream
(** A lazy token source over a sliding byte window.  Reading from a
    channel keeps peak memory at the window size (64 KiB) regardless
    of document length; every construct in the grammar needs only
    bounded byte lookahead.  Note that [[]] (ANON) is {e not} produced
    by a stream: the parser recognises it from [Lbracket] [Rbracket]
    (deciding it in the lexer would need unbounded lookahead). *)

val stream_of_string : string -> stream
val stream_of_channel : in_channel -> stream

val next : stream -> located
(** The next token; [Eof] forever once exhausted.  Raises {!Error} on
    malformed input. *)

val tokenize : string -> located list
(** Tokenize a whole document.  Raises {!Error} on malformed input.
    Comments ([# …\n]) and whitespace are skipped.  The result always
    ends with an [Eof] token.  Like a stream, never produces {!Anon}. *)

(** {1 Shared scanners}

    ShExC, SPARQL and shape maps take their term terminals from the
    productions Turtle uses.  Their lexers keep their own token types,
    punctuation and keywords, run on {!stream_of_string}, and read
    every shared terminal through the scanners below, so the same text
    denotes the same term in data, schemas, shape maps and queries.

    Each scanner starts at the cursor, steps over what it reads and
    raises {!Error} at the offending byte on malformed input. *)

val peek : stream -> int
(** The byte at the cursor, or [-1] at end of input. *)

val peek_at : stream -> int -> int
(** [peek_at s i] is the byte [i] places past the cursor, or [-1].
    A channel stream guarantees [i < 8]. *)

val advance : stream -> unit
(** Step over one byte, counting LF and a bare CR as line breaks. *)

val position : stream -> int * int
(** The cursor's 1-based (line, column). *)

val error : stream -> string -> 'a
(** Raise {!Error} with the message at the cursor's position. *)

val skip_blank : stream -> unit
(** Skip spaces, tabs, line breaks and [#] comments. *)

val read_iriref : stream -> string
(** At ['<']: the IRIREF's body, brackets stripped and [\u]/[\U]
    escapes decoded; whitespace is an error. *)

val read_string : stream -> char -> string
(** [read_string s q] at the opening quote [q] (['"'] or ['\'']):
    the short or long ([q q q]) string's decoded contents.  All of
    Turtle's escapes are decoded; [\u]/[\U] must name a Unicode
    scalar value. *)

val read_pn_prefix : stream -> string
(** PN_PREFIX's characters (letters, digits, [_], [-], bytes ≥ 0x80
    and inner dots); the caller checks the first one.  Empty if none
    follow the cursor. *)

val read_pn_local : stream -> string
(** PN_LOCAL after the colon: also [:], [%XX] and [\]-escaped
    punctuation; a trailing dot is left unread. *)

val read_blank_label : stream -> string
(** At ["_:"]: the blank-node label; an empty label is an error. *)

val read_langtag : stream -> string
(** After ['@']: the language tag; an empty tag is an error. *)

val read_number : stream -> token
(** At a sign, a digit or a ['.'] before a digit: an {!Integer_lit},
    {!Decimal_lit} or {!Double_lit}, by whether a ['.'] or an exponent
    is present.  A bare sign or dot is an error. *)
