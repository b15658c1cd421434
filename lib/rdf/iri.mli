(** Internationalized Resource Identifiers.

    IRIs are the primary naming mechanism of RDF.  This module keeps a
    deliberately light representation — a validated string — because RDF
    processing only ever needs syntactic identity, ordering, hashing,
    and resolution of relative references against a base (RFC 3986 §5,
    restricted to the cases that occur in Turtle documents). *)

type t
(** An absolute or relative IRI.  Values are immutable. *)

val of_string : string -> (t, string) result
(** [of_string s] validates [s] as an IRI reference: no characters
    forbidden by Turtle's [IRIREF] production (space, control
    characters, ["<>\"{}|^`\\"]).  Returns [Error msg] otherwise. *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument] on bad input.
    Intended for literal IRIs written in source code. *)

val to_string : t -> string
(** The textual form, exactly as supplied (after resolution, if any). *)

val scheme : t -> string option
(** [scheme iri] is [Some "http"] for [http://…], [None] for relative
    references. *)

val resolve : base:t -> t -> t
(** [resolve ~base ref_] resolves the possibly-relative [ref_] against
    [base] following the RFC 3986 §5.2 transformation (merge + dot
    segment removal).  If [ref_] is absolute it is returned unchanged
    apart from dot-segment normalisation. *)

val of_reference : ?base:t -> string -> (t, string) result
(** [of_reference ?base text] reads the text of an [IRIREF] the way
    the Turtle, ShExC and SPARQL parsers do: {!of_string}, then a
    relative reference is resolved against [base] when there is one.
    An absolute IRI, or any IRI without a base, is {!of_string}'s own
    result. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints in N-Triples angle-bracket form: [<http://…>]. *)
