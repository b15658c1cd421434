(** RDF literals: a lexical form plus a datatype IRI, and optionally a
    language tag (in which case the datatype is [rdf:langString]). *)

type t

val make : ?lang:string -> ?datatype:Iri.t -> string -> t
(** [make lexical] builds a plain [xsd:string] literal.  Supplying
    [~lang] forces the datatype to [rdf:langString]; supplying
    [~datatype] (and no [~lang]) attaches that datatype.  The lexical
    form is stored verbatim — no value-space canonicalisation. *)

val string : string -> t
(** [string s] is [make s]: a plain string literal. *)

val typed : Xsd.primitive -> string -> t
(** [typed dt lexical] builds a literal with a recognised XSD
    datatype.  The lexical form is not checked here; {!has_datatype}
    checks it. *)

val integer : int -> t
(** [integer 23] is ["23"^^xsd:integer]. *)

val decimal : float -> t
val boolean : bool -> t

val lexical : t -> string
val datatype : t -> Iri.t
val lang : t -> string option

val xsd_primitive : t -> Xsd.primitive option
(** The recognised XSD datatype, when the datatype IRI is one. *)

val has_datatype : t -> Xsd.primitive -> bool
(** [has_datatype l dt] holds when [l]'s datatype is exactly [dt]'s
    IRI {e and} the lexical form is valid for [dt].  This is the
    membership test the paper uses when it treats [xsd:integer] as a
    subset of the literals. *)

val as_int : t -> int option
(** Value-space view for integer-derived literals. *)

val as_float : t -> float option
(** Value-space view for any numeric literal. *)

val as_bool : t -> bool option

val equal : t -> t -> bool
(** Term equality per RDF 1.1: same lexical form, same datatype, same
    language tag (compared case-insensitively). *)

val compare : t -> t -> int
val hash : t -> int

val escape : string -> string
(** Escape a lexical form for emission between double quotes: the
    named backslash escapes for quote, backslash, LF, CR, TAB, BS and
    FF, and [\u00XX] for every other C0 control character and DEL.
    This is the one string-literal writer: {!pp}, the Turtle and
    N-Triples writers and the ShExC printer all call it, and every
    front-end's string scanner decodes its output back to the original
    bytes. *)

val pp : Format.formatter -> t -> unit
(** Turtle form: ["foo"], ["foo"@en], ["23"^^<…#integer>], the lexical
    form written by {!escape}. *)
