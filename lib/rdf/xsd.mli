(** XML Schema datatypes used by RDF literals.

    The paper treats [xsd:integer] and [xsd:string] as subsets of the
    set of literals (§4, Example 6).  This module supplies the datatype
    IRIs of the XSD namespace together with lexical-space validation
    and value-space parsing for the datatypes that matter to
    validation: booleans, the integer hierarchy, decimals, floating
    point numbers, strings and dates. *)

(** The datatypes we recognise specially.  Every other datatype IRI is
    carried around opaquely by {!Literal}. *)
type primitive =
  | String
  | Boolean
  | Decimal
  | Integer
  | Long
  | Int
  | Short
  | Byte
  | Non_negative_integer
  | Positive_integer
  | Non_positive_integer
  | Negative_integer
  | Unsigned_long
  | Unsigned_int
  | Unsigned_short
  | Unsigned_byte
  | Double
  | Float
  | Date
  | Date_time
  | Time
  | Any_uri
  | Lang_string

val all : primitive list
(** Every primitive, in declaration order. *)

val iri : primitive -> Iri.t
(** The full datatype IRI, e.g. [iri Integer] is
    [http://www.w3.org/2001/XMLSchema#integer].  [Lang_string] maps to
    the RDF namespace ([rdf:langString]).  Built once: a call
    allocates nothing. *)

val of_iri : Iri.t -> primitive option
(** Inverse of {!iri} for the recognised datatypes. *)

val name : primitive -> string
(** Local name, e.g. ["integer"]. *)

val valid_lexical : primitive -> string -> bool
(** [valid_lexical dt s] checks [s] against the lexical space of [dt]
    (e.g. ["+005"] is a valid [Integer], ["1.5"] is not). *)

val is_numeric : primitive -> bool
(** True for the decimal/integer/floating hierarchy. *)

val derived_from_integer : primitive -> bool
(** True for [Integer] and everything derived from it ([Int], [Byte],
    the unsigned types, …). *)

val parse_integer : string -> int option
(** Value-space parse of an integer lexical form (handles leading [+],
    leading zeros).  [None] when out of OCaml [int] range or invalid. *)

val parse_decimal : string -> float option
(** Value-space parse of decimal/double/float lexical forms, including
    [INF], [-INF] and [NaN] for the floating types. *)
