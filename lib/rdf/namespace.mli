(** Prefix management and well-known vocabularies.

    Turtle documents and ShExC schemas abbreviate IRIs as prefixed
    names ([foaf:age]).  A {!t} maps prefixes to namespace IRIs and can
    expand prefixed names or shrink full IRIs back for printing. *)

type t

val empty : t

val add : string -> string -> t -> t
(** [add prefix namespace t] binds [prefix] (without the colon) to the
    namespace IRI text.  Rebinding replaces the old binding, as a later
    [@prefix] directive does in Turtle. *)

val find : string -> t -> string option
(** Namespace bound to a prefix, if any. *)

val expand_pname : t -> string -> string -> (Iri.t, string) result
(** [expand_pname t prefix local] looks [prefix] up and concatenates
    [local] to its namespace: the one expansion of prefixed names
    shared by the Turtle, ShExC and SPARQL parsers and shape maps.
    Errors on an unbound prefix; otherwise {!Iri.of_string}'s result. *)

val expand : t -> string -> (Iri.t, string) result
(** [expand t "foaf:age"] splits at the first colon and calls
    {!expand_pname}.  Errors on unbound prefixes or a missing colon. *)

val shrink : t -> Iri.t -> string option
(** [shrink t iri] finds the longest bound namespace that prefixes
    [iri] and renders it as [prefix:local], provided the local part is
    a safe PN_LOCAL (letters, digits, [_], [-], [.] not at the ends). *)

val bindings : t -> (string * string) list
(** All (prefix, namespace) pairs, sorted by prefix. *)

val default : t
(** Bindings for [rdf], [rdfs], [xsd], [owl], [foaf], [schema], [ex]
    and the empty prefix (bound to [http://example.org/]). *)

(** Full IRIs of the vocabularies used throughout the library and the
    paper's examples. *)
module Vocab : sig
  val rdf : string -> Iri.t      (** e.g. [rdf "type"] *)

  val rdfs : string -> Iri.t
  val xsd : string -> Iri.t
  val foaf : string -> Iri.t
  val ex : string -> Iri.t       (** [http://example.org/…] *)

  val rdf_type : Iri.t
  val rdf_first : Iri.t
  val rdf_rest : Iri.t
  val rdf_nil : Iri.t
end
