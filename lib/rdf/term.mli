(** RDF terms and the positional vocabularies of the paper's §2.

    With [I] the IRIs, [B] the blank nodes and [L] the literals, the
    paper fixes [Vs = I ∪ B] (subjects), [Vp = I] (predicates) and
    [Vo = I ∪ B ∪ L] (objects).  {!t} is [Vo], {!subject_ok} carves
    out [Vs], and [Vp] is {!Iri.t}. *)

type t =
  | Iri of Iri.t
  | Bnode of Bnode.t
  | Literal of Literal.t

val iri : string -> t
(** [iri s] is [Iri (Iri.of_string_exn s)]. *)

val bnode : string -> t

val str : string -> t
(** Plain-string literal term. *)

val int : int -> t
(** [xsd:integer] literal term. *)

val is_iri : t -> bool
val is_bnode : t -> bool
val is_literal : t -> bool

val subject_ok : t -> bool
(** Member of [Vs = I ∪ B]. *)

val as_literal : t -> Literal.t option

val equal : t -> t -> bool

val value_equal : t -> t -> bool
(** Like {!equal} but numeric literals compare in the value space:
    ["01"^^xsd:integer] equals ["1"^^xsd:integer].  This is the
    relation SPARQL's [=] decides on RDF terms, and the one value-set
    membership ({!Shex.Value_set.obj_mem}) uses so the regular-shape
    engines and the SPARQL translation agree on finite value sets. *)

val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** N-Triples-ish rendering: [<iri>], [_:label] or a quoted literal. *)

val to_string : t -> string

(** Total order over terms, for use with [Map.Make]/[Set.Make]. *)
module Ord : sig
  type nonrec t = t

  val compare : t -> t -> int
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
