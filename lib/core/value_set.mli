(** Predicate and object vocabularies of arcs.

    An arc of a regular shape expression is written [vp → vo] with
    [vp ⊆ Vp] a set of predicates and [vo ⊆ Vo] a set of objects (§4).
    The paper's examples use finite enumerations ([{1, 2}]) and
    datatype subsets of the literals ([xsd:integer], Example 6); the
    ShEx surface language adds node kinds, IRI stems and unions, all of
    which this module represents with a decidable membership test. *)

(** Sets of predicates. *)
type pred =
  | Pred of Rdf.Iri.t          (** singleton — the common case *)
  | Pred_in of Rdf.Iri.t list  (** finite enumeration *)
  | Pred_stem of string        (** every predicate IRI starting with the stem *)
  | Pred_any                   (** all of Vp *)
  | Pred_compl of pred list
      (** complement of a union — the predicates matched by {e none}
          of the listed sets.  Used to desugar open shapes: an open
          shape tolerates arcs whose predicate is mentioned by none of
          its constraints (see {!Rse.open_up}). *)

(** Node kinds, the coarse classification of Vo. *)
type kind = Iri_kind | Bnode_kind | Literal_kind | Non_literal_kind

(** Sets of objects. *)
type obj =
  | Obj_any                       (** all of Vo — ShExC's [.] *)
  | Obj_in of Rdf.Term.t list     (** finite value set, e.g. [{1, 2}] *)
  | Obj_datatype of Rdf.Xsd.primitive
      (** well-formed literals of a recognised XSD datatype
          (the paper's “[xsd:int] … as subsets of L”, Example 6) *)
  | Obj_datatype_iri of Rdf.Iri.t
      (** literals of an unrecognised datatype, by datatype IRI only *)
  | Obj_kind of kind
  | Obj_stem of string            (** IRIs starting with the stem *)
  | Obj_or of obj list            (** union *)
  | Obj_not of obj                (** complement w.r.t. Vo *)

val pred_mem : pred -> Rdf.Iri.t -> bool
(** [p ∈ vp]. *)

val obj_mem : obj -> Rdf.Term.t -> bool
(** [o ∈ vo]. *)

val pred_iri : string -> pred
(** [pred_iri s] — singleton predicate set from an IRI string. *)

val obj_terms : Rdf.Term.t list -> obj
(** Finite value set. *)

val xsd_integer : obj
val xsd_string : obj

val pred_equal : pred -> pred -> bool
val obj_equal : obj -> obj -> bool

val pred_compare : pred -> pred -> int
val obj_compare : obj -> obj -> int
(** Structural total orders, consistent with {!pred_equal} /
    {!obj_equal}: [compare a b = 0 ⇔ equal a b].  {!Rse}'s ACI
    normalisation and the analysis visited-set depend on this
    coincidence. *)

val pred_members : pred -> Rdf.Iri.t list option
(** The finite enumeration when the set is one ([Pred], [Pred_in]);
    [None] for stems, wildcards and complements. *)

val pred_disjoint : pred -> pred -> bool
(** Sound (possibly incomplete) syntactic disjointness test: [true]
    guarantees no predicate belongs to both sets.  Used by the SORBE
    analysis to ensure each triple can match at most one arc. *)

val pp_pred : Format.formatter -> pred -> unit
val pp_obj : Format.formatter -> obj -> unit
