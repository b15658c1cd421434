(** RDF graphs: finite sets of triples with subject/object indexes.

    This is the paper's Σ (§2).  The operations mirror the paper's
    notation: [add] is the [t o ts] triple addition, {!union} is [⊕]
    (identity-preserving union, not merge), {!out_triples} lists [Σgn]
    (all triples with subject [n]) and {!decompositions} enumerates the
    2ⁿ ordered pairs [(g₁, g₂)] with [g₁ ⊕ g₂ = g] that the
    backtracking matcher of Fig. 1 explores (Example 3).

    Graphs are immutable; every operation returns a new graph sharing
    structure with the old one. *)

type t

val empty : t
val is_empty : t -> bool

val cardinal : t -> int
(** Number of triples. *)

val mem : Triple.t -> t -> bool
val add : Triple.t -> t -> t
val remove : Triple.t -> t -> t
val singleton : Triple.t -> t
val of_list : Triple.t list -> t
val to_list : t -> Triple.t list
(** Triples in increasing {!Triple.compare} order. *)

val of_seq : Triple.t Seq.t -> t

val union : t -> t -> t
(** [⊕]: set union preserving blank node identity. *)

val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

val fold : (Triple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Triple.t -> unit) -> t -> unit
val for_all : (Triple.t -> bool) -> t -> bool
val exists : (Triple.t -> bool) -> t -> bool
val filter : (Triple.t -> bool) -> t -> t

val out_triples : Term.t -> t -> Triple.t list
(** [out_triples n g] is Σgn: the triples of [g] whose subject is [n],
    in {!Triple.compare} order.  An O(log |g|) subject-index lookup,
    then O(|Σgn|) to list the index's set. *)

val in_triples : Term.t -> t -> Triple.t list
(** [in_triples o g]: the triples of [g] whose object is [o], in
    {!Triple.compare} order — the incoming arcs of the inverse-arc
    extension.  Costs as {!out_triples}, through the object index. *)

val objects_of : Term.t -> Iri.t -> t -> Term.t list
(** [objects_of s p g] lists the [o] with ⟨s,p,o⟩ ∈ g, in term order. *)

val subjects : t -> Term.t list
(** Distinct subjects, in term order. *)

val predicates : t -> Iri.t list
(** Distinct predicates, in term order. *)

val nodes : t -> Term.t list
(** Distinct subjects and objects, in term order.  Merges the keys of
    the subject and object indexes, so it costs O(distinct nodes), not
    O(triples). *)

val match_pattern :
  ?s:Term.t -> ?p:Iri.t -> ?o:Term.t -> t -> Triple.t list
(** Triples matching the bound components of the pattern; unbound
    components act as wildcards.  Uses an index when [s] or [o] is
    bound. *)

val decompositions : t -> (t * t) list
(** All ordered pairs [(g₁, g₂)] with [g₁ ⊕ g₂ = g] and [g₁ ∩ g₂ = ∅].
    There are 2ⁿ of them for a graph of n triples (Example 3) — this
    exists only to implement the naïve backtracking baseline; do not
    call it on large graphs. *)

val pp : Format.formatter -> t -> unit
(** One N-Triples-style line per triple. *)
