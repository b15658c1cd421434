(** Node neighbourhoods as lists of directed triples.

    The paper matches a shape against Σgn, the {e outgoing} triples of
    a node (§2).  The inverse-arc extension (§8, §10) also needs the
    incoming triples, so the matchers consume {e directed} triples: an
    outgoing ⟨n,p,o⟩ or an incoming ⟨s,p,n⟩.  An arc expression only
    matches a triple travelling in its own direction. *)

type dtriple = private {
  triple : Rdf.Triple.t;
  dir : int;
      (** the far node's store id · 2, +1 for an incoming triple
          ⟨s,p,n⟩: one int keeps a directed triple at three words *)
}

val out : Rdf.Triple.t -> dtriple
val inc : Rdf.Triple.t -> dtriple

val inverse : dtriple -> bool

val far : dtriple -> Rdf.Term.t
(** The object of an outgoing triple, the subject of an incoming one. *)

val far_id : dtriple -> int
(** {!far}'s id in the columnar store {!of_id} read the triple from, or
    -1 (any other triple).  It shows in no output, and {!equal} and
    {!compare} ignore it. *)

type ref_check = Label.t -> dtriple -> bool
(** Does the far node of the triple have the shape labelled [l]?  Each
    engine's matcher core asks one, so a caller holding store ids can
    answer by {!far_id} and hash no term. *)

val by_term : (Label.t -> Rdf.Term.t -> bool) -> ref_check
(** Asks about the {!far} term. *)

val of_node :
  ?include_inverse:bool -> Rdf.Term.t -> Rdf.Graph.t -> dtriple list
(** [of_node n g] is Σgn as directed triples, in triple order.  With
    [~include_inverse:true], incoming triples ⟨s,p,n⟩ follow the
    outgoing ones (self-loops appear in both directions).  Reads the
    graph's subject (and object) index through
    {!Rdf.Graph.out_triples} ({!Rdf.Graph.in_triples}): allocation is a
    few words per listed triple, whatever the size of [g]. *)

val of_id : include_inverse:bool -> int -> Rdf.Columnar.t -> dtriple list
(** [of_id ~include_inverse id c] is {!of_node} against a columnar
    store, by the node's store id: the outgoing run is the id's SPO
    slice, the incoming run its OSP slice, each found by two offset
    reads and hashing no term, and each row hands over its {!far_id}.
    An id below 0 or at least [Rdf.Columnar.terms_cardinal c] names no
    node of [c] and reads [[]].  Returns the list {!of_node} returns
    on [Rdf.Columnar.to_graph c] (canonical ids make slice order triple
    order). *)

val of_columnar :
  ?include_inverse:bool -> Rdf.Term.t -> Rdf.Columnar.t -> dtriple list
(** {!of_id} on the term's store id. *)

val arc_matches : check:ref_check -> Rse.arc -> dtriple -> bool
(** [arc_matches ~check arc dt]: direction agrees, the predicate is in
    [arc.pred] and the {!far} end satisfies the arc's object: is in its
    value set, or has the referenced shape by [check]. *)

val pp : Format.formatter -> dtriple -> unit

val equal : dtriple -> dtriple -> bool
val compare : dtriple -> dtriple -> int
