(** Node neighbourhoods as lists of directed triples.

    The paper matches a shape against Σgn, the {e outgoing} triples of
    a node (§2).  The inverse-arc extension (§8, §10) also needs the
    incoming triples, so the matchers consume {e directed} triples: an
    outgoing ⟨n,p,o⟩ or an incoming ⟨s,p,n⟩.  An arc expression only
    matches a triple travelling in its own direction. *)

type dtriple = {
  triple : Rdf.Triple.t;
  inverse : bool;  (** [true] for an incoming triple ⟨s,p,n⟩ *)
}

val out : Rdf.Triple.t -> dtriple
val inc : Rdf.Triple.t -> dtriple

val focus_other_end : Rdf.Term.t -> dtriple -> Rdf.Term.t
(** [focus_other_end n dt] is the term at the far end of the arc from
    [n]: the object of an outgoing triple, the subject of an incoming
    one. *)

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
    reads and hashing no term.  An id below 0 or at least
    [Rdf.Columnar.terms_cardinal c] names no node of [c] and reads
    [[]].  Returns the exact list {!of_node} returns on
    [Rdf.Columnar.to_graph c] (canonical ids make slice order triple
    order). *)

val of_columnar :
  ?include_inverse:bool -> Rdf.Term.t -> Rdf.Columnar.t -> dtriple list
(** {!of_id} on the term's store id. *)

val arc_matches :
  check_ref:(Label.t -> Rdf.Term.t -> bool) -> Rse.arc -> dtriple -> bool
(** [arc_matches ~check_ref arc dt]: direction agrees, the predicate is
    in [arc.pred] and the far-end term satisfies the arc's object: is in
    its value set, or has the referenced shape by [check_ref].  (The far
    end of an outgoing triple is its object; of an incoming one, its
    subject.) *)

val pp : Format.formatter -> dtriple -> unit

val equal : dtriple -> dtriple -> bool
val compare : dtriple -> dtriple -> int
