(** Shape inference: synthesising a shape from example nodes.

    Given a graph and a set of nodes presumed to share a shape, infer
    the SORBE-style shape they all match: one constraint per outgoing
    predicate, with the observed cardinality interval and the most
    specific value class that covers every observed object.

    This is the usual bootstrap path for schema authoring (cf. the
    sheXer line of tools): infer from conforming examples, review,
    refine.  The inferred shape is guaranteed to accept every example
    node (a property the tests check). *)

(** How object value classes are generalised, most specific first:
    a finite value set if few distinct values, else a shared
    recognised datatype, else a node kind, else [.]. *)
type options = {
  max_value_set : int;
      (** emit a value set when a predicate has at most this many
          distinct object values {e and} every example exhibits them;
          0 disables value sets (default 0) *)
  close_cardinalities : bool;
      (** when [true] (default), use the exact observed [{min,max}]
          interval; when [false], relax to [{min,}] *)
}

val infer_shape :
  ?options:options -> Rdf.Graph.t -> Rdf.Term.t list -> Rse.t
(** [infer_shape g nodes] — the inferred shape of the nodes'
    neighbourhoods.  Raises [Invalid_argument] on an empty node
    list. *)

val infer_schema :
  ?options:options ->
  Rdf.Graph.t ->
  (Label.t * Rdf.Term.t list) list ->
  (Schema.t, string) result
(** Infer one shape per label from its example nodes.  Object values
    that are themselves example nodes of another label become shape
    references to that label (enabling recursive inferred schemas). *)
