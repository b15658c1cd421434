(** Turtle serializer.

    Produces readable Turtle: prefix directives up front, triples
    grouped by subject (predicate lists with [;], object lists with
    [,]), [a] for [rdf:type], and the numeric/boolean shorthands for
    well-formed typed literals. *)

val to_string : ?namespaces:Rdf.Namespace.t -> Rdf.Graph.t -> string
(** Serialize a graph.  [namespaces] defaults to
    {!Rdf.Namespace.default}; only prefixes actually used by the graph
    are declared. *)

val to_file :
  ?namespaces:Rdf.Namespace.t -> string -> Rdf.Graph.t -> unit
