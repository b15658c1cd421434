(** Translation of shapes to SPARQL queries — §3 of the paper.

    The paper argues Shape Expressions can be compiled to SPARQL for
    non-recursive shapes (its Scala implementation does so) but that
    the queries are unwieldy and cannot express recursion.  This
    module implements the translation for the SORBE fragment
    (unordered concatenations of arc constraints with cardinality
    intervals — which covers the paper's Example 1/4 shape) and is the
    basis of experiment E6.

    The generated query follows the paper's recipe — per-predicate
    counting sub-SELECTs with [GROUP BY]/[HAVING], value tests as
    [FILTER]s — using [NOT EXISTS] where Example 4 uses the
    [OPTIONAL]/[!bound] idiom, plus a closedness constraint Example 4
    omits (the paper admits its query “is not completely right”).

    Known, documented divergences from the RSE semantics (shared with
    any SPARQL encoding): SPARQL [=] compares numeric literals by
    value, and [datatype()] does not check lexical well-formedness. *)

val of_shape : Shex.Rse.t -> (Ast.select, string) result
(** [of_shape e] returns a query selecting (as [?X]) every node whose
    neighbourhood matches [e].  Fails when [e] is outside the
    translatable fragment: not SORBE, shape references (recursion),
    inverse arcs, or non-singleton predicate sets. *)

val matching_nodes :
  Rdf.Graph.t -> Shex.Rse.t -> (Rdf.Term.t list, string) result
(** Generate, evaluate, and project: the nodes of [g] matching the
    shape, in term order. *)

val example4_query : unit -> Ast.query
(** The paper's Example 4 ASK query (Person with [foaf:age],
    [foaf:name]+, [foaf:knows]⋆), built in the paper's own style:
    counting sub-SELECTs joined by [FILTER]-ed counts and the
    [OPTIONAL]/[!bound] branch for the absent-[foaf:knows] case. *)
