(** Recursive-descent Turtle parser.

    Supports the full Turtle 1.1 surface the paper's examples use and
    more: [@prefix]/[@base] (and SPARQL-style [PREFIX]/[BASE])
    directives, prefixed names, predicate and object lists ([;], [,]),
    the [a] keyword, anonymous and labelled blank nodes, blank node
    property lists [[ … ]], collections [( … )], all literal quote
    forms, language tags, datatyped literals and the numeric/boolean
    shorthands. *)

type document = {
  graph : Rdf.Graph.t;
  namespaces : Rdf.Namespace.t;
      (** prefixes declared in the document (on top of none) *)
  base : Rdf.Iri.t option;  (** final base IRI, if any *)
}

val parse : ?base:Rdf.Iri.t -> string -> (document, string) result
(** Parse a Turtle document from a string.  Relative IRIs resolve
    against the innermost [@base], else against [?base], else are kept
    relative.  Errors carry 1-based line/column positions. *)

val parse_graph : ?base:Rdf.Iri.t -> string -> (Rdf.Graph.t, string) result
(** {!parse} projected to the graph. *)

val parse_graph_exn : ?base:Rdf.Iri.t -> string -> Rdf.Graph.t
(** Raises [Failure] with the parse error.  For tests and examples. *)

val parse_file : ?base:Rdf.Iri.t -> string -> (document, string) result
(** Read and parse a file, streaming: the lexer slides a 64 KiB
    window over the channel and the parser keeps one token of
    lookahead, so peak memory is bounded by the parsed graph — the
    source text is never materialised. *)
