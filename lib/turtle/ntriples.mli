(** N-Triples: the line-based flat subset of Turtle.

    {!parse} delegates to the Turtle parser (every N-Triples document
    is a Turtle document); {!fold_file} reads the N-Triples grammar
    alone — no directives, no prefixed names, no shorthand literals,
    no [a], no [;]/[,], no collections. *)

val parse : string -> (Rdf.Graph.t, string) result
(** Lenient parse (full Turtle accepted). *)

val fold_file : string -> ('a -> Rdf.Triple.t -> 'a) -> 'a -> ('a, string) result
(** Streaming N-Triples reader: fold over the triples of a file
    without building a graph (or the source string), through a
    sliding-window lexer, so peak memory is the fold's own state plus
    one 64 KiB window.  Enforces the N-Triples shape (subject
    predicate object dot) and returns [Error] with the offending
    position otherwise; literal tails ([@lang], [^^<dt>]) are decoded
    exactly as the Turtle parser decodes them, so downstream term
    comparisons agree. *)

val load_file : string -> (Rdf.Columnar.t, string) result
(** Bulk-load a file straight into a columnar store: every term is
    interned as it is read and only int columns accumulate — the
    raw-speed path for graphs that dwarf structural loading. *)

val to_string : Rdf.Graph.t -> string
(** Canonical N-Triples: one triple per line in triple order, absolute
    IRIs in angle brackets, all literals quoted with explicit
    datatypes (plain [xsd:string] literals stay bare-quoted). *)

val to_file : string -> Rdf.Graph.t -> unit
