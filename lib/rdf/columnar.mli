(** Columnar int-triple graph store.

    The raw-speed backing representation behind the structural
    {!Graph.t} façade: every term is interned to a dense int id
    ({!Interner}), and the triples live in three parallel int columns
    sorted in SPO order, plus an OSP permutation.  {!freeze} keeps
    each id's row range in both orders, so a subject's neighbourhood
    (the paper's Σgn) or an object's incoming arcs are a contiguous
    slice found by two array reads, instead of a balanced-tree walk.

    Ids are canonical — assigned in {!Term.compare} order at
    {!freeze} time — so int order {e is} term order and every slice
    comes back in exactly the order the structural indexes produce:
    {!out_triples} agrees triple-for-triple with
    [Graph.out_triples n g], {!in_triples} with
    [Graph.in_triples n g].  That ordering
    guarantee is what makes reports, explanations and traces
    byte-identical whichever representation a session validates
    against.

    A frozen store is immutable and safe to share across domains:
    lookups touch only immutable arrays and a read-only hash table. *)

type t

(** {1 Building} *)

type builder

val builder : ?terms:int -> ?triples:int -> unit -> builder
(** Fresh builder; the optional arguments are capacity hints. *)

val add : builder -> Term.t -> Iri.t -> Term.t -> unit
(** Append one triple, interning its terms.  Duplicate triples
    collapse at {!freeze} (a graph is a set).  Raises
    [Invalid_argument] on a literal subject. *)

val add_triple : builder -> Triple.t -> unit

val freeze : builder -> t
(** Compact ids into canonical term order, then order and dedup the
    columns and build the OSP permutation by counting passes, keeping
    each id's slice offsets in both orders: O(triples + terms), plus
    sorting each subject's own arcs.  The
    builder must not be used afterwards. *)

val of_graph : Graph.t -> t
val to_graph : t -> Graph.t
(** Round-trip to the structural representation.  [to_graph (of_graph
    g)] is {!Graph.equal} to [g]. *)

(** {1 Reading} *)

val cardinal : t -> int
(** Number of (distinct) triples. *)

val terms_cardinal : t -> int
(** Number of distinct interned terms. *)

val interner : t -> Interner.t
(** The canonical (term-ordered) id table. *)

val term : t -> int -> Term.t

val fold_out : (Triple.t -> int -> 'a -> 'a) -> t -> int -> 'a -> 'a
(** [fold_out f c id acc] is [f t1 o1 (… (f tk ok acc))] over the
    triples t1 … tk whose subject has id [id], in {!Triple.compare}
    order, with their objects' ids o1 … ok.  The slice is two reads of
    the offsets {!freeze} kept; an id below 0 or at least
    [terms_cardinal c] has none. *)

val fold_in : (Triple.t -> int -> 'a -> 'a) -> t -> int -> 'a -> 'a
(** {!fold_out} over the triples whose object has id [id], with their
    subjects' ids. *)

val out_triples : t -> Term.t -> Triple.t list
(** Σgn: triples with the given subject, in {!Triple.compare} order:
    the term's id, then {!fold_out}. *)

val in_triples : t -> Term.t -> Triple.t list
(** Triples with the given object, in {!Triple.compare} order. *)

val nodes : t -> Term.t list
val node_ids : t -> int list
(** Distinct subjects and objects (or their ids: the ids with a
    non-empty out- or in-slice), in term order — agrees with
    {!Graph.nodes}. *)
