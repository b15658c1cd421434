(** Dense int interning of RDF terms.

    An interner assigns consecutive small ints to distinct terms —
    IRIs, blank nodes and literals share one id space — and keeps the
    reverse table so reports and explanations can always recover the
    structural term.  Identity is {!Term.equal}: two blank nodes
    intern to the same id iff their labels agree (scoping is the
    caller's concern, exactly as for structural graphs), and a blank
    node never shares an id with an IRI or literal of the same
    spelling.

    {!compact} re-assigns ids in {!Term.compare} order.  A compacted
    interner has the property that {e int order is term order}, which
    is what lets the columnar store ({!Columnar}) binary-search sorted
    int columns and still hand triples back in the exact order the
    structural indexes produce them. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty interner.  [capacity] sizes the initial tables. *)

val intern : t -> Term.t -> int
(** Id of the term, assigning the next dense id on first sight.
    Ids are [0 .. cardinal t - 1] with no holes. *)

val find : t -> Term.t -> int option
(** Id of the term if already interned; never assigns. *)

val find_id : t -> Term.t -> int
(** Like {!find}, [-1] for a term never interned; allocates nothing. *)

val resolve : t -> int -> Term.t
(** The term behind an id.  Raises [Invalid_argument] on an id never
    handed out. *)

val cardinal : t -> int
(** Number of distinct terms interned. *)

val iteri : (int -> Term.t -> unit) -> t -> unit
(** Visit every (id, term) pair in increasing id order. *)

val sorted : t -> bool
(** [true] iff ids are currently in {!Term.compare} order (always
    true after {!compact}; opportunistically true if terms happened to
    arrive sorted). *)

val compact : t -> t * int array
(** [compact t] is [(t', remap)]: a fresh interner over the same terms
    whose ids are in {!Term.compare} order, and the translation table
    [remap.(old_id) = new_id].  [t'] copies [t]'s hash table and remaps
    its ids, so no term is hashed again.  [t] is unchanged. *)
