(** Random differential-testing workloads: seeded schema + graph +
    focus generators for the cross-engine oracle (lib/oracle).

    A case is fully determined by its seed (splitmix64, {!Prng}), so
    every divergence the oracle finds is reproducible from one
    integer.  The generators cover the constructs where engines have
    historically diverged (Boneva et al., "Shape Expressions
    Schemas"): finite value sets, IRI stems, datatypes and node kinds,
    inverse arcs, [{m,n}] repetition, optional/star/plus, alternatives,
    shape references with (negation-free) recursion, focus-node
    constraints, and — in {!Extended} mode — predicate sets with no
    ShExC notation (predicate stems, enumerations, wildcards) plus
    object-set complement. *)

(** What the generator may emit.

    {!Surface} stays inside the ShExC-printable fragment (singleton
    predicates, no [Obj_not], no [∅]) so cases can be serialised to
    self-contained repro files and drive the printer round-trip
    property.  {!Extended} additionally generates predicate stems that
    {e overlap} singleton predicates — the SORBE applicability edge —
    and object complements. *)
type mode = Surface | Extended

type case = {
  seed : int;
  mode : mode;
  schema : Shex.Schema.t;
  graph : Rdf.Graph.t;
  associations : (Rdf.Term.t * Shex.Label.t) list;
      (** every generated node against every label, in generation
          order — the bulk workload the oracle cross-checks *)
}

val case : ?mode:mode -> int -> case
(** [case seed] (default mode {!Surface}).  Equal seeds give equal
    cases.  Node neighbourhoods are kept small (≤ 6 triples in either
    direction) so the exponential backtracking baseline stays
    feasible. *)

val schema : ?mode:mode -> Prng.t -> Shex.Schema.t
(** Just the schema generator (used by the ShExC round-trip
    property).  Surface-mode schemas are printable by
    {!Shexc.Shexc_printer} and reparse to structurally equal rules. *)

val graph_for : Prng.t -> Shex.Schema.t -> Rdf.Graph.t * Rdf.Term.t list
(** A graph biased toward the schema's arc constraints (most triples
    instantiate some generated arc, with both matching and
    near-missing objects) plus noise, and the focus-node pool. *)

(** {1 Edit scripts}

    Seeded triple-level edits for the incremental revalidation
    differential arm ([--oracle mode=edits]) and the incremental
    session's property tests. *)

type edit = Insert of Rdf.Triple.t | Delete of Rdf.Triple.t

val edit_script :
  Prng.t -> Shex.Schema.t -> Rdf.Graph.t -> int -> edit list
(** [edit_script rng schema graph n] is a script of up to [n] edits,
    each valid against the graph produced by the preceding prefix
    (inserts are absent before, deletes present).  Inserts are biased
    toward instantiating the schema's arc constraints so scripts flip
    verdicts, and respect [graph_for]'s node-degree cap so the
    backtracking baseline stays feasible at every step. *)
