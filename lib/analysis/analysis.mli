(** Schema-level static analysis over regular-expression derivatives.

    Staworko & Wieczorek show that emptiness and containment are
    decidable for shape expression schemas; the derivative operator of
    the source paper is the natural decision engine, because the set of
    ACI-normalised derivatives of an expression is finite (Brzozowski's
    theorem, restated for the bag semantics in DESIGN.md §15).  This
    module explores that finite derivative space symbolically:

    - {e letters} are equivalence classes of directed triples, built by
      classifying a universe of sampled candidate triples against the
      schema's arc constraints (the same arc-class construction as
      {!Shex.Dfa}, driven by samples instead of graph data);
    - {e states} are hash-consed expressions ({!Shex.Hrse}),
      so the visited-set is a table of integer ids;
    - shape references are handled by a greatest-fixpoint {e capability}
      computation (can a node satisfy / fail each referenced shape?)
      consistent with the coinductive semantics of §8.

    Soundness contract: [Empty] and [Contained] verdicts are decided
    relative to the sampled letter universe — complete whenever every
    value set is a finite union of the sampled families (value
    enumerations, datatypes, stems and kinds), which covers the whole
    ShExC surface this repo generates and parses.  Witnesses run the other
    way and are unconditional: every [Satisfiable]/[Refuted] answer
    carries a concrete neighbourhood that has been replayed through
    {!Shex.Validate} before being reported.  The differential oracle's
    containment arm fuzzes exactly this contract.

    Emptiness and containment run one breadth-first search over states
    holding one derivative per schema side.  Every search stops,
    answering [Unknown]/[Inconclusive], once it has visited
    [max_states] states (default 20 000) or spent [200 * max_states]
    units of {!Shex.Hrse.work}, whichever comes first: derivatives of
    interleavings and negations can grow with every step, so the state
    count alone does not bound the time. *)

(** A concrete witness: a focus node together with a graph whose
    neighbourhood of that node exhibits the claimed behaviour.  The
    graph is printable as Turtle ({!witness_turtle}) so the claim can
    be replayed with [shex_validate]. *)
type witness = { focus : Rdf.Term.t; graph : Rdf.Graph.t }

type emptiness =
  | Satisfiable of witness  (** verified: focus validates against the shape *)
  | Empty  (** no sampled neighbourhood can match — the shape is dead *)
  | Unknown of string  (** search capped or witness construction failed *)

type containment =
  | Contained  (** every sampled neighbourhood matching [S1] matches [S2] *)
  | Refuted of witness
      (** verified counterexample: focus validates under [S1@l1] and
          fails [S2@l2] *)
  | Inconclusive of string

(** Per-label verdict of a deploy-compatibility check. *)
type compat_item = { label : Shex.Label.t; verdict : containment }

type compat = {
  items : compat_item list;  (** labels present in both schemas *)
  removed : Shex.Label.t list;  (** labels only in the old schema *)
  added : Shex.Label.t list;  (** labels only in the new schema *)
}

type hygiene = {
  shapes : (Shex.Label.t * emptiness) list;
      (** every label's emptiness, in schema order *)
  unreachable : Shex.Label.t list;
      (** not reachable from any root through [Ref] edges *)
  unsatisfiable : Shex.Label.t list;
      (** the labels [shapes] calls [Empty]: no node can ever conform *)
  roots : Shex.Label.t list;  (** the roots the reachability walk used *)
}

val shape_satisfiable :
  ?tele:Telemetry.t -> ?max_states:int -> Shex.Schema.t -> Shex.Label.t -> emptiness
(** Emptiness of δ(l): nullability-guided search of the derivative
    space, inside the capability fixpoint over every label of the
    schema.  Raises [Invalid_argument] if the label has no rule. *)

val contains :
  ?tele:Telemetry.t ->
  ?max_states:int ->
  Shex.Schema.t ->
  Shex.Label.t ->
  Shex.Schema.t ->
  Shex.Label.t ->
  containment
(** [contains s1 l1 s2 l2] — does every node conforming to [l1] in
    [s1] also conform to [l2] in [s2]?  Product-derivative search for
    a state nullable on the left and non-nullable on the right; goal
    paths are concretised into neighbourhoods and replayed through
    {!Shex.Validate} before being reported.  Raises [Invalid_argument]
    on unknown labels. *)

val check_compat :
  ?tele:Telemetry.t -> ?max_states:int -> Shex.Schema.t -> Shex.Schema.t -> compat
(** Deploy gate: [check_compat old_schema new_schema] runs {!contains}
    for every label the two schemas share ("every node valid under v1
    stays valid under v2"). *)

val hygiene :
  ?tele:Telemetry.t -> ?roots:Shex.Label.t list -> Shex.Schema.t -> hygiene
(** Every label's emptiness, with dead-rule and unreachable-shape
    detection, from one capability fixpoint: it explores as many
    states as one {!shape_satisfiable} on the same schema.  Roots
    default to the labels carrying a focus constraint (the shapes a
    shape map can target directly); when no label has one, every label
    is a root of its own reachability check — then only
    satisfiability findings remain. *)

val optimize : Shex.Schema.t -> Shex.Schema.t
(** Pre-validation optimizer.  Semantics-preserving rewrites only:
    value-set normalisation (flattening, deduplication, subsumption
    between set members — never term-level dropping, which value-space
    membership makes unsound), [Obj_in]-merging of same-predicate
    disjunct arcs, provably-empty disjunct pruning (via the emptiness
    search), [(ε|e)⋆ → e⋆], and conjunct hoisting out of [Or] (via the
    smart constructors' distributive factoring).  The oracle's
    optimizer arm checks verdict equivalence across engines. *)

val optimize_stats : Shex.Schema.t -> Shex.Schema.t * int
(** Like {!optimize}, also returning how many shapes were rewritten. *)

val witness_turtle : witness -> string
(** The witness graph as Turtle, replayable with [shex_validate]. *)

val pp_containment : Format.formatter -> containment -> unit
val pp_emptiness : Format.formatter -> emptiness -> unit
