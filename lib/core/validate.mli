(** Schema validation — the type inference algorithm of §8.

    The judgement [Γ ⊢ l ≃s n ⇒ τ] (Fig. 3) holds when the
    neighbourhood of node [n] matches δ(l) {e under the hypothesis
    that [n] already has type [l]} — the context extension [Γ{n → l}]
    in the MatchShape premise.  That hypothesis is what gives
    recursive schemas (Examples 13–14) their coinductive semantics: a
    cycle of shape references succeeds unless some arc constraint
    refutes it.

    The implementation follows §8's typed derivatives
    [∂t(e, Γ) = (e', τ)]: arcs whose object is a shape reference
    trigger a recursive check of the object node, and the typings of
    all sub-checks are combined with ⊎.

    Recursion is resolved by a {e greatest-fixpoint} (chaotic
    iteration) solver: every demanded (node, label) pair starts
    optimistically assumed to hold — the coinductive hypothesis — and
    flips to failure only when its own rule fails, re-triggering the
    pairs that relied on it.  Because {!Schema.make} rejects
    references under negation, verdicts are monotone in the reference
    answers, the iteration terminates in polynomially many
    evaluations, and the surviving pairs form the greatest fixpoint —
    exactly the semantics of the MatchShape rule on cyclic data.

    A {!session} memoises settled verdicts, so repeated checks over
    the same graph (e.g. {!validate_graph}) share work. *)

(** Which regular-expression engine decides neighbourhood matching. *)
type engine =
  | Derivatives     (** §6–7, the paper's contribution — default *)
  | Backtracking    (** Fig. 1 rules, exponential — baseline *)
  | Auto
      (** compile each shape once: the SORBE counting matcher when the
          shape is single-occurrence (linear, no expression rebuilding
          — experiment E4), the lazy {!Dfa} otherwise *)
  | Compiled
      (** hash-consed lazy derivative automata ({!Dfa}, experiment
          E9): each shape is compiled once, every node is then
          validated by transition-table lookups shared across the
          whole session. *)

type session

val session :
  ?engine:engine ->
  ?telemetry:Telemetry.t ->
  ?domains:int ->
  ?record_deps:bool ->
  ?profile:bool ->
  ?slow_ms:float ->
  ?interned:bool ->
  Schema.t ->
  Rdf.Graph.t ->
  session
(** {b Cache lifetime.}  A session's caches live exactly as long as
    the session and are shared by {e every} check made through it: the
    (node, shape) verdict memo persists across {!check}/{!check_bool}/
    {!check_all}/{!validate_graph} calls (re-checking a settled pair
    re-evaluates nothing), and the per-label compilations — the SORBE
    counters and the {!Dfa} transition tables — are built once per
    label and reused by all later calls.
    Bulk runs with [domains > 1] validate their shards in {e private}
    sub-sessions: they read the shared session's schema and graph but
    neither consult nor write its memo, so a warm session's memo is
    never clobbered (and never extended) by a parallel bulk call —
    sequential calls on the same session afterwards still see every
    previously settled verdict.

    [record_deps] (default [false]) makes the fixpoint solver retain
    its dependency edges as a first-class structure (PR 3 emitted them
    only as [fixpoint_dep] telemetry events): for every settled pair
    the session records, by pair id, which (node, shape) hypotheses
    its final evaluation consulted, and the reverse edges.  This is
    what {!invalidate_nodes} walks; the incremental subsystem
    ([Shex_incremental]) creates its sessions with it on.  Costs one
    id-set build per evaluation plus a reverse-edge update per
    consultation that changed since the pair's previous evaluation;
    off by default.

    [domains] (default [1], values below 1 are clamped to 1) is the
    bulk-validation parallelism {!check_all} may use: with [domains = n
    > 1] a bulk check shards its associations over [n] OCaml domains
    ({!Pool}).  It never affects single {!check}/{!check_bool} calls,
    and [1] is the sequential path.

    [telemetry] (default {!Telemetry.disabled}) receives every engine
    counter of the session: [deriv_steps] and the
    [deriv_size_before]/[deriv_size_after] histograms from the
    derivative matcher, [backtrack_branches] and
    [backtrack_decompositions] from the Fig.-1 baseline,
    [sorbe_matches]/[sorbe_counter_updates] from the counting matcher,
    the {!Dfa} cache counters on [Auto] and [Compiled] sessions only
    ([compiled_hits]/[compiled_misses] and the gauges
    [compiled_atoms]/[compiled_states]/[compiled_symbols], summed over
    the session's automata), and
    [fixpoint_iterations]/[fixpoint_flips]/[fixpoint_demands] from the
    greatest-fixpoint solver.  Instruments are resolved once at
    session creation; with the default registry each instrumentation
    point costs a single branch (experiment E10).

    [profile] (default [false]) turns on per-shape cost attribution:
    every (node, shape) evaluation charges its {e self} cost — engine
    counter deltas, wall time, fixpoint flips — to labelled telemetry
    families keyed by shape label (plus wall time by focus node), and
    runtime resource gauges ([gc_*], [memo_entries]) are sampled at
    span boundaries.  Nested evaluations (lower-stratum references
    settled inline) charge their own shape, so family sums reproduce
    the session-global counters exactly.  Decode with
    {!Profile.of_snapshot}; off, the evaluation path is unchanged
    (one [None] match per evaluation — priced in E15).

    [slow_ms] sets a slow-validation threshold: {!check},
    {!check_bool} and {!validate_graph} time each call
    ([Unix.gettimeofday], independent of telemetry) and checks at or
    over the threshold are retained in the session's {!Slowlog.t} ring
    — verdict, blame set, and the deltas of every work counter the
    session resolved (the DFA's included) over the window.
    First checks of a pair include the fixpoint solve they trigger.
    Bulk shards ([domains > 1] in {!check_all}) are not individually
    timed.

    [interned] (default [false]) builds the columnar accelerator
    ({!Rdf.Columnar}) from the graph at session creation: every
    neighbourhood the matchers consume then comes from binary-searched
    slices of frozen int columns instead of structural index walks.
    Canonical interning keeps the slices in exactly {!Triple.compare}
    order, so verdicts, typings, explanations and report JSON are
    byte-identical to a structural session (the differential oracle's
    [interned] arm pins this).  The Backtracking baseline keeps
    reading the structural view. *)

val session_columnar :
  ?engine:engine ->
  ?telemetry:Telemetry.t ->
  ?domains:int ->
  ?profile:bool ->
  ?slow_ms:float ->
  Schema.t ->
  Rdf.Columnar.t ->
  session
(** A session over an already-frozen columnar store (e.g. straight
    from the streaming N-Triples bulk loader), skipping the structural
    graph entirely: the structural view is only materialised if
    something demands it ({!graph}, the Backtracking engine).
    [record_deps] is not offered — incremental sessions edit the
    graph, which is exactly what a frozen store is not for. *)

val telemetry : session -> Telemetry.t
val schema : session -> Schema.t

val graph : session -> Rdf.Graph.t
(** The structural view of the session's data.  On a
    {!session_columnar} session the first call materialises it from
    the store (linear time and memory) and caches it. *)

val interned : session -> bool
(** Whether the session validates against a columnar accelerator. *)

val columnar_store : session -> Rdf.Columnar.t option
(** The session's frozen columnar store, when interned.  Immutable and
    safe to share across domains — the parallel bulk runner hands it
    to its shard sessions directly. *)

val engine : session -> engine
val domains : session -> int

(** {1 Incremental revalidation primitives}

    The building blocks of [Shex_incremental.Session]: swap the graph,
    invalidate the memoised verdicts a set of edited nodes can reach,
    keep everything else — the retained memo, the per-label
    compilations and their DFA transition tables all stay warm. *)

val record_deps : session -> bool
(** Whether the session retains fixpoint dependency edges. *)

val profiling : session -> bool
(** Whether the session attributes costs per shape ([?profile]). *)

val slowlog : session -> Slowlog.t option
(** The session's slow-check ring, when a threshold is (or was) set. *)

val set_slow_ms : session -> float option -> unit
(** Adjust the slow-validation threshold at runtime: [Some ms]
    creates the ring on first use (capacity {!Slowlog.default_capacity})
    or updates the threshold of the existing one, keeping its entries;
    [None] discards the ring and stops capturing. *)

val memo_size : session -> int
(** Number of memoised (node, shape) verdicts. *)

val set_graph : session -> Rdf.Graph.t -> unit
(** Replace the session's graph.  The memo is {e not} touched: the
    caller must follow with {!invalidate_nodes} over every node whose
    incident triples (as subject or object) differ between the old and
    new graphs, or retained verdicts may be stale.  Matchers read only
    the focus node's outgoing and incoming triples ({!Neigh.of_node}),
    so that node set is exactly the subjects and objects of the edited
    triples. *)

val invalidate_nodes :
  session -> Rdf.Term.t list -> ((Rdf.Term.t * Label.t) * bool) list
(** [invalidate_nodes session nodes] drops from the memo every settled
    pair anchored on one of [nodes] plus, transitively backwards along
    the recorded dependency edges, every pair whose evaluation
    consulted one of them — the {e dependency frontier} of the edit.
    The consultation lists {!check} builds typings from are kept per
    settled pair and dropped together with it.
    Returns the dropped pairs with their old verdicts (the incremental
    layer re-solves them and reports verdict flips).  Verdicts outside
    the frontier were computed from unchanged neighbourhoods and
    retained reference answers, so they are still the greatest-fixpoint
    verdicts of the new graph (see DESIGN.md §11 for the argument).

    On a session without [record_deps] there are no edges to walk, so
    the whole memo is dropped (sound, not incremental). *)

val dependencies_of :
  session -> Rdf.Term.t * Label.t -> (Rdf.Term.t * Label.t) list
(** The (node, shape) hypotheses the pair's latest evaluation
    consulted — empty when unrecorded or never evaluated. *)

val metrics : session -> Telemetry.snapshot
(** The session's unified metrics snapshot: on a profiled session the
    runtime resource gauges ([Gc.quick_stat] words/heap/collections,
    [memo_entries]) are sampled into the registry first (as at the end
    of every bulk call), then the registry is snapshotted.  Every
    engine reports into the registry as it works, so this is what any
    other reader of the registry (a scrape, a window tick) sees too,
    minus the resource sample.  Empty when telemetry is disabled. *)

(** Result of checking one node against one label. *)
type outcome = {
  ok : bool;
  typing : Typing.t;
      (** all (node, label) facts established by the check, including
          those of recursively visited neighbours; empty on failure *)
  explain : Explain.t option;
      (** on failure, the structured blame set extracted from the
          derivative trace — the fatal triple, the missing arcs, or
          the refuted node constraint (see {!Explain}) *)
}

val reason : outcome -> string option
(** The rendered form of [explain] ({!Explain.to_string}) — the
    human-readable failure reason reports print. *)

val check : session -> Rdf.Term.t -> Label.t -> outcome

val check_bool : session -> Rdf.Term.t -> Label.t -> bool

val check_all : session -> (Rdf.Term.t * Label.t) list -> outcome list
(** Check a list of associations, one {!outcome} per association in
    the input order.  With [domains = 1] (the default) this is exactly
    [List.map (check session)] — the sequential semantics.  With
    [domains > 1] and at least two associations, the associations are
    sharded ({!Pool.shard}) over that many OCaml domains
    ({!Pool.run}), each shard validated in a private sub-session, and
    the outcomes re-assembled in input order; per-shard telemetry is
    folded back into the session registry with {!Telemetry.merge}.
    Verdicts, typings and explanations are identical either way
    (the greatest fixpoint is canonical, independent of evaluation
    order).  Tracing sessions (a telemetry sink installed) always run
    sequentially so the event stream stays single-threaded and
    byte-identical. *)

val validate_graph : session -> Typing.t
(** Checks every node of the graph against every label of the schema
    and combines the typings of the successful checks — the “shape
    typing assigned to the nodes in the graph” of §8.  Reproduces
    Example 2: [:john] and [:bob] get [<Person>], [:mary] does not. *)

val validate :
  ?engine:engine ->
  Schema.t ->
  Rdf.Graph.t ->
  Rdf.Term.t ->
  Label.t ->
  outcome
(** One-shot convenience wrapper around {!session} + {!check}. *)
