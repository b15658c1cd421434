(** Incremental revalidation sessions.

    A {!t} owns a mutable graph and a warm {!Shex.Validate.session}
    created with dependency recording on: every settled (node, shape)
    verdict remembers which hypotheses its final evaluation consulted.
    {!apply} takes a batch of triple inserts and deletes, computes the
    affected focus-node frontier by walking those edges backwards from
    the edited nodes ({!Shex.Validate.invalidate_nodes}), drops only
    that frontier from the memo, and re-solves it against everything
    retained — the verdict memo outside the frontier, the per-label
    SORBE compilations and the compiled-DFA transition tables all stay
    warm across deltas.

    Correctness rests on the stratified-negation fixpoint semantics
    (Boneva, Labra Gayo & Prud'hommeaux): verdicts outside the
    frontier were computed from unchanged neighbourhoods and retained
    reference answers, so re-solving only the frontier converges to
    the same greatest fixpoint as a full from-scratch run.  The
    oracle's edit-script arm ([--oracle mode=edits]) checks that
    equivalence mechanically after every delta; DESIGN.md §11 gives
    the argument.

    Schema changes cannot be localised this way: a new schema takes a
    new session. *)

(** A batch of edits.  Deletes are applied before inserts; triples
    already present (for inserts) or already absent (for deletes) are
    ignored and do not count as applied work. *)
type delta = { inserts : Rdf.Triple.t list; deletes : Rdf.Triple.t list }

val insert : Rdf.Triple.t list -> delta
val delete : Rdf.Triple.t list -> delta

(** What one {!apply} did. *)
type stats = {
  applied : int;
      (** triples that actually changed the graph (no-op edits are
          skipped) *)
  frontier : int;
      (** memoised (node, shape) verdicts invalidated — the
          dependency frontier of the edit *)
  resolved : int;
      (** frontier pairs eagerly re-solved (currently always equal to
          [frontier]: queries stay warm and verdict flips are
          observable) *)
  changed : (Rdf.Term.t * Shex.Label.t * bool) list;
      (** frontier pairs whose verdict differs from before the delta,
          with the new verdict — what a portal would push to
          subscribers *)
}

type t

val create :
  ?engine:Shex.Validate.engine ->
  ?telemetry:Telemetry.t ->
  Shex.Schema.t ->
  Rdf.Graph.t ->
  t
(** The underlying validation session is created with
    [~record_deps:true].  [telemetry] additionally receives the
    incremental instruments: counters [incremental_deltas] (apply
    calls), [incremental_edits] (applied triples),
    [incremental_invalidated] / [incremental_resolved] (frontier pairs
    cumulative), [incremental_full_resets] (always 0: kept so metrics
    documents keep their members); the
    [incremental_frontier_size] histogram (per-delta frontier size);
    and the [incremental_apply] span. *)

val graph : t -> Rdf.Graph.t
val schema : t -> Shex.Schema.t

val validation : t -> Shex.Validate.session
(** The live inner session — for {!Shex.Report.run}, typings
    ({!Shex.Validate.typing}), explanations, or direct metrics
    access. *)

val apply : t -> delta -> stats
(** Apply the batch: update the graph, invalidate the dependency
    frontier, re-solve it, report the work done.  Applying an empty
    (or fully no-op) delta touches nothing and returns zero stats. *)

val check_bool : t -> Rdf.Term.t -> Shex.Label.t -> bool
(** The verdict against the current graph.  Nothing typing-related is
    kept per pair, so an edit has only verdicts to invalidate; ask
    {!Shex.Validate.check} or {!Shex.Validate.typing} on {!validation}
    for an explanation or a typing. *)

val metrics : t -> Telemetry.snapshot
(** {!Shex.Validate.metrics} of the inner session — engine counters,
    automaton cache counters and the incremental instruments in one
    snapshot. *)
