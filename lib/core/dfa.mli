(** Lazily built derivative automata for regular shape expressions.

    {!Deriv.matches} recomputes a derivative {e expression} for
    every consumed triple of every node it checks.  Within one
    validation run the same shape is matched against thousands of
    neighbourhoods, and the derivatives it steps through are massively
    repetitive — so we compile each shape {e once} into a DFA whose
    states are hash-consed expressions ({!Hrse}) and whose transition
    table is filled in lazily, Owens–Reppy–Turon style, and then
    shared across every node and every call.

    {2 The alphabet: arc classes}

    A DFA needs a finite alphabet, but triples are drawn from an
    unbounded universe.  A shape, however, can only {e distinguish}
    triples through its arc constraints: two triples that satisfy
    exactly the same subset of the shape's arcs (the same direction /
    predicate-set / value-set tests) produce identical derivatives, by
    induction on the expression.  The compiler therefore interns each
    distinct arc of the shape as an {e atom}, and classifies a
    neighbourhood triple into the bitset of atoms it matches — its
    {e arc class}.  The finitely many (≤ 2^atoms, in practice a
    handful) arc classes are the DFA's symbols.

    Arcs whose object is a shape reference [@<L>] are opaque boolean
    atoms: classification calls the reference check supplied per
    match — the recursive fixpoint of {!Validate} — so the
    automaton itself stays purely syntactic and remains valid as the
    fixpoint's candidate valuation evolves.

    {2 Laziness and sharing}

    [∂symbol(state)] is computed on first demand through the
    hash-consed derivative and memoised in the transition table; every
    later traversal is a hash lookup.  A miss derives the whole state,
    but the automaton keeps one {!Hrse.memo} per symbol for its life, so
    a sub-expression shared by many states is derived once per symbol.
    Nullability is precomputed per state, so acceptance is a field
    read.  The cache counters (states materialised, symbols interned,
    transition hits / misses) that E9 uses to demonstrate cross-node
    reuse are pushed into a telemetry registry as the automaton works,
    like every other engine's. *)

type instruments

val instruments : Telemetry.t -> instruments
(** Resolve, once per session: counters [compiled_hits] (steps answered
    from the table) and [compiled_misses] (steps that built a
    derivative); gauges [compiled_atoms], [compiled_states] and
    [compiled_symbols], each added to when an arc constraint, state or
    arc class is created, so a reading sums over every automaton
    compiled with these instruments. *)

val no_instruments : instruments
(** Inert instruments from {!Telemetry.disabled} — the default. *)

val counters : instruments -> Telemetry.Counter.t list
(** The monotone counters resolved, in order: [compiled_hits],
    [compiled_misses].  Their sum is the number of transitions taken. *)

type t

val compile : ?instr:instruments -> Rse.t -> t
(** Compile a shape expression.  The automaton starts with only its
    initial state; transitions appear as matching demands them.  It
    reports into [instr] (and traces through its registry) for the
    rest of its life. *)

val matches :
  check:Neigh.ref_check -> t -> Rdf.Term.t -> Neigh.dtriple list -> bool
(** [matches ~check a n dts] — does the neighbourhood [dts] of [n] match
    the compiled shape?  Equivalent to {!Deriv.matches} on the
    source expression (the property suite asserts this), under the
    same neighbourhood contract: Σgn as {!Validate} extracts it for
    every engine, incoming triples included exactly when the source
    expression has inverse arcs.  Consumes the neighbourhood triple by
    triple: classify into an arc class, step the DFA, and finally read
    the state's nullability.  Stops early in the dead state ∅ — sound
    exactly when the shape is negation-free, as in the derivative
    engine.

    When the automaton's registry has a sink, each DFA edge emits a
    [deriv_step] event (with hash-consed state ids in place of
    expression sizes; the rendered states too under
    {!Telemetry.residuals}) and exhaustion emits a [nullable_check] —
    the same provenance vocabulary as the interpreted engine.

    Classification dispatches on the triple's (direction, predicate)
    through a per-automaton candidate table: only the atoms whose
    predicate set contains that predicate have their object
    constraints evaluated, so wide schemas pay one table lookup per
    triple instead of a full atom scan. *)

val matches_dts :
  ?check_ref:(Label.t -> Rdf.Term.t -> bool) ->
  t -> Rdf.Term.t -> Neigh.dtriple list -> bool
(** {!matches} checking references on the far term: an adapter. *)
