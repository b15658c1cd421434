(** Regular shape expression derivatives — §6 and §7 of the paper.

    The derivative of a shape with respect to a triple [t] is the
    shape of “what must still be matched after consuming [t]”
    (Definition 1).  The computation rules are Brzozowski's, adapted
    to unordered arcs:

    {v
    ∂t(∅)        = ∅
    ∂t(ε)        = ∅
    ∂⟨s,p,o⟩(vp→vo) = ε  if p ∈ vp and o ∈ vo, else ∅
    ∂t(e⋆)       = ∂t(e) ‖ e*
    ∂t(e₁ ‖ e₂)  = ∂t(e₁) ‖ e₂  |  ∂t(e₂) ‖ e₁
    ∂t(e₁ | e₂)  = ∂t(e₁) | ∂t(e₂)
    ∂t(¬e)       = ¬∂t(e)                        (extension)
    v}

    Matching (§7) consumes the neighbourhood one triple at a time:
    [e ≃ t ⊎ ts ⇔ ∂t(e) ≃ ts] and [e ≃ {} ⇔ ν(e)].  No graph
    decomposition, no backtracking.

    Shape references (§8) are delegated to the [check_ref] callback so
    that this module stays independent of schemas; {!Validate} supplies
    the recursive, typing-producing callback. *)

type check_ref = Label.t -> Rdf.Term.t -> bool
(** [check_ref l o] decides whether node [o] has the shape labelled
    [l].  The default refuses every reference (suitable for
    reference-free expressions). *)

val no_refs : check_ref
(** The default callback: refuses every reference. *)

(** {1 Telemetry}

    The matcher reports one [deriv_steps] increment per consumed
    triple plus [deriv_size_before]/[deriv_size_after] histogram
    observations (the E2/E5 growth measure), and — when the registry
    has a sink — one structured [deriv_step] event per triple. *)

type instruments

val instruments : Telemetry.t -> instruments
(** Resolve this module's counters in the given registry (once per
    session, not per match). *)

val no_instruments : instruments
(** Inert instruments from {!Telemetry.disabled} — the default; each
    step then costs one extra branch. *)

val counters : instruments -> Telemetry.Counter.t list
(** The monotone counters resolved, in order: [deriv_steps]. *)

val deriv :
  ?ctors:Rse.ctors ->
  ?check_ref:check_ref ->
  Neigh.dtriple ->
  Rse.t ->
  Rse.t
(** One derivative step, [∂t(e)].  [ctors] selects simplifying
    (default) or raw constructors — experiment E5. *)

val deriv_graph :
  ?ctors:Rse.ctors ->
  ?check_ref:check_ref ->
  Neigh.dtriple list ->
  Rse.t ->
  Rse.t
(** [∂ts(e)]: left fold of {!deriv} over the triples, i.e. the
    extension to graphs [∂{} (e) = e], [∂(t⊎ts)(e) = ∂ts(∂t(e))]. *)

val matches :
  ?ctors:Rse.ctors ->
  ?check_ref:check_ref ->
  ?instr:instruments ->
  Rdf.Term.t ->
  Rdf.Graph.t ->
  Rse.t ->
  bool
(** [matches n g e] = [ν(∂Σgn(e))]: does the neighbourhood of [n] in
    [g] have shape [e]?  Includes incoming triples exactly when [e]
    contains an inverse arc.  Stops early when the expression
    collapses to ∅ (no possible continuation, Example 12). *)

val matches_dts :
  ?ctors:Rse.ctors ->
  ?check_ref:check_ref ->
  ?instr:instruments ->
  Rdf.Term.t ->
  Neigh.dtriple list ->
  Rse.t ->
  bool
(** {!matches} over an already-computed neighbourhood — the hot-path
    entry point: {!Validate} computes Σgn once per evaluation (from
    the structural indexes or a columnar slice) and hands it to
    whichever engine runs.  The caller must have included incoming
    triples exactly when [Rse.has_inverse e]. *)

(** {1 Traced matching}

    A trace records the expression after each consumed triple,
    reproducing the step-by-step runs of Examples 11–12, and is the
    basis for validation error messages. *)

type step = { consumed : Neigh.dtriple; after : Rse.t }

type trace = {
  initial : Rse.t;
  steps : step list;
  result : bool;  (** ν of the final expression *)
}

val matches_trace :
  ?ctors:Rse.ctors ->
  ?check_ref:check_ref ->
  ?instr:instruments ->
  Rdf.Term.t ->
  Rdf.Graph.t ->
  Rse.t ->
  trace

val matches_trace_dts :
  ?ctors:Rse.ctors ->
  ?check_ref:check_ref ->
  ?instr:instruments ->
  Rdf.Term.t ->
  Neigh.dtriple list ->
  Rse.t ->
  trace
(** {!matches_trace} over an already-computed neighbourhood (same
    contract as {!matches_dts}). *)

val pp_trace : Format.formatter -> trace -> unit
(** Renders the trace in the paper's style:
    [e ≃ {t₁, …} ⇔ ∂t₁(e) ≃ {…} ⇔ … ⇔ ν(e') ⇔ true]. *)

val explain_failure : trace -> string option
(** For a failed trace, a human-readable account of where matching
    broke: either the triple whose derivative collapsed to ∅, or the
    residual obligations left unfulfilled.  [None] if the trace
    succeeded. *)

val step_to_json : step -> Json.t
val trace_to_json : trace -> Json.t
(** The machine-readable form of a trace — the structured source both
    {!explain_failure} and the CLI's [--trace-json] stream render
    from. *)
