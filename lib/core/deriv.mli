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
    ∂t(e{m,n})   = ∂t(e) ‖ e{m∸1,n−1}
    ∂t(¬e)       = ¬∂t(e)                        (extension)
    v}

    Matching (§7) consumes the neighbourhood one triple at a time:
    [e ≃ t ⊎ ts ⇔ ∂t(e) ≃ ts] and [e ≃ {} ⇔ ν(e)].  No graph
    decomposition, no backtracking.

    Shape references (§8) are delegated to a callback so that this
    module stays independent of schemas; {!Validate} supplies the
    recursive, typing-producing one.  {!matches} asks it about the
    directed triple ({!Neigh.ref_check}), so a caller holding store ids
    checks by the far node's id; the [?check_ref] entry points ask
    about the far term, as adapters onto the same core. *)

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
    (default) or raw constructors — experiment E5.  The matchers below
    always simplify; raw constructors are for the ablation only, which
    folds {!deriv_graph} itself. *)

val deriv_graph :
  ?ctors:Rse.ctors ->
  ?check_ref:check_ref ->
  Neigh.dtriple list ->
  Rse.t ->
  Rse.t
(** [∂ts(e)]: left fold of {!deriv} over the triples, i.e. the
    extension to graphs [∂{} (e) = e], [∂(t⊎ts)(e) = ∂ts(∂t(e))]. *)

val matches :
  check:Neigh.ref_check -> ?instr:instruments ->
  Rdf.Term.t -> Neigh.dtriple list -> Rse.t -> bool
(** [matches ~check n dts e] = [ν(∂dts(e))]: does the neighbourhood
    [dts] of [n] have shape [e]?  Stops early when the expression
    collapses to ∅ (no possible continuation, Example 12) — sound only
    without negation, so shapes with [¬] consume every triple.

    The neighbourhood is Σgn as {!Validate} extracts it (from the
    structural indexes or a columnar slice): incoming triples included
    exactly when [Rse.has_inverse e].  {!Validate} applies that rule
    for every engine, so this is the derivative engine's only
    matcher. *)

val matches_dts :
  ?check_ref:check_ref -> ?instr:instruments ->
  Rdf.Term.t -> Neigh.dtriple list -> Rse.t -> bool
(** {!matches} checking references on the far term: an adapter. *)

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

val matches_trace_dts :
  check:Neigh.ref_check ->
  ?instr:instruments ->
  Rdf.Term.t ->
  Neigh.dtriple list ->
  Rse.t ->
  trace
(** {!matches} with every step recorded, under the same
    neighbourhood contract.  It never stops early, so a failed trace
    shows every triple; [result] is the same verdict.  Callers holding
    a session read it through {!Validate.trace}. *)

val pp_trace : Format.formatter -> trace -> unit
(** Renders the trace in the paper's style:
    [e ≃ {t₁, …} ⇔ ∂t₁(e) ≃ {…} ⇔ … ⇔ ν(e') ⇔ true].  {!Explain.of_trace}
    says where a failed trace broke. *)
