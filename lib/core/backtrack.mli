(** The paper's baseline: direct implementation of the Fig. 1
    inference rules by backtracking.

    The [And] rule matches [e₁ ‖ e₂] against [g] by trying {e every}
    decomposition of [g] into ordered pairs [(g₁, g₂)] with
    [g₁ ⊎ g₂ = g] (Example 3: 2ⁿ pairs for n triples), recursively;
    likewise [Star2].  This is deliberately the naïve exponential
    procedure of §5 — it exists to reproduce the paper's comparison
    (experiment E1), and as an independent test oracle for the
    derivative matcher. *)

type check_ref = Label.t -> Rdf.Term.t -> bool

(** {1 Telemetry}

    The matcher reports [backtrack_branches] (one per inference-rule
    application — the work counter of experiment E1) and
    [backtrack_decompositions] (one per ordered pair generated while
    splitting a neighbourhood for [‖] or [⋆] — Example 3's 2ⁿ). *)

type instruments

val instruments : Telemetry.t -> instruments
val no_instruments : instruments

val counters : instruments -> Telemetry.Counter.t list
(** The monotone counters resolved, in order: [backtrack_branches],
    [backtrack_decompositions]. *)

val matches :
  check:Neigh.ref_check -> ?instr:instruments ->
  Rdf.Term.t -> Neigh.dtriple list -> Rse.t -> bool
(** [matches ~check n dts e]: does the neighbourhood [dts] of [n] satisfy
    [e] under the Fig. 1 rules?  The neighbourhood is Σgn as
    {!Validate} extracts it for every engine: incoming triples included
    exactly when [Rse.has_inverse e].  When the registry has a sink,
    each call emits one [backtrack_match] event with the focus, the
    number of triples, the rule applications explored and the
    verdict. *)

val matches_dts :
  ?check_ref:check_ref -> ?instr:instruments ->
  Rdf.Term.t -> Neigh.dtriple list -> Rse.t -> bool
(** {!matches} checking references on the far term: an adapter. *)
