(** Cross-engine differential oracle.

    The repo carries four neighbourhood matchers (derivatives,
    backtracking, SORBE counting, compiled DFA), a SPARQL compilation
    path and a domain-parallel bulk runner, all promising identical
    verdicts.  This module checks that promise mechanically: it runs a
    random workload ({!Workload.Rand_gen}) through every applicable
    arm, compares verdicts and report JSON, and delta-shrinks any
    disagreement to a minimal counterexample that can be written as a
    self-contained repro file (ShExC + Turtle + shape map) and
    replayed as a regression test. *)

(** How two arms disagreed. *)
type kind =
  | Verdict  (** conformance bits differ *)
  | Report   (** verdicts agree but report JSON (blame sets) differs *)

type divergence = {
  arm : string;
      (** the disagreeing arm: ["backtrack"], ["auto"], ["compiled"],
          ["sorbe"], ["domains=2"], ["domains=4"], ["sparql"] or
          ["edits"]; the reference arm is always the sequential
          derivative engine *)
  kind : kind;
  detail : string;  (** one-line human-readable description *)
}

val divergences :
  Shex.Schema.t ->
  Rdf.Graph.t ->
  (Rdf.Term.t * Shex.Label.t) list ->
  divergence list
(** Run every applicable arm over the associations and report each
    disagreement with the derivative reference.  The ten engine and
    domain arms always run; the SORBE and SPARQL arms restrict
    themselves to the shapes (and, for SPARQL, focus nodes) inside
    their fragments. *)

val shrink_with :
  keep:
    (Shex.Schema.t ->
    Rdf.Graph.t ->
    (Rdf.Term.t * Shex.Label.t) list ->
    bool) ->
  Shex.Schema.t ->
  Rdf.Graph.t ->
  (Rdf.Term.t * Shex.Label.t) list ->
  Shex.Schema.t * Rdf.Graph.t * (Rdf.Term.t * Shex.Label.t) list
(** Greedy delta-shrink preserving an arbitrary predicate: drop
    associations, then graph triples, then simplify shape expressions
    and drop unreferenced rules, to a local minimum; [keep] is called
    on each candidate and a step is kept only when it returns [true].
    [keep] must hold on the input or the output is just the input.
    Used by {!shrink} with "the divergence survives", and by the
    static-analysis containment arm with "the focus still satisfies S1
    and fails S2" (S2 closed over by the predicate) — the witness
    property must survive shrinking, not just some divergence. *)

val shrink :
  Shex.Schema.t ->
  Rdf.Graph.t ->
  (Rdf.Term.t * Shex.Label.t) list ->
  divergence ->
  Shex.Schema.t * Rdf.Graph.t * (Rdf.Term.t * Shex.Label.t) list
(** {!shrink_with} instantiated with "the given divergence (same arm,
    same kind) survives". *)

(** A shrunk, reproducible divergence from a campaign. *)
type finding = {
  seed : int;
  mode : Workload.Rand_gen.mode;
  divergence : divergence;  (** re-derived on the shrunk workload *)
  schema : Shex.Schema.t;
  graph : Rdf.Graph.t;
  associations : (Rdf.Term.t * Shex.Label.t) list;
  repro : string option;  (** path of the written repro file, if any *)
}

type summary = { seeds_run : int; findings : finding list }

val run_campaign :
  ?mode:Workload.Rand_gen.mode ->
  ?dir:string ->
  ?log:(string -> unit) ->
  first_seed:int ->
  count:int ->
  unit ->
  summary
(** Generate and check [count] seeded workloads starting at
    [first_seed].  Each divergence is shrunk; with [?dir] set (and the
    workload printable, i.e. [Surface] mode) a repro file is written
    there as [oracle-seed<N>.repro].  [log] receives one line per
    divergence as it is found. *)

val repro_to_string : finding -> string
(** The self-contained repro document: a commented header, then
    [%schema] (ShExC), [%data] (Turtle) and [%map] (fixed shape map)
    sections.  Raises [Invalid_argument] when the schema is outside
    the ShExC-printable fragment (Extended-mode predicate sets). *)

val replay_string : string -> (unit, string) result
(** Parse a repro document and re-run {!divergences} on it — plus, when
    the document carries a non-empty [%edits] section ([+]/[-] prefixed
    N-Triples lines), the incremental edits arm over that script:
    [Ok ()] when every arm now agrees (the regression stays fixed),
    [Error detail] otherwise.  Also [Error] on malformed documents. *)

val replay_file : string -> (unit, string) result

(** {1 Incremental edits arm}

    Differential testing of [Shex_incremental.Session]: replay a
    seeded edit script ({!Workload.Rand_gen.edit_script}) through an
    incremental session and compare every association's outcome —
    verdict, typing ({!Shex.Validate.typing}) and explanation — after
    every edit, against a from-scratch session over the same graph.
    This mechanically checks the frontier-invalidation soundness
    argument of DESIGN.md §11. *)

val edits_divergence :
  Shex.Schema.t ->
  Rdf.Graph.t ->
  Workload.Rand_gen.edit list ->
  (Rdf.Term.t * Shex.Label.t) list ->
  divergence option
(** The first stale outcome found while replaying the script, if
    any — arm ["edits"], kind {!Verdict} for a stale verdict and
    {!Report} for a stale typing or explanation. *)

val shrink_edits :
  Shex.Schema.t ->
  Rdf.Graph.t ->
  Workload.Rand_gen.edit list ->
  (Rdf.Term.t * Shex.Label.t) list ->
  divergence ->
  Rdf.Graph.t * Workload.Rand_gen.edit list * (Rdf.Term.t * Shex.Label.t) list
(** Greedy shrink preserving the divergence: associations, then script
    edits, then initial graph triples.  The schema is left whole. *)

module Edits : sig
  type finding = {
    seed : int;
    divergence : divergence;
    schema : Shex.Schema.t;
    graph : Rdf.Graph.t;  (** shrunk initial graph *)
    script : Workload.Rand_gen.edit list;  (** shrunk script *)
    associations : (Rdf.Term.t * Shex.Label.t) list;
    repro : string option;
  }

  type summary = { seeds_run : int; findings : finding list }
end

val edits_repro_to_string : Edits.finding -> string
(** Like {!repro_to_string} with an extra [%edits] section, one
    [+ <s> <p> <o> .] / [- <s> <p> <o> .] N-Triples line per edit. *)

(** {1 Static-analysis arms}

    Differential checks of [lib/analysis]'s two one-sided verdicts.
    The containment arm attacks both directions of the soundness
    contract: a [Contained] claim must survive verdict fuzzing over
    generated graphs, and a [Refuted] witness must concretely validate
    under S1 and fail S2 — directly, after a Turtle round-trip, and
    after delta-shrinking with {!shrink_with}.  The optimizer arm pins
    optimised ≡ unoptimised down to byte-identical report JSON, modulo
    one normalisation: the [explain]/[reason] blame payload renders
    the (rewritten) expression itself and is blanked on both sides;
    every verdict bit, conformance count, entry node/shape and the
    entry order are compared byte for byte. *)

module Analysis_arm : sig
  type finding = { seed : int; detail : string }

  type containment_summary = {
    seeds_run : int;
    contained : int;  (** [Contained] verdicts fuzz-checked *)
    refuted : int;  (** [Refuted] witnesses re-verified *)
    inconclusive : int;
    findings : finding list;
  }

  type optimizer_summary = {
    seeds_run : int;
    rewritten : int;  (** seeds where the optimizer changed ≥ 1 shape *)
    findings : finding list;
  }
end

val run_containment_campaign :
  ?log:(string -> unit) ->
  ?max_states:int ->
  first_seed:int ->
  count:int ->
  unit ->
  Analysis_arm.containment_summary
(** For each seed: generate a workload, derive a semantically mutated
    v2 (rules kept, widened, or narrowed), run
    [Analysis.check_compat v1 v2] and attack every verdict as
    described above.  Any surviving attack is a finding. *)

val run_optimizer_campaign :
  ?log:(string -> unit) ->
  ?mode:Workload.Rand_gen.mode ->
  first_seed:int ->
  count:int ->
  unit ->
  Analysis_arm.optimizer_summary
(** For each seed: report JSON over the generated associations must be
    byte-identical (modulo blanked blame payloads, see above) between
    the original and the optimised schema, on both the structural and
    interned session paths. *)

val run_edits_campaign :
  ?dir:string ->
  ?log:(string -> unit) ->
  ?script_len:int ->
  first_seed:int ->
  count:int ->
  unit ->
  Edits.summary
(** Generate [count] seeded Surface-mode workloads with edit scripts
    (default [script_len] 12) and check each with
    {!edits_divergence}.  Findings are shrunk and, with [?dir] set,
    written as [oracle-edits-seed<N>.repro]. *)
