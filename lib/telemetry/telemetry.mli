(** Session telemetry: a zero-dependency metrics registry.

    The paper's central empirical claim — “the derivatives algorithm
    behaves much better than the backtracking one” (§8, §10) — is
    stated without tables, so this reproduction generates its own
    evidence.  Every engine (derivatives, backtracking, SORBE
    counting, compiled automata) and the fixpoint solver report their
    work through one registry:

    - {e counters} — monotonic event counts (derivative steps taken,
      backtracking branches explored, …) and {e gauges} — set-valued
      readings (compiled-automaton states materialised, …);
    - {e histograms} — integer distributions over fixed log2 buckets
      (expression sizes before/after simplification);
    - {e spans} — wall-clock timing sections ([Unix.gettimeofday]);
    - an {e event sink} — structured per-step events (the machine
      readable derivative traces behind [--trace-json]).

    The registry is deliberately below [Shex] in the dependency order:
    core engines report into it, it never calls back into them.

    {b Cost when disabled.}  Instruments created from {!disabled} are
    permanently inactive: every operation is a single load-and-branch
    on the instrument's [active] flag (measured in experiment E10).
    Instrumented code should guard any {e argument} computation that
    is itself costly (e.g. an expression-size walk) behind {!enabled}
    or {!Counter.active}. *)

type t
(** A metrics registry.  Not thread-safe; intended to be owned by one
    validation session or one benchmark experiment. *)

val create : unit -> t
(** A fresh, enabled registry. *)

val disabled : t
(** The shared inert registry: instruments created from it never
    record, and {!snapshot} of it is empty.  This is the default
    registry of every {!Shex.Validate.session}. *)

val enabled : t -> bool

(** {1 Instruments}

    All creation functions are get-or-create by name: asking twice for
    the same name returns the same instrument, so independent modules
    can share a metric.  On {!disabled} they return inert instruments
    without registering anything. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit

  val set : t -> int -> unit
  (** For gauges: overwrite the reading. *)

  val value : t -> int

  val name : t -> string
  (** The name the instrument was registered (or, on {!disabled},
      requested) under. *)

  val active : t -> bool
  (** [false] exactly for instruments of {!disabled} registries — the
      single branch the hot paths test. *)
end

module Histogram : sig
  type t

  val observe : t -> int -> unit
  (** Record one integer observation.  Buckets are fixed powers of
      two: observation [v] lands in the first bucket [le = 2^i] with
      [v <= 2^i] (values above [2^30] land in the overflow bucket). *)

  val count : t -> int
  val sum : t -> int
  val max_value : t -> int
end

module Span : sig
  type t

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk, accumulating its wall-clock duration
      ([Unix.gettimeofday]) and bumping the span's run count.  On an
      inactive span this is just the call. *)

  val record : t -> float -> unit
  (** Account one already-measured duration (seconds): adds it to the
      total and bumps the run count.  Negative readings (a clock step)
      clamp to zero.  For callers that hold one measurement and feed
      several spans — timing each with {!time} would stack clock
      calls. *)

  val count : t -> int
  val total : t -> float
end

(** {1 The wall clock}

    {b Caveat.}  All span timing uses the {e wall} clock
    ([Unix.gettimeofday]), which is not monotonic: an NTP step (or a
    VM pause with clock resync) can move it backwards mid-section.
    Every consumer in this library — {!Span.time}, {!Span.record}, the
    slow-check timer in [Shex.Validate] — clamps negative deltas to
    zero, so a backwards step loses that one reading's duration but
    can never corrupt an accumulated total or spuriously trigger (or
    suppress) a slow-check capture with a negative duration. *)

val now : unit -> float
(** The current reading of the (possibly test-injected) wall clock. *)

val set_clock : (unit -> float) option -> unit
(** Override the wall clock every instrument reads — for tests that
    need a deterministic (or deliberately backwards-stepping) clock.
    [None] restores [Unix.gettimeofday].  Global; not for production
    use. *)

val counter : t -> ?help:string -> string -> Counter.t
val gauge : t -> ?help:string -> string -> Counter.t
val histogram : t -> ?help:string -> string -> Histogram.t
val span : t -> ?help:string -> string -> Span.t
(** The [?help] string (first writer wins, ignored on {!disabled})
    becomes the [# HELP] line of {!pp_text}. *)

(** {1 Labelled families}

    One logical metric fanned out over a string label — the
    attribution dimension ([deriv_steps_by_shape{shape="Person"}]):
    counters and spans.
    A family is get-or-create by name like any instrument; each label
    resolves (get-or-create) to an ordinary cell of the family's
    instrument type, so after resolution the hot path pays exactly the
    plain-instrument cost.  Families merge, reset, diff, snapshot and
    render like everything else: [{key="label"}] Prometheus lines in
    {!pp_text}, a ["labelled"] member in {!to_json} (present only when
    at least one family exists).  On {!disabled}, families hand out
    uncached inert cells and register nothing. *)

type 'a family

val counter_family : t -> ?help:string -> key:string -> string -> Counter.t family
(** Labelled cells are always monotonic counters. *)

val span_family : t -> ?help:string -> key:string -> string -> Span.t family

val labelled : 'a family -> string -> 'a
(** [labelled fam label] is the cell for [label], created on first
    use.  Resolve once per label on hot paths (a hashtable probe);
    the returned cell is then a plain instrument. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds every instrument of [src] into [into]:
    counters and gauges add their values (a merged gauge reading is
    the sum of the per-domain resource counts), histograms add
    bucket-by-bucket with count/sum added and the max of maxima, and
    spans add run counts and total seconds.  Instruments missing in
    [into] are created, so the merge is lossless.  This is the join
    half of domain-parallel validation: each worker owns a private
    registry (the registry itself is not thread-safe) and the parent
    folds them in after {!Domain.join}.  No-op when either registry
    is disabled.  [src] is left unchanged. *)

val reset : t -> unit
(** Zero every registered instrument in place — counters and gauges to
    0, histograms to empty, spans to no runs — keeping registrations,
    instrument identity and any installed sink.  Instruments already
    resolved by live sessions keep recording into the same cells, so a
    long-running server can reset between requests without rebuilding
    its sessions.  Monotone counters therefore stop leaking across
    requests: after [reset] a {!snapshot} reports only post-reset
    work.  No-op on {!disabled}. *)

(** {1 Structured events}

    The sink receives one {!event} per emission — the derivative
    engines emit one per consumed triple, which is the machine
    readable form of the paper's step-by-step traces (Examples
    11–12).

    Events carry a {!phase} so that a sink can reconstruct a {e span
    tree} (the provenance trace behind [--trace-chrome] and
    [--explain]): {!Span_begin}/{!Span_end} bracket a nested section
    (one [check] span per (node, shape) evaluation), {!Instant} marks
    a point event inside the current section (one [deriv_step] per
    consumed triple, one [nullable_check] at neighbourhood
    exhaustion, fixpoint dependency edges, …).  The registry itself
    does not build the tree — [Shex_explain.Trace] does — so the
    emitting hot paths stay one branch when disabled. *)

type value = Int of int | Float of float | Bool of bool | String of string

type phase = Span_begin | Span_end | Instant

type event = { name : string; phase : phase; fields : (string * value) list }

val instant : string -> (string * value) list -> event
val span_begin : string -> (string * value) list -> event
val span_end : string -> (string * value) list -> event
(** [span_end name fields]'s fields are merged into the matching open
    span by tree-building sinks (e.g. the verdict an evaluation span
    learns only at its end). *)

val set_sink : t -> (event -> unit) option -> unit

val tracing : t -> bool
(** [true] when the registry is enabled {e and} a sink is installed —
    the guard instrumented code tests before building event fields. *)

val set_residuals : t -> bool -> unit
(** Ask tracing instrumentation to attach the {e full residual
    expressions} (rendered, before/after each derivative step) to its
    events, not just their sizes.  Costly — each step then serialises
    two expressions — so it is a separate knob from {!set_sink};
    experiment E11 prices the difference.  No-op on a disabled
    registry. *)

val residuals : t -> bool
(** [true] when {!tracing} and residual capture was requested. *)

val emit : t -> event -> unit
(** Deliver to the sink; a no-op unless {!tracing}. *)

val value_to_json : value -> Json.t

val event_to_json : event -> Json.t
(** [{"event": name, field₁: v₁, …}] with fields in emission order.
    Span events additionally carry ["ph": "B"|"E"] after the name;
    instants stay exactly as before phases existed. *)

(** {1 Snapshots}

    A snapshot is an immutable, deterministically ordered (sorted by
    metric name) copy of the registry — the value behind
    [--metrics] and the bench [telemetry] JSON objects. *)

type snapshot

val snapshot : t -> snapshot

val counters : snapshot -> (string * int) list
(** Counters and gauges, sorted by name. *)

val find_counter : snapshot -> string -> int option

val labelled_counter_values : snapshot -> string -> (string * int) list
(** The cells of a labelled counter family, sorted by label; [[]] when
    the family does not exist. *)

val labelled_span_values : snapshot -> string -> (string * (int * float)) list
(** The cells of a labelled span family as [(label, (count, seconds))],
    sorted by label; [[]] when the family does not exist. *)

val diff : since:snapshot -> snapshot -> snapshot
(** [diff ~since now] is the per-window delta between two snapshots of
    the same registry — what a long-running server reports per
    request without resetting.  Monotone readings (counters, histogram
    counts/sums/buckets, span counts and seconds) subtract member-wise;
    a reading below its [since] baseline means the registry was
    {!reset} inside the window, and the diff then reports the [now]
    value unchanged (never a negative); gauges and histogram
    maxima are level readings and keep their [now] values; instruments
    that first appear in [now] pass through unchanged.  Labelled
    families diff label-by-label under the same rules (fresh labels
    pass through; a per-label reset degrades to the [now] reading). *)

val to_json : snapshot -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...},
    "spans": {...}}], every object sorted by key.  Histograms render
    as [{"count", "sum", "max", "buckets"}] with non-empty buckets
    keyed by their [le] bound; spans as [{"count", "seconds"}].  When
    at least one labelled family exists a trailing ["labelled"] member
    nests them as [{"counters"|"spans":
    {family: {"key": label-key, "cells": {label: reading}}}}]. *)

val snapshot_of_json : Json.t -> snapshot
(** The lenient inverse of {!to_json}: [to_json (snapshot_of_json
    (to_json s))] is [to_json s].  A missing or malformed member reads
    as empty, so a partial record (a journal tick) still decodes.
    [# HELP] text is not part of the JSON and comes back empty. *)

(** {1 Sliding-window SLIs}

    A bounded ring of periodically sampled snapshots, from which
    rolling {e rates} (counter deltas over the window's wall time) and
    windowed {e latency quantiles} (estimated from histogram-bucket
    diffs) are derived — the service-level indicators a scraper reads
    from a long-running daemon whose raw counters are all
    cumulative-since-boot.  The window owns nothing live: its owner
    samples {!snapshot} on a timer and calls {!Window.observe}. *)

module Window : sig
  type t

  val default_slots : int
  (** 60 — ten minutes of history at the default 10 s interval. *)

  val create : ?slots:int -> interval_s:float -> unit -> t
  (** A ring of [slots] samples (minimum 2).  [interval_s] is the
      sampling period the owner intends; the window only records it
      (for reporting) — the owner drives the actual sampling. *)

  val slots : t -> int
  val interval_s : t -> float

  val samples : t -> int
  (** Samples currently retained (saturates at [slots]). *)

  val observe : t -> now:float -> snapshot -> unit
  (** Push one sample, evicting the oldest when full. *)

  val quantile : (int * int) list -> total:int -> float -> int
  (** [quantile buckets ~total p] — nearest-rank p-quantile estimate
      over ascending log2 [(le, count)] buckets: the bound [le] of the
      bucket holding the rank-⌈p·total⌉ observation.  The estimate is
      exact up to the bucket: the true quantile [q] satisfies
      [le/2 < q <= le] (or [q <= 1] when [le = 1]) — a factor-of-two
      bound, the documented resolution of log2 histograms.  [0] when
      [total <= 0]. *)

  type quantiles = { q_count : int; q_p50 : int; q_p99 : int }

  type summary = {
    w_seconds : float;  (** wall time between oldest and newest sample *)
    w_samples : int;
    w_rates : (string * float) list;
        (** per-second rate of every monotone counter over the window *)
    w_quantiles : (string * quantiles) list;
        (** windowed p50/p99 {!quantile} estimates of every histogram
            that recorded observations inside the window *)
  }

  val between : float * snapshot -> float * snapshot -> summary option
  (** [between (t0, s0) (t1, s1)] summarises two timestamped samples
      of one registry through {!diff}: rates over [t1 - t0] seconds,
      quantiles of the histograms that recorded observations in
      between, [w_samples = 2].  [None] unless [t1 > t0].  {!summary}
      and offline journal replay both compute their windows with
      it. *)

  val summary : t -> summary option
  (** {!between} the oldest and newest retained samples, with
      [w_samples] the number retained.  [None] until two samples with
      distinct timestamps exist. *)

  val summary_to_json : summary -> Json.t

  val pp_prometheus : Format.formatter -> summary -> unit
  (** Derived gauges in exposition format, intended to be appended
      after {!pp_text}: [shex_obs_window_seconds]/[_samples], one
      [shex_<counter>_rate] per counter and [shex_<histogram>_p50]/
      [_p99] per active histogram.  The suffixes keep the names
      disjoint from live instruments. *)
end

val pp_text : Format.formatter -> snapshot -> unit
(** Prometheus-style text exposition: [# HELP] (when registered) and
    [# TYPE] comment lines, [shex_]-prefixed metric names, cumulative
    [_bucket{le="..."}] lines for histograms, [_sum]/[_count] for
    histograms and spans; labelled families render one line per label
    as [shex_name{key="label"} v].  Metric and label-key names are
    sanitized to the Prometheus charset ([[a-zA-Z0-9_:]], other bytes
    become [_]); label values escape backslash, double quote and
    newline, so an arbitrary shape label or focus-node literal cannot
    produce a malformed exposition. *)
