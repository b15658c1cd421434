(** The provenance trace tree: a span-tree recorder for telemetry
    events.

    {!Telemetry} deliberately keeps its event sink flat — a function
    per event, one branch when disabled.  This module is the sink that
    reconstructs the structure: [check] spans ({!Telemetry.span_begin}
    / {!Telemetry.span_end}) nest by a stack discipline, and instants
    ([deriv_step], [nullable_check], [fixpoint_dep], …) attach to the
    innermost open span.  The result is one tree per validation run —
    the paper's walk tables with wall-clock timing — which
    {!Export} serialises to Chrome trace-event JSON and folded
    flamegraph stacks.

    Timestamps are microseconds since the recorder's creation.  The
    clock is injectable so tests can record deterministic trees. *)

type span = {
  name : string;
  mutable args : (string * Telemetry.value) list;
      (** begin-event fields, with any {e new} end-event fields
          appended on close (e.g. a check span's verdict) *)
  ts : int;  (** start time, µs since the recorder epoch *)
  mutable dur : int;  (** duration in µs; [0] for instants *)
  is_span : bool;  (** [false] for instant events *)
  mutable rev_children : span list;  (** use {!children} *)
}

type t

val create : ?clock:(unit -> float) -> unit -> t
(** A fresh recorder.  [clock] (default [Unix.gettimeofday]) is read
    once per event; inject a counter for deterministic tests. *)

val sink : t -> Telemetry.event -> unit
(** The function to install with {!Telemetry.set_sink} (possibly
    composed with other sinks).  [Span_begin] opens a nested section,
    [Span_end] closes the matching section — closing any abandoned
    inner sections first, so exceptional unwinding cannot corrupt the
    tree — and merges its fresh fields into the span's args; [Instant]
    attaches a zero-duration child to the innermost open section. *)

val finish : t -> unit
(** Close any still-open spans at the current time (e.g. after an
    exception).  Idempotent; {!roots} calls it automatically. *)

val roots : t -> span list
(** The completed trace forest, in emission order. *)

val children : span -> span list
(** A span's children in emission order. *)

val events : t -> int
(** Events delivered so far (spans count twice: begin and end). *)

val string_arg : span -> string -> string option
