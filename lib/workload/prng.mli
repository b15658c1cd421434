(** Deterministic pseudo-random numbers (splitmix64).

    The benchmark workloads must be reproducible across runs and
    machines, so they use this self-contained generator rather than
    [Random]. *)

type t

val create : int -> t
(** [create seed] — equal seeds give equal streams. *)

val int : t -> int -> int
(** [int t bound] ∈ [0, bound).  [bound] must be positive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val shuffle : t -> 'a list -> 'a list
