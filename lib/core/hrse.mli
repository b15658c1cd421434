(** Hash-consed regular shape expressions over an atom alphabet.

    The derivative engine of {!Deriv} rebuilds a fresh [Rse.t]
    for every consumed triple and compares expressions structurally —
    O(size) per comparison.  Compiling to a DFA needs the opposite
    cost model: O(1) equality so that "have I seen this derivative
    before?" is a table lookup.  This module provides it, in the style
    of Owens, Reppy & Turon ({e Regular-expression derivatives
    re-examined}, JFP 2009): every expression is interned in a
    {!table} and identified by a unique [id]; two expressions are
    equal iff their ids are equal (physically equal, in fact).

    Arc leaves are abstracted to integer {e atoms} — indices into an
    alphabet its user builds ({!Dfa}, the schema analysis) — so the
    derivative computation here is purely symbolic: {!of_rse} is the one
    translation from {!Rse} and {!deriv} the one derivative, both
    shared by every user.

    The smart constructors reproduce the full normalisation of
    {!Rse}: the §4 simplification rules, ACI normal form ([‖] and
    [|] spines flattened into sorted n-ary nodes, [|] deduplicated —
    [‖] is a bag operator and keeps duplicates) and the distributive
    factoring [(C ‖ X) | (C ‖ Y) = C ‖ (X | Y)].  Because children are
    sorted by id and interned, the ACI normal form is {e canonical by
    construction}: all ACI-equal ways of writing an expression produce
    the same id (see [test/test_automaton.ml]).

    Nullability ν is computed once at interning time and stored on the
    node, so the DFA's acceptance check is a field read. *)

type t = private {
  id : int;  (** unique within the owning table; equality witness *)
  node : node;
  nullable : bool;  (** ν, precomputed at interning time *)
}

and node = private
  | Empty
  | Epsilon
  | Atom of int  (** arc leaf, abstracted to an alphabet index *)
  | Star of t
  | And of t list  (** ≥ 2 children, sorted by id; a bag (duplicates kept) *)
  | Or of t list  (** ≥ 2 children, sorted by id, deduplicated *)
  | Not of t
  | Repeat of t * int * int option
      (** [e{m,n}], [None] = unbounded; bounds as in {!Rse.Repeat} *)

type table
(** The interning table.  All expressions combined by the constructors
    below must come from the same table; ids are unique only within
    it. *)

val create : unit -> table

val cardinal : table -> int
(** Number of distinct expressions interned so far. *)

val work : table -> int
(** Words of structural key the constructors have looked up so far,
    found or new: an n-ary [And]/[Or] counts n, any other node 1.  A
    deterministic measure of the time spent building expressions,
    which, unlike {!cardinal}, also grows when they already exist. *)

(** {1 Constructors}

    All apply the §4 simplification rules and ACI normalisation, as
    {!Rse}'s smart constructors do, then intern. *)

val empty : table -> t
val epsilon : table -> t

val atom : table -> int -> t
(** [atom tbl i] — the arc leaf for alphabet index [i ≥ 0]. *)

val star : table -> t -> t
val and_ : table -> t -> t -> t
val or_ : table -> t -> t -> t
val not_ : table -> t -> t
val and_all : table -> t list -> t
val or_all : table -> t list -> t

val repeat : table -> int -> int option -> t -> t
(** [e{m,n}] with the degenerate bounds of {!Rse.repeat}; the caller
    guarantees [0 ≤ m ≤ n]. *)

(** {1 From shape expressions, and derivatives} *)

val of_rse : table -> (Rse.arc -> int) -> Rse.t -> t
(** [of_rse tbl atom e] interns [e], each arc leaf as the atom [atom]
    assigns it. *)

type memo
(** Derivatives already computed, by expression id. *)

val memo : unit -> memo
(** A fresh, empty memo. *)

val deriv : ?memo:memo -> table -> bool array -> t -> t
(** [deriv tbl member e] is [∂(e)] for a consumed triple that matches
    exactly the atoms [i] with [member.(i)]: {!Deriv.deriv} with arc
    matching replaced by membership, including
    [∂(e{m,n}) = ∂e ‖ e{m∸1,n−1}].

    Every sub-derivative is memoised by expression id.  Without [memo]
    the memo lives for this call only.  With [memo] it persists across
    calls, so a sub-expression met again — in a later state of the
    same automaton — is derived once.  Sound only when the memo is
    used with {e one} member vector and {e one} table throughout: ids
    are unique only within a table, and a derivative is a function of
    (expression, member vector).  Under that condition the result is
    the one a memo-less call returns (physically equal) and interns
    nothing extra. *)

(** {1 Observations} *)

val equal : t -> t -> bool
(** O(1): id comparison. *)

val compare : t -> t -> int
val hash : t -> int

val is_empty : t -> bool
(** Is this the interned ∅?  (The dead state of a negation-free
    automaton.) *)

val size : t -> int
(** AST nodes, counting an n-ary [And]/[Or] as [n − 1] binary nodes —
    comparable with {!Rse.size}. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering with atoms printed as [#i]. *)
