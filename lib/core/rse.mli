(** Regular Shape Expressions — the abstract syntax of §4.

    {v
    E, F ::= ∅        empty, no shape
           | ε        empty set of triples
           | vp → vo  arc with predicate p ∈ vp and object o ∈ vo
           | E*       Kleene closure (0 or more E)
           | E ‖ F    And (unordered concatenation)
           | E | F    Alternative
           | E{m,n}   between m and n occurrences of E (n may be ∞)
    v}

    The paper defines [E{m,n}] as sugar for copies of [E]; here it is
    one node, the counted repetition of the interval-based bag
    expressions (RBE) of Boneva et al., {e Shape Expressions Schemas}.
    Its size does not depend on the bounds, and its derivative counts
    down: [ν(e{m,n}) = (m = 0 ∨ ν(e))],
    [∂t(e{m,n}) = ∂t(e) ‖ e{m∸1,n−1}].

    plus the extensions the paper names (§8, §10): shape references in
    object position, inverse arcs and negation (complement), which is
    derivative-friendly (ν(¬e) = ¬ν(e), ∂t(¬e) = ¬∂t(e)).

    The {e smart constructors} {!and_}, {!or_}, {!star}, {!not_} apply
    the simplification rules of §4 ([∅ | x = x], [∅ ‖ x = ∅],
    [ε ‖ x = x], …) so that derivatives stay small; {!module:Raw}
    builds unsimplified nodes for the ablation experiment E5. *)

(** Object position of an arc: either a value set or a reference to a
    labelled shape (§8). *)
type obj_spec =
  | Values of Value_set.obj
  | Ref of Label.t

type arc = {
  pred : Value_set.pred;
  obj : obj_spec;
  inverse : bool;  (** extension: match incoming instead of outgoing arcs *)
}

type t = private
  | Empty
  | Epsilon
  | Arc of arc
  | Star of t
  | And of t * t
  | Or of t * t
  | Not of t
  | Repeat of t * int * int option
      (** [e{m,n}], [None] = unbounded.  Built by {!repeat} only, so the
          bounds are never {0,0}, {1,1}, {0,*} or {0,1}, and the body is
          neither ∅ nor ε. *)

(** {1 Constructors} *)

val empty : t
(** ∅ — matches no neighbourhood at all. *)

val epsilon : t
(** ε — matches exactly the empty neighbourhood. *)

val arc : ?inverse:bool -> Value_set.pred -> obj_spec -> t
val arc_v : ?inverse:bool -> Value_set.pred -> Value_set.obj -> t
val arc_ref : ?inverse:bool -> Value_set.pred -> Label.t -> t

val star : t -> t
(** [e*], simplified: [∅* = ε* = ε], [(e⋆)⋆ = e*]. *)

val and_ : t -> t -> t
(** [e₁ ‖ e₂], simplified: [∅ ‖ x = x ‖ ∅ = ∅], [ε ‖ x = x ‖ ε = x]. *)

val or_ : t -> t -> t
(** [e₁ | e₂], simplified: [∅ | x = x | ∅ = x], [x | x = x]. *)

val not_ : t -> t
(** Complement (extension): [¬¬e = e]. *)

val and_all : t list -> t
val or_all : t list -> t

(** {1 Derived operators (§4)} *)

val plus : t -> t
(** [e⁺ = e{1,*}]. *)

val opt : t -> t
(** [e? = e | ε]. *)

val repeat : int -> int option -> t -> t
(** [repeat m (Some n) e] is the range operator [e{m,n}]: between [m]
    and [n] occurrences; [repeat m None e] is [e{m,}].  One {!Repeat}
    node of constant size, except for the bounds with a form of their
    own: {0,0} is ε, {1,1} is [e], {0,*} is [e*] and {0,1} is [e?]
    (and ε or ∅ repeated is ε or ∅).  Raises [Invalid_argument] if
    [m < 0] or [n < m]. *)

(** {1 Observations} *)

val size : t -> int
(** Number of AST nodes — the measure of derivative growth (E2/E5). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val nullable : t -> bool
(** ν(e): whether [e] matches the empty neighbourhood (§6).  [ν(∅) =
    false], [ν(ε) = true], [ν(vp→vo) = false], [ν(e⋆) = true],
    [ν(e₁‖e₂) = ν(e₁) ∧ ν(e₂)], [ν(e₁|e₂) = ν(e₁) ∨ ν(e₂)],
    [ν(e{m,n}) = (m = 0 ∨ ν(e))], and for the complement extension
    [ν(¬e) = ¬ν(e)]. *)

val refs : t -> Label.Set.t
(** Labels referenced anywhere in the expression. *)

val refs_under_not : t -> Label.Set.t
(** Labels referenced inside a negated subexpression.  Such references
    make recursion non-monotone (the coinductive hypothesis of §8's
    MatchShape rule could flip a verdict), so {!Schema.make} rejects
    them. *)

val has_ref : t -> bool
val has_inverse : t -> bool
val has_not : t -> bool

val arc_equal : arc -> arc -> bool
val arc_compare : arc -> arc -> int
(** Structural equality / total order on arc leaves — the hooks the
    hash-consing compiler uses to intern each distinct arc as one atom
    of the automaton alphabet. *)

val arcs : t -> arc list
(** All arc leaves, left to right. *)

val open_up : t -> t
(** Open-shape semantics (ShEx's default, where RSE is closed): the
    shape additionally tolerates any number of arcs whose predicate is
    mentioned by {e none} of its constraints — [e ‖ (p̄→.)⋆] with [p̄]
    the complement of the mentioned predicate sets.  When [e] uses
    inverse arcs, unmentioned incoming arcs are tolerated likewise. *)

val with_extra : Value_set.pred -> t -> t
(** ShEx's [EXTRA p]: tolerate any number of extra outgoing arcs with
    the given predicates regardless of their values —
    [e ‖ (p→.)⋆]. *)

val pp : Format.formatter -> t -> unit
(** Paper-style notation: [a→1 ‖ (b→{1, 2})⋆ ‖ (c→1){2,*}]. *)

val to_string : t -> string

(** {1 Ablation support} *)

(** The constructor set a derivative computation threads through.
    {!smart_ctors} simplifies per §4; {!raw_ctors} builds raw nodes, so
    derivatives grow unboundedly (experiment E5). *)
type ctors = {
  mk_and : t -> t -> t;
  mk_or : t -> t -> t;
  mk_not : t -> t;
}

val smart_ctors : ctors
(** Full normalisation: §4 rules + ACI + distributive factoring. *)

val aci_ctors : ctors
(** §4 rules + ACI normalisation but {e no} distributive factoring —
    the middle rung of the E5 ablation ladder. *)

val raw_ctors : ctors
(** No simplification at all. *)

(** Unsimplified constructors. *)
module Raw : sig
  val star : t -> t
  val and_ : t -> t -> t
  val or_ : t -> t -> t
  val not_ : t -> t
end
