(* Unit tests for the regular shape expression algebra: the §4
   simplification rules, derived operators, nullability, and printing. *)

open Util
open Shex

let a1 = arc_num "a" [ 1 ]
let b12 = arc_num "b" [ 1; 2 ]

(* §4 simplification rules *)

let test_or_simplification () =
  Alcotest.check rse "∅ | x = x" a1 (Rse.or_ Rse.empty a1);
  Alcotest.check rse "x | ∅ = x" a1 (Rse.or_ a1 Rse.empty);
  Alcotest.check rse "x | x = x" a1 (Rse.or_ a1 a1)

let test_and_simplification () =
  Alcotest.check rse "∅ ‖ x = ∅" Rse.empty (Rse.and_ Rse.empty a1);
  Alcotest.check rse "x ‖ ∅ = ∅" Rse.empty (Rse.and_ a1 Rse.empty);
  Alcotest.check rse "ε ‖ x = x" a1 (Rse.and_ Rse.epsilon a1);
  Alcotest.check rse "x ‖ ε = x" a1 (Rse.and_ a1 Rse.epsilon)

let test_star_simplification () =
  Alcotest.check rse "∅* = ε" Rse.epsilon (Rse.star Rse.empty);
  Alcotest.check rse "ε* = ε" Rse.epsilon (Rse.star Rse.epsilon);
  Alcotest.check rse "(x*)* = x*" (Rse.star a1) (Rse.star (Rse.star a1))

let test_not_simplification () =
  Alcotest.check rse "¬¬x = x" a1 (Rse.not_ (Rse.not_ a1))

let test_raw_constructors_do_not_simplify () =
  check_bool "raw or" false
    (Rse.equal (Rse.Raw.or_ Rse.empty a1) a1);
  check_bool "raw and" false
    (Rse.equal (Rse.Raw.and_ Rse.epsilon a1) a1);
  check_int "raw star stacks" 3 (Rse.size (Rse.Raw.star (Rse.Raw.star a1)))

(* Two distinct roots over one physically shared subterm whose tree has
   2⁶⁰ − 1 nodes: no structural walk could finish, so only the
   physical-equality shortcut can answer. *)
let test_shared_subterm_compares_at_once () =
  let rec tower k e = if k = 0 then e else tower (k - 1) (Rse.Raw.and_ e e) in
  let shared = tower 59 a1 in
  let r1 = Rse.Raw.or_ shared b12 and r2 = Rse.Raw.or_ shared b12 in
  check_bool "distinct roots" false (r1 == r2);
  check_int "compare" 0 (Rse.compare r1 r2);
  check_bool "equal" true (Rse.equal r1 r2);
  check_int "compare under star" 0
    (Rse.compare (Rse.Raw.star shared) (Rse.Raw.star shared))

(* Derived operators *)

let test_plus () =
  (* e+ = e{1,*}, one node over e *)
  Alcotest.check rse "plus" (Rse.repeat 1 None a1) (Rse.plus a1);
  check_int "plus is one node" 2 (Rse.size (Rse.plus a1));
  check_bool "plus is not nullable" false (Rse.nullable (Rse.plus a1))

let test_opt () =
  Alcotest.check rse "opt" (Rse.or_ a1 Rse.epsilon) (Rse.opt a1)

let test_repeat () =
  Alcotest.check rse "{0,0} = ε" Rse.epsilon (Rse.repeat 0 (Some 0) a1);
  Alcotest.check rse "{1,1} = e" a1 (Rse.repeat 1 (Some 1) a1);
  Alcotest.check rse "{0,1} = e?" (Rse.opt a1) (Rse.repeat 0 (Some 1) a1);
  Alcotest.check rse "{0,} = e*" (Rse.star a1) (Rse.repeat 0 None a1);
  Alcotest.check rse "{1,} = e+" (Rse.plus a1) (Rse.repeat 1 None a1);
  Alcotest.check rse "ε{2,3} = ε" Rse.epsilon (Rse.repeat 2 (Some 3) Rse.epsilon);
  Alcotest.check rse "∅{0,3} = ε" Rse.epsilon (Rse.repeat 0 (Some 3) Rse.empty);
  Alcotest.check rse "∅{2,3} = ∅" Rse.empty (Rse.repeat 2 (Some 3) Rse.empty);
  (* Other bounds are one node whose size does not depend on them. *)
  check_bool "{2,2} is not e ‖ e" false
    (Rse.equal (Rse.and_ a1 a1) (Rse.repeat 2 (Some 2) a1));
  check_int "{2,2} is one node" 2 (Rse.size (Rse.repeat 2 (Some 2) a1));
  check_int "{1000000,} is one node" 2 (Rse.size (Rse.repeat 1_000_000 None a1));
  check_bool "ν(e{0,3})" true (Rse.nullable (Rse.repeat 0 (Some 3) a1));
  check_bool "ν(e{2,3})" false (Rse.nullable (Rse.repeat 2 (Some 3) a1));
  check_bool "ν(e*{2,3})" true
    (Rse.nullable (Rse.repeat 2 (Some 3) (Rse.and_ (Rse.star a1) (Rse.star a1))));
  Alcotest.check_raises "negative min"
    (Invalid_argument "Rse.repeat: negative minimum") (fun () ->
      ignore (Rse.repeat (-1) None a1));
  Alcotest.check_raises "max < min"
    (Invalid_argument "Rse.repeat: max < min") (fun () ->
      ignore (Rse.repeat 2 (Some 1) a1))

(* Nullability (ν, §6) *)

let test_nullable () =
  check_bool "ν(∅)" false (Rse.nullable Rse.empty);
  check_bool "ν(ε)" true (Rse.nullable Rse.epsilon);
  check_bool "ν(arc)" false (Rse.nullable a1);
  check_bool "ν(e*)" true (Rse.nullable (Rse.star a1));
  check_bool "ν(a ‖ b*)" false (Rse.nullable example5);
  check_bool "ν(a* ‖ b*)" true
    (Rse.nullable (Rse.and_ (Rse.star a1) (Rse.star b12)));
  check_bool "ν(a | ε)" true (Rse.nullable (Rse.opt a1));
  check_bool "ν(a | b)" false (Rse.nullable (Rse.or_ a1 b12));
  check_bool "ν(¬ε)" false (Rse.nullable (Rse.not_ Rse.epsilon));
  check_bool "ν(¬arc)" true (Rse.nullable (Rse.not_ a1))

(* Structure observations *)

let test_size () =
  check_int "size atom" 1 (Rse.size a1);
  check_int "size ex5" 4 (Rse.size example5)

let test_refs () =
  let person = Label.of_string "Person" in
  let e =
    Rse.and_ a1 (Rse.star (Rse.arc_ref (Value_set.pred_iri "http://example.org/knows") person))
  in
  check_bool "has_ref" true (Rse.has_ref e);
  check_bool "no ref" false (Rse.has_ref example5);
  check_int "refs" 1 (Label.Set.cardinal (Rse.refs e))

let test_inverse_not_flags () =
  let inv = Rse.arc_v ~inverse:true (Value_set.pred_iri "http://example.org/p") Value_set.Obj_any in
  check_bool "has_inverse" true (Rse.has_inverse (Rse.and_ a1 inv));
  check_bool "no inverse" false (Rse.has_inverse example5);
  check_bool "has_not" true (Rse.has_not (Rse.and_ a1 (Rse.not_ b12)));
  check_bool "no not" false (Rse.has_not example5)

let test_arcs () =
  check_int "ex5 two arcs" 2 (List.length (Rse.arcs example5));
  check_int "ex10 two arcs" 2 (List.length (Rse.arcs example10))

let test_pp () =
  let show e = Rse.to_string e in
  check_bool "epsilon prints" true (show Rse.epsilon = "\xce\xb5");
  check_bool "empty prints" true (show Rse.empty = "\xe2\x88\x85");
  (* And binds tighter than Or; stars parenthesise their body. *)
  let s = show example5 in
  check_bool "ex5 contains star-parens" true
    (String.length s > 0
    &&
    let has_sub sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    has_sub ")*")

let test_equal_compare () =
  check_bool "equal refl" true (Rse.equal example5 example5);
  check_bool "not equal" false (Rse.equal example5 example10);
  check_bool "compare consistent" true
    (Rse.compare example5 example5 = 0
    && Rse.compare example5 example10 <> 0)

let suites =
  [ ( "rse.simplify",
      [ Alcotest.test_case "or rules" `Quick test_or_simplification;
        Alcotest.test_case "and rules" `Quick test_and_simplification;
        Alcotest.test_case "star rules" `Quick test_star_simplification;
        Alcotest.test_case "not rules" `Quick test_not_simplification;
        Alcotest.test_case "raw constructors" `Quick
          test_raw_constructors_do_not_simplify;
        Alcotest.test_case "shared subterms compare at once" `Quick
          test_shared_subterm_compares_at_once ] );
    ( "rse.derived",
      [ Alcotest.test_case "plus" `Quick test_plus;
        Alcotest.test_case "opt" `Quick test_opt;
        Alcotest.test_case "repeat ranges" `Quick test_repeat ] );
    ( "rse.observe",
      [ Alcotest.test_case "nullable" `Quick test_nullable;
        Alcotest.test_case "size" `Quick test_size;
        Alcotest.test_case "refs" `Quick test_refs;
        Alcotest.test_case "inverse/not flags" `Quick test_inverse_not_flags;
        Alcotest.test_case "arcs" `Quick test_arcs;
        Alcotest.test_case "printing" `Quick test_pp;
        Alcotest.test_case "equality and order" `Quick test_equal_compare ] )
  ]
