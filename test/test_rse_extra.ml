(* Additional unit tests for the expression algebra: the ACI +
   factoring normalisation, open-shape combinators, and predicate
   collection. *)

open Util
open Shex

let a1 = arc_num "a" [ 1 ]
let b1 = arc_num "b" [ 1 ]
let c1 = arc_num "c" [ 1 ]

(* ------------------------------------------------------------------ *)
(* ACI normalisation                                                  *)
(* ------------------------------------------------------------------ *)

let test_and_commutative_normal_form () =
  Alcotest.check rse "a‖b = b‖a" (Rse.and_ a1 b1) (Rse.and_ b1 a1);
  Alcotest.check rse "assoc"
    (Rse.and_ (Rse.and_ a1 b1) c1)
    (Rse.and_ a1 (Rse.and_ b1 c1))

let test_or_commutative_normal_form () =
  Alcotest.check rse "a|b = b|a" (Rse.or_ a1 b1) (Rse.or_ b1 a1);
  Alcotest.check rse "assoc (no common factor)"
    (Rse.or_ (Rse.or_ a1 b1) c1)
    (Rse.or_ a1 (Rse.or_ b1 c1))

let test_or_dedup_across_nesting () =
  Alcotest.check rse "a|(b|a) = a|b" (Rse.or_ a1 b1)
    (Rse.or_ a1 (Rse.or_ b1 a1))

let test_and_keeps_duplicates () =
  (* ‖ is a bag operator: a‖a must stay two obligations. *)
  check_int "a‖a has 2 leaves" 2 (List.length (Rse.arcs (Rse.and_ a1 a1)))

let test_factoring () =
  (* (a‖c) | (b‖c) = c ‖ (a|b) *)
  let left = Rse.and_ a1 c1 and right = Rse.and_ b1 c1 in
  Alcotest.check rse "common factor pulled out"
    (Rse.and_ c1 (Rse.or_ a1 b1))
    (Rse.or_ left right);
  (* (a‖c) | c = c ‖ (a|ε) = c ‖ a? *)
  Alcotest.check rse "residual epsilon"
    (Rse.and_ c1 (Rse.opt a1))
    (Rse.or_ (Rse.and_ a1 c1) c1)

let test_factoring_multiset () =
  (* (a‖a‖b) | (a‖b) factors the common bag {a, b}, leaving (a | ε). *)
  Alcotest.check rse "multiset common"
    (Rse.and_all [ a1; b1; Rse.opt a1 ])
    (Rse.or_ (Rse.and_all [ a1; a1; b1 ]) (Rse.and_ a1 b1))

let test_epsilon_split () =
  (* ε | (a‖c) | (b‖c): ε stays outside the factored core. *)
  let e = Rse.or_all [ Rse.epsilon; Rse.and_ a1 c1; Rse.and_ b1 c1 ] in
  Alcotest.check rse "eps preserved"
    (Rse.or_ Rse.epsilon (Rse.and_ c1 (Rse.or_ a1 b1)))
    e

let test_epsilon_absorbed_by_star () =
  (* ε | a* = a* (the alternative is already nullable). *)
  Alcotest.check rse "eps | star" (Rse.star a1)
    (Rse.or_ Rse.epsilon (Rse.star a1))

(* ------------------------------------------------------------------ *)
(* mentioned_preds / open_up / with_extra                              *)
(* ------------------------------------------------------------------ *)

(* [open_up] complements the predicates a shape mentions, each once,
   in each direction it mentions any. *)
let test_mentioned_preds () =
  let complemented ~inverse e =
    List.filter_map
      (fun (arc : Rse.arc) ->
        match arc.pred with
        | Value_set.Pred_compl preds when Bool.equal arc.inverse inverse ->
            Some (List.length preds)
        | _ -> None)
      (Rse.arcs (Rse.open_up e))
  in
  let e = Rse.and_all [ a1; Rse.star b1; Rse.opt a1 ] in
  Alcotest.(check (list int)) "two outgoing predicates" [ 2 ]
    (complemented ~inverse:false e);
  Alcotest.(check (list int)) "no inverse predicates" []
    (complemented ~inverse:true e);
  let inv =
    Rse.arc_v ~inverse:true (Value_set.Pred (ex "r")) Value_set.Obj_any
  in
  Alcotest.(check (list int)) "one inverse predicate" [ 1 ]
    (complemented ~inverse:true (Rse.and_ e inv))

let test_open_up_structure () =
  let e = Rse.and_ a1 b1 in
  let opened = Rse.open_up e in
  (* The opened shape adds exactly one starred complement arc. *)
  let extra_stars =
    List.filter
      (fun (arc : Rse.arc) ->
        match arc.pred with Value_set.Pred_compl _ -> true | _ -> false)
      (Rse.arcs opened)
  in
  check_int "one complement arc" 1 (List.length extra_stars)

let test_open_up_no_outgoing () =
  (* Opening a shape with no outgoing arcs tolerates any outgoing arc. *)
  let opened = Rse.open_up Rse.epsilon in
  check_bool "matches arbitrary neighbourhood" true
    (deriv_matches (node "n")
       (graph_of [ t3 "n" "whatever" (num 5) ])
       opened)

let test_with_extra_values_ignored () =
  (* EXTRA tolerates failing values only on the extra predicate. *)
  let e = Rse.with_extra (Value_set.Pred (ex "a")) a1 in
  let g_two_a =
    graph_of [ t3 "n" "a" (num 1); t3 "n" "a" (num 99) ]
  in
  check_bool "extra a tolerated" true (deriv_matches (node "n") g_two_a e);
  let g_no_valid_a = graph_of [ t3 "n" "a" (num 99) ] in
  check_bool "required a still required" false
    (deriv_matches (node "n") g_no_valid_a e)

(* ------------------------------------------------------------------ *)
(* repeat at larger sizes                                             *)
(* ------------------------------------------------------------------ *)

let test_repeat_large () =
  let e = Rse.repeat 5 (Some 10) (arc_num "b" (List.init 12 (fun i -> i + 1))) in
  let g k = graph_of (List.init k (fun j -> t3 "n" "b" (num (j + 1)))) in
  List.iter
    (fun (k, expected) ->
      check_bool (string_of_int k) expected (deriv_matches (node "n") (g k) e))
    [ (4, false); (5, true); (7, true); (10, true); (11, false) ]

let test_repeat_exact () =
  let e = Rse.repeat 3 (Some 3) (arc_num "b" [ 1; 2; 3; 4 ]) in
  let g k = graph_of (List.init k (fun j -> t3 "n" "b" (num (j + 1)))) in
  List.iter
    (fun (k, expected) ->
      check_bool (string_of_int k) expected (deriv_matches (node "n") (g k) e))
    [ (2, false); (3, true); (4, false) ]

let suites =
  [ ( "rse.normalisation",
      [ Alcotest.test_case "‖ commutative normal form" `Quick
          test_and_commutative_normal_form;
        Alcotest.test_case "| commutative normal form" `Quick
          test_or_commutative_normal_form;
        Alcotest.test_case "| dedups across nesting" `Quick
          test_or_dedup_across_nesting;
        Alcotest.test_case "‖ keeps duplicates (bag)" `Quick
          test_and_keeps_duplicates;
        Alcotest.test_case "distributive factoring" `Quick test_factoring;
        Alcotest.test_case "multiset factoring" `Quick
          test_factoring_multiset;
        Alcotest.test_case "ε split" `Quick test_epsilon_split;
        Alcotest.test_case "ε absorbed by star" `Quick
          test_epsilon_absorbed_by_star ] );
    ( "rse.open",
      [ Alcotest.test_case "mentioned_preds" `Quick test_mentioned_preds;
        Alcotest.test_case "open_up structure" `Quick test_open_up_structure;
        Alcotest.test_case "open_up of ε" `Quick test_open_up_no_outgoing;
        Alcotest.test_case "with_extra values" `Quick
          test_with_extra_values_ignored ] );
    ( "rse.repeat",
      [ Alcotest.test_case "wide interval" `Quick test_repeat_large;
        Alcotest.test_case "exact count" `Quick test_repeat_exact ] ) ]
