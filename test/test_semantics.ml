(* Tests for the enumerated denotational semantics Sn[[e]] (§4),
   including the paper's Example 7. *)

open Util
open Shex

let enumerate ?(max_card = 4) e =
  match Semantics.language ~node:(node "n") ~max_card e with
  | Ok gs -> gs
  | Error msg -> Alcotest.fail msg

(* Example 7: Sn[[a→1 ‖ (b→{1,2})*]] restricted to the graphs of at
   most 3 triples is exactly the four graphs listed in the paper. *)
let test_example7 () =
  let gs = enumerate ~max_card:3 example5 in
  let expected =
    List.map
      (fun triples -> Rdf.Triple.Set.of_list triples)
      [ [ t3 "n" "a" (num 1) ];
        [ t3 "n" "a" (num 1); t3 "n" "b" (num 1) ];
        [ t3 "n" "a" (num 1); t3 "n" "b" (num 2) ];
        [ t3 "n" "a" (num 1); t3 "n" "b" (num 1); t3 "n" "b" (num 2) ] ]
  in
  check_int "four graphs" 4 (List.length gs);
  List.iter
    (fun want ->
      check_bool "expected graph present" true
        (List.exists (fun got -> Rdf.Triple.Set.equal got want) gs))
    expected

let test_empty_and_epsilon () =
  check_int "Sn[[∅]] empty" 0 (List.length (enumerate Rse.empty));
  let eps = enumerate Rse.epsilon in
  check_int "Sn[[ε]] singleton" 1 (List.length eps);
  check_bool "contains {}" true
    (Rdf.Triple.Set.is_empty (List.hd eps))

let test_arc_language () =
  let gs = enumerate (arc_num "b" [ 1; 2 ]) in
  check_int "two singletons" 2 (List.length gs);
  List.iter (fun g -> check_int "card 1" 1 (Rdf.Triple.Set.cardinal g)) gs

let test_or_language () =
  let gs = enumerate (Rse.or_ (arc_num "a" [ 1 ]) (arc_num "b" [ 1 ])) in
  check_int "union" 2 (List.length gs)

let test_star_bounded () =
  let gs = enumerate ~max_card:2 (Rse.star (arc_num "b" [ 1; 2; 3 ])) in
  (* {} + 3 singletons + C(3,2)=3 pairs *)
  check_int "bounded star" 7 (List.length gs)

let test_not_enumerable () =
  let e = Rse.arc_v (Value_set.Pred (ex "p")) Value_set.Obj_any in
  check_bool "Obj_any refused" true
    (Result.is_error (Semantics.language ~node:(node "n") ~max_card:2 e));
  check_bool "negation refused" true
    (Result.is_error
       (Semantics.language ~node:(node "n") ~max_card:2
          (Rse.not_ Rse.epsilon)))

let test_mem_agrees_with_deriv () =
  List.iter
    (fun (e, g) ->
      match Semantics.mem ~node:(node "n") g e with
      | Ok verdict ->
          check_bool "mem = deriv" true
            (Bool.equal verdict (deriv_matches (node "n") g e))
      | Error msg -> Alcotest.fail msg)
    [ (example5, example8_graph);
      (example5, example12_graph);
      (example10, example8_graph);
      (Rse.opt (arc_num "a" [ 1 ]), Rdf.Graph.empty) ]

let suites =
  [ ( "semantics",
      [ Alcotest.test_case "Example 7" `Quick test_example7;
        Alcotest.test_case "∅ and ε" `Quick test_empty_and_epsilon;
        Alcotest.test_case "arc language" `Quick test_arc_language;
        Alcotest.test_case "alternative" `Quick test_or_language;
        Alcotest.test_case "bounded star" `Quick test_star_bounded;
        Alcotest.test_case "non-enumerable refusals" `Quick
          test_not_enumerable;
        Alcotest.test_case "mem agrees with derivatives" `Quick
          test_mem_agrees_with_deriv ] ) ]
