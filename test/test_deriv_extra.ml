(* Additional matcher tests: complement predicate sets, paper
   Example 6, open shapes through the SORBE fragment, and
   mixed-direction neighbourhoods. *)

open Util
open Shex

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

(* Paper Example 6: foaf:age→xsd:integer ‖ (foaf:name→xsd:string)+ *)
let test_example6 () =
  let e =
    Rse.and_
      (Rse.arc_v (Value_set.Pred (foaf "age")) Value_set.xsd_integer)
      (Rse.plus (Rse.arc_v (Value_set.Pred (foaf "name")) Value_set.xsd_string))
  in
  let ok =
    graph_of
      [ triple (node "n") (foaf "age") (num 30);
        triple (node "n") (foaf "name") (Rdf.Term.str "N") ]
  in
  let missing_name = graph_of [ triple (node "n") (foaf "age") (num 30) ] in
  check_bool "conforms" true (deriv_matches (node "n") ok e);
  check_bool "missing name" false (deriv_matches (node "n") missing_name e)

let test_pred_compl_arc () =
  (* Arc over a complement predicate set: anything but a or b. *)
  let e =
    Rse.star
      (Rse.arc_v
         (Value_set.Pred_compl [ Value_set.Pred (ex "a"); Value_set.Pred (ex "b") ])
         Value_set.Obj_any)
  in
  check_bool "c-arc matches complement" true
    (deriv_matches (node "n") (graph_of [ t3 "n" "c" (num 1) ]) e);
  check_bool "a-arc excluded" false
    (deriv_matches (node "n") (graph_of [ t3 "n" "a" (num 1) ]) e)

let test_pred_in_arc () =
  let e =
    Rse.plus
      (Rse.arc_v
         (Value_set.Pred_in [ ex "a"; ex "b" ])
         Value_set.Obj_any)
  in
  check_bool "a or b" true
    (deriv_matches (node "n")
       (graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 2) ])
       e);
  check_bool "c rejected" false
    (deriv_matches (node "n") (graph_of [ t3 "n" "c" (num 1) ]) e)

let test_pred_stem_arc () =
  let e =
    Rse.plus
      (Rse.arc_v (Value_set.Pred_stem "http://example.org/ns/")
         Value_set.Obj_any)
  in
  let g =
    Rdf.Graph.of_list
      [ Rdf.Triple.make (node "n")
          (Rdf.Iri.of_string_exn "http://example.org/ns/anything")
          (num 1) ]
  in
  check_bool "stem predicate" true (deriv_matches (node "n") g e);
  check_bool "outside stem" false
    (deriv_matches (node "n") (graph_of [ t3 "n" "x" (num 1) ]) e)

(* Open shapes stay in the SORBE fragment: the complement star merges
   cleanly with the explicit constraints, so the counting matcher
   handles open shapes too. *)
let test_open_shape_is_sorbe () =
  let closed =
    Rse.and_ (arc_num "a" [ 1 ]) (Rse.star (arc_num "b" [ 1; 2 ]))
  in
  let opened = Rse.open_up closed in
  match Sorbe.of_rse opened with
  | None -> Alcotest.fail "open shape should stay SORBE"
  | Some sorbe ->
      List.iter
        (fun (g, expected) ->
          check_bool "counting verdict" expected
            (sorbe_matches (node "n") g sorbe);
          check_bool "deriv agrees" expected
            (deriv_matches (node "n") g opened))
        [ (graph_of [ t3 "n" "a" (num 1) ], true);
          (graph_of [ t3 "n" "a" (num 1); t3 "n" "zz" (num 9) ], true);
          (graph_of [ t3 "n" "zz" (num 9) ], false) ]

(* Mixed directions: a node that is both employer and employee. *)
let test_bidirectional_shape () =
  let manages = Value_set.Pred (ex "manages") in
  let e =
    Rse.and_
      (Rse.plus (Rse.arc_v manages Value_set.Obj_any))
      (Rse.arc_v ~inverse:true manages Value_set.Obj_any)
  in
  let g =
    graph_of
      [ triple (node "mid") (ex "manages") (node "low");
        triple (node "top") (ex "manages") (node "mid") ]
  in
  check_bool "middle manager" true (deriv_matches (node "mid") g e);
  check_bool "top has no boss" false (deriv_matches (node "top") g e);
  check_bool "low manages nobody" false (deriv_matches (node "low") g e)

(* A self-loop triple appears both as outgoing and incoming. *)
let test_self_loop_directions () =
  let p = Value_set.Pred (ex "p") in
  let e =
    Rse.and_
      (Rse.arc_v p Value_set.Obj_any)
      (Rse.arc_v ~inverse:true p Value_set.Obj_any)
  in
  let g = graph_of [ triple (node "n") (ex "p") (node "n") ] in
  check_bool "self-loop satisfies both directions" true
    (deriv_matches (node "n") g e)

let suites =
  [ ( "deriv.extra",
      [ Alcotest.test_case "paper Example 6" `Quick test_example6;
        Alcotest.test_case "complement predicates" `Quick
          test_pred_compl_arc;
        Alcotest.test_case "predicate enumerations" `Quick test_pred_in_arc;
        Alcotest.test_case "predicate stems" `Quick test_pred_stem_arc;
        Alcotest.test_case "open shapes are SORBE" `Quick
          test_open_shape_is_sorbe;
        Alcotest.test_case "bidirectional shapes" `Quick
          test_bidirectional_shape;
        Alcotest.test_case "self-loop directions" `Quick
          test_self_loop_directions ] ) ]
