(* Tests for stratified negation: the Strata analysis and validation
   behaviour with negated references across strata. *)

open Util
open Shex

let label = Label.of_string
let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)
let arc_ref p l = Rse.arc_ref (Value_set.Pred (ex p)) l
let arc_any p = Rse.arc_v (Value_set.Pred (ex p)) Value_set.Obj_any

(* ------------------------------------------------------------------ *)
(* Strata computation                                                 *)
(* ------------------------------------------------------------------ *)

let strata_of rules =
  match Strata.compute rules with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

let test_flat_schema_one_stratum () =
  let s =
    strata_of [ (label "A", arc_any "p"); (label "B", arc_any "q") ]
  in
  check_int "stratum A" 0 (Strata.stratum s (label "A"));
  check_int "stratum B" 0 (Strata.stratum s (label "B"))

let test_positive_recursion_one_stratum () =
  let s =
    strata_of
      [ (label "A", arc_ref "p" (label "B"));
        (label "B", arc_ref "q" (label "A")) ]
  in
  check_int "same stratum" (Strata.stratum s (label "A"))
    (Strata.stratum s (label "B"))

let test_negation_lifts_stratum () =
  let s =
    strata_of
      [ (label "Base", arc_any "p");
        (label "Neg", Rse.not_ (arc_ref "q" (label "Base"))) ]
  in
  check_int "base at 0" 0 (Strata.stratum s (label "Base"));
  check_int "neg at 1" 1 (Strata.stratum s (label "Neg"))

let test_negation_chain () =
  (* C negates B, B negates A: three strata. *)
  let s =
    strata_of
      [ (label "A", arc_any "p");
        (label "B", Rse.not_ (arc_ref "q" (label "A")));
        (label "C", Rse.not_ (arc_ref "r" (label "B"))) ]
  in
  check_int "A" 0 (Strata.stratum s (label "A"));
  check_int "B" 1 (Strata.stratum s (label "B"));
  check_int "C" 2 (Strata.stratum s (label "C"))

let test_positive_ref_does_not_lift () =
  let s =
    strata_of
      [ (label "A", arc_any "p"); (label "B", arc_ref "q" (label "A")) ]
  in
  check_int "B stays at 0" 0 (Strata.stratum s (label "B"))

let test_negative_self_cycle_rejected () =
  check_bool "self negation" true
    (Result.is_error
       (Strata.compute [ (label "A", Rse.not_ (arc_ref "p" (label "A"))) ]))

let test_negative_mutual_cycle_rejected () =
  check_bool "mutual negation" true
    (Result.is_error
       (Strata.compute
          [ (label "A", arc_ref "p" (label "B"));
            (label "B", Rse.not_ (arc_ref "q" (label "A"))) ]))

let test_mixed_polarity_same_pair_rejected () =
  (* A refers to B both positively and under negation while B refers
     back: the negative edge is inside the SCC. *)
  check_bool "mixed polarity in cycle" true
    (Result.is_error
       (Strata.compute
          [ ( label "A",
              Rse.and_ (arc_ref "p" (label "B"))
                (Rse.not_ (arc_ref "n" (label "B"))) );
            (label "B", arc_ref "q" (label "A")) ]))

(* ------------------------------------------------------------------ *)
(* Schema integration                                                 *)
(* ------------------------------------------------------------------ *)

let test_schema_accepts_stratified_negation () =
  let schema =
    Schema.make
      [ (label "Base", arc_any "p");
        (label "Neg", Rse.not_ (arc_ref "q" (label "Base"))) ]
  in
  match schema with
  | Ok s ->
      check_int "Base stratum" 0 (Schema.stratum s (label "Base"));
      check_int "Neg stratum" 1 (Schema.stratum s (label "Neg"))
  | Error msg -> Alcotest.fail msg

let test_schema_rejects_unstratified () =
  check_bool "rejected" true
    (Result.is_error
       (Schema.make [ (label "A", Rse.not_ (arc_ref "p" (label "A"))) ]))

(* ------------------------------------------------------------------ *)
(* Validation with negation across strata                             *)
(* ------------------------------------------------------------------ *)

(* Person as usual; Loner = someone whose neighbourhood does NOT
   contain a knows-arc to a conforming Person. *)
let loner_schema =
  let person = label "Person" in
  let loner = label "Loner" in
  Schema.make_exn
    [ ( person,
        Rse.and_all
          [ Rse.arc_v (Value_set.Pred (foaf "age")) Value_set.xsd_integer;
            Rse.plus
              (Rse.arc_v (Value_set.Pred (foaf "name")) Value_set.xsd_string);
            Rse.star (Rse.arc_ref (Value_set.Pred (foaf "knows")) person) ]
      );
      ( loner,
        Rse.not_
          (Rse.and_
             (Rse.arc_ref (Value_set.Pred (foaf "knows")) person)
             (Rse.not_ Rse.empty)) ) ]

let loner_graph =
  graph_of
    [ (* bob is a conforming person *)
      triple (node "bob") (foaf "age") (num 34);
      triple (node "bob") (foaf "name") (Rdf.Term.str "Bob");
      (* mary is not (two ages) *)
      triple (node "mary") (foaf "age") (num 50);
      triple (node "mary") (foaf "age") (num 65);
      (* x knows bob (a Person) → not a Loner *)
      triple (node "x") (foaf "knows") (node "bob");
      (* y knows only mary (not a Person) → Loner *)
      triple (node "y") (foaf "knows") (node "mary");
      (* z has unrelated arcs only → Loner *)
      triple (node "z") (ex "other") (num 1) ]

let test_loner_validation () =
  let loner = label "Loner" in
  let session = Validate.session loner_schema loner_graph in
  check_bool "x not loner" false
    (Validate.check_bool session (node "x") loner);
  check_bool "y loner" true (Validate.check_bool session (node "y") loner);
  check_bool "z loner" true (Validate.check_bool session (node "z") loner);
  (* An isolated node (empty neighbourhood) is a Loner too. *)
  check_bool "isolated loner" true
    (Validate.check_bool session (node "nowhere") loner)

let test_loner_engines_agree () =
  let loner = label "Loner" in
  List.iter
    (fun engine ->
      let session = Validate.session ~engine loner_schema loner_graph in
      check_bool "x" false (Validate.check_bool session (node "x") loner);
      check_bool "y" true (Validate.check_bool session (node "y") loner))
    [ Validate.Derivatives; Validate.Backtracking ]

(* Negation over a recursive (but lower-stratum) shape: the Person
   cycle itself is recursive, and Loner negates into it. *)
let test_negation_over_recursive_stratum () =
  let loner = label "Loner" in
  let g =
    graph_of
      [ triple (node "a") (foaf "age") (num 1);
        triple (node "a") (foaf "name") (Rdf.Term.str "A");
        triple (node "a") (foaf "knows") (node "b");
        triple (node "b") (foaf "age") (num 2);
        triple (node "b") (foaf "name") (Rdf.Term.str "B");
        triple (node "b") (foaf "knows") (node "a");
        triple (node "w") (foaf "knows") (node "a") ]
  in
  let session = Validate.session loner_schema g in
  (* a and b form a valid Person cycle, so w knows a Person. *)
  check_bool "w not loner" false
    (Validate.check_bool session (node "w") loner)

let suites =
  [ ( "strata.compute",
      [ Alcotest.test_case "flat schema" `Quick test_flat_schema_one_stratum;
        Alcotest.test_case "positive recursion" `Quick
          test_positive_recursion_one_stratum;
        Alcotest.test_case "negation lifts stratum" `Quick
          test_negation_lifts_stratum;
        Alcotest.test_case "negation chain" `Quick test_negation_chain;
        Alcotest.test_case "positive refs do not lift" `Quick
          test_positive_ref_does_not_lift;
        Alcotest.test_case "negative self-cycle rejected" `Quick
          test_negative_self_cycle_rejected;
        Alcotest.test_case "negative mutual cycle rejected" `Quick
          test_negative_mutual_cycle_rejected;
        Alcotest.test_case "mixed polarity rejected" `Quick
          test_mixed_polarity_same_pair_rejected ] );
    ( "strata.schema",
      [ Alcotest.test_case "stratified negation accepted" `Quick
          test_schema_accepts_stratified_negation;
        Alcotest.test_case "unstratified rejected" `Quick
          test_schema_rejects_unstratified ] );
    ( "strata.validate",
      [ Alcotest.test_case "Loner shape" `Quick test_loner_validation;
        Alcotest.test_case "engines agree" `Quick test_loner_engines_agree;
        Alcotest.test_case "negation over recursive stratum" `Quick
          test_negation_over_recursive_stratum ] ) ]
