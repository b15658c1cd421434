(* Tests for open shapes and EXTRA predicates (ShEx-compatibility
   extensions desugared into the core algebra). *)

open Util
open Shex

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

let prelude =
  "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
   PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
   PREFIX ex: <http://example.org/>\n"

let parse src = Shexc.Shexc_parser.parse_schema_exn src

let base_graph =
  graph_of
    [ triple (node "john") (foaf "age") (num 23);
      triple (node "john") (foaf "name") (Rdf.Term.str "John") ]

let with_extra_triple =
  Rdf.Graph.add (triple (node "john") (ex "hobby") (Rdf.Term.str "chess"))
    base_graph

(* ------------------------------------------------------------------ *)
(* Core combinators                                                   *)
(* ------------------------------------------------------------------ *)

let closed_shape =
  Rse.and_
    (Rse.arc_v (Value_set.Pred (foaf "age")) Value_set.xsd_integer)
    (Rse.arc_v (Value_set.Pred (foaf "name")) Value_set.xsd_string)

let test_closed_rejects_extra () =
  check_bool "closed ok on exact" true
    (deriv_matches (node "john") base_graph closed_shape);
  check_bool "closed rejects extra" false
    (deriv_matches (node "john") with_extra_triple closed_shape)

let test_open_up_tolerates_unmentioned () =
  let open_shape = Rse.open_up closed_shape in
  check_bool "open ok on exact" true
    (deriv_matches (node "john") base_graph open_shape);
  check_bool "open tolerates extra predicate" true
    (deriv_matches (node "john") with_extra_triple open_shape);
  (* Mentioned predicates are still constrained: a second age fails. *)
  let two_ages =
    Rdf.Graph.add (triple (node "john") (foaf "age") (num 99)) base_graph
  in
  check_bool "open still counts mentioned arcs" false
    (deriv_matches (node "john") two_ages open_shape);
  (* And a bad value on a mentioned predicate still fails. *)
  let bad_age =
    graph_of
      [ triple (node "john") (foaf "age") (Rdf.Term.str "old");
        triple (node "john") (foaf "name") (Rdf.Term.str "John") ]
  in
  check_bool "open still checks values" false
    (deriv_matches (node "john") bad_age open_shape)

let test_with_extra () =
  let shape =
    Rse.with_extra (Value_set.Pred_in [ foaf "age" ]) closed_shape
  in
  (* EXTRA foaf:age: a second age arc with any value is tolerated... *)
  let two_ages =
    Rdf.Graph.add
      (triple (node "john") (foaf "age") (Rdf.Term.str "old"))
      base_graph
  in
  check_bool "extra age tolerated" true
    (deriv_matches (node "john") two_ages shape);
  (* ...but unrelated predicates are still rejected. *)
  check_bool "other extras rejected" false
    (deriv_matches (node "john") with_extra_triple shape)

let test_open_backtrack_agrees () =
  let open_shape = Rse.open_up closed_shape in
  List.iter
    (fun g ->
      check_bool "engines agree" true
        (Bool.equal
           (deriv_matches (node "john") g open_shape)
           (backtrack_matches (node "john") g open_shape)))
    [ base_graph; with_extra_triple ]

let test_open_with_empty_shape () =
  (* An open empty shape accepts anything. *)
  let open_eps = Rse.open_up Rse.epsilon in
  check_bool "accepts empty" true
    (deriv_matches (node "john") Rdf.Graph.empty open_eps);
  check_bool "accepts anything" true
    (deriv_matches (node "john") with_extra_triple open_eps)

(* ------------------------------------------------------------------ *)
(* Surface syntax                                                     *)
(* ------------------------------------------------------------------ *)

let test_shexc_open () =
  let s =
    parse
      (prelude
      ^ "<T> OPEN { foaf:age xsd:integer , foaf:name xsd:string }")
  in
  let t = Label.of_string "T" in
  let session g = Validate.session s g in
  check_bool "open shape tolerates extras" true
    (Validate.check_bool (session with_extra_triple) (node "john") t);
  check_bool "closed sibling would not" true
    (let s_closed =
       parse
         (prelude ^ "<T> { foaf:age xsd:integer , foaf:name xsd:string }")
     in
     not
       (Validate.check_bool
          (Validate.session s_closed with_extra_triple)
          (node "john") t))

let test_shexc_closed_keyword () =
  (* CLOSED is accepted and is the default. *)
  let s =
    parse (prelude ^ "<T> CLOSED { foaf:age xsd:integer , foaf:name xsd:string }")
  in
  check_bool "closed keyword" false
    (Validate.check_bool
       (Validate.session s with_extra_triple)
       (node "john")
       (Label.of_string "T"))

let test_shexc_extra () =
  let s =
    parse
      (prelude
      ^ "<T> EXTRA foaf:age { foaf:age xsd:integer , foaf:name xsd:string }")
  in
  let two_ages =
    Rdf.Graph.add
      (triple (node "john") (foaf "age") (Rdf.Term.str "old"))
      base_graph
  in
  check_bool "extra age" true
    (Validate.check_bool (Validate.session s two_ages) (node "john")
       (Label.of_string "T"))

let test_shexc_extra_requires_predicate () =
  check_bool "EXTRA without predicate" true
    (Result.is_error
       (Shexc.Shexc_parser.parse_schema (prelude ^ "<T> EXTRA { ex:p . }")))

let test_printer_roundtrip_open () =
  let s =
    parse (prelude ^ "<T> OPEN { foaf:age xsd:integer }")
  in
  let printed = Shexc.Shexc_printer.schema_to_string s in
  let has_sub sub str =
    let n = String.length str and m = String.length sub in
    let rec go i = i + m <= n && (String.sub str i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "prints OPEN" true (has_sub "OPEN" printed);
  let s' = parse printed in
  let rules_equal =
    List.for_all2
      (fun (l1, e1) (l2, e2) -> Label.equal l1 l2 && Rse.equal e1 e2)
      (Schema.rules s) (Schema.rules s')
  in
  check_bool "roundtrip" true rules_equal

let test_printer_roundtrip_extra () =
  let s =
    parse
      (prelude ^ "<T> EXTRA foaf:age { foaf:age xsd:integer }")
  in
  let printed = Shexc.Shexc_printer.schema_to_string s in
  let s' = parse printed in
  let rules_equal =
    List.for_all2
      (fun (l1, e1) (l2, e2) -> Label.equal l1 l2 && Rse.equal e1 e2)
      (Schema.rules s) (Schema.rules s')
  in
  check_bool ("roundtrip:\n" ^ printed) true rules_equal

let suites =
  [ ( "open_shapes",
      [ Alcotest.test_case "closed rejects extras" `Quick
          test_closed_rejects_extra;
        Alcotest.test_case "open_up tolerates unmentioned" `Quick
          test_open_up_tolerates_unmentioned;
        Alcotest.test_case "with_extra" `Quick test_with_extra;
        Alcotest.test_case "engines agree" `Quick test_open_backtrack_agrees;
        Alcotest.test_case "open empty shape" `Quick
          test_open_with_empty_shape;
        Alcotest.test_case "ShExC OPEN" `Quick test_shexc_open;
        Alcotest.test_case "ShExC CLOSED" `Quick test_shexc_closed_keyword;
        Alcotest.test_case "ShExC EXTRA" `Quick test_shexc_extra;
        Alcotest.test_case "EXTRA needs predicates" `Quick
          test_shexc_extra_requires_predicate;
        Alcotest.test_case "printer roundtrip OPEN" `Quick
          test_printer_roundtrip_open;
        Alcotest.test_case "printer roundtrip EXTRA" `Quick
          test_printer_roundtrip_extra ] ) ]
