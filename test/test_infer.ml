(* Tests for shape inference. *)

open Util
open Shex

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

let graph =
  graph_of
    [ triple (node "john") (foaf "age") (num 23);
      triple (node "john") (foaf "name") (Rdf.Term.str "John");
      triple (node "john") (foaf "knows") (node "bob");
      triple (node "bob") (foaf "age") (num 34);
      triple (node "bob") (foaf "name") (Rdf.Term.str "Bob");
      triple (node "bob") (foaf "name") (Rdf.Term.str "Robert") ]

let examples = [ node "john"; node "bob" ]

let test_inferred_accepts_examples () =
  let shape = Infer.infer_shape graph examples in
  List.iter
    (fun n ->
      check_bool
        (Format.asprintf "%a matches" Rdf.Term.pp n)
        true
        (deriv_matches n graph shape))
    examples

let test_inferred_structure () =
  let shape = Infer.infer_shape graph examples in
  (* age {1,1} integer; name {1,2} string; knows {0,1} IRI *)
  match Sorbe.of_rse shape with
  | None -> Alcotest.fail "inferred shape should be SORBE"
  | Some constrs ->
      check_int "three predicates" 3 (List.length constrs);
      List.iter
        (fun (c : Sorbe.constr) ->
          match c.arc.pred with
          | Value_set.Pred p when Rdf.Iri.equal p (foaf "age") ->
              check_bool "age exact one" true
                (c.card = { Sorbe.min = 1; max = Some 1 });
              check_bool "age integer" true
                (match c.arc.obj with
                | Rse.Values (Value_set.Obj_datatype Rdf.Xsd.Integer) -> true
                | _ -> false)
          | Value_set.Pred p when Rdf.Iri.equal p (foaf "name") ->
              check_bool "name 1..2" true
                (c.card = { Sorbe.min = 1; max = Some 2 })
          | Value_set.Pred p when Rdf.Iri.equal p (foaf "knows") ->
              check_bool "knows 0..1" true
                (c.card = { Sorbe.min = 0; max = Some 1 });
              check_bool "knows iri" true
                (match c.arc.obj with
                | Rse.Values (Value_set.Obj_kind Value_set.Iri_kind) -> true
                | _ -> false)
          | _ -> Alcotest.fail "unexpected predicate")
        constrs

let test_inferred_rejects_nonconforming () =
  let shape = Infer.infer_shape graph examples in
  (* mary-style node: two ages, no name *)
  let g =
    Rdf.Graph.union graph
      (graph_of
         [ triple (node "mary") (foaf "age") (num 50);
           triple (node "mary") (foaf "age") (num 65) ])
  in
  check_bool "mary rejected" false (deriv_matches (node "mary") g shape)

let test_value_set_option () =
  let g =
    graph_of
      [ t3 "a" "status" (Rdf.Term.str "on"); t3 "b" "status" (Rdf.Term.str "off") ]
  in
  let shape =
    Infer.infer_shape
      ~options:{ Infer.max_value_set = 3; close_cardinalities = true }
      g [ node "a"; node "b" ]
  in
  match Rse.arcs shape with
  | [ { obj = Rse.Values (Value_set.Obj_in terms); _ } ] ->
      check_int "two values" 2 (List.length terms)
  | _ -> Alcotest.fail "expected a value set"

let test_open_cardinalities_option () =
  let shape =
    Infer.infer_shape
      ~options:{ Infer.max_value_set = 0; close_cardinalities = false }
      graph examples
  in
  (* With open upper bounds, a node with three names still conforms. *)
  let g =
    Rdf.Graph.union graph
      (graph_of
         [ triple (node "zoe") (foaf "age") (num 1);
           triple (node "zoe") (foaf "name") (Rdf.Term.str "a");
           triple (node "zoe") (foaf "name") (Rdf.Term.str "b");
           triple (node "zoe") (foaf "name") (Rdf.Term.str "c") ])
  in
  check_bool "three names ok" true (deriv_matches (node "zoe") g shape)

let test_infer_schema_with_refs () =
  match
    Infer.infer_schema graph
      [ (Label.of_string "Person", examples) ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok schema ->
      let person = Label.of_string "Person" in
      (* knows points to bob, who is an example Person → reference,
         hence a recursive schema. *)
      check_bool "recursive" true (is_recursive schema person);
      let session = Validate.session schema graph in
      List.iter
        (fun n ->
          check_bool "examples conform" true
            (Validate.check_bool session n person))
        examples

let test_infer_schema_multi_label () =
  let g =
    graph_of
      [ t3 "o1" "subject" (node "p1");
        t3 "o1" "value" (num 42);
        t3 "p1" "mrn" (Rdf.Term.str "MRN1") ]
  in
  match
    Infer.infer_schema g
      [ (Label.of_string "Obs", [ node "o1" ]);
        (Label.of_string "Pat", [ node "p1" ]) ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok schema ->
      let s = Validate.session schema g in
      check_bool "obs conforms" true
        (Validate.check_bool s (node "o1") (Label.of_string "Obs"));
      check_bool "pat conforms" true
        (Validate.check_bool s (node "p1") (Label.of_string "Pat"));
      (* The subject arc must be a reference to Pat. *)
      let obs = Schema.find_exn schema (Label.of_string "Obs") in
      check_bool "has ref" true
        (Label.Set.mem (Label.of_string "Pat") (Rse.refs obs))

let test_empty_examples () =
  Alcotest.check_raises "no examples"
    (Invalid_argument "Infer.infer_shape: no example nodes") (fun () ->
      ignore (Infer.infer_shape graph []))

let test_empty_neighbourhood () =
  (* A node with no triples infers ε (and conforms to it). *)
  let shape = Infer.infer_shape graph [ node "ghost" ] in
  Alcotest.check rse "epsilon" Rse.epsilon shape

let suites =
  [ ( "infer",
      [ Alcotest.test_case "accepts its examples" `Quick
          test_inferred_accepts_examples;
        Alcotest.test_case "inferred structure" `Quick
          test_inferred_structure;
        Alcotest.test_case "rejects nonconforming" `Quick
          test_inferred_rejects_nonconforming;
        Alcotest.test_case "value set option" `Quick test_value_set_option;
        Alcotest.test_case "open cardinalities option" `Quick
          test_open_cardinalities_option;
        Alcotest.test_case "schema with references" `Quick
          test_infer_schema_with_refs;
        Alcotest.test_case "multi-label schema" `Quick
          test_infer_schema_multi_label;
        Alcotest.test_case "empty example list" `Quick test_empty_examples;
        Alcotest.test_case "empty neighbourhood" `Quick
          test_empty_neighbourhood ] ) ]
