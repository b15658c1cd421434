(* Tests for ShExJ (JSON) schema interchange. *)

open Util
open Shex

let prelude =
  "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
   PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
   PREFIX ex: <http://example.org/>\n"

let parse_shexc src =
  match Shexc.Shexc_parser.parse_schema src with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

let schemas_equal s1 s2 =
  let rules1 = Schema.rules s1 and rules2 = Schema.rules s2 in
  List.length rules1 = List.length rules2
  && List.for_all2
       (fun (l1, e1) (l2, e2) -> Label.equal l1 l2 && Rse.equal e1 e2)
       rules1 rules2

let roundtrip schema =
  match Shexc.Shexj.import_string (Shexc.Shexj.export_string schema) with
  | Ok s -> s
  | Error msg -> Alcotest.fail ("import failed: " ^ msg)

let test_roundtrip_example1 () =
  let schema =
    parse_shexc
      (prelude
      ^ "<Person> { foaf:age xsd:integer , foaf:name xsd:string+ , \
         foaf:knows @<Person>* }")
  in
  check_bool "roundtrip" true (schemas_equal schema (roundtrip schema))

let test_roundtrip_rich () =
  let schema =
    parse_shexc
      (prelude
      ^ "<T> {\n\
        \  ex:a xsd:integer? , ex:b [ 1 2 \"x\" \"y\"@en ex:v ] ,\n\
        \  ex:c IRI{2,4} , ex:d . , ^ex:e LITERAL ,\n\
        \  ( ex:f BNODE | ex:g NONLITERAL ) ,\n\
        \  ex:h [ <http://example.org/stems/>~ ex:w ]\n\
         }\n\
         <U> {}\n")
  in
  check_bool "roundtrip" true (schemas_equal schema (roundtrip schema))

let test_roundtrip_negation () =
  let schema =
    Schema.make_exn
      [ (Label.of_string "Base", Util.arc_num "p" [ 1 ]);
        ( Label.of_string "Neg",
          Rse.not_
            (Rse.arc_ref
               (Value_set.Pred (Rdf.Iri.of_string_exn "http://example.org/q"))
               (Label.of_string "Base")) ) ]
  in
  check_bool "roundtrip with Not" true
    (schemas_equal schema (roundtrip schema))

let test_export_structure () =
  let schema =
    parse_shexc (prelude ^ "<T> { foaf:age xsd:integer , foaf:name xsd:string* }")
  in
  let j = Result.get_ok (Json.of_string (Shexc.Shexj.export_string schema)) in
  Alcotest.(check (option string)) "type" (Some "Schema")
    (Json.find_string "type" j);
  match Json.find_list "shapes" j with
  | Some [ shape ] -> (
      Alcotest.(check (option string)) "id" (Some "T")
        (Json.find_string "id" shape);
      check_bool "closed" true (Json.find "closed" shape = Some (Json.Bool true));
      match Json.find "expression" shape with
      | Some expr -> (
          Alcotest.(check (option string)) "EachOf" (Some "EachOf")
            (Json.find_string "type" expr);
          match Json.find_list "expressions" expr with
          | Some [ tc1; tc2 ] ->
              Alcotest.(check (option string))
                "tc type" (Some "TripleConstraint")
                (Json.find_string "type" tc1);
              Alcotest.(check (option int)) "star min" (Some 0)
                (Json.find_int "min" tc2);
              Alcotest.(check (option int)) "star max" (Some (-1))
                (Json.find_int "max" tc2)
          | _ -> Alcotest.fail "expected two triple constraints")
      | None -> Alcotest.fail "expected an expression")
  | _ -> Alcotest.fail "expected one shape"

let test_counted_constraint_roundtrip () =
  (* A min/max constraint is one counted node: it exports as one
     TripleConstraint with the bounds as written, and imports back to
     the same node, however large the bounds. *)
  let tc min max =
    Printf.sprintf
      {|{"type": "Schema", "shapes": [{"type": "Shape", "id": "S",
         "expression": {"type": "TripleConstraint",
                        "predicate": "http://example.org/p",
                        "min": %d, "max": %d}}]}|}
      min max
  in
  let import src =
    match Shexc.Shexj.import_string src with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let expr s = Schema.find_exn s (Label.of_string "S") in
  let big = import (tc 1 1_000_000) in
  let p = Rse.arc_v (Value_set.Pred (ex "p")) Value_set.Obj_any in
  Alcotest.check rse "imports to one node" (Rse.repeat 1 (Some 1_000_000) p)
    (expr big);
  check_int "as big as {1,2}" (Rse.size (expr (import (tc 1 2))))
    (Rse.size (expr big));
  match
    Json.find_list "shapes"
      (Result.get_ok (Json.of_string (Shexc.Shexj.export_string big)))
  with
  | Some [ shape ] -> (
      match Json.find "expression" shape with
      | Some e ->
          Alcotest.(check (option string))
            "one TripleConstraint" (Some "TripleConstraint")
            (Json.find_string "type" e);
          Alcotest.(check (option int)) "min" (Some 1) (Json.find_int "min" e);
          Alcotest.(check (option int))
            "max" (Some 1_000_000) (Json.find_int "max" e);
          check_bool "roundtrip" true (schemas_equal big (roundtrip big))
      | None -> Alcotest.fail "expected an expression")
  | _ -> Alcotest.fail "expected one shape"

let test_export_json_is_valid () =
  let schema =
    parse_shexc (prelude ^ "<T> { ex:p [ 1 \"s\" ] , ex:q @<T>? }")
  in
  let text = Shexc.Shexj.export_string schema in
  check_bool "parses as JSON" true (Result.is_ok (Json.of_string text));
  let minified = Shexc.Shexj.export_string ~minify:true schema in
  check_bool "minified parses" true (Result.is_ok (Json.of_string minified));
  check_bool "minified is one line" true
    (not (String.contains minified '\n'))

let test_import_plain_shexj () =
  (* Hand-written ShExJ in the standard style. *)
  let src =
    {|{
  "type": "Schema",
  "shapes": [
    { "type": "Shape", "id": "Employee", "closed": true,
      "expression": {
        "type": "EachOf",
        "expressions": [
          { "type": "TripleConstraint",
            "predicate": "http://example.org/name",
            "valueExpr": { "type": "NodeConstraint",
                           "datatype": "http://www.w3.org/2001/XMLSchema#string" } },
          { "type": "TripleConstraint",
            "predicate": "http://example.org/boss",
            "valueExpr": "Employee",
            "min": 0, "max": 1 }
        ]
      }
    }
  ]
}|}
  in
  match Shexc.Shexj.import_string src with
  | Error msg -> Alcotest.fail msg
  | Ok schema ->
      let employee = Label.of_string "Employee" in
      check_bool "has Employee" true (Schema.mem schema employee);
      check_bool "recursive" true (is_recursive schema employee);
      (* And it validates. *)
      let g =
        graph_of
          [ triple (node "e1")
              (Rdf.Iri.of_string_exn "http://example.org/name")
              (Rdf.Term.str "Ann");
            triple (node "e1")
              (Rdf.Iri.of_string_exn "http://example.org/boss")
              (node "e2");
            triple (node "e2")
              (Rdf.Iri.of_string_exn "http://example.org/name")
              (Rdf.Term.str "Zoe") ]
      in
      let session = Validate.session schema g in
      check_bool "e1 valid" true
        (Validate.check_bool session (node "e1") employee)

let test_import_errors () =
  List.iter
    (fun src ->
      check_bool src true (Result.is_error (Shexc.Shexj.import_string src)))
    [ "{}";
      "{\"type\": \"Schema\"}";
      "{\"type\": \"Schema\", \"shapes\": [{\"type\": \"Shape\"}]}";
      "{\"type\": \"Schema\", \"shapes\": [{\"id\": \"S\", \"expression\": \
       {\"type\": \"Mystery\"}}]}";
      "{\"type\": \"Schema\", \"shapes\": [{\"id\": \"S\", \"expression\": \
       {\"type\": \"TripleConstraint\"}}]}";
      "not json at all" ]

let test_semantic_equivalence_after_roundtrip () =
  (* Validation verdicts agree before and after the JSON round-trip. *)
  let schema =
    parse_shexc
      (prelude
      ^ "<Person> { foaf:age xsd:integer , foaf:name xsd:string+ , \
         foaf:knows @<Person>* }")
  in
  let schema' = roundtrip schema in
  let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l) in
  let g =
    graph_of
      [ triple (node "john") (foaf "age") (num 23);
        triple (node "john") (foaf "name") (Rdf.Term.str "John");
        triple (node "mary") (foaf "age") (num 50);
        triple (node "mary") (foaf "age") (num 65) ]
  in
  let person = Label.of_string "Person" in
  let s1 = Validate.session schema g and s2 = Validate.session schema' g in
  List.iter
    (fun who ->
      check_bool who true
        (Bool.equal
           (Validate.check_bool s1 (node who) person)
           (Validate.check_bool s2 (node who) person)))
    [ "john"; "mary" ]

let suites =
  [ ( "shexj",
      [ Alcotest.test_case "roundtrip Example 1" `Quick
          test_roundtrip_example1;
        Alcotest.test_case "roundtrip rich schema" `Quick
          test_roundtrip_rich;
        Alcotest.test_case "roundtrip negation" `Quick
          test_roundtrip_negation;
        Alcotest.test_case "export structure" `Quick test_export_structure;
        Alcotest.test_case "counted constraint roundtrip" `Quick
          test_counted_constraint_roundtrip;
        Alcotest.test_case "export is valid JSON" `Quick
          test_export_json_is_valid;
        Alcotest.test_case "import hand-written ShExJ" `Quick
          test_import_plain_shexj;
        Alcotest.test_case "import errors" `Quick test_import_errors;
        Alcotest.test_case "semantic equivalence" `Quick
          test_semantic_equivalence_after_roundtrip ] ) ]
