(* Tests for focus-node constraints on shapes. *)

open Util
open Shex

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

let prelude =
  "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
   PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
   PREFIX ex: <http://example.org/>\n"

let parse src = Shexc.Shexc_parser.parse_schema_exn src

let graph =
  Rdf.Graph.of_list
    [ triple (node "john") (foaf "name") (Rdf.Term.str "John");
      Rdf.Triple.make (Rdf.Term.bnode "b0") (foaf "name")
        (Rdf.Term.str "Anonymous") ]

let test_api_focus () =
  let person = Label.of_string "Person" in
  let schema =
    Schema.make_shapes
      [ ( person,
          { Schema.focus = Some (Value_set.Obj_kind Value_set.Iri_kind);
            expr = Rse.arc_v (Value_set.Pred (foaf "name")) Value_set.xsd_string
          } ) ]
    |> Result.get_ok
  in
  let session = Validate.session schema graph in
  check_bool "IRI focus ok" true
    (Validate.check_bool session (node "john") person);
  check_bool "bnode focus fails" false
    (Validate.check_bool session (Rdf.Term.bnode "b0") person);
  (* And the failure reason mentions the node constraint. *)
  let outcome = Validate.check session (Rdf.Term.bnode "b0") person in
  match Validate.reason outcome with
  | Some msg ->
      check_bool "mentions node constraint" true
        (let has_sub sub s =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has_sub "node constraint" msg)
  | None -> Alcotest.fail "expected a reason"

let test_shexc_focus_kind () =
  let s = parse (prelude ^ "<Person> IRI { foaf:name xsd:string }") in
  let person = Label.of_string "Person" in
  let session = Validate.session s graph in
  check_bool "iri ok" true (Validate.check_bool session (node "john") person);
  check_bool "bnode rejected" false
    (Validate.check_bool session (Rdf.Term.bnode "b0") person)

let test_shexc_focus_value_set () =
  let s =
    parse (prelude ^ "<Special> [ ex:john ex:jane ] OPEN {}")
  in
  let special = Label.of_string "Special" in
  let session = Validate.session s graph in
  check_bool "listed node" true
    (Validate.check_bool session (node "john") special);
  check_bool "unlisted node" false
    (Validate.check_bool session (node "other") special)

let test_shexc_focus_datatype () =
  (* A shape for literal nodes: focus must be an xsd:string. *)
  let s = parse (prelude ^ "<Name> xsd:string OPEN {}") in
  let name = Label.of_string "Name" in
  let g = graph in
  let session = Validate.session s g in
  check_bool "string literal" true
    (Validate.check_bool session (Rdf.Term.str "whatever") name);
  check_bool "integer literal" false
    (Validate.check_bool session (Rdf.Term.int 5) name);
  check_bool "iri" false (Validate.check_bool session (node "john") name)

let test_printer_roundtrip () =
  List.iter
    (fun src ->
      let s = parse src in
      let printed = Shexc.Shexc_printer.schema_to_string s in
      let s' = parse printed in
      let ok =
        List.for_all2
          (fun (l1, (sh1 : Schema.shape)) (l2, (sh2 : Schema.shape)) ->
            Label.equal l1 l2
            && Rse.equal sh1.Schema.expr sh2.Schema.expr
            && Option.equal Value_set.obj_equal sh1.Schema.focus
                 sh2.Schema.focus)
          (Schema.shapes s) (Schema.shapes s')
      in
      check_bool ("roundtrip:\n" ^ printed) true ok)
    [ prelude ^ "<Person> IRI { foaf:name xsd:string }";
      prelude ^ "<Name> xsd:string OPEN {}";
      prelude ^ "<Special> [ ex:john 42 ] { ex:p . }" ]

let test_shexj_roundtrip () =
  let s = parse (prelude ^ "<Person> IRI { foaf:name xsd:string }") in
  match Shexc.Shexj.import_string (Shexc.Shexj.export_string s) with
  | Error msg -> Alcotest.fail msg
  | Ok s' -> (
      match Schema.find_shape s' (Label.of_string "Person") with
      | Some { Schema.focus = Some (Value_set.Obj_kind Value_set.Iri_kind); _ }
        ->
          ()
      | _ -> Alcotest.fail "focus constraint lost in ShExJ roundtrip")

let test_refs_with_focus () =
  (* A reference check applies the target shape's focus constraint. *)
  let s =
    parse
      (prelude
      ^ "<Person> IRI { foaf:name xsd:string }\n\
         <Knower> { foaf:knows @<Person> }")
  in
  let g =
    Rdf.Graph.of_list
      [ triple (node "a") (foaf "knows") (node "john");
        triple (node "john") (foaf "name") (Rdf.Term.str "John");
        triple (node "b") (foaf "knows") (Rdf.Term.bnode "b0");
        Rdf.Triple.make (Rdf.Term.bnode "b0") (foaf "name")
          (Rdf.Term.str "Anon") ]
  in
  let knower = Label.of_string "Knower" in
  let session = Validate.session s g in
  check_bool "knows an IRI person" true
    (Validate.check_bool session (node "a") knower);
  check_bool "knows a bnode person" false
    (Validate.check_bool session (node "b") knower)

let suites =
  [ ( "focus",
      [ Alcotest.test_case "API focus constraint" `Quick test_api_focus;
        Alcotest.test_case "ShExC node kind" `Quick test_shexc_focus_kind;
        Alcotest.test_case "ShExC value set" `Quick
          test_shexc_focus_value_set;
        Alcotest.test_case "ShExC datatype" `Quick test_shexc_focus_datatype;
        Alcotest.test_case "printer roundtrip" `Quick test_printer_roundtrip;
        Alcotest.test_case "ShExJ roundtrip" `Quick test_shexj_roundtrip;
        Alcotest.test_case "references apply focus" `Quick
          test_refs_with_focus ] ) ]
