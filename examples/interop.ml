(* Interop tour: shape maps, validation reports and ShExJ
   interchange.

   Run with: dune exec examples/interop.exe *)

let schema_src =
  {|PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
PREFIX ex: <http://example.org/>

<Person> IRI {
  a [ ex:Employee ]
  , foaf:age xsd:integer
  , foaf:name xsd:string+
  , foaf:knows @<Person>*
}
|}

let data_src =
  {|@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ex: <http://example.org/> .
@prefix : <http://example.org/people/> .

:john a ex:Employee ; foaf:age 23; foaf:name "John"; foaf:knows :bob .
:bob a ex:Employee ; foaf:age 34; foaf:name "Bob", "Robert" .
:mary a ex:Employee ; foaf:age 50, 65 .
[] foaf:age 30 ; foaf:name "Mystery" .
|}

let () =
  let schema = Shexc.Shexc_parser.parse_schema_exn schema_src in
  let graph = Turtle.Parse.parse_graph_exn data_src in
  let session = Shex.Validate.session schema graph in

  (* 1. Shape maps: validate every ex:Employee against <Person>. *)
  let shape_map =
    Shex.Shape_map.parse_exn "{FOCUS a ex:Employee}@<Person>"
  in
  let report = Shex.Report.run_shape_map session shape_map graph in
  Format.printf "Report for {FOCUS a ex:Employee}@@<Person>:@.%a@.@."
    Shex.Report.pp report;

  (* 2. The same report as a result shape map and as JSON. *)
  Format.printf "Result shape map:@.%s@.@."
    (Shex.Report.to_result_shape_map report);
  Format.printf "JSON (minified):@.%s@.@."
    (Json.to_string ~minify:true (Shex.Report.to_json report));

  (* 3. ShExJ interchange: export, reimport, verify equivalence. *)
  let shexj = Shexc.Shexj.export_string schema in
  Format.printf "ShExJ export (%d bytes); reimport ok: %b@.@."
    (String.length shexj)
    (match Shexc.Shexj.import_string shexj with
    | Ok schema' ->
        let person = Shex.Label.of_string "Person" in
        let s' = Shex.Validate.session schema' graph in
        List.for_all
          (fun n ->
            Bool.equal
              (Shex.Validate.check_bool session n person)
              (Shex.Validate.check_bool s' n person))
          (Rdf.Graph.subjects graph)
    | Error _ -> false)
