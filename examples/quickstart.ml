(* Quickstart: the paper's Examples 1 and 2, end to end.

   Run with: dune exec examples/quickstart.exe *)

let schema_src =
  {|PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Person> {
  foaf:age xsd:integer
  , foaf:name xsd:string+
  , foaf:knows @<Person>*
}
|}

let data_src =
  {|@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix : <http://example.org/> .

:john foaf:age 23;
      foaf:name "John";
      foaf:knows :bob .

:bob foaf:age 34;
     foaf:name "Bob", "Robert" .

:mary foaf:age 50, 65 .
|}

let () =
  (* 1. Parse the ShExC schema (Example 1). *)
  let schema = Shexc.Shexc_parser.parse_schema_exn schema_src in
  Format.printf "Schema:@.%a@.@." Shex.Schema.pp schema;

  (* 2. Parse the Turtle data (Example 2). *)
  let graph = Turtle.Parse.parse_graph_exn data_src in
  Format.printf "Data (%d triples):@.%a@.@." (Rdf.Graph.cardinal graph)
    Rdf.Graph.pp graph;

  (* 3. Validate each node against <Person>. *)
  let person = Shex.Label.of_string "Person" in
  let session = Shex.Validate.session schema graph in
  let check name =
    let node = Rdf.Term.iri ("http://example.org/" ^ name) in
    let outcome = Shex.Validate.check session node person in
    Format.printf ":%-5s has shape <Person>?  %b@." name
      outcome.Shex.Validate.ok;
    match Shex.Validate.reason outcome with
    | Some reason -> Format.printf "        reason: %s@." reason
    | None -> ()
  in
  List.iter check [ "john"; "bob"; "mary" ];

  (* 4. Show the derivative trace for john (the §7 algorithm at work). *)
  let john = Rdf.Term.iri "http://example.org/john" in
  Option.iter
    (Format.printf "@.Derivative trace for :john:@.%a@." Shex.Deriv.pp_trace)
    (Shex.Validate.trace session john person);

  (* 5. The full typing of the graph. *)
  let typing = Shex.Validate.validate_graph session in
  Format.printf "@.Typing of the whole graph:@.%a@." Shex.Typing.pp typing
