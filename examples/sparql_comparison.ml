(* Shape Expressions versus SPARQL (§3 of the paper).

   Generates the SPARQL validation query for a non-recursive Person
   shape, shows how unwieldy it is next to the ShExC form, evaluates
   both, and checks they agree.  Also renders and runs the paper's
   Example 4 query.

   Run with: dune exec examples/sparql_comparison.exe *)

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

(* Non-recursive variant of the Person shape: SPARQL cannot express
   the recursive foaf:knows @<Person> (§3), so the reference becomes a
   node-kind test. *)
let person_shape =
  Shex.Rse.and_all
    [ Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "age"))
        Shex.Value_set.xsd_integer;
      Shex.Rse.plus
        (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "name"))
           Shex.Value_set.xsd_string);
      Shex.Rse.star
        (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "knows"))
           (Shex.Value_set.Obj_kind Shex.Value_set.Iri_kind)) ]

let () =
  Format.printf "The shape, in ShExC (3 lines):@.@.<Person> {@.  %s@.}@.@."
    (Shexc.Shexc_printer.expr_to_string person_shape);

  (match Sparql.Gen.of_shape person_shape with
  | Error msg -> failwith msg
  | Ok sel ->
      let text = Sparql.Pp.query_to_string (Sparql.Ast.Select_q sel) in
      Format.printf "The same constraint, compiled to SPARQL (%d lines):@.@.%s@.@."
        (List.length (String.split_on_char '\n' text))
        text);

  (* Evaluate both on a portal graph and compare. *)
  let profile =
    { Workload.Foaf_gen.n_persons = 150;
      invalid_fraction = 0.15;
      knows_degree = 2;
      seed = 99 }
  in
  let { Workload.Foaf_gen.graph; _ } = Workload.Foaf_gen.generate profile in
  Format.printf "Evaluating both on %d triples...@." (Rdf.Graph.cardinal graph);

  let t0 = Sys.time () in
  let person = Shex.Label.of_string "Person" in
  let session =
    Shex.Validate.session
      (Shex.Schema.make_exn [ (person, person_shape) ])
      graph
  in
  let deriv_nodes =
    List.filter
      (fun n -> Shex.Validate.check_bool session n person)
      (Rdf.Graph.subjects graph)
  in
  let t_deriv = Sys.time () -. t0 in

  let t0 = Sys.time () in
  let sparql_nodes =
    match Sparql.Gen.matching_nodes graph person_shape with
    | Ok nodes -> nodes
    | Error msg -> failwith msg
  in
  let t_sparql = Sys.time () -. t0 in

  Format.printf
    "derivatives: %d conforming nodes in %.2f ms@.SPARQL:      %d \
     conforming nodes in %.2f ms@.agree: %b@.@."
    (List.length deriv_nodes) (t_deriv *. 1000.0)
    (List.length sparql_nodes) (t_sparql *. 1000.0)
    (List.for_all2 Rdf.Term.equal
       (List.sort Rdf.Term.compare deriv_nodes)
       sparql_nodes);

  (* Recursion is the dividing line (§3). *)
  let recursive =
    Shex.Rse.arc_ref (Shex.Value_set.Pred (foaf "knows"))
      (Shex.Label.of_string "Person")
  in
  (match Sparql.Gen.of_shape recursive with
  | Ok _ -> assert false
  | Error msg -> Format.printf "Recursive shape refused by the compiler:@.  %s@.@." msg);

  (* The paper's Example 4, verbatim style. *)
  let q = Sparql.Gen.example4_query () in
  Format.printf "The paper's Example 4 query:@.@.%s@.@."
    (Sparql.Pp.query_to_string q);
  let example2 =
    Turtle.Parse.parse_graph_exn
      {|@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix : <http://example.org/> .
:john foaf:age 23; foaf:name "John"; foaf:knows :bob .
:bob foaf:age 34; foaf:name "Bob", "Robert" .
:mary foaf:age 50, 65 .
|}
  in
  match Sparql.Eval.run example2 q with
  | `Boolean b ->
      Format.printf "Example 4 ASK over the Example 2 graph: %b@." b
  | `Solutions _ -> assert false
