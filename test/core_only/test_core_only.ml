(* A core-only consumer: the Compiled and Auto engines and the
   domain-sharded [check_all] must need nothing beyond [shex]. *)

open Shex

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

let schema =
  Shexc.Shexc_parser.parse_schema_exn
    {|PREFIX ex: <http://example.org/>
      <Person> { ex:name . , ex:knows @<Person>* }
      <Contact> { ex:email . | ex:phone . }|}

let graph =
  let ex s = Rdf.Iri.of_string_exn ("http://example.org/" ^ s) in
  let node s = Rdf.Term.Iri (ex s) in
  let t s p o = Rdf.Triple.make (node s) (ex p) o in
  Rdf.Graph.of_list
    [ t "alice" "name" (Rdf.Term.str "Alice");
      t "alice" "knows" (node "bob");
      t "bob" "name" (Rdf.Term.str "Bob");
      t "carol" "knows" (node "alice");
      t "dave" "email" (Rdf.Term.str "dave@example.org");
      t "erin" "email" (Rdf.Term.str "erin@example.org");
      t "erin" "phone" (Rdf.Term.str "555") ]

let associations =
  List.concat_map
    (fun n -> List.map (fun l -> (n, l)) (Schema.labels schema))
    (Rdf.Graph.nodes graph)

let verdicts ?domains engine =
  let st = Validate.session ~engine ?domains schema graph in
  List.map
    (fun (o : Validate.outcome) -> o.ok)
    (Validate.check_all st associations)

let () =
  let reference = verdicts Validate.Derivatives in
  check "some association conforms" (List.mem true reference);
  check "some association fails" (List.mem false reference);
  check "Compiled agrees with Derivatives"
    (verdicts Validate.Compiled = reference);
  (* <Contact> is an alternative between different arcs, outside the
     SORBE fragment, so Auto compiles it to a DFA. *)
  let tele = Telemetry.create () in
  let auto =
    Validate.session ~engine:Validate.Auto ~telemetry:tele schema graph
  in
  check "Auto agrees with Derivatives"
    (List.map (fun (n, l) -> Validate.check_bool auto n l) associations
    = reference);
  check "Auto built DFA states"
    (Telemetry.Counter.value (Telemetry.gauge tele "compiled_states") > 0);
  check "check_all at 2 domains = at 1 domain"
    (verdicts ~domains:2 Validate.Derivatives = reference);
  if !failures > 0 then exit 1
