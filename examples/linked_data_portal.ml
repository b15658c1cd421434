(* Validating a linked-data portal (§1, ref [16] of the paper): a
   synthetic FOAF social network with a recursive Person shape.

   Shows whole-graph typing, failure diagnosis, engine comparison on a
   small slice, and Turtle export of the invalid subgraph.

   Run with: dune exec examples/linked_data_portal.exe *)

let () =
  let profile =
    { Workload.Foaf_gen.n_persons = 400;
      invalid_fraction = 0.12;
      knows_degree = 3;
      seed = 2015 }
  in
  let { Workload.Foaf_gen.graph; valid; invalid } =
    Workload.Foaf_gen.generate profile
  in
  Format.printf "Portal: %d persons (%d supposedly valid), %d triples@.@."
    profile.Workload.Foaf_gen.n_persons (List.length valid)
    (Rdf.Graph.cardinal graph);

  let schema, person = Workload.Foaf_gen.person_schema () in
  Format.printf "Schema (Example 14):@.%a@.@." Shex.Schema.pp schema;

  (* Validate every node with the derivatives engine. *)
  let session = Shex.Validate.session schema graph in
  let t0 = Sys.time () in
  let typing = Shex.Validate.validate_graph session in
  let elapsed = Sys.time () -. t0 in
  let typed_persons =
    List.filter (fun n -> Shex.Typing.mem n person typing) (valid @ invalid)
  in
  Format.printf
    "Derivatives engine: %d of %d persons conform (%.1f ms total)@."
    (List.length typed_persons)
    (List.length valid + List.length invalid)
    (elapsed *. 1000.0);

  (* Cross-check the generator's ground truth. *)
  let false_negatives =
    List.filter (fun n -> not (Shex.Typing.mem n person typing)) valid
  in
  let false_positives =
    List.filter (fun n -> Shex.Typing.mem n person typing) invalid
  in
  Format.printf "Ground truth check: %d false negatives, %d false positives@.@."
    (List.length false_negatives)
    (List.length false_positives);

  (* Diagnose the first few invalid persons. *)
  Format.printf "Sample diagnoses:@.";
  List.iteri
    (fun i n ->
      if i < 3 then begin
        let outcome = Shex.Validate.check session n person in
        Format.printf "  %a: %s@." Rdf.Term.pp n
          (Option.value
             (Shex.Validate.reason outcome)
             ~default:"(no reason recorded)")
      end)
    invalid;

  (* Engine comparison on a small slice: backtracking is exponential in
     neighbourhood size, so keep both the population and the fan-out
     tiny. *)
  let small_profile =
    { profile with Workload.Foaf_gen.n_persons = 10; knows_degree = 1 }
  in
  let small = Workload.Foaf_gen.generate small_profile in
  let time engine =
    let session =
      Shex.Validate.session ~engine schema small.Workload.Foaf_gen.graph
    in
    let t0 = Sys.time () in
    let typing = Shex.Validate.validate_graph session in
    (Sys.time () -. t0, Shex.Typing.cardinal typing)
  in
  let t_deriv, n_deriv = time Shex.Validate.Derivatives in
  let t_back, n_back = time Shex.Validate.Backtracking in
  Format.printf
    "@.Engine comparison on %d persons: derivatives %.2f ms (%d typed), \
     backtracking %.2f ms (%d typed)@."
    small_profile.Workload.Foaf_gen.n_persons (t_deriv *. 1000.0) n_deriv
    (t_back *. 1000.0) n_back;

  (* Export the invalid persons' neighbourhoods as Turtle for triage. *)
  let invalid_subgraph =
    Rdf.Graph.of_list
      (List.concat_map (fun n -> Rdf.Graph.out_triples n graph) invalid)
  in
  let turtle = Turtle.Write.to_string invalid_subgraph in
  Format.printf "@.Invalid subgraph (Turtle, first 400 chars):@.%s@."
    (if String.length turtle > 400 then String.sub turtle 0 400 ^ "..."
     else turtle)
