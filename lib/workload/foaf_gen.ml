type violation =
  | Missing_name
  | Extra_age
  | Age_not_integer
  | Knows_literal

type profile = {
  n_persons : int;
  invalid_fraction : float;
  knows_degree : int;
  seed : int;
}

type generated = {
  graph : Rdf.Graph.t;
  valid : Rdf.Term.t list;
  invalid : Rdf.Term.t list;
}

let foaf local = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ local)
let person_iri k =
  Rdf.Term.iri (Printf.sprintf "http://example.org/people/p%d" k)

let first_names =
  [ "Ada"; "Bob"; "Cleo"; "Dan"; "Eve"; "Fay"; "Gus"; "Hal"; "Ines"; "John" ]

let violations = [ Missing_name; Extra_age; Age_not_integer; Knows_literal ]

let gen ?community profile =
  let rng = Prng.create profile.seed in
  let n = profile.n_persons in
  let is_invalid = Array.init n (fun _ -> Prng.bool rng profile.invalid_fraction) in
  let valid_indices =
    List.filter (fun k -> not is_invalid.(k)) (List.init n Fun.id)
  in
  (* Eligible knows-targets of person [k]: every valid person, or —
     clustered portals — the valid persons of [k]'s own community. *)
  let eligible =
    match community with
    | None -> fun _ -> valid_indices
    | Some c ->
        let blocks : (int, int list) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun j ->
            let b = j / c in
            let prev = Option.value (Hashtbl.find_opt blocks b) ~default:[] in
            Hashtbl.replace blocks b (j :: prev))
          (List.rev valid_indices);
        fun k -> Option.value (Hashtbl.find_opt blocks (k / c)) ~default:[]
  in
  let add = Rdf.Graph.add in
  let graph = ref Rdf.Graph.empty in
  let emit s p o = graph := add (Rdf.Triple.make s p o) !graph in
  let gen_person k =
    let me = person_iri k in
    let age () = emit me (foaf "age") (Rdf.Term.int (18 + Prng.int rng 60)) in
    let name () =
      emit me (foaf "name")
        (Rdf.Term.str
           (Printf.sprintf "%s %d" (Prng.pick rng first_names) k))
    in
    let knows_valid () =
      match eligible k with
      | [] -> ()
      | candidates ->
          let target = Prng.pick rng candidates in
          if target <> k then emit me (foaf "knows") (person_iri target)
    in
    if not is_invalid.(k) then begin
      age ();
      name ();
      (* extra names with decreasing probability *)
      if Prng.bool rng 0.3 then name ();
      let degree = Prng.int rng (max 1 ((2 * profile.knows_degree) + 1)) in
      for _ = 1 to degree do
        knows_valid ()
      done
    end
    else begin
      match Prng.pick rng violations with
      | Missing_name ->
          age ();
          knows_valid ()
      | Extra_age ->
          emit me (foaf "age") (Rdf.Term.int 30);
          emit me (foaf "age") (Rdf.Term.int 31);
          name ()
      | Age_not_integer ->
          emit me (foaf "age") (Rdf.Term.str "old");
          name ()
      | Knows_literal ->
          age ();
          name ();
          emit me (foaf "knows") (Rdf.Term.str "somebody")
    end
  in
  for k = 0 to n - 1 do
    gen_person k
  done;
  let valid, invalid =
    List.init n Fun.id
    |> List.partition (fun k -> not is_invalid.(k))
  in
  { graph = !graph;
    valid = List.map person_iri valid;
    invalid = List.map person_iri invalid }

let generate profile = gen profile

let generate_clustered ?(community = 10) profile =
  gen ~community:(max 1 community) profile

let person_schema () =
  let person = Shex.Label.of_string "Person" in
  let schema =
    Shex.Schema.make_exn
      [ ( person,
          Shex.Rse.and_all
            [ Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "age"))
                Shex.Value_set.xsd_integer;
              Shex.Rse.plus
                (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "name"))
                   Shex.Value_set.xsd_string);
              Shex.Rse.star
                (Shex.Rse.arc_ref (Shex.Value_set.Pred (foaf "knows"))
                   person) ] ) ]
  in
  (schema, person)

let flat_person_schema () =
  let person = Shex.Label.of_string "Person" in
  let schema =
    Shex.Schema.make_exn
      [ ( person,
          Shex.Rse.and_all
            [ Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "age"))
                Shex.Value_set.xsd_integer;
              Shex.Rse.plus
                (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "name"))
                   Shex.Value_set.xsd_string);
              Shex.Rse.star
                (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "knows"))
                   (Shex.Value_set.Obj_kind Shex.Value_set.Iri_kind)) ] ) ]
  in
  (schema, person)
