(* Tests for the benchmark workload generators: determinism and
   ground-truth validity. *)

open Util

let test_prng_determinism () =
  let a = Workload.Prng.create 7 and b = Workload.Prng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Workload.Prng.int a 1000)
      (Workload.Prng.int b 1000)
  done;
  let c = Workload.Prng.create 8 in
  let diverges =
    List.exists
      (fun _ -> Workload.Prng.int a 1000 <> Workload.Prng.int c 1000)
      (List.init 20 Fun.id)
  in
  check_bool "different seed diverges" true diverges

let test_prng_bounds () =
  let rng = Workload.Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Workload.Prng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let f = Workload.Prng.float rng in
    check_bool "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_prng_shuffle_permutes () =
  let rng = Workload.Prng.create 5 in
  let xs = List.init 20 Fun.id in
  let ys = Workload.Prng.shuffle rng xs in
  check_bool "same elements" true
    (List.sort compare ys = xs);
  check_bool "usually different order" true (ys <> xs)

(* 100 persons, 10% invalid, degree 2, seed 42. *)
let profile =
  { Workload.Foaf_gen.n_persons = 100; invalid_fraction = 0.1;
    knows_degree = 2; seed = 42 }

let test_foaf_determinism () =
  let p = profile in
  let g1 = Workload.Foaf_gen.generate p in
  let g2 = Workload.Foaf_gen.generate p in
  Alcotest.check graph "same graph" g1.Workload.Foaf_gen.graph
    g2.Workload.Foaf_gen.graph

let test_foaf_ground_truth () =
  let profile =
    { profile with n_persons = 60; seed = 11 }
  in
  let { Workload.Foaf_gen.graph = g; valid; invalid } =
    Workload.Foaf_gen.generate profile
  in
  check_int "60 persons" 60 (List.length valid + List.length invalid);
  let schema, person = Workload.Foaf_gen.person_schema () in
  let session = Shex.Validate.session schema g in
  List.iter
    (fun n ->
      check_bool
        (Format.asprintf "valid %a" Rdf.Term.pp n)
        true
        (Shex.Validate.check_bool session n person))
    valid;
  List.iter
    (fun n ->
      check_bool
        (Format.asprintf "invalid %a" Rdf.Term.pp n)
        false
        (Shex.Validate.check_bool session n person))
    invalid

let test_foaf_fraction () =
  let profile =
    { profile with
      n_persons = 1000; invalid_fraction = 0.2; seed = 3 }
  in
  let { Workload.Foaf_gen.invalid; _ } = Workload.Foaf_gen.generate profile in
  let frac = float_of_int (List.length invalid) /. 1000.0 in
  check_bool "roughly 20% invalid" true (frac > 0.12 && frac < 0.28)

let test_micro_example5 () =
  let shape = Workload.Micro_gen.example5_shape () in
  List.iter
    (fun n ->
      check_bool "valid neighbourhood matches" true
        (deriv_matches Workload.Micro_gen.focus
           (Workload.Micro_gen.example5_neighbourhood n)
           shape);
      check_bool "invalid neighbourhood fails" false
        (deriv_matches Workload.Micro_gen.focus
           (Workload.Micro_gen.example5_neighbourhood_invalid n)
           shape))
    [ 1; 2; 5; 10 ]

let test_micro_balanced () =
  List.iter
    (fun k ->
      let shape = Workload.Micro_gen.balanced_shape k in
      check_bool "balanced matches" true
        (deriv_matches Workload.Micro_gen.focus
           (Workload.Micro_gen.balanced_neighbourhood k)
           shape);
      (* drop one b-arc: unbalanced fails *)
      let g = Workload.Micro_gen.balanced_neighbourhood k in
      let some_b =
        List.find
          (fun tr ->
            Rdf.Iri.to_string (Rdf.Triple.predicate tr)
            = "http://example.org/b")
          (Rdf.Graph.to_list g)
      in
      check_bool "unbalanced fails" false
        (deriv_matches Workload.Micro_gen.focus
           (Rdf.Graph.remove some_b g) shape))
    [ 1; 2; 4 ]

let test_micro_wide () =
  List.iter
    (fun f ->
      let shape = Workload.Micro_gen.wide_shape f in
      check_bool "wide matches" true
        (deriv_matches Workload.Micro_gen.focus
           (Workload.Micro_gen.wide_neighbourhood f)
           shape);
      check_bool "is SORBE" true (Shex.Sorbe.of_rse shape <> None))
    [ 1; 4; 8; 16 ]

let suites =
  [ ( "workload",
      [ Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
        Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
        Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
        Alcotest.test_case "foaf determinism" `Quick test_foaf_determinism;
        Alcotest.test_case "foaf ground truth" `Quick test_foaf_ground_truth;
        Alcotest.test_case "foaf invalid fraction" `Quick test_foaf_fraction;
        Alcotest.test_case "example5 micro workload" `Quick
          test_micro_example5;
        Alcotest.test_case "balanced micro workload" `Quick
          test_micro_balanced;
        Alcotest.test_case "wide micro workload" `Quick test_micro_wide ] )
  ]
