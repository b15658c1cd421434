(* Incremental revalidation: dependency-frontier invalidation must
   keep exactly the verdicts a delta cannot reach, flip the ones it
   can, and always agree with a from-scratch run (the property the
   oracle's edit-script arm also enforces at scale). *)

open Util
open Shex

let label = Label.of_string
let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)
let person = label "Person"

(* The recursive Person schema of Examples 1/14 — knows-objects must
   themselves conform, so breaking one node ripples backwards through
   the dependency edges. *)
let person_schema =
  Schema.make_exn
    [ ( person,
        Rse.and_all
          [ Rse.arc_v (Value_set.Pred (foaf "age")) Value_set.xsd_integer;
            Rse.plus
              (Rse.arc_v (Value_set.Pred (foaf "name")) Value_set.xsd_string);
            Rse.star (Rse.arc_ref (Value_set.Pred (foaf "knows")) person) ]
      ) ]

let person_triples name age =
  [ triple (node name) (foaf "age") (num age);
    triple (node name) (foaf "name") (Rdf.Term.str (String.capitalize_ascii name)) ]

let base_graph =
  graph_of
    (person_triples "john" 23
    @ person_triples "bob" 34
    @ person_triples "carol" 41
    @ [ triple (node "john") (foaf "knows") (node "bob") ])

let get snap name =
  match Telemetry.find_counter snap name with
  | Some v -> v
  | None -> Alcotest.failf "counter %S missing from snapshot" name

let verdict_t =
  Alcotest.testable
    (fun ppf (n, l, ok) ->
      Format.fprintf ppf "%s@@%s=%b" (Rdf.Term.to_string n)
        (Label.to_string l) ok)
    (fun (n1, l1, b1) (n2, l2, b2) ->
      Rdf.Term.equal n1 n2 && Label.equal l1 l2 && Bool.equal b1 b2)

(* ------------------------------------------------------------------ *)
(* Direct invalidation                                                 *)
(* ------------------------------------------------------------------ *)

let test_delete_direct () =
  let s = Shex_incremental.Session.create person_schema base_graph in
  Alcotest.(check bool) "john valid" true
    (Shex_incremental.Session.check_bool s (node "john") person);
  Alcotest.(check bool) "carol valid" true
    (Shex_incremental.Session.check_bool s (node "carol") person);
  let stats =
    Shex_incremental.Session.apply s
      (Shex_incremental.Session.delete
         [ triple (node "carol") (foaf "name") (Rdf.Term.str "Carol") ])
  in
  Alcotest.(check int) "one triple applied" 1 stats.applied;
  Alcotest.(check bool) "frontier non-empty" true (stats.frontier >= 1);
  Alcotest.(check (list verdict_t)) "carol flips to nonconformant"
    [ (node "carol", person, false) ]
    stats.changed;
  Alcotest.(check bool) "carol now fails" false
    (Shex_incremental.Session.check_bool s (node "carol") person);
  Alcotest.(check bool) "john untouched" true
    (Shex_incremental.Session.check_bool s (node "john") person)

(* Breaking bob must flip john too: john's verdict consulted
   (bob, Person) through the knows reference, so the backwards walk
   reaches both. *)
let test_frontier_ripples_through_references () =
  let s = Shex_incremental.Session.create person_schema base_graph in
  Alcotest.(check bool) "john valid" true
    (Shex_incremental.Session.check_bool s (node "john") person);
  let stats =
    Shex_incremental.Session.apply s
      (Shex_incremental.Session.delete
         [ triple (node "bob") (foaf "name") (Rdf.Term.str "Bob") ])
  in
  let flipped (n, l) =
    List.exists
      (fun (n', l', now) ->
        Rdf.Term.equal n n' && Label.equal l l' && not now)
      stats.changed
  in
  Alcotest.(check bool) "bob flips" true (flipped (node "bob", person));
  Alcotest.(check bool) "john flips (via knows)" true
    (flipped (node "john", person));
  Alcotest.(check bool) "bob fails" false
    (Shex_incremental.Session.check_bool s (node "bob") person);
  Alcotest.(check bool) "john fails" false
    (Shex_incremental.Session.check_bool s (node "john") person);
  (* Repair bob: both come back. *)
  let stats =
    Shex_incremental.Session.apply s
      (Shex_incremental.Session.insert
         [ triple (node "bob") (foaf "name") (Rdf.Term.str "Bob") ])
  in
  Alcotest.(check bool) "bob restored" true
    (List.exists (fun (_, _, now) -> now) stats.changed);
  Alcotest.(check bool) "john conforms again" true
    (Shex_incremental.Session.check_bool s (node "john") person)

(* Carol's verdict shares no dependency with bob's; the delta on bob
   must not re-evaluate her — measured, not assumed, via the fixpoint
   counter. *)
let test_unaffected_memo_retained () =
  let tele = Telemetry.create () in
  let s = Shex_incremental.Session.create ~telemetry:tele person_schema
      base_graph
  in
  ignore (Shex_incremental.Session.check_bool s (node "carol") person);
  ignore (Shex_incremental.Session.check_bool s (node "john") person);
  let before = get (Telemetry.snapshot tele) "fixpoint_iterations" in
  let stats =
    Shex_incremental.Session.apply s
      (Shex_incremental.Session.delete
         [ triple (node "bob") (foaf "name") (Rdf.Term.str "Bob") ])
  in
  Alcotest.(check bool) "frontier excludes carol" true
    (List.for_all
       (fun (n, _, _) -> not (Rdf.Term.equal n (node "carol")))
       stats.changed);
  let after_delta = get (Telemetry.snapshot tele) "fixpoint_iterations" in
  Alcotest.(check bool) "delta re-solved something" true
    (after_delta > before);
  ignore (Shex_incremental.Session.check_bool s (node "carol") person);
  Alcotest.(check int) "carol answered from the retained memo"
    after_delta
    (get (Telemetry.snapshot tele) "fixpoint_iterations");
  (* The frontier histogram recorded the delta. *)
  Alcotest.(check int) "one delta counted" 1
    (get (Telemetry.snapshot tele) "incremental_deltas");
  Alcotest.(check bool) "invalidations counted" true
    (get (Telemetry.snapshot tele) "incremental_invalidated" >= 2)

(* A typing is walked afresh from the retained verdicts on every
   call.  An edit that drops john's knows arc leaves john valid but no
   longer relying on bob, and one that adds a knows arc to carol makes
   him rely on her. *)
let test_typing_follows_edits () =
  let s = Shex_incremental.Session.create person_schema base_graph in
  let typing_of n =
    Validate.typing (Shex_incremental.Session.validation s) n person
  in
  Alcotest.check typing "john relies on bob"
    (Typing.add (node "bob") person (Typing.singleton (node "john") person))
    (typing_of (node "john"));
  ignore
    (Shex_incremental.Session.apply s
       (Shex_incremental.Session.delete
          [ triple (node "john") (foaf "knows") (node "bob") ]));
  Alcotest.check typing "john alone"
    (Typing.singleton (node "john") person)
    (typing_of (node "john"));
  ignore
    (Shex_incremental.Session.apply s
       (Shex_incremental.Session.insert
          [ triple (node "john") (foaf "knows") (node "carol") ]));
  Alcotest.check typing "john relies on carol"
    (Typing.add (node "carol") person (Typing.singleton (node "john") person))
    (typing_of (node "john"))

let test_noop_delta () =
  let s = Shex_incremental.Session.create person_schema base_graph in
  ignore (Shex_incremental.Session.check_bool s (node "john") person);
  let stats =
    Shex_incremental.Session.apply s
      { Shex_incremental.Session.inserts =
          [ triple (node "john") (foaf "knows") (node "bob") ];
        deletes = [ triple (node "john") (foaf "age") (num 99) ] }
  in
  Alcotest.(check int) "nothing applied" 0 stats.applied;
  Alcotest.(check int) "nothing invalidated" 0 stats.frontier;
  Alcotest.(check bool) "john still valid" true
    (Shex_incremental.Session.check_bool s (node "john") person)

(* A triple about a brand-new node: no memo entry to invalidate, and
   the next query just solves fresh. *)
let test_new_node () =
  let s = Shex_incremental.Session.create person_schema base_graph in
  let stats =
    Shex_incremental.Session.apply s
      (Shex_incremental.Session.insert
         (person_triples "dave" 29
         @ [ triple (node "dave") (foaf "knows") (node "john") ]))
  in
  Alcotest.(check int) "three triples applied" 3 stats.applied;
  Alcotest.(check bool) "dave conforms" true
    (Shex_incremental.Session.check_bool s (node "dave") person)

(* Naming p700 repairs the whole ring of {!Util.chorded_ring}: the
   frontier is every ring verdict, in the order the backwards walk
   reaches them, and the constants pin that order. *)
let test_frontier_order () =
  let g = Lazy.force chorded_ring in
  let s = Shex_incremental.Session.create person_schema g in
  let vs = Shex_incremental.Session.validation s in
  ignore (Validate.validate_graph vs);
  let name = Rdf.Term.str "p700" in
  Validate.set_graph vs
    (Rdf.Graph.add (triple (node "p700") (foaf "name") name) g);
  let frontier = Validate.invalidate_nodes vs [ node "p700"; name ] in
  let rendered =
    List.map
      (fun ((n, l), was) ->
        Printf.sprintf "%s@%s=%b" (Rdf.Term.to_string n) (Label.to_string l)
          was)
      frontier
  in
  Alcotest.(check int) "every ring verdict" 1000 (List.length rendered);
  Alcotest.(check (list string)) "the walk ends at p701…p708"
    (List.init 8 (fun i ->
         Printf.sprintf "<http://example.org/p%d>@Person=false" (701 + i)))
    (List.filteri (fun i _ -> i < 8) rendered);
  Alcotest.(check string) "digest of the whole frontier, in order"
    "39def3b6ab19b9980865d81b5d66cb45"
    (Digest.to_hex (Digest.string (String.concat "\n" rendered)))

(* ------------------------------------------------------------------ *)
(* Incremental ≡ from-scratch on random edit scripts                   *)
(* ------------------------------------------------------------------ *)

let incremental_equals_scratch seed =
  let case = Workload.Rand_gen.case seed in
  let rng = Workload.Prng.create (seed lxor 0x5eed) in
  let script =
    Workload.Rand_gen.edit_script rng case.schema case.graph 12
  in
  let inc = Shex_incremental.Session.create case.schema case.graph in
  List.for_all
    (fun edit ->
      let d =
        match edit with
        | Workload.Rand_gen.Insert tr -> Shex_incremental.Session.insert [ tr ]
        | Workload.Rand_gen.Delete tr -> Shex_incremental.Session.delete [ tr ]
      in
      ignore (Shex_incremental.Session.apply inc d);
      let scratch =
        Validate.session case.schema (Shex_incremental.Session.graph inc)
      in
      (* The whole outcome, not just the verdict: a typing walks the
         retained verdicts, so a verdict kept past an invalidation that
         a closure passes through shows up as a stale typing. *)
      let vs = Shex_incremental.Session.validation inc in
      List.for_all
        (fun (n, l) ->
          let i = Validate.check vs n l and s = Validate.check scratch n l in
          Bool.equal i.ok s.ok
          && Typing.equal (Validate.typing vs n l) (Validate.typing scratch n l)
          && Option.equal
               (fun a b -> Explain.to_json a = Explain.to_json b)
               i.explain s.explain)
        case.associations)
    script

let prop_incremental_equals_scratch =
  QCheck.Test.make ~count:60
    ~name:"incremental ≡ from-scratch over random edit scripts"
    QCheck.(int_bound 10_000)
    incremental_equals_scratch

let suites =
  [ ( "incremental",
      [ Alcotest.test_case "delete invalidates the edited node" `Quick
          test_delete_direct;
        Alcotest.test_case "frontier ripples through references" `Quick
          test_frontier_ripples_through_references;
        Alcotest.test_case "unaffected verdicts stay memoised" `Quick
          test_unaffected_memo_retained;
        Alcotest.test_case "typings follow edits" `Quick
          test_typing_follows_edits;
        Alcotest.test_case "no-op deltas touch nothing" `Quick
          test_noop_delta;
        Alcotest.test_case "new nodes solve fresh" `Quick test_new_node;
        Alcotest.test_case "frontier order is pinned" `Quick
          test_frontier_order;
        QCheck_alcotest.to_alcotest prop_incremental_equals_scratch ] ) ]
