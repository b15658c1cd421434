(* The compiled automaton engine (Hrse, Dfa): hash-cons
   canonicalisation, DFA/derivative agreement, suite-wide engine
   equivalence, and cache behaviour. *)

open Util
open Shex
module H = Hrse

(* ------------------------------------------------------------------ *)
(* Hash-cons canonicalisation: ACI-equal terms get one id             *)
(* ------------------------------------------------------------------ *)

let same msg a b = check_bool msg true (H.equal a b)
let distinct msg a b = check_bool msg false (H.equal a b)

let test_hcons_aci () =
  let t = H.create () in
  let a = H.atom t 0 and b = H.atom t 1 and c = H.atom t 2 in
  same "‖ commutes" (H.and_ t a b) (H.and_ t b a);
  same "‖ associates"
    (H.and_ t a (H.and_ t b c))
    (H.and_ t (H.and_ t a b) c);
  same "| commutes" (H.or_ t a b) (H.or_ t b a);
  same "| associates" (H.or_ t a (H.or_ t b c)) (H.or_ t (H.or_ t a b) c);
  same "| is idempotent" (H.or_ t a a) a;
  same "| dedups deep" (H.or_ t a (H.or_ t b a)) (H.or_ t a b);
  (* ‖ is a bag operator: duplicates are kept, but still canonical. *)
  distinct "‖ keeps duplicates" (H.and_ t a a) a;
  same "‖ duplicate bags canonical"
    (H.and_ t a (H.and_ t b a))
    (H.and_ t (H.and_ t a a) b)

let test_hcons_units () =
  let t = H.create () in
  let a = H.atom t 0 in
  same "ε ‖ e = e" (H.and_ t (H.epsilon t) a) a;
  same "∅ ‖ e = ∅" (H.and_ t (H.empty t) a) (H.empty t);
  same "∅ | e = e" (H.or_ t (H.empty t) a) a;
  same "∅* = ε" (H.star t (H.empty t)) (H.epsilon t);
  same "ε* = ε" (H.star t (H.epsilon t)) (H.epsilon t);
  same "(e*)* = e*" (H.star t (H.star t a)) (H.star t a);
  same "¬¬e = e" (H.not_ t (H.not_ t a)) a;
  (* ε | e drops ε exactly when e is already nullable. *)
  same "ε | e* = e*" (H.or_ t (H.epsilon t) (H.star t a)) (H.star t a);
  distinct "ε | a keeps ε" (H.or_ t (H.epsilon t) a) a

let test_hcons_factoring () =
  let t = H.create () in
  let a = H.atom t 0 and x = H.atom t 1 and y = H.atom t 2 in
  same "(C ‖ X) | (C ‖ Y) = C ‖ (X | Y)"
    (H.or_ t (H.and_ t a x) (H.and_ t a y))
    (H.and_ t a (H.or_ t x y));
  (* Physical equality: rebuilding the same term twice interns once. *)
  let e1 = H.or_ t (H.and_ t a (H.star t x)) y in
  let e2 = H.or_ t y (H.and_ t (H.star t x) a) in
  check_bool "physically equal" true (e1 == e2);
  check_int "ids equal" (H.hash e1) (H.hash e2)

let test_hcons_work () =
  (* [work] charges a lookup by its key's width, found or new, so
     rebuilding a term costs what building it did. *)
  let t = H.create () in
  let atoms = List.init 12 (H.atom t) in
  let n0 = H.cardinal t and w0 = H.work t in
  let e1 = H.and_all t atoms in
  check_int "one new node" (n0 + 1) (H.cardinal t);
  check_int "12-wide key charged 12" (w0 + 12) (H.work t);
  let e2 = H.and_all t (List.rev atoms) in
  same "rebuilt term interned once" e1 e2;
  check_int "no new node" (n0 + 1) (H.cardinal t);
  check_int "found key charged too" (w0 + 24) (H.work t)

let test_hcons_nullable () =
  let t = H.create () in
  let a = H.atom t 0 and b = H.atom t 1 in
  let n e = e.H.nullable in
  check_bool "ν(∅)" false (n (H.empty t));
  check_bool "ν(ε)" true (n (H.epsilon t));
  check_bool "ν(a)" false (n a);
  check_bool "ν(a*)" true (n (H.star t a));
  check_bool "ν(a ‖ b*)" false (n (H.and_ t a (H.star t b)));
  check_bool "ν(a | ε)" true (n (H.or_ t a (H.epsilon t)));
  check_bool "ν(¬a)" true (n (H.not_ t a));
  check_bool "ν(¬ε)" false (n (H.not_ t (H.epsilon t)))

(* ------------------------------------------------------------------ *)
(* DFA vs derivative engine on the paper's worked shapes              *)
(* ------------------------------------------------------------------ *)

let agree_on shape graphs =
  let auto = Dfa.compile shape in
  List.iter
    (fun g ->
      check_bool
        (Format.asprintf "agree on %a" Rdf.Graph.pp g)
        (Deriv.matches (node "n") g shape)
        (Dfa.matches auto (node "n") g))
    graphs

let test_dfa_examples () =
  agree_on example5 [ example8_graph; example12_graph; graph_of [] ];
  agree_on example10
    [ example8_graph; example12_graph;
      graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 2) ] ];
  (* Negation disables dead-state pruning but must stay equivalent. *)
  agree_on (Rse.not_ example5) [ example8_graph; example12_graph ];
  agree_on
    (Rse.and_ (Rse.star (arc_num "a" [ 1; 2 ])) (Rse.not_ (arc_num "b" [ 1 ])))
    [ example8_graph; example12_graph; graph_of [ t3 "n" "a" (num 2) ] ]

let test_dfa_cache_reuse () =
  (* Matching many nodes with identical neighbourhood structure must
     hit the shared transition table, not rebuild derivatives. *)
  let tele = Telemetry.create () in
  let auto = Dfa.compile ~instr:(Dfa.instruments tele) example5 in
  let graphs =
    List.init 50 (fun k ->
        ignore k;
        example8_graph)
  in
  List.iter (fun g -> check_bool "match" true (Dfa.matches auto (node "n") g)) graphs;
  let reading name = Telemetry.Counter.value (Telemetry.counter tele name) in
  let hits = reading "compiled_hits" and misses = reading "compiled_misses" in
  check_bool "some transitions built" true (misses > 0);
  check_bool "cache reused across nodes" true (hits > 3 * misses);
  check_bool "state table stays small" true
    (Telemetry.Counter.value (Telemetry.gauge tele "compiled_states") < 10)

(* ------------------------------------------------------------------ *)
(* Engine equivalence on the conformance suite                         *)
(* ------------------------------------------------------------------ *)

let suite_entries () =
  let read path =
    In_channel.with_open_bin (Filename.concat "suite" path)
      In_channel.input_all
  in
  match Json.of_string (read "manifest.json") with
  | Error msg -> failwith ("suite manifest: " ^ msg)
  | Ok manifest -> (
      match Json.find_list "tests" manifest with
      | None -> failwith "suite manifest has no tests"
      | Some entries ->
          List.map
            (fun entry ->
              let get field =
                match Json.find_string field entry with
                | Some s -> s
                | None -> failwith ("manifest entry missing " ^ field)
              in
              (get "name", get "schema", get "data"))
            entries)

let test_suite_equivalence () =
  let read path =
    In_channel.with_open_bin (Filename.concat "suite" path)
      In_channel.input_all
  in
  let loaded = Hashtbl.create 8 in
  List.iter
    (fun (name, schema_path, data_path) ->
      if not (Hashtbl.mem loaded (schema_path, data_path)) then begin
        Hashtbl.replace loaded (schema_path, data_path) ();
        let schema =
          match Shexc.Shexc_parser.parse_schema (read schema_path) with
          | Ok s -> s
          | Error msg -> failwith (schema_path ^ ": " ^ msg)
        in
        let graph =
          match Turtle.Parse.parse_graph (read data_path) with
          | Ok g -> g
          | Error msg -> failwith (data_path ^ ": " ^ msg)
        in
        (* Full cross product of nodes × labels: the compiled session
           must produce the same typing as the derivative session. *)
        let run engine =
          Validate.validate_graph (Validate.session ~engine schema graph)
        in
        Alcotest.check typing
          (name ^ ": Compiled ≡ Derivatives")
          (run Validate.Derivatives) (run Validate.Compiled)
      end)
    (suite_entries ())

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_dfa_equals_deriv =
  QCheck.Test.make ~count:500
    ~name:"compiled DFA ≡ derivatives (random shapes/graphs)"
    Test_props.arb_rse_graph
    (fun (e, g) ->
      let auto = Dfa.compile e in
      Bool.equal (Deriv.matches (node "n") g e) (Dfa.matches auto (node "n") g))

let gen_profile =
  QCheck.Gen.(
    int_range 1 40 >>= fun n_persons ->
    int_range 0 10 >>= fun invalid_tenths ->
    int_range 0 4 >>= fun knows_degree ->
    int_range 0 10_000 >|= fun seed ->
    { Workload.Foaf_gen.n_persons;
      invalid_fraction = float_of_int invalid_tenths /. 10.0;
      knows_degree;
      seed })

let arb_profile =
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "{persons=%d; invalid=%.1f; degree=%d; seed=%d}"
        p.Workload.Foaf_gen.n_persons p.Workload.Foaf_gen.invalid_fraction
        p.Workload.Foaf_gen.knows_degree p.Workload.Foaf_gen.seed)
    gen_profile

let prop_engines_agree_on_portals =
  QCheck.Test.make ~count:60
    ~name:"Compiled ≡ Derivatives on random FOAF portals"
    arb_profile
    (fun profile ->
      let { Workload.Foaf_gen.graph; _ } = Workload.Foaf_gen.generate profile in
      let schema, _ = Workload.Foaf_gen.person_schema () in
      let run engine =
        Validate.validate_graph (Validate.session ~engine schema graph)
      in
      Typing.equal (run Validate.Derivatives) (run Validate.Compiled))

(* ------------------------------------------------------------------ *)
(* Session plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let test_session_stats () =
  let schema, person = Workload.Foaf_gen.person_schema () in
  let { Workload.Foaf_gen.graph; valid; _ } =
    Workload.Foaf_gen.generate
      { Workload.Foaf_gen.n_persons = 100;
        invalid_fraction = 0.1;
        knows_degree = 3;
        seed = 7 }
  in
  let session =
    Validate.session ~engine:Validate.Compiled ~telemetry:(Telemetry.create ())
      schema graph
  in
  let result = Validate.validate_graph session in
  check_int "typed persons" (List.length valid) (Typing.cardinal result);
  let reading snap name =
    Option.value ~default:0 (Telemetry.find_counter snap name)
  in
  let snap = Validate.metrics session in
  check_bool "states materialised" true (reading snap "compiled_states" > 0);
  check_bool "transitions reused across nodes" true
    (reading snap "compiled_hits" > 10 * reading snap "compiled_misses");
  (* A derivative session has no automaton store, so its registry has
     no automaton counters. *)
  let plain = Validate.session ~telemetry:(Telemetry.create ()) schema graph in
  ignore (Validate.validate_graph plain);
  check_bool "no stats on a derivatives session" true
    (List.for_all
       (fun (name, _) -> not (String.starts_with ~prefix:"compiled_" name))
       (Telemetry.counters (Validate.metrics plain)));
  (* check/typing parity on a single node, via the public one-shot API. *)
  match valid with
  | [] -> ()
  | n :: _ ->
      let c = Validate.validate ~engine:Validate.Compiled schema graph n person in
      let d = Validate.validate schema graph n person in
      check_bool "ok parity" d.Validate.ok c.Validate.ok;
      Alcotest.check typing "typing parity" d.Validate.typing c.Validate.typing

(* The DFA pushes its counters as it steps, so a slow-check bracket sees
   them like any engine's: with a zero threshold every check is
   captured, and the entries' DFA deltas add up to the session's
   registry (no DFA work happens outside a check). *)
let test_slowlog_counts_dfa_work () =
  let schema, person = Workload.Foaf_gen.person_schema () in
  let { Workload.Foaf_gen.graph; valid; invalid } =
    Workload.Foaf_gen.generate
      { Workload.Foaf_gen.n_persons = 20;
        invalid_fraction = 0.2;
        knows_degree = 2;
        seed = 11 }
  in
  let tele = Telemetry.create () in
  let st =
    Validate.session ~engine:Validate.Compiled ~telemetry:tele ~slow_ms:0.
      schema graph
  in
  let nodes = valid @ invalid in
  List.iter (fun n -> ignore (Validate.check st n person)) nodes;
  List.iter (fun n -> ignore (Validate.check_bool st n person)) invalid;
  let entries =
    match Validate.slowlog st with
    | Some slog -> Slowlog.entries slog
    | None -> Alcotest.fail "a slow-ms session must keep a slowlog"
  in
  check_int "every check captured"
    (List.length nodes + List.length invalid)
    (List.length entries);
  let captured name =
    List.fold_left
      (fun acc (e : Slowlog.entry) ->
        acc + Option.value ~default:0 (List.assoc_opt name e.work))
      0 entries
  in
  List.iter
    (fun name ->
      let total = Telemetry.Counter.value (Telemetry.counter tele name) in
      check_bool (name ^ " moved") true (total > 0);
      check_int (name ^ " deltas sum to the registry") total (captured name))
    [ "compiled_hits"; "compiled_misses" ]

let suites =
  [ ( "automaton",
      [ Alcotest.test_case "hash-cons ACI canonicalisation" `Quick
          test_hcons_aci;
        Alcotest.test_case "hash-cons unit laws" `Quick test_hcons_units;
        Alcotest.test_case "hash-cons work counts every lookup" `Quick
          test_hcons_work;
        Alcotest.test_case "hash-cons distributive factoring" `Quick
          test_hcons_factoring;
        Alcotest.test_case "precomputed nullability" `Quick
          test_hcons_nullable;
        Alcotest.test_case "DFA ≡ derivatives on worked examples" `Quick
          test_dfa_examples;
        Alcotest.test_case "transition cache reused across nodes" `Quick
          test_dfa_cache_reuse;
        Alcotest.test_case "Compiled ≡ Derivatives on the suite schemas"
          `Quick test_suite_equivalence;
        Alcotest.test_case "session cache stats" `Quick test_session_stats;
        Alcotest.test_case "slowlog deltas carry the DFA's work" `Quick
          test_slowlog_counts_dfa_work;
        QCheck_alcotest.to_alcotest prop_dfa_equals_deriv;
        QCheck_alcotest.to_alcotest prop_engines_agree_on_portals ] ) ]
