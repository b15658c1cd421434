(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md.

   The paper has no numbered result tables (its Figures 1-4 are
   inference-rule figures); E1-E2 reproduce its explicit empirical
   statements, E3-E6 are the benchmark set its future work (§10) calls
   for, and E7 re-checks the worked examples.  See DESIGN.md §4.

   Usage:
     dune exec bench/main.exe                 # all experiments, table mode
     dune exec bench/main.exe -- E1 E3        # a subset
     dune exec bench/main.exe -- --quick      # smaller sweeps
     dune exec bench/main.exe -- --smoke      # tiny sweeps + budgets (CI)
     dune exec bench/main.exe -- --json FILE  # machine-readable results
     dune exec bench/main.exe -- --baseline FILE
                                              # perf ratchet: exit 3 when a
                                                timing regresses past FILE's
                                                tolerance band or a work
                                                count differs from FILE's
     dune exec bench/main.exe -- --micro      # bechamel micro-benchmarks
     dune exec bench/main.exe -- --trace-chrome FILE
                                              # export one traced portal
                                                validation as Chrome JSON *)

let quick = ref false
let smoke = ref false

(* ------------------------------------------------------------------ *)
(* Timing                                                             *)
(* ------------------------------------------------------------------ *)

(* CPU-time measurement: run [f] until at least [budget] seconds have
   been consumed (at least [min_runs] times) and report seconds/run.
   Smoke mode (CI) shrinks both knobs: the numbers only have to exist,
   not be stable. *)
let time_per_run ?(budget = 0.2) ?(min_runs = 3) f =
  let budget = if !smoke then 0.01 else budget in
  let min_runs = if !smoke then 1 else min_runs in
  ignore (f ());
  let t0 = Sys.time () in
  let rec go runs =
    ignore (f ());
    let elapsed = Sys.time () -. t0 in
    if elapsed < budget || runs + 1 < min_runs then go (runs + 1)
    else elapsed /. float_of_int (runs + 1)
  in
  go 0

(* Wall-clock variant for the domain-parallel experiment: [Sys.time]
   is CPU time summed over every domain, which would make an N-domain
   run look N times slower than it is.  Elapsed real time is the
   quantity a throughput claim is about. *)
let wall_per_run ?(budget = 0.2) ?(min_runs = 3) f =
  let budget = if !smoke then 0.01 else budget in
  let min_runs = if !smoke then 1 else min_runs in
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let rec go runs =
    ignore (f ());
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed < budget || runs + 1 < min_runs then go (runs + 1)
    else elapsed /. float_of_int (runs + 1)
  in
  go 0

let ms t = t *. 1e3
let us t = t *. 1e6

let header title = Format.printf "@.=== %s ===@.@." title
let row fmt = Format.printf fmt

(* ------------------------------------------------------------------ *)
(* Matchers over one neighbourhood                                     *)
(* ------------------------------------------------------------------ *)

(* Every engine matches Σgn of the focus, read here the way Validate
   reads it: incoming triples included exactly when the shape has an
   inverse arc.  Each call extracts the neighbourhood itself, so timed
   closures pay for extraction as well as matching. *)
let neigh n g e =
  Shex.Neigh.of_node ~include_inverse:(Shex.Rse.has_inverse e) n g

let deriv_matches ?instr n g e = Shex.Deriv.matches_dts ?instr n (neigh n g e) e

let backtrack_matches ?instr n g e =
  Shex.Backtrack.matches_dts ?instr n (neigh n g e) e

(* [s] and [d] compiled from [e]. *)
let sorbe_matches ?instr n g e s =
  Shex.Sorbe.matches_dts ?instr n (neigh n g e) s

let dfa_matches d n g e = Shex.Dfa.matches_dts d n (neigh n g e)

(* The E5 ablation: fold the derivatives with raw constructors, then ν. *)
let raw_matches n g e =
  Shex.Rse.nullable
    (Shex.Deriv.deriv_graph ~ctors:Shex.Rse.raw_ctors (neigh n g e) e)

(* E1's work count: rule applications, read from a fresh registry's
   [backtrack_branches]. *)
let backtrack_ops n g e =
  let tele = Telemetry.create () in
  let ok = backtrack_matches ~instr:(Shex.Backtrack.instruments tele) n g e in
  (ok, Telemetry.Counter.value (Telemetry.counter tele "backtrack_branches"))

(* ------------------------------------------------------------------ *)
(* JSON output and per-experiment telemetry                            *)
(* ------------------------------------------------------------------ *)

(* With [--json FILE] every experiment also records its table as
   structured rows and owns a live telemetry registry: each experiment
   re-runs one representative workload untimed with instruments
   attached (never inside a timed closure — the tables stay honest)
   and the snapshot is embedded next to the rows.  [--baseline FILE]
   needs the same structured rows (it compares their timing cells), so
   recording is on whenever either flag is given. *)
let json_out : string option ref = ref None
let baseline_in : string option ref = ref None
let experiments_json : Json.t list ref = ref []
let current_rows : Json.t list ref = ref []
let current_tele = ref Telemetry.disabled

let recording () = !json_out <> None || !baseline_in <> None

let tele () = !current_tele
let jint n = Json.int n
let jflt v = Json.Number v
let jstr s = Json.String s
let jrow cells = if recording () then
  current_rows := Json.Object cells :: !current_rows

(* Run an instrumented observation only when a JSON report wants its
   telemetry — table mode skips the extra (untimed) work entirely. *)
let observe f = if recording () then ignore (f ())

let begin_experiment () =
  current_rows := [];
  current_tele :=
    (if recording () then Telemetry.create () else Telemetry.disabled)

let end_experiment id =
  if recording () then
    experiments_json :=
      Json.Object
        [ ("id", jstr id);
          ("rows", Json.Array (List.rev !current_rows));
          ("telemetry", Telemetry.to_json (Telemetry.snapshot !current_tele)) ]
      :: !experiments_json

(* ------------------------------------------------------------------ *)
(* E1: backtracking vs derivatives                                     *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header
    "E1  Backtracking (Fig. 1) vs derivatives (\xc2\xa76-7) \xe2\x80\x94 \
     Example 5 shape, neighbourhood sweep";
  let shape = Workload.Micro_gen.example5_shape () in
  let focus = Workload.Micro_gen.focus in
  let sizes = if !quick then [ 2; 4; 6; 8; 10 ] else [ 2; 4; 6; 8; 10; 12; 14; 16 ] in
  let dinstr = Shex.Deriv.instruments (tele ()) in
  let binstr = Shex.Backtrack.instruments (tele ()) in
  row "  %-4s %-8s  %-14s %-14s %-14s %-10s@." "n" "verdict" "backtrack-ops"
    "backtrack" "derivatives" "speedup";
  List.iter
    (fun n ->
      List.iter
        (fun (label, g) ->
          let verdict, ops = backtrack_ops focus g shape in
          let t_back =
            time_per_run (fun () -> backtrack_matches focus g shape)
          in
          let t_deriv =
            time_per_run (fun () -> deriv_matches focus g shape)
          in
          assert (Bool.equal verdict (label = "valid"));
          assert (Bool.equal verdict (deriv_matches focus g shape));
          observe (fun () ->
              ignore (deriv_matches ~instr:dinstr focus g shape);
              backtrack_matches ~instr:binstr focus g shape);
          jrow
            [ ("n", jint n); ("verdict", jstr label);
              ("backtrack_ops", jint ops); ("backtrack_us", jflt (us t_back));
              ("derivatives_us", jflt (us t_deriv)) ];
          row "  %-4d %-8s  %-14d %11.2f us %11.2f us %9.0fx@." n label ops
            (us t_back) (us t_deriv)
            (t_back /. t_deriv))
        [ ("valid", Workload.Micro_gen.example5_neighbourhood n);
          ("invalid", Workload.Micro_gen.example5_neighbourhood_invalid n) ])
    sizes;
  row
    "@.  Expectation (\xc2\xa75, \xc2\xa78): backtracking work grows ~2^n \
     on failing inputs;@.  derivatives stay polynomial, so the speedup \
     factor explodes with n.@."

(* ------------------------------------------------------------------ *)
(* Counted bounds {1,n} (rows of E2 and E4)                            *)
(* ------------------------------------------------------------------ *)

(* [<S> { ex:p . {1,n} }] against the one triple ⟨n, p, o⟩.  e{m,n} is
   one node, so neither the schema's size nor the work to parse,
   compile and match it should depend on n. *)
let counted_ns () =
  if !smoke then [ 10; 100_000 ]
  else if !quick then [ 10; 1_000; 100_000 ]
  else [ 10; 100; 1_000; 10_000; 100_000; 1_000_000 ]

let counted_parse n =
  let src =
    Printf.sprintf "PREFIX ex: <http://example.org/>\n<S> { ex:p . {1,%d} }\n"
      n
  in
  match Shexc.Shexc_parser.parse_schema src with
  | Ok s -> Shex.Schema.find_exn s (Shex.Label.of_string "S")
  | Error msg -> failwith msg

let counted_graph =
  lazy
    (let ex l = Rdf.Iri.of_string_exn ("http://example.org/" ^ l) in
     Rdf.Graph.of_list
       [ Rdf.Triple.make Workload.Micro_gen.focus (ex "p") (Rdf.Term.Iri (ex "o"))
       ])

(* ------------------------------------------------------------------ *)
(* E2: derivative expression growth (Example 10)                       *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header
    "E2  Derivative size growth on the balance checker (Example 10)";
  let sizes = if !quick then [ 1; 2; 4; 8; 16 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  row "  %-4s %-12s %-12s %-12s %-14s@." "k" "initial" "max-size" "final"
    "match-time";
  List.iter
    (fun k ->
      let shape = Workload.Micro_gen.balanced_shape k in
      let g = Workload.Micro_gen.balanced_neighbourhood k in
      let dts =
        Shex.Neigh.of_node Workload.Micro_gen.focus g
      in
      let max_size = ref (Shex.Rse.size shape) in
      let final =
        List.fold_left
          (fun e dt ->
            let e' = Shex.Deriv.deriv dt e in
            max_size := max !max_size (Shex.Rse.size e');
            e')
          shape dts
      in
      assert (Shex.Rse.nullable final);
      let t =
        time_per_run (fun () ->
            deriv_matches Workload.Micro_gen.focus g shape)
      in
      observe (fun () ->
          deriv_matches
            ~instr:(Shex.Deriv.instruments (tele ()))
            Workload.Micro_gen.focus g shape);
      jrow
        [ ("k", jint k); ("initial", jint (Shex.Rse.size shape));
          ("max_size", jint !max_size);
          ("final", jint (Shex.Rse.size final));
          ("match_us", jflt (us t)) ];
      row "  %-4d %-12d %-12d %-12d %11.2f us@." k (Shex.Rse.size shape)
        !max_size (Shex.Rse.size final) (us t))
    sizes;
  row
    "@.  Expectation (\xc2\xa76, Example 10): consuming an a-arc leaves a \
     pending b-obligation,@.  so the intermediate expression grows with \
     the number of open obligations.@.";
  row "@.  Counted bound p{1,n} and one p-triple:@.@.";
  row "  %-9s %-6s %-14s %-14s@." "n" "size" "parse" "match";
  let focus = Workload.Micro_gen.focus and g = Lazy.force counted_graph in
  List.iter
    (fun n ->
      let shape = counted_parse n in
      assert (deriv_matches focus g shape);
      let t_parse = time_per_run (fun () -> counted_parse n) in
      let t_match = time_per_run (fun () -> deriv_matches focus g shape) in
      jrow
        [ ("counted_n", jint n); ("size", jint (Shex.Rse.size shape));
          ("parse_us", jflt (us t_parse)); ("match_us", jflt (us t_match)) ];
      row "  %-9d %-6d %11.2f us %11.2f us@." n (Shex.Rse.size shape)
        (us t_parse) (us t_match))
    (counted_ns ());
  row
    "@.  Expectation: e{m,n} is one node \xe2\x80\x94 size, parse and \
     match time are flat in n.@."

(* ------------------------------------------------------------------ *)
(* E3: whole-graph validation throughput                               *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header
    "E3  Schema validation throughput \xe2\x80\x94 recursive Person schema \
     (Examples 1/14), FOAF portals";
  let sizes =
    if !quick then [ 100; 300; 1000 ] else [ 100; 300; 1000; 3000; 10000 ]
  in
  let schema, _person = Workload.Foaf_gen.person_schema () in
  row "  %-7s %-8s %-8s %-9s %-12s %-14s@." "persons" "triples" "valid"
    "typed" "total" "per-person";
  List.iter
    (fun n ->
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.1;
          knows_degree = 3;
          seed = 7 }
      in
      let { Workload.Foaf_gen.graph; valid; _ } =
        Workload.Foaf_gen.generate profile
      in
      let typed = ref 0 in
      let t =
        time_per_run ~budget:0.3 (fun () ->
            let session = Shex.Validate.session schema graph in
            let typing = Shex.Validate.validate_graph session in
            typed := Shex.Typing.cardinal typing)
      in
      assert (!typed = List.length valid);
      observe (fun () ->
          let session =
            Shex.Validate.session ~telemetry:(tele ()) schema graph
          in
          Shex.Validate.validate_graph session);
      jrow
        [ ("persons", jint n); ("triples", jint (Rdf.Graph.cardinal graph));
          ("valid", jint (List.length valid)); ("typed", jint !typed);
          ("total_ms", jflt (ms t));
          ("per_person_us", jflt (us (t /. float_of_int n))) ];
      row "  %-7d %-8d %-8d %-9d %9.2f ms %11.2f us@." n
        (Rdf.Graph.cardinal graph)
        (List.length valid) !typed (ms t)
        (us (t /. float_of_int n)))
    sizes;
  row
    "@.  Expectation: linear scaling \xe2\x80\x94 per-person cost roughly \
     constant as the portal grows@.  (each neighbourhood is bounded; \
     recursion is resolved once per node by the fixpoint).@."

(* ------------------------------------------------------------------ *)
(* E4: SORBE counting matcher vs generic derivatives                   *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header
    "E4  SORBE counting matcher (\xc2\xa78 future work) vs generic \
     derivatives \xe2\x80\x94 fan-out sweep";
  let fans = if !quick then [ 1; 4; 16; 64 ] else [ 1; 4; 16; 64; 128; 256 ] in
  row "  %-5s %-8s %-14s %-14s %-8s@." "f" "triples" "derivatives"
    "counting" "ratio";
  List.iter
    (fun f ->
      let shape = Workload.Micro_gen.wide_shape f in
      let g = Workload.Micro_gen.wide_neighbourhood f in
      let sorbe =
        match Shex.Sorbe.of_rse shape with
        | Some s -> s
        | None -> failwith "wide_shape must be SORBE"
      in
      let focus = Workload.Micro_gen.focus in
      assert (
        Bool.equal
          (deriv_matches focus g shape)
          (sorbe_matches focus g shape sorbe));
      let t_deriv = time_per_run (fun () -> deriv_matches focus g shape) in
      let t_sorbe = time_per_run (fun () -> sorbe_matches focus g shape sorbe) in
      observe (fun () ->
          ignore
            (deriv_matches
               ~instr:(Shex.Deriv.instruments (tele ()))
               focus g shape);
          sorbe_matches
            ~instr:(Shex.Sorbe.instruments (tele ()))
            focus g shape sorbe);
      jrow
        [ ("fan", jint f); ("triples", jint (Rdf.Graph.cardinal g));
          ("derivatives_us", jflt (us t_deriv));
          ("counting_us", jflt (us t_sorbe)) ];
      row "  %-5d %-8d %11.2f us %11.2f us %7.1fx@." f (Rdf.Graph.cardinal g)
        (us t_deriv) (us t_sorbe)
        (t_deriv /. t_sorbe))
    fans;
  row
    "@.  Expectation: the generic matcher rebuilds an O(f)-size \
     expression per consumed triple@.  (O(f\xc2\xb2) total), while counting \
     is O(f) per triple lookup-free \xe2\x80\x94 the gap widens with f.@.";
  row "@.  Counted bound p{1,n} and one p-triple, compile then match:@.@.";
  row "  %-9s %-14s %-14s %-14s %-14s@." "n" "sorbe-compile" "dfa-compile"
    "counting" "dfa";
  let focus = Workload.Micro_gen.focus and g = Lazy.force counted_graph in
  List.iter
    (fun n ->
      let shape = counted_parse n in
      let sorbe = Option.get (Shex.Sorbe.of_rse shape) in
      let dfa = Shex.Dfa.compile shape in
      assert (sorbe_matches focus g shape sorbe && dfa_matches dfa focus g shape);
      (* A DFA compiles lazily: its compile cost includes the first
         transition. *)
      let t_sc = time_per_run (fun () -> Shex.Sorbe.of_rse shape) in
      let t_dc =
        time_per_run (fun () ->
            dfa_matches (Shex.Dfa.compile shape) focus g shape)
      in
      let t_s = time_per_run (fun () -> sorbe_matches focus g shape sorbe) in
      let t_d = time_per_run (fun () -> dfa_matches dfa focus g shape) in
      jrow
        [ ("counted_n", jint n); ("sorbe_compile_us", jflt (us t_sc));
          ("dfa_compile_us", jflt (us t_dc)); ("counting_us", jflt (us t_s));
          ("dfa_us", jflt (us t_d)) ];
      row "  %-9d %11.2f us %11.2f us %11.2f us %11.2f us@." n (us t_sc)
        (us t_dc) (us t_s) (us t_d))
    (counted_ns ());
  row "@.  Expectation: compile and match times are flat in n.@."

(* ------------------------------------------------------------------ *)
(* E5: simplification ablation                                         *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header
    "E5  Ablation of derivative simplification: raw vs ACI vs \
     ACI+factoring";
  let focus = Workload.Micro_gen.focus in
  let max_size ctors shape dts =
    let mx = ref (Shex.Rse.size shape) in
    let _ =
      List.fold_left
        (fun e dt ->
          let e' = Shex.Deriv.deriv ~ctors dt e in
          mx := max !mx (Shex.Rse.size e');
          e')
        shape dts
    in
    !mx
  in
  row "  -- Example 5 shape (raw constructors blow up even here) --@.";
  let sizes = if !quick then [ 2; 4; 6; 8 ] else [ 2; 4; 6; 8; 10; 12 ] in
  row "  %-4s %-12s %-12s %-14s %-14s@." "n" "smart-size" "raw-size" "smart"
    "raw";
  List.iter
    (fun n ->
      let shape = Workload.Micro_gen.example5_shape () in
      let g = Workload.Micro_gen.example5_neighbourhood n in
      let dts = Shex.Neigh.of_node focus g in
      let smart_size = max_size Shex.Rse.smart_ctors shape dts in
      let raw_size = max_size Shex.Rse.raw_ctors shape dts in
      let t_smart = time_per_run (fun () -> deriv_matches focus g shape) in
      let t_raw =
        time_per_run (fun () ->
            raw_matches focus g shape)
      in
      observe (fun () ->
          deriv_matches
            ~instr:(Shex.Deriv.instruments (tele ()))
            focus g shape);
      jrow
        [ ("n", jint n); ("smart_size", jint smart_size);
          ("raw_size", jint raw_size); ("smart_us", jflt (us t_smart));
          ("raw_us", jflt (us t_raw)) ];
      row "  %-4d %-12d %-12d %11.2f us %11.2f us@." n smart_size raw_size
        (us t_smart) (us t_raw))
    sizes;
  let ks = if !quick then [ 2; 4; 6 ] else [ 2; 4; 6; 8; 10 ] in
  let balance ?(aci_cap = 8) title shape_of =
    row "@.  -- %s --@." title;
    row "  %-4s %-14s %-14s %-14s@." "k" "factored-size" "aci-size"
      "raw-size";
    List.iter
      (fun k ->
        let shape = shape_of k in
        let dts =
          Shex.Neigh.of_node focus (Workload.Micro_gen.balanced_neighbourhood k)
        in
        (* The unfactored variants explode; beyond these caps they
           exhaust memory, which is the point of the ablation. *)
        let aci =
          if k <= aci_cap then
            string_of_int (max_size Shex.Rse.aci_ctors shape dts)
          else "(>10^8)"
        in
        let raw =
          if k <= 6 then
            string_of_int (max_size Shex.Rse.raw_ctors shape dts)
          else "(>10^8)"
        in
        jrow
          [ ("k", jint k);
            ("factored_size", jint (max_size Shex.Rse.smart_ctors shape dts));
            ("aci_size", jstr aci); ("raw_size", jstr raw) ];
        row "  %-4d %-14d %-14s %-14s@." k
          (max_size Shex.Rse.smart_ctors shape dts)
          aci raw)
      ks
  in
  balance "Balance checker (factoring is what keeps sizes linear)"
    Workload.Micro_gen.balanced_shape;
  (* The same checker with its star counted, (a ‖ b){0,k}: each step
     also lowers the bound, so the counted residuals must stay linear
     too.  Once the bound reaches 0 no alternative is left open, so ACI
     alone keeps them small and needs no cap. *)
  balance ~aci_cap:max_int "Counted balance checker (a \xe2\x80\x96 b){0,k}"
    (fun k ->
      match Workload.Micro_gen.balanced_shape k with
      | Shex.Rse.Star body -> Shex.Rse.repeat 0 (Some k) body
      | _ -> assert false);
  row
    "@.  Expectation: raw constructors explode exponentially even on \
     Example 5; ACI alone@.  still explodes on counting shapes; \
     ACI+factoring stays linear in open obligations.@."

(* ------------------------------------------------------------------ *)
(* E6: SPARQL translation vs native derivatives                        *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header
    "E6  SPARQL translation (\xc2\xa73) vs native derivatives \xe2\x80\x94 \
     non-recursive Person shape";
  let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l) in
  let shape =
    Shex.Rse.and_all
      [ Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "age"))
          Shex.Value_set.xsd_integer;
        Shex.Rse.plus
          (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "name"))
             Shex.Value_set.xsd_string);
        Shex.Rse.star
          (Shex.Rse.arc_v (Shex.Value_set.Pred (foaf "knows"))
             (Shex.Value_set.Obj_kind Shex.Value_set.Iri_kind)) ]
  in
  let sizes = if !quick then [ 100; 300 ] else [ 100; 300; 1000; 3000 ] in
  row "  %-7s %-8s %-7s %-12s %-12s %-8s %-6s@." "persons" "triples"
    "match" "derivatives" "SPARQL" "ratio" "agree";
  List.iter
    (fun n ->
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.15;
          knows_degree = 2;
          seed = 99 }
      in
      let { Workload.Foaf_gen.graph; _ } = Workload.Foaf_gen.generate profile in
      let deriv_nodes () =
        List.filter
          (fun node -> deriv_matches node graph shape)
          (Rdf.Graph.subjects graph)
      in
      let sparql_nodes () =
        match Sparql.Gen.matching_nodes graph shape with
        | Ok nodes -> nodes
        | Error msg -> failwith msg
      in
      let d = deriv_nodes () and s = sparql_nodes () in
      let agree = List.sort Rdf.Term.compare d = s in
      let t_deriv = time_per_run ~budget:0.3 (fun () -> deriv_nodes ()) in
      let t_sparql = time_per_run ~budget:0.3 (fun () -> sparql_nodes ()) in
      observe (fun () ->
          let instr = Shex.Deriv.instruments (tele ()) in
          List.filter
            (fun node -> deriv_matches ~instr node graph shape)
            (Rdf.Graph.subjects graph));
      jrow
        [ ("persons", jint n); ("triples", jint (Rdf.Graph.cardinal graph));
          ("matching", jint (List.length d));
          ("derivatives_ms", jflt (ms t_deriv));
          ("sparql_ms", jflt (ms t_sparql)); ("agree", Json.Bool agree) ];
      row "  %-7d %-8d %-7d %9.2f ms %9.2f ms %7.1fx %-6b@." n
        (Rdf.Graph.cardinal graph)
        (List.length d) (ms t_deriv) (ms t_sparql)
        (t_sparql /. t_deriv) agree)
    sizes;
  row
    "@.  Expectation (\xc2\xa73): the verdicts agree, but the generated \
     query carries counting@.  sub-SELECTs and NOT-EXISTS scans, so the \
     SPARQL route costs a large constant factor@.  \xe2\x80\x94 and \
     recursive shapes cannot be translated at all.@."

(* ------------------------------------------------------------------ *)
(* E8: engine comparison end-to-end                                    *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header
    "E8  End-to-end engine comparison \xe2\x80\x94 derivatives vs \
     auto-compiled counting (recursive Person schema)";
  let sizes = if !quick then [ 100; 1000 ] else [ 100; 1000; 10000 ] in
  let schema, _ = Workload.Foaf_gen.person_schema () in
  row "  %-7s %-8s %-12s %-12s %-7s@." "persons" "triples" "derivatives"
    "auto" "ratio";
  List.iter
    (fun n ->
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.1;
          knows_degree = 3;
          seed = 7 }
      in
      let { Workload.Foaf_gen.graph; _ } =
        Workload.Foaf_gen.generate profile
      in
      let run engine =
        let typed = ref 0 in
        let t =
          time_per_run ~budget:0.3 (fun () ->
              let session = Shex.Validate.session ~engine schema graph in
              typed := Shex.Typing.cardinal (Shex.Validate.validate_graph session))
        in
        (t, !typed)
      in
      let t_deriv, n_deriv = run Shex.Validate.Derivatives in
      let t_auto, n_auto = run Shex.Validate.Auto in
      assert (n_deriv = n_auto);
      observe (fun () ->
          let session =
            Shex.Validate.session ~engine:Shex.Validate.Auto
              ~telemetry:(tele ()) schema graph
          in
          Shex.Validate.validate_graph session);
      jrow
        [ ("persons", jint n); ("triples", jint (Rdf.Graph.cardinal graph));
          ("derivatives_ms", jflt (ms t_deriv)); ("auto_ms", jflt (ms t_auto)) ];
      row "  %-7d %-8d %9.2f ms %9.2f ms %6.1fx@." n
        (Rdf.Graph.cardinal graph) (ms t_deriv) (ms t_auto)
        (t_deriv /. t_auto))
    sizes;
  row
    "@.  Expectation: the Person shape is single-occurrence, so Auto \
     compiles it once to the@.  counting matcher; the end-to-end gap is \
     smaller than E4's per-match gap because the@.  fixpoint bookkeeping \
     and graph indexing are shared.@."

(* ------------------------------------------------------------------ *)
(* E9: compiled derivative automata                                    *)
(* ------------------------------------------------------------------ *)

(* The cache column: the DFA's counters as a registry holds them. *)
let dfa_cache snap =
  let c name = Option.value ~default:0 (Telemetry.find_counter snap name) in
  let hits = c "compiled_hits" in
  Printf.sprintf "%d st %d sym %4.1f%% cached" (c "compiled_states")
    (c "compiled_symbols")
    (100.0 *. float_of_int hits
    /. float_of_int (max 1 (hits + c "compiled_misses")))

let e9 () =
  header
    "E9  Compiled derivative automata (hash-consed RSEs + lazy DFA) vs \
     derivatives vs SORBE";
  row "  -- Whole-portal validation (recursive Person schema): the table \
       is shared across nodes --@.";
  let sizes = if !quick then [ 100; 1000 ] else [ 100; 1000; 10000 ] in
  let schema, _ = Workload.Foaf_gen.person_schema () in
  row "  %-7s %-8s %-12s %-12s %-8s %-26s@." "persons" "triples"
    "derivatives" "compiled" "speedup" "cache (one run)";
  List.iter
    (fun n ->
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.1;
          knows_degree = 3;
          seed = 7 }
      in
      let { Workload.Foaf_gen.graph; _ } =
        Workload.Foaf_gen.generate profile
      in
      let run engine =
        let typed = ref 0 in
        let t =
          time_per_run ~budget:0.3 (fun () ->
              let session = Shex.Validate.session ~engine schema graph in
              typed := Shex.Typing.cardinal (Shex.Validate.validate_graph session))
        in
        (t, !typed)
      in
      let t_deriv, n_deriv = run Shex.Validate.Derivatives in
      let t_comp, n_comp = run Shex.Validate.Compiled in
      assert (n_deriv = n_comp);
      (* One more run, untimed, on a registry of its own: the automata
         count into it as they work, alongside the engine counters.
         Every run starts from a fresh session, so this is what each
         timed run did. *)
      let probe = Telemetry.create () in
      let session =
        Shex.Validate.session ~engine:Shex.Validate.Compiled ~telemetry:probe
          schema graph
      in
      ignore (Shex.Validate.validate_graph session);
      let cache = dfa_cache (Shex.Validate.metrics session) in
      observe (fun () -> Telemetry.merge ~into:(tele ()) probe);
      jrow
        [ ("persons", jint n); ("triples", jint (Rdf.Graph.cardinal graph));
          ("derivatives_ms", jflt (ms t_deriv));
          ("compiled_ms", jflt (ms t_comp)); ("cache", jstr cache) ];
      row "  %-7d %-8d %9.2f ms %9.2f ms %7.1fx %-26s@." n
        (Rdf.Graph.cardinal graph) (ms t_deriv) (ms t_comp)
        (t_deriv /. t_comp) cache)
    sizes;
  row
    "@.  -- Repeated matching of wide SORBE neighbourhoods (E4's regime): \
     per-match cost --@.";
  let fans = if !quick then [ 4; 16; 64 ] else [ 4; 16; 64; 128; 256 ] in
  row "  %-5s %-8s %-14s %-14s %-14s %-20s@." "f" "triples" "derivatives"
    "compiled" "counting" "cache (100 runs)";
  List.iter
    (fun f ->
      let shape = Workload.Micro_gen.wide_shape f in
      let g = Workload.Micro_gen.wide_neighbourhood f in
      let focus = Workload.Micro_gen.focus in
      let auto = Shex.Dfa.compile shape in
      let sorbe = Option.get (Shex.Sorbe.of_rse shape) in
      assert (
        Bool.equal
          (deriv_matches focus g shape)
          (dfa_matches auto focus g shape));
      let t_deriv = time_per_run (fun () -> deriv_matches focus g shape) in
      let t_comp =
        time_per_run (fun () -> dfa_matches auto focus g shape)
      in
      let t_sorbe = time_per_run (fun () -> sorbe_matches focus g shape sorbe) in
      (* The cache column, untimed: a fresh automaton reporting into a
         registry of its own over a fixed number of matches. *)
      let probe = Telemetry.create () in
      let counted =
        Shex.Dfa.compile ~instr:(Shex.Dfa.instruments probe) shape
      in
      for _ = 1 to 100 do
        ignore (dfa_matches counted focus g shape)
      done;
      jrow
        [ ("fan", jint f); ("triples", jint (Rdf.Graph.cardinal g));
          ("derivatives_us", jflt (us t_deriv));
          ("compiled_us", jflt (us t_comp)); ("counting_us", jflt (us t_sorbe)) ];
      row "  %-5d %-8d %11.2f us %11.2f us %11.2f us %-20s@." f
        (Rdf.Graph.cardinal g) (us t_deriv) (us t_comp) (us t_sorbe)
        (dfa_cache (Telemetry.snapshot probe)))
    fans;
  row
    "@.  Expectation: compiling once and stepping a memoised transition \
     table removes the@.  per-triple expression rebuilding of the \
     derivative engine; with the table warm the@.  compiled matcher \
     approaches the counting matcher's linear scan while staying@.  fully \
     general (negation, non-disjoint predicates, nested stars).@."

(* ------------------------------------------------------------------ *)
(* E7: paper worked examples                                           *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7  Paper worked examples re-checked";
  let ex name = Rdf.Iri.of_string_exn ("http://example.org/" ^ name) in
  let node name = Rdf.Term.Iri (ex name) in
  let num k = Rdf.Term.int k in
  let t3 s p o = Rdf.Triple.make (node s) (ex p) o in
  let arc_num p values =
    Shex.Rse.arc_v
      (Shex.Value_set.Pred (ex p))
      (Shex.Value_set.obj_terms (List.map num values))
  in
  let example5 =
    Shex.Rse.and_ (arc_num "a" [ 1 ]) (Shex.Rse.star (arc_num "b" [ 1; 2 ]))
  in
  let g8 =
    Rdf.Graph.of_list
      [ t3 "n" "a" (num 1); t3 "n" "b" (num 1); t3 "n" "b" (num 2) ]
  in
  let g12 =
    Rdf.Graph.of_list
      [ t3 "n" "a" (num 1); t3 "n" "a" (num 2); t3 "n" "b" (num 1) ]
  in
  let check name cond =
    jrow [ ("check", jstr name); ("pass", Json.Bool cond) ];
    row "  %-66s %s@." name (if cond then "PASS" else "FAIL")
  in
  check "Example 3: a 3-triple graph has 2^3 = 8 decompositions"
    (List.length (Rdf.Graph.decompositions g8) = 8);
  check "Example 7: Sn[[e]] has exactly the 4 listed graphs"
    (match Shex.Semantics.language ~node:(node "n") ~max_card:3 example5 with
    | Ok gs -> List.length gs = 4
    | Error _ -> false);
  check "Example 8: backtracking accepts {a1, b1, b2}"
    (backtrack_matches (node "n") g8 example5);
  check "Example 9: \xe2\x88\x82\xe2\x9f\xa8n,a,1\xe2\x9f\xa9(e) = (b\xe2\x86\x92{1,2})*"
    (Shex.Rse.equal
       (Shex.Deriv.deriv
          (Shex.Neigh.out (t3 "n" "a" (num 1)))
          example5)
       (Shex.Rse.star (arc_num "b" [ 1; 2 ])));
  check "Example 10: the balance checker's derivative grows"
    (let e = Workload.Micro_gen.balanced_shape 2 in
     Shex.Rse.size
       (Shex.Deriv.deriv
          (Shex.Neigh.out
             (Rdf.Triple.make Workload.Micro_gen.focus
                (Rdf.Iri.of_string_exn "http://example.org/a")
                (num 1)))
          e)
     > Shex.Rse.size e);
  check "Example 11: derivatives accept {a1, b1, b2}"
    (deriv_matches (node "n") g8 example5);
  check "Example 12: derivatives reject {a1, a2, b1}"
    (not (deriv_matches (node "n") g12 example5));
  let example2_graph =
    Turtle.Parse.parse_graph_exn
      "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
       @prefix : <http://example.org/> .\n\
       :john foaf:age 23; foaf:name \"John\"; foaf:knows :bob .\n\
       :bob foaf:age 34; foaf:name \"Bob\", \"Robert\" .\n\
       :mary foaf:age 50, 65 .\n"
  in
  let schema, person = Workload.Foaf_gen.person_schema () in
  let session =
    Shex.Validate.session ~telemetry:(tele ()) schema example2_graph
  in
  check "Examples 1-2/14: john and bob are Persons, mary is not"
    (Shex.Validate.check_bool session (node "john") person
    && Shex.Validate.check_bool session (node "bob") person
    && not (Shex.Validate.check_bool session (node "mary") person));
  check "Example 4: the paper's SPARQL ASK finds a Person in Example 2"
    (match Sparql.Eval.run example2_graph (Sparql.Gen.example4_query ()) with
    | `Boolean b -> b
    | `Solutions _ -> false)

(* ------------------------------------------------------------------ *)
(* E10: telemetry overhead                                             *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header
    "E10 Telemetry overhead \xe2\x80\x94 portal validation with the \
     registry disabled vs enabled";
  let sizes = if !quick then [ 100; 300; 1000 ] else [ 100; 300; 1000; 3000 ] in
  let schema, _ = Workload.Foaf_gen.person_schema () in
  (* The enabled arm reuses one registry across repetitions: counters
     just keep accumulating, so no allocation shows up in the timing.
     In JSON mode it is the experiment registry, so the snapshot of a
     fully-instrumented portal run lands in the report. *)
  let enabled_reg =
    if recording () then tele () else Telemetry.create ()
  in
  row "  %-7s %-8s %-12s %-12s %-10s@." "persons" "triples" "disabled"
    "enabled" "overhead";
  List.iter
    (fun n ->
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.1;
          knows_degree = 3;
          seed = 7 }
      in
      let { Workload.Foaf_gen.graph; _ } =
        Workload.Foaf_gen.generate profile
      in
      let run telemetry =
        time_per_run ~budget:0.3 (fun () ->
            let session = Shex.Validate.session ?telemetry schema graph in
            Shex.Validate.validate_graph session)
      in
      Telemetry.Span.time (Telemetry.span (tele ()) "e10_measure") (fun () ->
          let t_off = run None in
          let t_on = run (Some enabled_reg) in
          let overhead = 100.0 *. (t_on -. t_off) /. t_off in
          jrow
            [ ("persons", jint n);
              ("triples", jint (Rdf.Graph.cardinal graph));
              ("disabled_ms", jflt (ms t_off)); ("enabled_ms", jflt (ms t_on));
              ("enabled_overhead_pct", jflt overhead) ];
          row "  %-7d %-8d %9.2f ms %9.2f ms %+8.1f%%@." n
            (Rdf.Graph.cardinal graph) (ms t_off) (ms t_on) overhead))
    sizes;
  row
    "@.  Expectation: the disabled path is one load-and-branch per \
     instrumentation point, so@.  the \"disabled\" column matches \
     pre-instrumentation E3 timings within noise (<5%%);@.  enabling \
     the registry costs a few percent (counter bumps plus two \
     expression-size@.  walks per derivative step).@."

(* ------------------------------------------------------------------ *)
(* E11: tracing tax                                                    *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header
    "E11 Tracing tax \xe2\x80\x94 portal validation: tracing disabled vs \
     span-only vs full residual capture";
  let sizes = if !quick then [ 100; 300 ] else [ 100; 300; 1000; 3000 ] in
  let schema, _ = Workload.Foaf_gen.person_schema () in
  (* Each traced arm reuses one registry with a discarding sink, so the
     timings isolate the event-construction cost itself: spans-only
     pays per-event field lists, full capture additionally renders the
     residual expression before and after every derivative step. *)
  let drop (_ : Telemetry.event) = () in
  let span_reg = Telemetry.create () in
  Telemetry.set_sink span_reg (Some drop);
  let resid_reg = Telemetry.create () in
  Telemetry.set_sink resid_reg (Some drop);
  Telemetry.set_residuals resid_reg true;
  row "  %-7s %-8s %-12s %-12s %-12s %-10s %-10s@." "persons" "triples"
    "disabled" "spans" "residuals" "span-tax" "resid-tax";
  List.iter
    (fun n ->
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.1;
          knows_degree = 3;
          seed = 7 }
      in
      let { Workload.Foaf_gen.graph; _ } =
        Workload.Foaf_gen.generate profile
      in
      let run telemetry =
        time_per_run ~budget:0.3 (fun () ->
            let session = Shex.Validate.session ?telemetry schema graph in
            ignore (Shex.Validate.validate_graph session))
      in
      let t_off = run None in
      let t_span = run (Some span_reg) in
      let t_resid = run (Some resid_reg) in
      let tax t = 100.0 *. (t -. t_off) /. t_off in
      observe (fun () ->
          let session =
            Shex.Validate.session ~telemetry:(tele ()) schema graph
          in
          Shex.Validate.validate_graph session);
      jrow
        [ ("persons", jint n); ("triples", jint (Rdf.Graph.cardinal graph));
          ("disabled_ms", jflt (ms t_off)); ("spans_ms", jflt (ms t_span));
          ("residuals_ms", jflt (ms t_resid));
          ("span_tax_pct", jflt (tax t_span));
          ("residual_tax_pct", jflt (tax t_resid)) ];
      row "  %-7d %-8d %9.2f ms %9.2f ms %9.2f ms %+8.1f%% %+8.1f%%@." n
        (Rdf.Graph.cardinal graph) (ms t_off) (ms t_span) (ms t_resid)
        (tax t_span) (tax t_resid))
    sizes;
  row
    "@.  Expectation: with a sink installed every check span and \
     derivative step allocates an@.  event, so the span arm costs tens \
     of percent; full residual capture additionally@.  pretty-prints \
     two expressions per step and multiplies the cost again.  With \
     tracing@.  disabled the same points cost one branch each \xe2\x80\x94 \
     E10's <5%% bound still holds.@."

(* ------------------------------------------------------------------ *)
(* E12: domain-parallel bulk validation                                *)
(* ------------------------------------------------------------------ *)

(* Parallel arms to compare against sequential (overridable with
   --domains N). *)
let e12_domains = ref [ 2; 4 ]

let e12 () =
  header
    "E12 Domain-parallel bulk validation \xe2\x80\x94 flat portal shape \
     map, sequential vs N domains";
  let sizes =
    if !quick then [ 300; 1000 ] else [ 1000; 3000; 10000 ]
  in
  (* The reference-free Person shape: every focus node's check is
     independent, so the parallel run does exactly the sequential
     run's work — merged telemetry totals must be identical, not just
     verdicts.  (The recursive schema re-derives cross-shard [knows]
     targets per shard, which changes counters while preserving
     verdicts.) *)
  let schema, person = Workload.Foaf_gen.flat_person_schema () in
  row "  %-7s %-8s %-8s %-12s %-9s %-10s@." "persons" "domains" "conform"
    "wall" "speedup" "identical";
  List.iter
    (fun n ->
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.1;
          knows_degree = 3;
          seed = 7 }
      in
      let { Workload.Foaf_gen.graph; valid; invalid } =
        Workload.Foaf_gen.generate profile
      in
      let associations =
        List.map (fun p -> (p, person)) (valid @ invalid)
      in
      (* One untimed instrumented run per arm for the identity check;
         timing runs stay uninstrumented (as everywhere else). *)
      let observed domains =
        let reg = Telemetry.create () in
        let session =
          Shex.Validate.session ~telemetry:reg ~domains schema graph
        in
        let report = Shex.Report.run session associations in
        (Json.to_string (Shex.Report.to_json report),
         Json.to_string (Telemetry.to_json (Shex.Validate.metrics session)),
         List.length (Shex.Report.conformant report))
      in
      let time_arm domains =
        wall_per_run ~budget:0.3 (fun () ->
            let session = Shex.Validate.session ~domains schema graph in
            ignore (Shex.Report.run session associations))
      in
      let seq_report, seq_tele, conform = observed 1 in
      assert (conform = List.length valid);
      let t_seq = time_arm 1 in
      let emit domains t identical =
        jrow
          [ ("persons", jint n); ("domains", jint domains);
            ("conformant", jint conform); ("wall_ms", jflt (ms t));
            ("speedup", jflt (t_seq /. t));
            ("identical", Json.Bool identical) ];
        row "  %-7d %-8d %-8d %9.2f ms %8.2fx %-10b@." n domains conform
          (ms t) (t_seq /. t) identical
      in
      emit 1 t_seq true;
      List.iter
        (fun d ->
          let par_report, par_tele, _ = observed d in
          let identical =
            String.equal par_report seq_report
            && String.equal par_tele seq_tele
          in
          (* The acceptance criterion: parallel validation must be
             observationally sequential. *)
          if not identical then
            failwith
              (Printf.sprintf
                 "E12: %d-domain run differs from sequential (report %b, \
                  telemetry %b)"
                 d
                 (String.equal par_report seq_report)
                 (String.equal par_tele seq_tele));
          emit d (time_arm d) identical)
        !e12_domains)
    sizes;
  row
    "@.  Expectation: verdicts, reports and merged telemetry totals are \
     byte-identical across@.  domain counts (asserted above); wall-clock \
     speedup tracks the physical cores available@.  \xe2\x80\x94 near-linear \
     on a multicore host, absent on a single-core container.@."

(* ------------------------------------------------------------------ *)
(* E13: differential fuzz campaign                                     *)
(* ------------------------------------------------------------------ *)

let e13 () =
  header
    "E13 Differential fuzz campaign \xe2\x80\x94 every engine arm vs the \
     derivative reference over seeded random workloads";
  let count = if !smoke then 50 else if !quick then 300 else 1000 in
  row "  %-10s %-7s %-12s %-9s %-11s@." "mode" "seeds" "wall" "seeds/s"
    "divergences";
  List.iter
    (fun (name, mode) ->
      let t0 = Unix.gettimeofday () in
      let summary = Oracle.run mode ~first_seed:0 ~count in
      let dt = Unix.gettimeofday () -. t0 in
      (* The acceptance criterion: a campaign over the fixed seed range
         must find nothing — any divergence is a cross-engine bug. *)
      (match summary.Oracle.findings with
      | [] -> ()
      | f :: _ ->
          failwith
            (Printf.sprintf "E13: %s-mode divergence at seed %d: %s" name
               f.Oracle.seed f.Oracle.detail));
      jrow
        [ ("mode", jstr name); ("seeds", jint count);
          ("wall_ms", jflt (ms dt));
          ("seeds_per_s", jflt (float_of_int count /. dt));
          ("divergences", jint 0) ];
      row "  %-10s %-7d %9.1f ms %9.0f %-11d@." name count (ms dt)
        (float_of_int count /. dt)
        0)
    [ ("surface", Oracle.Surface); ("extended", Oracle.Extended) ];
  row
    "@.  Expectation: zero divergences \xe2\x80\x94 the arms (backtracking, \
     SORBE, compiled automata,@.  2- and 4-domain bulk, SPARQL on its \
     fragment) agree with the derivative reference@.  on verdicts and \
     blame sets across the whole seed range.@."

(* ------------------------------------------------------------------ *)
(* E14: incremental revalidation vs full re-run                        *)
(* ------------------------------------------------------------------ *)

let percentile p latencies =
  let a = Array.of_list latencies in
  Array.sort compare a;
  let k = Array.length a in
  let idx = int_of_float (Float.round (p /. 100. *. float_of_int (k - 1))) in
  a.(max 0 (min (k - 1) idx))

let e14 () =
  header
    "E14 Incremental revalidation \xe2\x80\x94 steady-state edit stream on \
     the FOAF portal vs full re-run";
  let sizes =
    if !smoke then [ 100 ]
    else if !quick then [ 100; 300; 1000 ]
    else [ 100; 300; 1000; 3000 ]
  in
  let schema, person = Workload.Foaf_gen.person_schema () in
  let foaf_name = Rdf.Iri.of_string_exn "http://xmlns.com/foaf/0.1/name" in
  row "  %-10s %-7s %-8s %-6s %-13s %-13s %-13s %-9s@." "portal" "persons"
    "triples" "edits" "inc-p50" "inc-p99" "full-median" "speedup";
  let measure ~regime ~generate n =
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.1;
          knows_degree = 3;
          seed = 7 }
      in
      let { Workload.Foaf_gen.graph; valid; invalid } = generate profile in
      let everyone = valid @ invalid in
      let inc = Shex_incremental.Session.create schema graph in
      (* Warm the memo: the steady state a long-lived portal session
         sits in. *)
      List.iter
        (fun p -> ignore (Shex_incremental.Session.check_bool inc p person))
        everyone;
      (* The edit stream: for each target person, drop every foaf:name
         arc (they stop conforming \xe2\x80\x94 name+ needs one), then put
         them back.  Each apply re-solves only the dependency frontier;
         the graph returns to its original state at the end. *)
      let targets =
        let k = if !smoke then 5 else 25 in
        List.filteri (fun i _ -> i < k) valid
      in
      let latencies = ref [] in
      let edits = ref 0 in
      let timed_apply delta =
        let t0 = Unix.gettimeofday () in
        let stats = Shex_incremental.Session.apply inc delta in
        latencies := (Unix.gettimeofday () -. t0) :: !latencies;
        incr edits;
        stats
      in
      List.iter
        (fun p ->
          let names =
            Rdf.Graph.objects_of p foaf_name
              (Shex_incremental.Session.graph inc)
          in
          let triples = List.map (fun o -> Rdf.Triple.make p foaf_name o) names in
          let gone = timed_apply (Shex_incremental.Session.delete triples) in
          assert (gone.applied = List.length triples);
          assert (not (Shex_incremental.Session.check_bool inc p person));
          let back = timed_apply (Shex_incremental.Session.insert triples) in
          assert (
            List.exists
              (fun (p', _, ok) -> Rdf.Term.equal p p' && ok)
              back.changed))
        targets;
      (* Identity: after the stream the incremental memo must agree
         with a from-scratch session on every person (the edits-arm
         property, asserted here on the portal workload). *)
      let fresh =
        Shex.Validate.session schema (Shex_incremental.Session.graph inc)
      in
      List.iter
        (fun p ->
          assert (
            Bool.equal
              (Shex_incremental.Session.check_bool inc p person)
              (Shex.Validate.check_bool fresh p person)))
        everyone;
      (* The baseline a portal without incrementality pays per edit:
         re-validate every person from scratch. *)
      let t_full =
        wall_per_run ~budget:0.3 (fun () ->
            let s = Shex.Validate.session schema
                (Shex_incremental.Session.graph inc)
            in
            List.iter
              (fun p -> ignore (Shex.Validate.check_bool s p person))
              everyone)
      in
      let p50 = percentile 50. !latencies
      and p99 = percentile 99. !latencies in
      observe (fun () ->
          let obs =
            Shex_incremental.Session.create ~telemetry:(tele ()) schema graph
          in
          List.iter
            (fun p -> ignore (Shex_incremental.Session.check_bool obs p person))
            everyone;
          List.iter
            (fun p ->
              let names = Rdf.Graph.objects_of p foaf_name graph in
              let triples =
                List.map (fun o -> Rdf.Triple.make p foaf_name o) names
              in
              ignore
                (Shex_incremental.Session.apply obs
                   (Shex_incremental.Session.delete triples));
              ignore
                (Shex_incremental.Session.apply obs
                   (Shex_incremental.Session.insert triples)))
            (List.filteri (fun i _ -> i < 5) valid));
      jrow
        [ ("portal", jstr regime);
          ("persons", jint n); ("triples", jint (Rdf.Graph.cardinal graph));
          ("edits", jint !edits);
          ("inc_p50_us", jflt (us p50));
          ("inc_p99_us", jflt (us p99));
          ("full_median_ms", jflt (ms t_full));
          ("speedup_median", jflt (t_full /. p50)) ];
      row "  %-10s %-7d %-8d %-6d %10.2f us %10.2f us %10.2f ms %8.0fx@."
        regime n
        (Rdf.Graph.cardinal graph)
        !edits (us p50) (us p99) (ms t_full)
        (t_full /. p50)
  in
  List.iter
    (measure ~regime:"clustered"
       ~generate:(Workload.Foaf_gen.generate_clustered ~community:10))
    sizes;
  (* The honest worst case: uniform knows at degree 3 form one giant
     strongly-connected component, so a single verdict flip cascades
     through most of the portal and the dependency frontier IS the
     portal — no sound incremental scheme can beat a full re-run
     there. *)
  measure ~regime:"uniform" ~generate:Workload.Foaf_gen.generate
    (List.nth sizes (min 1 (List.length sizes - 1)));
  row
    "@.  Expectation: with community structure the dependency frontier \
     of an edit is the@.  community, not the portal \xe2\x80\x94 per-edit \
     latency stays flat as the portal grows and@.  the median speedup \
     over full re-validation clears 5x at E3 scale.  Uniform knows@.  \
     (one giant component) are the worst case: most verdicts genuinely \
     flip per edit,@.  and incremental degenerates to \xe2\x89\x88 full \
     re-run cost.@."

(* ------------------------------------------------------------------ *)
(* E15: attribution overhead                                           *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header
    "E15 Attribution overhead \xe2\x80\x94 portal validation (E3 workload): \
     plain vs telemetry vs per-shape profile";
  let sizes = if !quick then [ 100; 300 ] else [ 100; 300; 1000; 3000 ] in
  let schema, _ = Workload.Foaf_gen.person_schema () in
  (* Like E10: each instrumented arm reuses one registry across
     repetitions so instrument creation never lands in the timing.
     The profiled arm's labelled families just keep accumulating. *)
  let enabled_reg = Telemetry.create () in
  let profiled_reg = Telemetry.create () in
  row "  %-7s %-8s %-12s %-12s %-12s %-9s %-9s %-10s@." "persons" "triples"
    "disabled" "enabled" "profiled" "tele-tax" "prof-tax" "attributed";
  List.iter
    (fun n ->
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.1;
          knows_degree = 3;
          seed = 7 }
      in
      let { Workload.Foaf_gen.graph; _ } =
        Workload.Foaf_gen.generate profile
      in
      let run ?(profile = false) telemetry =
        time_per_run ~budget:0.3 (fun () ->
            let session =
              Shex.Validate.session ?telemetry ~profile schema graph
            in
            Shex.Validate.validate_graph session)
      in
      let t_off = run None in
      let t_on = run (Some enabled_reg) in
      let t_prof = run ~profile:true (Some profiled_reg) in
      (* The acceptance criterion: a fresh profiled session over the E3
         workload must attribute \xe2\x89\xa595% of its derivative steps
         to shapes.  The accounting is exact by construction (every
         evaluation charges its self-cost exactly once), so anything
         below that is an attribution bug, not noise. *)
      let coverage =
        let reg = Telemetry.create () in
        let session =
          Shex.Validate.session ~telemetry:reg ~profile:true schema graph
        in
        ignore (Shex.Validate.validate_graph session);
        Shex.Profile.step_coverage
          (Shex.Profile.of_snapshot (Shex.Validate.metrics session))
      in
      if coverage < 0.95 then
        failwith
          (Printf.sprintf
             "E15: profile attributes only %.1f%% of deriv_steps at %d \
              persons (acceptance bar: 95%%)"
             (100. *. coverage) n);
      let tax t = 100.0 *. (t -. t_off) /. t_off in
      observe (fun () ->
          let session =
            Shex.Validate.session ~telemetry:(tele ()) ~profile:true schema
              graph
          in
          ignore (Shex.Validate.validate_graph session);
          Shex.Validate.metrics session);
      jrow
        [ ("persons", jint n); ("triples", jint (Rdf.Graph.cardinal graph));
          ("disabled_ms", jflt (ms t_off)); ("enabled_ms", jflt (ms t_on));
          ("profiled_ms", jflt (ms t_prof));
          ("enabled_overhead_pct", jflt (tax t_on));
          ("profile_overhead_pct", jflt (tax t_prof));
          ("steps_attributed_pct", jflt (100. *. coverage)) ];
      row "  %-7d %-8d %9.2f ms %9.2f ms %9.2f ms %+7.1f%% %+7.1f%% %8.1f%%@."
        n
        (Rdf.Graph.cardinal graph)
        (ms t_off) (ms t_on) (ms t_prof) (tax t_on) (tax t_prof)
        (100. *. coverage))
    sizes;
  row
    "@.  Expectation: with [?profile] off the attribution points cost \
     the same single branch@.  as every other disabled instrument, so \
     the \"disabled\" column stays inside E10's <5%%@.  bound.  Profiled \
     runs additionally pay a hashtable probe and counter delta per \
     check@.  \xe2\x80\x94 a few percent on portal workloads, attributing \
     \xe2\x89\xa595%% of all derivative steps.@."

(* ------------------------------------------------------------------ *)
(* E16: observability-plane overhead                                   *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header
    "E16 Observability-plane overhead \xe2\x80\x94 portal validation plain \
     vs obs-armed, plus the out-of-band per-tick and per-journal-record \
     costs";
  let sizes = if !quick then [ 100; 300 ] else [ 100; 300; 1000; 3000 ] in
  let schema, _ = Workload.Foaf_gen.person_schema () in
  (* The armed arm is E10's enabled arm: the obs plane adds no
     instrumentation points of its own — the daemon's window sampling
     and journal appends happen between requests, never inside a
     check.  Those out-of-band costs are what the tick/append columns
     price: one registry snapshot + ring push, and one cumulative
     record rendered + appended (flushed, fsync only on rotation). *)
  let armed_reg = Telemetry.create () in
  let window = Telemetry.Window.create ~interval_s:10. () in
  let journal_path = Filename.temp_file "e16_journal" ".jsonl" in
  let journal = Obs.Journal.create journal_path in
  row "  %-7s %-8s %-12s %-12s %-9s %-11s %-13s@." "persons" "triples"
    "plain" "obs-armed" "obs-tax" "tick" "append";
  List.iter
    (fun n ->
      let profile =
        { Workload.Foaf_gen.n_persons = n;
          invalid_fraction = 0.1;
          knows_degree = 3;
          seed = 7 }
      in
      let { Workload.Foaf_gen.graph; _ } =
        Workload.Foaf_gen.generate profile
      in
      let run telemetry =
        time_per_run ~budget:0.3 (fun () ->
            let session = Shex.Validate.session ?telemetry schema graph in
            Shex.Validate.validate_graph session)
      in
      let t_off = run None in
      let t_on = run (Some armed_reg) in
      let t_tick =
        wall_per_run ~budget:0.2 (fun () ->
            Telemetry.Window.observe window ~now:(Unix.gettimeofday ())
              (Telemetry.snapshot armed_reg))
      in
      let tick_record =
        Json.Object
          [ ("kind", Json.String "tick");
            ("ts", Json.Number (Unix.gettimeofday ()));
            ("telemetry", Telemetry.to_json (Telemetry.snapshot armed_reg)) ]
      in
      let t_append =
        wall_per_run ~budget:0.2 (fun () ->
            Obs.Journal.record journal tick_record)
      in
      let tax = 100.0 *. (t_on -. t_off) /. t_off in
      jrow
        [ ("persons", jint n);
          ("triples", jint (Rdf.Graph.cardinal graph));
          ("plain_ms", jflt (ms t_off));
          ("armed_ms", jflt (ms t_on));
          ("obs_overhead_pct", jflt tax);
          ("tick_us", jflt (t_tick *. 1e6));
          ("journal_append_us", jflt (t_append *. 1e6)) ];
      row "  %-7d %-8d %9.2f ms %9.2f ms %+7.1f%% %8.1f us %8.1f us@." n
        (Rdf.Graph.cardinal graph) (ms t_off) (ms t_on) tax (t_tick *. 1e6)
        (t_append *. 1e6))
    sizes;
  Obs.Journal.close journal;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ journal_path; Obs.Journal.rotated_path journal_path ];
  row
    "@.  Expectation: arming the obs plane is exactly E10's \
     telemetry-enabled cost \xe2\x80\x94 the@.  validation path itself \
     stays inside E10's <5%% disabled bar because ticks run@.  between \
     requests.  A tick (snapshot + ring push) and a journal append are \
     tens of@.  microseconds \xe2\x80\x94 negligible at any sane \
     --obs-interval, and priced out-of-band@.  rather than per \
     check.@."

(* ------------------------------------------------------------------ *)
(* E17: bulk load + interned columnar validation                       *)
(* ------------------------------------------------------------------ *)

(* Synthetic FOAF portal written straight to disk as N-Triples — the
   generator never builds a graph, so the experiment's peak memory is
   the loader's, not the fixture's.  Persons follow Foaf_gen's shape
   (age, name+, knows*@Person) with every tenth person missing its
   name, so both verdicts appear; knows arcs only target named
   persons, keeping the recursive shape's verdicts local.  A person
   has 4.9 triples on average (one age, 0.9 names, three knows), so
   rounding the person count up yields at least [triples] triples. *)
let nt_portal_persons triples = ((triples * 10) + 48) / 49

let write_nt_portal path n_persons =
  let named k = k mod 10 <> 9 in
  Out_channel.with_open_bin path (fun oc ->
      let buf = Buffer.create (1 lsl 16) in
      let person b k =
        Buffer.add_string b "<http://example.org/people/p";
        Buffer.add_string b (string_of_int k);
        Buffer.add_string b ">"
      in
      for k = 0 to n_persons - 1 do
        person buf k;
        Buffer.add_string buf " <http://xmlns.com/foaf/0.1/age> \"";
        Buffer.add_string buf (string_of_int (18 + (k mod 60)));
        Buffer.add_string buf
          "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
        if named k then begin
          person buf k;
          Buffer.add_string buf " <http://xmlns.com/foaf/0.1/name> \"Person ";
          Buffer.add_string buf (string_of_int k);
          Buffer.add_string buf "\" .\n"
        end;
        for j = 1 to 3 do
          (* Deterministic valid target: step past the unnamed decile. *)
          let t = (k + (j * 13)) mod n_persons in
          let t = if named t then t else (t + 1) mod n_persons in
          if t <> k && named t then begin
            person buf k;
            Buffer.add_string buf " <http://xmlns.com/foaf/0.1/knows> ";
            person buf t;
            Buffer.add_string buf " .\n"
          end
        done;
        if Buffer.length buf > 1 lsl 15 then begin
          Out_channel.output_string oc (Buffer.contents buf);
          Buffer.clear buf
        end
      done;
      Out_channel.output_string oc (Buffer.contents buf))

(* VmHWM from /proc/self/status: the process peak RSS in MB, or None
   off Linux.  Process-lifetime high water — meaningful because the CI
   smoke job runs E17 alone under ulimit -v. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
                 float_of_int kb /. 1024.))

let live_mb () =
  Gc.compact ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

let e17 () =
  header
    "E17 Bulk N-Triples load + interned columnar validation \xe2\x80\x94 \
     throughput and peak memory";
  let schema, _ = Workload.Foaf_gen.person_schema () in
  let once f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let file_mb path =
    float_of_int (In_channel.with_open_bin path In_channel.length |> Int64.to_int)
    /. (1024. *. 1024.)
  in
  (* -- Representation arms at a fixed small size: the structural
     parse-and-index path against the interner-fed columnar loader,
     same file, same verdicts. -- *)
  let cmp_triples = if !smoke then 100_000 else 200_000 in
  row "  -- structural vs interned, %d-triple portal --@." cmp_triples;
  row "  %-11s %-10s %-12s %-12s %-12s %-10s@." "arm" "load" "store-MB"
    "validate" "Mtriples/s" "typed";
  let path = Filename.temp_file "e17_portal" ".nt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  write_nt_portal path (nt_portal_persons cmp_triples);
  let base_mb = live_mb () in
  let arm name load validate =
    let store, t_load = once load in
    let store_mb = live_mb () -. base_mb in
    let (typed, cardinal), t_val = once (fun () -> validate store) in
    let mtps = float_of_int cardinal /. t_val /. 1e6 in
    jrow
      [ ("arm", jstr name); ("triples", jint cardinal);
        ("load_ms", jflt (ms t_load)); ("store_mb", jflt store_mb);
        ("validate_ms", jflt (ms t_val)); ("validate_mtps", jflt mtps);
        ("typed", jint typed) ];
    row "  %-11s %7.2f s %9.1f MB %9.2f s %10.2f %-10d@." name t_load
      store_mb t_val mtps typed
  in
  arm "structural"
    (fun () ->
      match Turtle.Parse.parse_file path with
      | Ok d -> `Structural d.Turtle.Parse.graph
      | Error msg -> failwith msg)
    (function
      | `Structural g ->
          let session = Shex.Validate.session schema g in
          ( Shex.Typing.cardinal (Shex.Validate.validate_graph session),
            Rdf.Graph.cardinal g )
      | _ -> assert false);
  arm "interned"
    (fun () ->
      match Turtle.Ntriples.load_file path with
      | Ok c -> `Interned c
      | Error msg -> failwith msg)
    (function
      | `Interned c ->
          let session = Shex.Validate.session_columnar schema c in
          ( Shex.Typing.cardinal (Shex.Validate.validate_graph session),
            Rdf.Columnar.cardinal c )
      | _ -> assert false);
  (* -- Bulk scale on the interned path.  Smoke is the CI bulk-load
     job: one million triples, single pass, under ulimit -v. -- *)
  let sizes =
    if !smoke then [ 1_000_000 ]
    else if !quick then [ 300_000; 1_000_000 ]
    else [ 1_000_000; 3_000_000 ]
  in
  row "@.  -- interned bulk scale --@.";
  row "  %-9s %-8s %-10s %-9s %-9s %-9s %-9s %-10s %-9s %-10s %-9s@." "triples"
    "file-MB" "parse-MT/s" "intern" "freeze" "load" "load-MT/s" "terms"
    "validate" "val-MT/s" "peak-MB";
  List.iter
    (fun triples ->
      let path = Filename.temp_file "e17_bulk" ".nt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      @@ fun () ->
      write_nt_portal path (nt_portal_persons triples);
      let mb = file_mb path in
      (* Parse-only: lexing and term construction, no interning. *)
      let (), t_parse =
        once (fun () ->
            match Turtle.Ntriples.fold_file path (fun () _ -> ()) () with
            | Ok () -> ()
            | Error msg -> failwith msg)
      in
      (* Ntriples.load_file's code, timed at its two layers: lexing
         plus interning into the builder, then the freeze. *)
      let b = Rdf.Columnar.builder () in
      let (), t_intern =
        once (fun () ->
            match
              Turtle.Ntriples.fold_file path
                (fun () tr -> Rdf.Columnar.add_triple b tr)
                ()
            with
            | Ok () -> ()
            | Error msg -> failwith msg)
      in
      let store, t_freeze = once (fun () -> Rdf.Columnar.freeze b) in
      let t_load = t_intern +. t_freeze in
      let cardinal = Rdf.Columnar.cardinal store in
      let parse_mtps = float_of_int cardinal /. t_parse /. 1e6 in
      let load_mtps = float_of_int cardinal /. t_load /. 1e6 in
      let typed, t_val =
        once (fun () ->
            let session = Shex.Validate.session_columnar schema store in
            Shex.Typing.cardinal (Shex.Validate.validate_graph session))
      in
      let val_mtps = float_of_int cardinal /. t_val /. 1e6 in
      let heap_peak_mb =
        float_of_int ((Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. (1024. *. 1024.)
      in
      let peak = Option.value (peak_rss_mb ()) ~default:heap_peak_mb in
      jrow
        [ ("triples", jint cardinal); ("file_mb", jflt mb);
          ("parse_s", jflt t_parse); ("parse_mtps", jflt parse_mtps);
          ("intern_ms", jflt (ms t_intern)); ("freeze_ms", jflt (ms t_freeze));
          ("load_s", jflt t_load); ("load_mtps", jflt load_mtps);
          ("terms", jint (Rdf.Columnar.terms_cardinal store));
          ("validate_s", jflt t_val); ("validate_mtps", jflt val_mtps);
          ("peak_rss_mb", jflt peak); ("heap_peak_mb", jflt heap_peak_mb);
          ("typed", jint typed) ];
      row
        "  %-9d %6.1f %10.2f %7.2f s %7.2f s %7.2f s %8.2f %9d %7.2f s %8.2f \
         %8.0f@."
        cardinal mb parse_mtps t_intern t_freeze t_load load_mtps
        (Rdf.Columnar.terms_cardinal store)
        t_val val_mtps peak)
    sizes;
  row
    "@.  Expectation: the streaming lexer + interner-fed columnar \
     builder load in one pass@.  without materialising the source or a \
     structural graph, so peak memory is a@.  small multiple of the \
     frozen store itself; the structural arm's per-triple@.  \
     set-and-index inserts cost several times the interned store's \
     memory at@.  identical verdicts, and validation over column slices \
     read by id@.  outruns the balanced-tree neighbourhood lookups.@."

(* ------------------------------------------------------------------ *)
(* E18: schema static analysis                                         *)
(* ------------------------------------------------------------------ *)

(* A depth-k cyclic chain of shapes S_i ::= p→int ‖ (next→@S_{i+1})⋆
   (indices mod k), with v2 widening S_0 by one optional extra arc.
   No shape is congruent across the pair — every S_i transitively
   reaches the widened S_0 — so check_compat has to run the full
   coinductive product search for each of the k pairs, and the states
   counter measures derivative-space growth against schema size. *)
let e18_chain ~depth ~widen =
  let lbl i =
    Shex.Label.of_string (Printf.sprintf "http://example.org/S%d" i)
  in
  let p = Rdf.Iri.of_string_exn "http://example.org/p"
  and next = Rdf.Iri.of_string_exn "http://example.org/next"
  and extra = Rdf.Iri.of_string_exn "http://example.org/extra" in
  Shex.Schema.make_exn
    (List.init depth (fun i ->
         let base =
           Shex.Rse.and_
             (Shex.Rse.arc_v
                (Shex.Value_set.Pred p)
                (Shex.Value_set.Obj_datatype Rdf.Xsd.Integer))
             (Shex.Rse.star
                (Shex.Rse.arc_ref
                   (Shex.Value_set.Pred next)
                   (lbl ((i + 1) mod depth))))
         in
         let e =
           if widen && i = 0 then
             Shex.Rse.and_ base
               (Shex.Rse.opt
                  (Shex.Rse.arc_v
                     (Shex.Value_set.Pred extra)
                     Shex.Value_set.Obj_any))
           else base
         in
         (lbl i, e)))

let e18 () =
  header
    "E18 Schema static analysis \xe2\x80\x94 product-search growth and the \
     pre-validation optimizer's win";
  row
    "  -- check_compat states/time vs schema size (cyclic ref chain, v2 \
     widens S0) --@.";
  row "  %-7s %-8s %-10s %-12s %-10s@." "depth" "shapes" "states" "compat"
    "verdicts";
  let depths =
    if !smoke then [ 2; 4 ]
    else if !quick then [ 2; 4; 6 ]
    else [ 2; 4; 6; 8 ]
  in
  List.iter
    (fun depth ->
      let v1 = e18_chain ~depth ~widen:false
      and v2 = e18_chain ~depth ~widen:true in
      let tele = Telemetry.create () in
      let states = Telemetry.counter tele "analysis_states_explored" in
      let t0 = Unix.gettimeofday () in
      let report = Analysis.check_compat ~tele v1 v2 in
      let dt = Unix.gettimeofday () -. t0 in
      let contained =
        List.for_all
          (fun (it : Analysis.compat_item) ->
            match it.Analysis.verdict with
            | Analysis.Contained -> true
            | _ -> false)
          report.Analysis.items
      in
      jrow
        [ ("depth", jint depth);
          ("states", jint (Telemetry.Counter.value states));
          ("compat_ms", jflt (ms dt));
          ("all_contained", Json.Bool contained) ];
      row "  %-7d %-8d %-10d %9.1f ms %-10s@." depth depth
        (Telemetry.Counter.value states)
        (ms dt)
        (if contained then "contained" else "NOT-CONTAINED"))
    depths;
  (* -- the optimizer's win: a k-way Or of singleton value sets is
     merged into one value-set arc, so the derivative stops scanning k
     disjuncts per triple.  Same graph, same verdicts, both arms. -- *)
  row "@.  -- pre-validation optimizer: k-way Or of singleton values --@.";
  row "  %-5s %-12s %-12s %-8s@." "k" "original" "optimized" "speedup";
  let ks = if !smoke then [ 8 ] else if !quick then [ 4; 16 ] else [ 4; 16; 64 ] in
  List.iter
    (fun k ->
      let p = Rdf.Iri.of_string_exn "http://example.org/a" in
      let arc j =
        Shex.Rse.arc_v (Shex.Value_set.Pred p)
          (Shex.Value_set.obj_terms [ Rdf.Term.int j ])
      in
      let ored =
        List.fold_left
          (fun acc j -> Shex.Rse.or_ acc (arc j))
          (arc 0)
          (List.init (k - 1) (fun j -> j + 1))
      in
      let lbl = Shex.Label.of_string "http://example.org/S" in
      let schema = Shex.Schema.make_exn [ (lbl, ored) ] in
      let optimized = Analysis.optimize schema in
      let n_nodes = if !smoke then 2_000 else 20_000 in
      let graph =
        Rdf.Graph.of_list
          (List.init n_nodes (fun i ->
               Rdf.Triple.make
                 (Rdf.Term.iri (Printf.sprintf "http://example.org/n%d" i))
                 p
                 (Rdf.Term.int (i mod k))))
      in
      let validate s =
        let session = Shex.Validate.session s graph in
        Shex.Typing.cardinal (Shex.Validate.validate_graph session)
      in
      let typed_orig = validate schema and typed_opt = validate optimized in
      if typed_orig <> typed_opt then
        failwith "E18: optimizer changed verdicts";
      let t_orig = time_per_run (fun () -> validate schema)
      and t_opt = time_per_run (fun () -> validate optimized) in
      jrow
        [ ("k", jint k); ("typed", jint typed_orig);
          ("original_ms", jflt (ms t_orig)); ("optimized_ms", jflt (ms t_opt));
          ("speedup", jflt (t_orig /. t_opt)) ];
      row "  %-5d %9.2f ms %9.2f ms %7.2fx@." k (ms t_orig) (ms t_opt)
        (t_orig /. t_opt))
    ks;
  row
    "@.  Expectation: the product search stays polynomial in the chain \
     depth \xe2\x80\x94 the@.  coinductive assumption discharge keeps \
     ref-letters out of the alphabet, so the@.  per-pair space is the \
     diagonal, not the full product \xe2\x80\x94 and the optimizer's@.  \
     value-set merge turns a k-disjunct scan per triple into one \
     membership test,@.  with verdicts unchanged.@."

(* ------------------------------------------------------------------ *)
(* Baseline comparison (--baseline)                                    *)
(* ------------------------------------------------------------------ *)

(* CI perf ratchet: compare this run's recorded rows against a
   committed baseline document (the harness's own --json output,
   optionally annotated with tolerances).  Two kinds of cell are
   compared; verdicts and other counts are covered by the tests.

   - Work counts — keys ending in [_ops], such as E1's
     [backtrack_ops] — are deterministic, so each must equal the
     baseline exactly, whatever the tolerance.
   - Timing cells — keys ending in [_us] or [_ms], normalised to
     microseconds.  A current value is a regression when it exceeds
     [baseline * tolerance + slack]: the multiplicative band absorbs
     machine-to-machine speed differences once the tolerance is set
     generously, and the absolute slack keeps micro-rows (a few
     microseconds, dominated by timer noise) from tripping the
     ratchet.

   Baseline documents may carry:
     "tolerance": N             document-wide ratio band (default 1.5)
     "tolerances": {"E3": N}    per-experiment override
   Missing experiments or rows are a hard failure with a regenerate
   hint — a silently shrinking baseline would ratchet nothing. *)

let baseline_slack_us = 500.

let ends_with suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let timing_us key v =
  match v with
  | Json.Number x when ends_with "_us" key -> Some x
  | Json.Number x when ends_with "_ms" key -> Some (x *. 1000.)
  | _ -> None

let compare_baseline file =
  let doc =
    match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok doc -> doc
    | Error msg ->
        Printf.eprintf "--baseline %s: %s\n" file msg;
        exit 2
  in
  let default_tol =
    match Json.find "tolerance" doc with
    | Some (Json.Number t) -> t
    | _ -> 1.5
  in
  let tol_for id =
    match Option.bind (Json.find "tolerances" doc) (Json.find id) with
    | Some (Json.Number t) -> t
    | _ -> default_tol
  in
  let base_experiments =
    match Json.find_list "experiments" doc with
    | Some exps -> exps
    | None ->
        Printf.eprintf
          "--baseline %s: no \"experiments\" member (expected this \
           harness's --json output)\n"
        file;
        exit 2
  in
  let problems = ref [] in
  let compared = ref 0 and counted = ref 0 in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  let regenerate =
    "regenerate with: dune exec bench/main.exe -- <IDS> --smoke --json \
     <FILE>"
  in
  List.iter
    (fun cur ->
      let id =
        match Json.find_string "id" cur with Some id -> id | None -> "?"
      in
      match
        List.find_opt (fun b -> Json.find_string "id" b = Some id)
          base_experiments
      with
      | None -> Printf.printf "baseline: %s not in %s, skipped@\n" id file
      | Some base ->
          let cur_rows = Option.value ~default:[] (Json.find_list "rows" cur) in
          let base_rows =
            Option.value ~default:[] (Json.find_list "rows" base)
          in
          if List.length cur_rows <> List.length base_rows then
            problem "%s: %d rows vs %d in baseline (%s)" id
              (List.length cur_rows) (List.length base_rows) regenerate
          else begin
            let tol = tol_for id in
            List.iteri
              (fun i (base_row, cur_row) ->
                match base_row with
                | Json.Object cells ->
                    List.iter
                      (fun (key, bv) ->
                        if ends_with "_ops" key then begin
                          incr counted;
                          match (bv, Json.find key cur_row) with
                          | Json.Number b, Some (Json.Number c) when c = b -> ()
                          | _, Some cv ->
                              problem "%s row %d %s: %s vs baseline %s \
                                       (work counts must match exactly)"
                                id i key (Json.to_string cv)
                                (Json.to_string bv)
                          | _, None ->
                              problem "%s row %d: %S missing from this \
                                       run (%s)"
                                id i key regenerate
                        end
                        else
                          match timing_us key bv with
                          | None -> ()
                          | Some base_us -> (
                              match
                                Option.bind (Json.find key cur_row)
                                  (fun v -> timing_us key v)
                              with
                              | None ->
                                  problem "%s row %d: %S missing from this \
                                           run (%s)"
                                    id i key regenerate
                              | Some cur_us ->
                                  incr compared;
                                  if
                                    cur_us
                                    > (base_us *. tol) +. baseline_slack_us
                                  then
                                    problem
                                      "%s row %d %s: %.1f us vs baseline \
                                       %.1f us (%.2fx > %.2fx band)"
                                      id i key cur_us base_us
                                      (cur_us /. Float.max 1e-9 base_us)
                                      tol))
                      cells
                | _ -> ())
              (List.combine base_rows cur_rows)
          end)
    (List.rev !experiments_json);
  match List.rev !problems with
  | [] ->
      Format.printf
        "@.Baseline check: %d timing cells within tolerance of %s, %d work \
         counts equal to it.@."
        !compared file !counted
  | ps ->
      Format.printf "@.Baseline check against %s FAILED:@." file;
      List.iter (fun p -> Format.printf "  REGRESSION %s@." p) ps;
      Format.printf "%d timing cells and %d work counts compared, %d \
                     regressed.@."
        !compared !counted (List.length ps);
      exit 3

(* ------------------------------------------------------------------ *)
(* Chrome trace export (--trace-chrome)                                *)
(* ------------------------------------------------------------------ *)

(* Independent of which experiments ran: trace one representative
   portal validation end-to-end and write the Chrome trace-event
   document, so CI can assert the export pipeline produces loadable
   JSON on every run. *)
let write_chrome_trace file =
  let recorder = Shex_explain.Trace.create () in
  let telemetry = Telemetry.create () in
  Telemetry.set_sink telemetry (Some (Shex_explain.Trace.sink recorder));
  Telemetry.set_residuals telemetry true;
  let schema, _ = Workload.Foaf_gen.person_schema () in
  let { Workload.Foaf_gen.graph; _ } =
    Workload.Foaf_gen.generate
      { Workload.Foaf_gen.n_persons = (if !smoke then 20 else 100);
        invalid_fraction = 0.1;
        knows_degree = 3;
        seed = 7 }
  in
  let session = Shex.Validate.session ~telemetry schema graph in
  ignore (Shex.Validate.validate_graph session);
  Json.write_file_atomic file
    (Json.to_string (Shex_explain.Export.chrome_json recorder) ^ "\n");
  Format.printf "@.Chrome trace written to %s@." file

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let focus = Workload.Micro_gen.focus in
  let e5_shape = Workload.Micro_gen.example5_shape () in
  let e5_graph = Workload.Micro_gen.example5_neighbourhood 8 in
  let e5_bad = Workload.Micro_gen.example5_neighbourhood_invalid 8 in
  let bal_shape = Workload.Micro_gen.balanced_shape 16 in
  let bal_graph = Workload.Micro_gen.balanced_neighbourhood 16 in
  let wide_shape = Workload.Micro_gen.wide_shape 64 in
  let wide_graph = Workload.Micro_gen.wide_neighbourhood 64 in
  let wide_sorbe = Option.get (Shex.Sorbe.of_rse wide_shape) in
  let schema, _ = Workload.Foaf_gen.person_schema () in
  let portal =
    Workload.Foaf_gen.generate
      { Workload.Foaf_gen.n_persons = 300;
        invalid_fraction = 0.1;
        knows_degree = 3;
        seed = 7 }
  in
  let tests =
    [ Test.make ~name:"E1/deriv-n8" (Staged.stage (fun () ->
          deriv_matches focus e5_graph e5_shape));
      Test.make ~name:"E1/backtrack-n8" (Staged.stage (fun () ->
          backtrack_matches focus e5_bad e5_shape));
      Test.make ~name:"E2/balanced-k16" (Staged.stage (fun () ->
          deriv_matches focus bal_graph bal_shape));
      Test.make ~name:"E3/portal-300" (Staged.stage (fun () ->
          let session = Shex.Validate.session schema portal.Workload.Foaf_gen.graph in
          Shex.Validate.validate_graph session));
      Test.make ~name:"E4/deriv-wide64" (Staged.stage (fun () ->
          deriv_matches focus wide_graph wide_shape));
      Test.make ~name:"E4/sorbe-wide64" (Staged.stage (fun () ->
          sorbe_matches focus wide_graph wide_shape wide_sorbe));
      Test.make ~name:"E5/raw-ctors-n8" (Staged.stage (fun () ->
          raw_matches focus e5_graph e5_shape))
    ]
  in
  let grouped = Test.make_grouped ~name:"shex" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  header "Bechamel micro-benchmarks (monotonic clock, ns/run)";
  Hashtbl.iter
    (fun _instance tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> row "  %-28s %12.1f ns/run@." name est
          | _ -> row "  %-28s %a@." name Analyze.OLS.pp ols)
        rows)
    merged

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let all_experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let run_micro = ref false in
  let trace_chrome : string option ref = ref None in
  let rec parse = function
    | [] -> []
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--smoke" :: rest ->
        (* CI mode: quick sweeps plus minimal timing budgets. *)
        smoke := true;
        quick := true;
        parse rest
    | "--micro" :: rest ->
        run_micro := true;
        parse rest
    | "--json" :: file :: rest when String.length file = 0 || file.[0] <> '-'
      ->
        json_out := Some file;
        parse rest
    | "--json" :: _ ->
        prerr_endline "--json requires a FILE argument";
        exit 2
    | "--baseline" :: file :: rest
      when String.length file = 0 || file.[0] <> '-' ->
        baseline_in := Some file;
        parse rest
    | "--baseline" :: _ ->
        prerr_endline "--baseline requires a FILE argument";
        exit 2
    | "--trace-chrome" :: file :: rest
      when String.length file = 0 || file.[0] <> '-' ->
        trace_chrome := Some file;
        parse rest
    | "--trace-chrome" :: _ ->
        prerr_endline "--trace-chrome requires a FILE argument";
        exit 2
    | "--domains" :: v :: rest when int_of_string_opt v <> None ->
        (* Restrict E12's parallel arm to one domain count (CI runs
           --domains 2 on two-core runners). *)
        e12_domains := [ max 2 (int_of_string v) ];
        parse rest
    | "--domains" :: _ ->
        prerr_endline "--domains requires an integer argument";
        exit 2
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        Printf.eprintf
          "unknown option: %s\n\
           usage: main.exe [E1 .. E18] [--quick] [--smoke] [--json FILE] \
           [--baseline FILE] [--trace-chrome FILE] [--domains N] [--micro]\n"
          a;
        exit 2
    | a :: rest -> a :: parse rest
  in
  let wanted = parse args in
  (match
     List.filter (fun a -> not (List.mem_assoc a all_experiments)) wanted
   with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment%s: %s\nvalid experiments: %s\n"
        (if List.length unknown = 1 then "" else "s")
        (String.concat ", " unknown)
        (String.concat " " (List.map fst all_experiments));
      exit 2);
  let selected =
    if wanted = [] then all_experiments
    else
      List.filter (fun (name, _) -> List.mem name wanted) all_experiments
  in
  Format.printf
    "shex-derivatives benchmark harness \xe2\x80\x94 reproducing the \
     EDBT/ICDT 2015 workshops paper@.";
  if !run_micro then micro ()
  else begin
    List.iter
      (fun (id, f) ->
        begin_experiment ();
        f ();
        end_experiment id)
      selected;
    (match !json_out with
    | None -> ()
    | Some file ->
        let doc =
          Json.Object
            [ ("format", Json.int 2);
              ("experiments", Json.Array (List.rev !experiments_json)) ]
        in
        (* Atomic, so an interrupted run never leaves a truncated
           results file for CI's JSON assertions to choke on. *)
        Json.write_file_atomic file (Json.to_string doc ^ "\n");
        Format.printf "@.JSON results written to %s@." file);
    (* After the JSON write: [--json cur.json --baseline cur.json] is a
       deterministic self-comparison (every ratio exactly 1), the CI
       sanity leg for the ratchet machinery itself. *)
    Option.iter compare_baseline !baseline_in;
    Format.printf
      "@.All experiments complete.  See EXPERIMENTS.md for the \
       paper-vs-measured discussion.@."
  end;
  Option.iter write_chrome_trace !trace_chrome
