(* Telemetry registry unit tests, exact deterministic engine counters
   (the 2^n decomposition blow-up of Example 3 vs the linear derivative
   walk), and the guarantee that observation never changes verdicts. *)

open Shex

let get snap name =
  match Telemetry.find_counter snap name with
  | Some v -> v
  | None -> Alcotest.failf "counter %S missing from snapshot" name

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let tele = Telemetry.create () in
  let c = Telemetry.counter tele "steps" in
  Alcotest.(check bool) "active" true (Telemetry.Counter.active c);
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 4;
  Alcotest.(check int) "value" 5 (Telemetry.Counter.value c);
  (* get-or-create: same name, same instrument *)
  Telemetry.Counter.incr (Telemetry.counter tele "steps");
  Alcotest.(check int) "shared" 6 (Telemetry.Counter.value c);
  let g = Telemetry.gauge tele "states" in
  Telemetry.Counter.set g 42;
  Telemetry.Counter.set g 17;
  let snap = Telemetry.snapshot tele in
  Alcotest.(check int) "snapshot counter" 6 (get snap "steps");
  Alcotest.(check int) "snapshot gauge" 17 (get snap "states");
  Alcotest.(check (list (pair string int)))
    "sorted names"
    [ ("states", 17); ("steps", 6) ]
    (Telemetry.counters snap)

let test_disabled () =
  let c = Telemetry.counter Telemetry.disabled "steps" in
  Alcotest.(check bool) "inactive" false (Telemetry.Counter.active c);
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 10;
  Alcotest.(check int) "never records" 0 (Telemetry.Counter.value c);
  Alcotest.(check bool) "not tracing" false (Telemetry.tracing Telemetry.disabled);
  Alcotest.(check bool)
    "empty snapshot" true
    (Telemetry.is_empty (Telemetry.snapshot Telemetry.disabled))

let test_histogram () =
  let tele = Telemetry.create () in
  let h = Telemetry.histogram tele "sizes" in
  List.iter (Telemetry.Histogram.observe h) [ 1; 2; 9 ];
  Alcotest.(check int) "count" 3 (Telemetry.Histogram.count h);
  Alcotest.(check int) "sum" 12 (Telemetry.Histogram.sum h);
  Alcotest.(check int) "max" 9 (Telemetry.Histogram.max_value h);
  (* v lands in the first le = 2^i bucket with v <= 2^i *)
  let buckets =
    match
      Json.find "histograms" (Telemetry.to_json (Telemetry.snapshot tele))
    with
    | Some hs -> (
        match Json.find "sizes" hs with
        | Some s -> Option.get (Json.find "buckets" s)
        | None -> Alcotest.fail "histogram missing")
    | None -> Alcotest.fail "histograms missing"
  in
  List.iter
    (fun (le, n) ->
      Alcotest.(check (option int))
        (Printf.sprintf "bucket le=%s" le)
        (Some n) (Json.find_int le buckets))
    [ ("1", 1); ("2", 1); ("16", 1) ]

let test_span_and_events () =
  let tele = Telemetry.create () in
  let s = Telemetry.span tele "work" in
  let r = Telemetry.Span.time s (fun () -> 6 * 7) in
  Alcotest.(check int) "span returns" 42 r;
  Alcotest.(check int) "span count" 1 (Telemetry.Span.count s);
  Alcotest.(check bool) "span total >= 0" true (Telemetry.Span.total s >= 0.0);
  let seen = ref [] in
  Alcotest.(check bool) "no sink" false (Telemetry.tracing tele);
  Telemetry.set_sink tele (Some (fun ev -> seen := ev :: !seen));
  Alcotest.(check bool) "sink installed" true (Telemetry.tracing tele);
  let ev =
    Telemetry.instant "step"
      [ ("n", Telemetry.Int 3); ("ok", Telemetry.Bool true) ]
  in
  Telemetry.emit tele ev;
  Alcotest.(check int) "delivered" 1 (List.length !seen);
  Alcotest.(check string)
    "event json" {|{"event":"step","n":3,"ok":true}|}
    (Json.to_string ~minify:true (Telemetry.event_to_json ev));
  Alcotest.(check string)
    "span event json carries ph"
    {|{"event":"check","ph":"B","node":"n1"}|}
    (Json.to_string ~minify:true
       (Telemetry.event_to_json
          (Telemetry.span_begin "check" [ ("node", Telemetry.String "n1") ])));
  Alcotest.(check bool) "residuals off by default" false
    (Telemetry.residuals tele);
  Telemetry.set_residuals tele true;
  Alcotest.(check bool) "residuals on with sink installed" true
    (Telemetry.residuals tele);
  Telemetry.set_residuals tele false;
  Telemetry.set_sink tele None;
  Telemetry.emit tele ev;
  Alcotest.(check int) "sink removed" 1 (List.length !seen)

(* ------------------------------------------------------------------ *)
(* Reset and snapshot diff (the long-running-server primitives)        *)
(* ------------------------------------------------------------------ *)

(* A reset registry must look exactly like a fresh one that registered
   the same instruments — and merging into it afterwards must land on
   the zeroed cells, so merge → reset → merge round-trips. *)
let test_merge_reset_roundtrip () =
  let shard () =
    let t = Telemetry.create () in
    Telemetry.Counter.add (Telemetry.counter t "steps") 5;
    Telemetry.Counter.set (Telemetry.gauge t "states") 3;
    Telemetry.Histogram.observe (Telemetry.histogram t "sizes") 9;
    ignore (Telemetry.Span.time (Telemetry.span t "work") (fun () -> ()));
    t
  in
  let parent = Telemetry.create () in
  Telemetry.merge ~into:parent (shard ());
  Telemetry.merge ~into:parent (shard ());
  let merged = Telemetry.snapshot parent in
  Alcotest.(check int) "merged counter" 10 (get merged "steps");
  Alcotest.(check int) "merged gauge" 6 (get merged "states");
  (* The instrument resolved before the reset must stay live after. *)
  let c = Telemetry.counter parent "steps" in
  Telemetry.reset parent;
  let zeroed = Telemetry.snapshot parent in
  Alcotest.(check int) "reset counter" 0 (get zeroed "steps");
  Alcotest.(check int) "reset gauge" 0 (get zeroed "states");
  Alcotest.(check bool)
    "registrations survive reset" false
    (Telemetry.is_empty zeroed);
  Telemetry.Counter.incr c;
  Alcotest.(check int)
    "pre-reset instrument still records" 1
    (get (Telemetry.snapshot parent) "steps");
  Telemetry.reset parent;
  Telemetry.merge ~into:parent (shard ());
  let again = Telemetry.snapshot parent in
  Alcotest.(check int) "merge after reset" 5 (get again "steps");
  Alcotest.(check int) "gauge after reset-merge" 3 (get again "states");
  (* Histograms and spans reset too: one shard's worth, not three. *)
  let json = Telemetry.to_json again in
  let histo_count =
    Option.bind (Json.find "histograms" json) (Json.find "sizes")
    |> Fun.flip Option.bind (Json.find_int "count")
  in
  Alcotest.(check (option int)) "histogram count after reset" (Some 1)
    histo_count;
  let span_count =
    Option.bind (Json.find "spans" json) (Json.find "work")
    |> Fun.flip Option.bind (Json.find_int "count")
  in
  Alcotest.(check (option int)) "span count after reset" (Some 1) span_count

(* diff ~since now isolates exactly the work between two snapshots. *)
let test_snapshot_diff () =
  let t = Telemetry.create () in
  let c = Telemetry.counter t "steps" in
  let g = Telemetry.gauge t "states" in
  let h = Telemetry.histogram t "sizes" in
  Telemetry.Counter.add c 7;
  Telemetry.Counter.set g 4;
  Telemetry.Histogram.observe h 3;
  let since = Telemetry.snapshot t in
  Telemetry.Counter.add c 5;
  Telemetry.Counter.set g 9;
  Telemetry.Histogram.observe h 3;
  Telemetry.Histogram.observe h 100;
  let d = Telemetry.diff ~since (Telemetry.snapshot t) in
  Alcotest.(check int) "counter delta" 5 (get d "steps");
  Alcotest.(check int) "gauge keeps level reading" 9 (get d "states");
  let json = Telemetry.to_json d in
  let sizes = Option.bind (Json.find "histograms" json) (Json.find "sizes") in
  Alcotest.(check (option int))
    "histogram count delta" (Some 2)
    (Option.bind sizes (Json.find_int "count"));
  Alcotest.(check (option int))
    "histogram sum delta" (Some 103)
    (Option.bind sizes (Json.find_int "sum"));
  let bucket le =
    Option.bind sizes (Json.find "buckets")
    |> Fun.flip Option.bind (Json.find_int le)
  in
  Alcotest.(check (option int)) "window bucket le=4" (Some 1) (bucket "4");
  Alcotest.(check (option int)) "window bucket le=128" (Some 1) (bucket "128");
  (* A reset between the snapshots degrades to reporting [now]. *)
  Telemetry.reset t;
  Telemetry.Counter.add c 2;
  let after_reset = Telemetry.diff ~since (Telemetry.snapshot t) in
  Alcotest.(check int) "reset inside window reports now" 2
    (get after_reset "steps");
  (* New instruments pass through. *)
  Telemetry.Counter.incr (Telemetry.counter t "fresh");
  Alcotest.(check int) "fresh instrument passes through" 1
    (get (Telemetry.diff ~since (Telemetry.snapshot t)) "fresh")

(* ------------------------------------------------------------------ *)
(* Labelled families (the attribution dimension)                       *)
(* ------------------------------------------------------------------ *)

let lget snap family label =
  match List.assoc_opt label (Telemetry.labelled_counter_values snap family) with
  | Some v -> v
  | None -> Alcotest.failf "label %S missing from family %S" label family

let test_labelled_basics () =
  let t = Telemetry.create () in
  let fam = Telemetry.counter_family t ~key:"shape" "steps_by_shape" in
  Telemetry.Counter.add (Telemetry.labelled fam "Person") 5;
  Telemetry.Counter.incr (Telemetry.labelled fam "Company") ;
  (* get-or-create per label: same cell both times *)
  Telemetry.Counter.add (Telemetry.labelled fam "Person") 2;
  let snap = Telemetry.snapshot t in
  Alcotest.(check int) "Person cell" 7 (lget snap "steps_by_shape" "Person");
  Alcotest.(check int) "Company cell" 1 (lget snap "steps_by_shape" "Company");
  Alcotest.(check (list (pair string int)))
    "sorted by label"
    [ ("Company", 1); ("Person", 7) ]
    (Telemetry.labelled_counter_values snap "steps_by_shape");
  Alcotest.(check (list (pair string int)))
    "missing family is empty" []
    (Telemetry.labelled_counter_values snap "no_such_family");
  (* span families report (count, seconds) *)
  let sf = Telemetry.span_family t ~key:"shape" "seconds_by_shape" in
  Telemetry.Span.record (Telemetry.labelled sf "Person") 0.25;
  Telemetry.Span.record (Telemetry.labelled sf "Person") 0.25;
  (match
     Telemetry.labelled_span_values (Telemetry.snapshot t) "seconds_by_shape"
   with
  | [ ("Person", (2, secs)) ] ->
      Alcotest.(check (float 1e-9)) "span seconds" 0.5 secs
  | other ->
      Alcotest.failf "unexpected span cells (%d)" (List.length other));
  (* disabled registries hand out inert cells and register nothing *)
  let dfam =
    Telemetry.counter_family Telemetry.disabled ~key:"shape" "steps_by_shape"
  in
  let cell = Telemetry.labelled dfam "Person" in
  Telemetry.Counter.add cell 10;
  Alcotest.(check int) "inert cell" 0 (Telemetry.Counter.value cell);
  Alcotest.(check bool)
    "disabled snapshot stays empty" true
    (Telemetry.is_empty (Telemetry.snapshot Telemetry.disabled))

(* Merging shards adds label-by-label; reset zeroes cells while
   keeping registrations and resolved-cell identity, exactly like the
   plain instruments — the interleaving a domain-parallel profiled run
   plus a long-running server exercises. *)
let test_labelled_merge_reset () =
  let shard labels =
    let t = Telemetry.create () in
    let fam = Telemetry.counter_family t ~key:"shape" "steps_by_shape" in
    List.iter
      (fun (l, v) -> Telemetry.Counter.add (Telemetry.labelled fam l) v)
      labels;
    t
  in
  let parent = Telemetry.create () in
  Telemetry.merge ~into:parent (shard [ ("Person", 3); ("Company", 1) ]);
  Telemetry.merge ~into:parent (shard [ ("Person", 4) ]);
  let merged = Telemetry.snapshot parent in
  Alcotest.(check int) "labels add" 7 (lget merged "steps_by_shape" "Person");
  Alcotest.(check int)
    "missing-in-one-shard label survives" 1
    (lget merged "steps_by_shape" "Company");
  (* A cell resolved before reset keeps recording after. *)
  let fam = Telemetry.counter_family parent ~key:"shape" "steps_by_shape" in
  let person = Telemetry.labelled fam "Person" in
  Telemetry.reset parent;
  let zeroed = Telemetry.snapshot parent in
  Alcotest.(check int) "reset cell" 0 (lget zeroed "steps_by_shape" "Person");
  Telemetry.Counter.incr person;
  Alcotest.(check int)
    "pre-reset cell still records" 1
    (lget (Telemetry.snapshot parent) "steps_by_shape" "Person");
  Telemetry.merge ~into:parent (shard [ ("Person", 5) ]);
  Alcotest.(check int)
    "merge after reset lands on zeroed cells" 6
    (lget (Telemetry.snapshot parent) "steps_by_shape" "Person")

(* diff over labelled cells: per-window deltas, fresh labels pass
   through, a reset inside the window degrades to the now reading. *)
let test_labelled_diff () =
  let t = Telemetry.create () in
  let fam = Telemetry.counter_family t ~key:"shape" "steps_by_shape" in
  let person = Telemetry.labelled fam "Person" in
  Telemetry.Counter.add person 10;
  let since = Telemetry.snapshot t in
  Telemetry.Counter.add person 3;
  Telemetry.Counter.add (Telemetry.labelled fam "Company") 2;
  let d = Telemetry.diff ~since (Telemetry.snapshot t) in
  Alcotest.(check int) "cell delta" 3 (lget d "steps_by_shape" "Person");
  Alcotest.(check int)
    "fresh label passes through" 2
    (lget d "steps_by_shape" "Company");
  Telemetry.reset t;
  Telemetry.Counter.add person 4;
  let after_reset = Telemetry.diff ~since (Telemetry.snapshot t) in
  Alcotest.(check int)
    "reset inside window reports now" 4
    (lget after_reset "steps_by_shape" "Person");
  (* JSON: the "labelled" member appears exactly when a family exists. *)
  let json = Telemetry.to_json (Telemetry.snapshot t) in
  Alcotest.(check bool) "labelled member present" true
    (Json.find "labelled" json <> None);
  let plain = Telemetry.create () in
  Telemetry.Counter.incr (Telemetry.counter plain "steps");
  Alcotest.(check bool) "no labelled member without families" true
    (Json.find "labelled" (Telemetry.to_json (Telemetry.snapshot plain))
    = None)

(* The histogram's top edge: 2^30 still lands in the le=2^30 bucket,
   anything above it in the overflow slot (rendered with le=2^31 in
   JSON, accumulated into +Inf by pp_text). *)
let test_histogram_overflow_edge () =
  let t = Telemetry.create () in
  let h = Telemetry.histogram t "sizes" in
  Telemetry.Histogram.observe h (1 lsl 30);
  Telemetry.Histogram.observe h ((1 lsl 30) + 1);
  Telemetry.Histogram.observe h max_int;
  Alcotest.(check int) "count" 3 (Telemetry.Histogram.count h);
  Alcotest.(check int) "max" max_int (Telemetry.Histogram.max_value h);
  let buckets =
    Option.bind
      (Json.find "histograms" (Telemetry.to_json (Telemetry.snapshot t)))
      (Json.find "sizes")
    |> Fun.flip Option.bind (Json.find "buckets")
    |> Option.get
  in
  Alcotest.(check (option int))
    "2^30 in the last real bucket" (Some 1)
    (Json.find_int (string_of_int (1 lsl 30)) buckets);
  Alcotest.(check (option int))
    "everything above in the overflow bucket" (Some 2)
    (Json.find_int (string_of_int (1 lsl 31)) buckets);
  let text = Format.asprintf "%a" Telemetry.pp_text (Telemetry.snapshot t) in
  let contains needle hay =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "+Inf line is cumulative" true
    (contains "shex_sizes_bucket{le=\"+Inf\"} 3" text)

(* Prometheus exposition hygiene: metric names sanitize to
   [a-zA-Z0-9_:], label values escape backslash, quote and newline. *)
let test_exposition_sanitization () =
  let t = Telemetry.create () in
  Telemetry.Counter.incr
    (Telemetry.counter t ~help:"Weird \"name\"\nwith escapes"
       "weird metric-name!");
  let fam = Telemetry.counter_family t ~key:"shape key" "by shape" in
  Telemetry.Counter.add
    (Telemetry.labelled fam "quoted \"label\" with \\ and \nnewline")
    2;
  let text = Format.asprintf "%a" Telemetry.pp_text (Telemetry.snapshot t) in
  let contains needle hay =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "metric name sanitized" true
    (contains "shex_weird_metric_name_ 1" text);
  Alcotest.(check bool) "help escapes the newline" true
    (contains "# HELP shex_weird_metric_name_ Weird \"name\"\\nwith escapes"
       text);
  Alcotest.(check bool) "label key sanitized, value escaped" true
    (contains
       "shex_by_shape{shape_key=\"quoted \\\"label\\\" with \\\\ and \
        \\nnewline\"} 2"
       text);
  (* No raw newline may survive inside any exposition line. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         Alcotest.(check bool)
           (Printf.sprintf "line %S has no stray quote-escape breakage" line)
           false
           (String.length line > 0 && line.[String.length line - 1] = '\\'))

(* ------------------------------------------------------------------ *)
(* Exact engine counters                                               *)
(* ------------------------------------------------------------------ *)

let deriv_counters n =
  let tele = Telemetry.create () in
  let ok =
    Deriv.matches
      ~instr:(Deriv.instruments tele)
      Workload.Micro_gen.focus
      (Workload.Micro_gen.example5_neighbourhood n)
      (Workload.Micro_gen.example5_shape ())
  in
  Alcotest.(check bool) "valid neighbourhood" true ok;
  Telemetry.snapshot tele

(* The derivative engine consumes each of the n triples exactly once:
   deriv_steps is linear by construction. *)
let test_deriv_linear () =
  List.iter
    (fun n ->
      let snap = deriv_counters n in
      Alcotest.(check int)
        (Printf.sprintf "deriv_steps n=%d" n)
        n
        (get snap "deriv_steps"))
    [ 1; 3; 8; 16; 32 ]

let backtrack_counters g =
  let tele = Telemetry.create () in
  let verdict =
    Backtrack.matches
      ~instr:(Backtrack.instruments tele)
      Workload.Micro_gen.focus g
      (Workload.Micro_gen.example5_shape ())
  in
  (verdict, Telemetry.snapshot tele)

(* Example 3: a graph with 3 triples has 2^3 = 8 decompositions, and
   the Fig. 1 matcher materialises all of them at the top-level ⊓
   before trying branches.  On the failing neighbourhoods (no a-arc)
   nothing prunes, so the decomposition count doubles with each extra
   triple — the exponential the derivative engine avoids. *)
let test_backtrack_exponential () =
  let graphs =
    List.map
      (fun n -> (n, Workload.Micro_gen.example5_neighbourhood_invalid n))
      [ 2; 3; 4; 5; 6 ]
  in
  List.iter
    (fun (n, g) ->
      let verdict, snap = backtrack_counters g in
      Alcotest.(check bool)
        (Printf.sprintf "invalid n=%d rejected" n)
        false verdict;
      let decomps = get snap "backtrack_decompositions" in
      Alcotest.(check bool)
        (Printf.sprintf "decompositions n=%d >= 2^n (got %d)" n decomps)
        true
        (decomps >= 1 lsl n))
    graphs;
  (* Exact values pin the doubling law down deterministically. *)
  let exact =
    List.map
      (fun (n, g) -> (n, get (snd (backtrack_counters g)) "backtrack_decompositions"))
      graphs
  in
  Alcotest.(check (list (pair int int)))
    "exact decomposition counts"
    [ (2, 4); (3, 8); (4, 16); (5, 32); (6, 64) ]
    exact

(* The same neighbourhood, side by side: Example 3's 3-triple graph
   has 2^3 = 8 top-level decompositions, and the accepting run
   materialises 6 more while unrolling the star over the {b1, b2}
   part — 14 in total, versus 3 linear derivative steps. *)
let test_example3_contrast () =
  let g = Workload.Micro_gen.example5_neighbourhood 3 in
  let verdict, snap = backtrack_counters g in
  Alcotest.(check bool) "backtracking accepts" true verdict;
  Alcotest.(check int) "2^3 top-level + 6 recursive decompositions" 14
    (get snap "backtrack_decompositions");
  let dsnap = deriv_counters 3 in
  Alcotest.(check int) "3 derivative steps" 3 (get dsnap "deriv_steps");
  Alcotest.(check int) "no derivative work in backtracking run" 0
    (match Telemetry.find_counter snap "deriv_steps" with
    | Some v -> v
    | None -> 0)

(* ------------------------------------------------------------------ *)
(* Profile attribution                                                 *)
(* ------------------------------------------------------------------ *)

(* <Top> negates a reference to <Base>, a lower stratum, so evaluating
   a Top pair settles Base pairs inline: their work happens inside the
   Top evaluation's window and must be charged to Base alone.  <Alt>
   is outside the SORBE fragment, so Auto runs the counting matcher and
   the DFA side by side. *)
let strat_schema =
  Shexc.Shexc_parser.parse_schema_exn
    {|PREFIX ex: <http://example.org/>
      <Base> { ex:name . , ex:age . ? }
      <Alt> { ex:email . | ex:phone . }
      <Top> { ex:knows @<Top>* , ex:contact @<Alt> ? , !(ex:bad @<Base>) }|}

let strat_graph =
  match
    Turtle.Parse.parse_graph
      {|@prefix ex: <http://example.org/> .
        ex:a ex:knows ex:b ; ex:contact ex:c ; ex:bad ex:d .
        ex:b ex:knows ex:a ; ex:bad ex:e .
        ex:c ex:email "c@x" .
        ex:d ex:name "D" ; ex:age 4 .
        ex:e ex:name "E" ; ex:age 5 ; ex:age 6 .
        ex:f ex:knows ex:a ; ex:contact ex:g .
        ex:g ex:email "g@x" ; ex:phone "1" .
        ex:h ex:bad ex:d ; ex:bad ex:e .|}
  with
  | Ok g -> g
  | Error msg -> failwith msg

(* Every attributed family sums to the global counter it attributes,
   on every engine: self-costs are charged exactly once even when a
   nested solve runs inside an outer evaluation. *)
let test_profile_attribution () =
  let families =
    [ (Profile.deriv_family, [ "deriv_steps" ]);
      (Profile.backtrack_family, [ "backtrack_branches" ]);
      (Profile.sorbe_family, [ "sorbe_counter_updates" ]);
      (Profile.compiled_family, [ "compiled_hits"; "compiled_misses" ]);
      (Profile.checks_family, [ "fixpoint_iterations" ]);
      (Profile.flips_family, [ "fixpoint_flips" ]) ]
  in
  List.iter
    (fun (engine, name, worked) ->
      let st =
        Validate.session ~engine ~telemetry:(Telemetry.create ())
          ~profile:true strat_schema strat_graph
      in
      ignore (Validate.validate_graph st);
      let snap = Validate.metrics st in
      let global names =
        List.fold_left
          (fun acc n ->
            acc + Option.value ~default:0 (Telemetry.find_counter snap n))
          0 names
      in
      List.iter
        (fun (family, names) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s sums to %s" name family
               (String.concat " + " names))
            (global names)
            (List.fold_left
               (fun acc (_, v) -> acc + v)
               0
               (Telemetry.labelled_counter_values snap family)))
        families;
      List.iter
        (fun names ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s moved" name (String.concat " + " names))
            true
            (global names > 0))
        worked)
    [ (Validate.Derivatives, "derivatives", [ [ "deriv_steps" ] ]);
      (Validate.Backtracking, "backtracking", [ [ "backtrack_branches" ] ]);
      ( Validate.Auto,
        "auto",
        [ [ "sorbe_counter_updates" ]; [ "compiled_hits"; "compiled_misses" ] ]
      );
      ( Validate.Compiled,
        "compiled",
        [ [ "compiled_hits"; "compiled_misses" ] ] ) ]

(* ------------------------------------------------------------------ *)
(* Telemetry is observation-only                                       *)
(* ------------------------------------------------------------------ *)

let prop_observation_only =
  QCheck.Test.make ~count:300
    ~name:"enabling telemetry never changes a verdict"
    Test_props.arb_rse_graph
    (fun (e, g) ->
      QCheck.assume (Test_props.small_enough g);
      let node = Rdf.Term.Iri (Rdf.Iri.of_string_exn "http://example.org/n") in
      let tele = Telemetry.create () in
      Telemetry.set_sink tele (Some ignore);
      let instrumented_deriv =
        Deriv.matches ~instr:(Deriv.instruments tele) node g e
      in
      let instrumented_back =
        Backtrack.matches ~instr:(Backtrack.instruments tele) node g e
      in
      Bool.equal instrumented_deriv (Deriv.matches node g e)
      && Bool.equal instrumented_back (Backtrack.matches node g e))

(* ------------------------------------------------------------------ *)
(* Snapshots read back from JSON                                       *)
(* ------------------------------------------------------------------ *)

(* One registry write: plain instruments under two names per kind, and
   one labelled family per kind under a few labels (one needs
   escaping in the exposition, not here). *)
type write =
  | Count of string * int
  | Gauge of string * int
  | Observe of string * int
  | Time of string * int  (* milliseconds *)
  | Count_by of string * int
  | Observe_by of string * int
  | Time_by of string * int

let gen_write =
  let open QCheck.Gen in
  let name = oneofl [ "one"; "two" ] in
  let label = oneofl [ "Person"; "<http://example.org/n>"; "q\"uote" ] in
  let amount = int_bound 5000 in
  oneof
    [ map2 (fun n v -> Count (n, v)) name amount;
      map2 (fun n v -> Gauge (n, v)) name amount;
      map2 (fun n v -> Observe (n, v)) name amount;
      map2 (fun n v -> Time (n, v)) name amount;
      map2 (fun l v -> Count_by (l, v)) label amount;
      map2 (fun l v -> Observe_by (l, v)) label amount;
      map2 (fun l v -> Time_by (l, v)) label amount ]

let registry_of writes =
  let t = Telemetry.create () in
  let seconds ms = float_of_int ms /. 1000. in
  List.iter
    (function
      | Count (n, v) -> Telemetry.Counter.add (Telemetry.counter t ("c_" ^ n)) v
      | Gauge (n, v) -> Telemetry.Counter.set (Telemetry.gauge t ("g_" ^ n)) v
      | Observe (n, v) ->
          Telemetry.Histogram.observe (Telemetry.histogram t ("h_" ^ n)) v
      | Time (n, v) ->
          Telemetry.Span.record (Telemetry.span t ("s_" ^ n)) (seconds v)
      | Count_by (l, v) ->
          Telemetry.Counter.add
            (Telemetry.labelled
               (Telemetry.counter_family t ~key:"shape" "c_by_shape") l)
            v
      | Observe_by (l, v) ->
          Telemetry.Histogram.observe
            (Telemetry.labelled
               (Telemetry.histogram_family t ~key:"shape" "h_by_shape") l)
            v
      | Time_by (l, v) ->
          Telemetry.Span.record
            (Telemetry.labelled
               (Telemetry.span_family t ~key:"node" "s_by_node") l)
            (seconds v))
    writes;
  t

let prop_snapshot_json_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"snapshot_of_json inverts to_json"
    (QCheck.make
       ~print:(fun ws ->
         Json.to_string
           (Telemetry.to_json (Telemetry.snapshot (registry_of ws))))
       QCheck.Gen.(list_size (int_bound 40) gen_write))
    (fun writes ->
      let json = Telemetry.to_json (Telemetry.snapshot (registry_of writes)) in
      Telemetry.to_json (Telemetry.snapshot_of_json json) = json)

let suites =
  [ ( "telemetry.registry",
      [ Alcotest.test_case "counters and gauges" `Quick test_counters;
        Alcotest.test_case "disabled registry is inert" `Quick test_disabled;
        Alcotest.test_case "histogram log2 buckets" `Quick test_histogram;
        Alcotest.test_case "spans and event sink" `Quick test_span_and_events;
        Alcotest.test_case "merge-then-reset round-trips" `Quick
          test_merge_reset_roundtrip;
        Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
        Alcotest.test_case "labelled families" `Quick test_labelled_basics;
        Alcotest.test_case "labelled merge and reset interleavings" `Quick
          test_labelled_merge_reset;
        Alcotest.test_case "labelled diff" `Quick test_labelled_diff;
        Alcotest.test_case "histogram overflow edge at 2^30" `Quick
          test_histogram_overflow_edge;
        Alcotest.test_case "exposition sanitization and escaping" `Quick
          test_exposition_sanitization
      ] );
    ( "telemetry.engines",
      [ Alcotest.test_case "derivative steps are linear" `Quick
          test_deriv_linear;
        Alcotest.test_case "backtracking decompositions are 2^n" `Quick
          test_backtrack_exponential;
        Alcotest.test_case "Example 3 contrast" `Quick test_example3_contrast;
        Alcotest.test_case "profile families sum to the global counters"
          `Quick test_profile_attribution
      ] );
    ( "telemetry.properties",
      [ QCheck_alcotest.to_alcotest prop_observation_only;
        QCheck_alcotest.to_alcotest prop_snapshot_json_roundtrip ] ) ]
