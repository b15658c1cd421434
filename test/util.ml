(* Shared helpers for the test suites: compact constructors for the
   paper's example graphs and expressions. *)

let iri = Rdf.Term.iri
let i s = Rdf.Iri.of_string_exn s

(* The paper's abstract examples use bare names (n, a, b) and numbers
   (1, 2); we map names into the ex: namespace and numbers to
   xsd:integer literals. *)
let ex name = Rdf.Iri.of_string_exn ("http://example.org/" ^ name)
let node name = Rdf.Term.Iri (ex name)
let num k = Rdf.Term.int k
let triple s p o = Rdf.Triple.make s p o
let t3 s p o = triple (node s) (ex p) o

let graph_of triples = Rdf.Graph.of_list triples

let foaf l = Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)

(* A foaf:knows ring prefix0 → prefix1 → … → prefix(k-1) → prefix0 of
   persons with an integer age, and a name unless their index is in
   [nameless].  Node names are not zero-padded, so term order ("p10" <
   "p2") differs from ring order. *)
let knows_ring ?(nameless = []) prefix k =
  let who i = node (prefix ^ string_of_int (i mod k)) in
  List.concat_map
    (fun i ->
      triple (who i) (foaf "age") (num (20 + (i mod 50)))
      :: triple (who i) (foaf "knows") (who (i + 1))
      ::
      (if List.mem i nameless then []
       else
         [ triple (who i) (foaf "name")
             (Rdf.Term.str (prefix ^ string_of_int i)) ]))
    (List.init k Fun.id)

(* A 1 000-person knows ring with a chord (p19 → p150) and p700
   nameless: under the recursive Person shape p700 fails, and the
   refutation walks back round the whole ring.  p150 is consulted by
   p149 and p19, which the solver meets in the order p19, p149 but
   which sort the other way, so the order dependents are requeued and
   walked in shows.  Five persons the ring knows (o0–o4) hang off it
   and conform. *)
let chorded_ring =
  lazy
    (graph_of
       (knows_ring ~nameless:[ 700 ] "p" 1000
       @ triple (node "p19") (foaf "knows") (node "p150")
         :: List.concat_map
              (fun j ->
                let o = node ("o" ^ string_of_int j) in
                [ triple (node ("p" ^ string_of_int (200 * j))) (foaf "knows") o;
                  triple o (foaf "age") (num j);
                  triple o (foaf "name") (Rdf.Term.str ("o" ^ string_of_int j)) ])
              (List.init 5 Fun.id)))

(* [contains s sub]: does [sub] occur in [s]? *)
let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* The paper's reading of e{m,n} (§4) as sugar for copies of e: m
   copies, then n−m optionals or, unbounded, e*.  The library keeps
   e{m,n} as one node; this is the reference it must agree with. *)
let rec expand_repeat (e : Shex.Rse.t) =
  let module R = Shex.Rse in
  match e with
  | R.Empty | R.Epsilon | R.Arc _ -> e
  | R.Star e -> R.star (expand_repeat e)
  | R.Not e -> R.not_ (expand_repeat e)
  | R.And (e1, e2) -> R.and_ (expand_repeat e1) (expand_repeat e2)
  | R.Or (e1, e2) -> R.or_ (expand_repeat e1) (expand_repeat e2)
  | R.Repeat (e, m, n) ->
      let e = expand_repeat e in
      let copies k x = List.init k (fun _ -> x) in
      R.and_all
        (copies m e
        @
        match n with
        | None -> [ R.star e ]
        | Some n -> copies (n - m) (R.opt e))

(* Arc vp → vo with singleton predicate and finite values. *)
let arc_num p values =
  Shex.Rse.arc_v (Shex.Value_set.Pred (ex p))
    (Shex.Value_set.obj_terms (List.map num values))

(* Example 5: a→1 ‖ (b→{1,2})* *)
let example5 =
  Shex.Rse.and_ (arc_num "a" [ 1 ]) (Shex.Rse.star (arc_num "b" [ 1; 2 ]))

(* Example 10: (a→{1,2} ‖ b→{1,2})*.  The paper's PDF prints "|", but
   the stated meaning (same number of a-arcs and b-arcs) and the stated
   derivative (b→{1,2} ‖ e) only hold for ‖. *)
let example10 =
  Shex.Rse.star (Shex.Rse.and_ (arc_num "a" [ 1; 2 ]) (arc_num "b" [ 1; 2 ]))

(* Σgn of Example 8: {⟨n,a,1⟩, ⟨n,b,1⟩, ⟨n,b,2⟩} *)
let example8_graph =
  graph_of [ t3 "n" "a" (num 1); t3 "n" "b" (num 1); t3 "n" "b" (num 2) ]

(* Example 12's graph: {⟨n,a,1⟩, ⟨n,a,2⟩, ⟨n,b,1⟩} *)
let example12_graph =
  graph_of [ t3 "n" "a" (num 1); t3 "n" "a" (num 2); t3 "n" "b" (num 1) ]

(* Σgn of [n] in [g] as [Validate] reads it for every engine: incoming
   triples included exactly when [e] has an inverse arc. *)
let neigh n g e =
  Shex.Neigh.of_node ~include_inverse:(Shex.Rse.has_inverse e) n g

(* Each engine's matcher over [n]'s neighbourhood in [g]. *)
let deriv_matches ?check_ref ?instr n g e =
  Shex.Deriv.matches_dts ?check_ref ?instr n (neigh n g e) e

let deriv_trace ?(check_ref = Shex.Deriv.no_refs) n g e =
  Shex.Deriv.matches_trace_dts
    ~check:(Shex.Neigh.by_term check_ref)
    n (neigh n g e) e

let backtrack_matches ?check_ref ?instr n g e =
  Shex.Backtrack.matches_dts ?check_ref ?instr n (neigh n g e) e

(* A SORBE shape has an inverse arc iff one of its constraints does. *)
let sorbe_matches ?check_ref ?instr n g s =
  let include_inverse =
    List.exists (fun (c : Shex.Sorbe.constr) -> c.arc.Shex.Rse.inverse) s
  in
  Shex.Sorbe.matches_dts ?check_ref ?instr n
    (Shex.Neigh.of_node ~include_inverse n g)
    s

(* [auto] compiled from [e]. *)
let dfa_matches ?check_ref auto n g e =
  Shex.Dfa.matches_dts ?check_ref auto n (neigh n g e)

(* Every reader of a frozen columnar store agrees with the structural
   graph over the same triples: cardinal, nodes and per-node slices.
   The id readers agree on every id — predicate-only IRIs and literals
   included — with the term readers and the graph, every directed
   triple read by id carries the store id of its far term (and one
   read from the graph none), the node ids are exactly the ids with a
   non-empty slice, and an id outside the store reads nothing. *)
let columnar_agrees c g =
  let same = List.equal Rdf.Triple.equal in
  let out n = Rdf.Graph.out_triples n g
  and inc n = Rdf.Graph.in_triples n g in
  let cons tr _ trs = tr :: trs in
  let out_id id = Rdf.Columnar.fold_out cons c id []
  and in_id id = Rdf.Columnar.fold_in cons c id [] in
  let terms = Rdf.Columnar.terms_cardinal c in
  let ids = List.init terms Fun.id in
  let far_id_names_far_term dt =
    let id = Shex.Neigh.far_id dt in
    id >= 0 && id < terms
    && Rdf.Term.equal (Rdf.Columnar.term c id) (Shex.Neigh.far dt)
  in
  Rdf.Columnar.cardinal c = Rdf.Graph.cardinal g
  && List.equal Rdf.Term.equal (Rdf.Columnar.nodes c) (Rdf.Graph.nodes g)
  && List.for_all
       (fun n ->
         same (Rdf.Columnar.out_triples c n) (out n)
         && same (Rdf.Columnar.in_triples c n) (inc n))
       (Rdf.Graph.nodes g)
  && List.for_all
       (fun id ->
         let n = Rdf.Columnar.term c id in
         let by_id = Shex.Neigh.of_id ~include_inverse:true id c
         and by_term = Shex.Neigh.of_node ~include_inverse:true n g in
         same (out_id id) (Rdf.Columnar.out_triples c n)
         && same (out_id id) (out n)
         && same (in_id id) (Rdf.Columnar.in_triples c n)
         && same (in_id id) (inc n)
         && List.equal Shex.Neigh.equal by_id by_term
         && List.for_all far_id_names_far_term by_id
         && List.for_all (fun dt -> Shex.Neigh.far_id dt = -1) by_term)
       ids
  && List.equal Int.equal (Rdf.Columnar.node_ids c)
       (List.filter (fun id -> out_id id <> [] || in_id id <> []) ids)
  && List.for_all
       (fun id -> out_id id = [] && in_id id = [])
       [ -1; terms ]

(* [f path] on a temporary file holding [text], removed afterwards. *)
let with_temp_file text f =
  let path = Filename.temp_file "shex_test" ".tmp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

(* [text] read as N-Triples the way the bulk loader reads a file,
   through [Ntriples.fold_file]. *)
let read_ntriples text =
  with_temp_file text (fun path ->
      Turtle.Ntriples.fold_file path
        (fun g tr -> Rdf.Graph.add tr g)
        Rdf.Graph.empty)

(* Whether a snapshot holds no instrument: it renders as four empty
   objects. *)
let empty_snapshot s =
  Json.to_string ~minify:true (Telemetry.to_json s)
  = {|{"counters":{},"gauges":{},"histograms":{},"spans":{}}|}

(* Whether [l] reaches itself through the shape references of [s]. *)
let is_recursive s l =
  Shex.Label.Set.exists
    (fun direct -> Shex.Label.Set.mem l (Shex.Schema.dependencies s direct))
    (Shex.Rse.refs (Shex.Schema.find_exn s l))

let rse = Alcotest.testable Shex.Rse.pp Shex.Rse.equal
let term = Alcotest.testable Rdf.Term.pp Rdf.Term.equal
let graph = Alcotest.testable Rdf.Graph.pp Rdf.Graph.equal
let typing = Alcotest.testable Shex.Typing.pp Shex.Typing.equal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
