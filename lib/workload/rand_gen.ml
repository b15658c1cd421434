type mode = Surface | Extended

type case = {
  seed : int;
  mode : mode;
  schema : Shex.Schema.t;
  graph : Rdf.Graph.t;
  associations : (Rdf.Term.t * Shex.Label.t) list;
}

let ex local = Rdf.Iri.of_string_exn ("http://example.org/" ^ local)
let other local = Rdf.Iri.of_string_exn ("http://other.org/" ^ local)

(* Two predicate namespaces: every pI shares the http://example.org/p
   prefix (so an Extended-mode Pred_stem overlaps them — the SORBE
   applicability edge), while the qI live elsewhere (so stems can also
   be genuinely disjoint). *)
let pred_pool =
  [ ex "p0"; ex "p1"; ex "p2"; ex "p3"; ex "p4"; other "q0"; other "q1" ]

let node_iris =
  [ ex "n0"; ex "n1"; ex "n2"; ex "n3"; ex "n4" ]

let node_terms = List.map (fun i -> Rdf.Term.Iri i) node_iris

(* All literals well formed: SPARQL's datatype() translation does not
   re-check lexical forms (a documented divergence, see lib/sparql), so
   ill-formed typed literals are kept out of the pool entirely.  The
   padded "01"^^xsd:integer is deliberate: it is term-distinct from
   "1"^^xsd:integer but value-equal, the literal-comparison edge the
   oracle cross-checks against SPARQL. *)
let literal_pool =
  [ Rdf.Term.str "alice";
    Rdf.Term.str "bob";
    Rdf.Term.Literal (Rdf.Literal.make ~lang:"en" "hi");
    Rdf.Term.int 1;
    Rdf.Term.Literal (Rdf.Literal.typed Rdf.Xsd.Integer "01");
    Rdf.Term.int 42;
    Rdf.Term.Literal (Rdf.Literal.typed Rdf.Xsd.Decimal "1.5");
    Rdf.Term.Literal (Rdf.Literal.boolean true) ]

let object_pool = node_terms @ literal_pool

let value_set_pool = literal_pool @ node_terms

let datatype_pool = Rdf.Xsd.[ Integer; String; Boolean ]

let kind_pool =
  Shex.Value_set.[ Iri_kind; Bnode_kind; Literal_kind; Non_literal_kind ]

let labels_for n =
  List.init n (fun i ->
      Shex.Label.of_string (Printf.sprintf "http://example.org/S%d" i))

(* ------------------------------------------------------------------ *)
(* Object and predicate specs                                          *)
(* ------------------------------------------------------------------ *)

let distinct_picks rng k pool =
  let shuffled = Prng.shuffle rng pool in
  List.filteri (fun i _ -> i < k) shuffled

let gen_obj_in rng mode =
  let pool =
    (* Blank nodes have no ShExC value-set notation. *)
    match mode with
    | Surface -> value_set_pool
    | Extended -> Rdf.Term.bnode "b0" :: value_set_pool
  in
  Shex.Value_set.Obj_in (distinct_picks rng (1 + Prng.int rng 3) pool)

let gen_obj rng mode =
  let surface () =
    match Prng.int rng 12 with
    | 0 | 1 -> Shex.Value_set.Obj_any
    | 2 | 3 | 4 -> gen_obj_in rng mode
    | 5 | 6 | 7 -> Shex.Value_set.Obj_datatype (Prng.pick rng datatype_pool)
    | 8 | 9 -> Shex.Value_set.Obj_kind (Prng.pick rng kind_pool)
    | 10 -> Shex.Value_set.Obj_stem "http://example.org/n"
    | _ ->
        (* The parser only builds Obj_or as terms-then-stems, so the
           generator mirrors that shape for the round-trip property. *)
        Shex.Value_set.Obj_or
          [ gen_obj_in rng Surface; Shex.Value_set.Obj_stem "http://example.org/" ]
  in
  match mode with
  | Surface -> surface ()
  | Extended ->
      if Prng.bool rng 0.15 then Shex.Value_set.Obj_not (surface ())
      else surface ()

let gen_pred rng mode =
  match mode with
  | Surface -> Shex.Value_set.Pred (Prng.pick rng pred_pool)
  | Extended -> (
      match Prng.int rng 10 with
      | 0 ->
          (* Overlaps every example.org/pI singleton predicate. *)
          Shex.Value_set.Pred_stem "http://example.org/p"
      | 1 -> Shex.Value_set.Pred_stem "http://other.org/"
      | 2 -> Shex.Value_set.Pred_in (distinct_picks rng 2 pred_pool)
      | 3 -> Shex.Value_set.Pred_any
      | _ -> Shex.Value_set.Pred (Prng.pick rng pred_pool))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

type arc_key = Shex.Value_set.pred * Shex.Rse.obj_spec * bool

(* Within one shape expression every generated arc is a distinct
   (pred, obj, inverse) triple, so shapes stay single-occurrence often
   enough for the SORBE arm to see them ([Sorbe.of_rse] refuses an arc
   that occurs twice).  Overlap still happens through
   same-predicate/different-object arcs and (Extended) predicate
   stems. *)
let gen_arc rng mode ~labels ~used =
  let rec fresh tries =
    let pred = gen_pred rng mode in
    let inverse = Prng.bool rng 0.15 in
    let obj =
      if labels <> [] && Prng.bool rng 0.25 then
        Shex.Rse.Ref (Prng.pick rng labels)
      else Shex.Rse.Values (gen_obj rng mode)
    in
    let key : arc_key = (pred, obj, inverse) in
    if Hashtbl.mem used key && tries < 8 then fresh (tries + 1)
    else begin
      Hashtbl.replace used key ();
      Shex.Rse.arc ~inverse pred obj
    end
  in
  fresh 0

let gen_cardinality rng e =
  match Prng.int rng 10 with
  | 0 -> Shex.Rse.star e
  | 1 -> Shex.Rse.plus e
  | 2 -> Shex.Rse.opt e
  | 3 ->
      let m = Prng.int rng 3 in
      Shex.Rse.repeat m (Some (m + Prng.int rng 3)) e
  | 4 -> Shex.Rse.repeat (Prng.int rng 3) None e
  | _ -> e

(* Depth-bounded expression trees over the smart constructors — the
   parser builds through the same constructors, so generated schemas
   are already in ACI normal form and structural equality is the right
   round-trip check. *)
let rec gen_expr rng mode ~labels ~used depth =
  let atom () = gen_cardinality rng (gen_arc rng mode ~labels ~used) in
  if depth <= 0 then atom ()
  else
    match Prng.int rng 10 with
    | 0 | 1 | 2 | 3 -> atom ()
    | 4 | 5 | 6 ->
        let n = 2 + Prng.int rng 2 in
        let parts =
          List.init n (fun _ -> gen_expr rng mode ~labels ~used (depth - 1))
        in
        gen_cardinality rng (Shex.Rse.and_all parts)
    | 7 | 8 ->
        Shex.Rse.or_
          (gen_expr rng mode ~labels ~used (depth - 1))
          (gen_expr rng mode ~labels ~used (depth - 1))
    | _ ->
        (* Negation over a reference-free arc: refs under ¬ need the
           stratification machinery the generator keeps trivial. *)
        Shex.Rse.not_ (gen_arc rng mode ~labels:[] ~used)

let gen_focus rng =
  if not (Prng.bool rng 0.15) then None
  else
    match Prng.int rng 3 with
    | 0 -> Some (Shex.Value_set.Obj_kind Shex.Value_set.Iri_kind)
    | 1 -> Some (Shex.Value_set.Obj_stem "http://example.org/n")
    | _ ->
        Some
          (Shex.Value_set.Obj_in
             (distinct_picks rng (1 + Prng.int rng 2) node_terms))

let schema ?(mode = Surface) rng =
  let labels = labels_for (1 + Prng.int rng 3) in
  let rules =
    List.map
      (fun l ->
        let used : (arc_key, unit) Hashtbl.t = Hashtbl.create 8 in
        let expr = gen_expr rng mode ~labels ~used (1 + Prng.int rng 2) in
        let expr =
          match Prng.int rng 10 with
          | 0 -> Shex.Rse.open_up expr
          | 1 ->
              Shex.Rse.with_extra
                (Shex.Value_set.Pred_in (distinct_picks rng 2 pred_pool))
                expr
          | _ -> expr
        in
        (l, { Shex.Schema.focus = gen_focus rng; expr }))
      labels
  in
  match Shex.Schema.make_shapes rules with
  | Ok s -> s
  | Error msg ->
      (* Unreachable by construction: labels are distinct, references
         point into [labels], and no reference sits under ¬. *)
      invalid_arg ("Rand_gen.schema: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Graphs                                                              *)
(* ------------------------------------------------------------------ *)

let max_degree = 5

(* A concrete predicate IRI inside [vp] (arbitrary member when the set
   is infinite). *)
let instantiate_pred rng vp =
  match Shex.Value_set.pred_members vp with
  | Some (_ :: _ as is) -> Prng.pick rng is
  | _ -> Prng.pick rng pred_pool

(* A term satisfying [vo] when one exists in (or near) the pool;
   objects are drawn from here with high probability so shapes neither
   always match nor always fail. *)
let rec matching_object rng vo =
  match List.filter (fun o -> Shex.Value_set.obj_mem vo o) object_pool with
  | _ :: _ as hits -> Prng.pick rng hits
  | [] -> (
      match vo with
      | Shex.Value_set.Obj_in (t :: _) -> t
      | Shex.Value_set.Obj_or (v :: _) -> matching_object rng v
      | _ -> Prng.pick rng object_pool)

let graph_for rng schema =
  let graph = ref Rdf.Graph.empty in
  let degree : (Rdf.Term.t, int) Hashtbl.t = Hashtbl.create 16 in
  let deg t = Option.value ~default:0 (Hashtbl.find_opt degree t) in
  let bump t = Hashtbl.replace degree t (deg t + 1) in
  let emit s p o =
    (* Degree cap on every incident node: the backtracking baseline
       enumerates 2ⁿ neighbourhood decompositions. *)
    if deg s < max_degree && deg o < max_degree then
      match Rdf.Triple.make_opt s p o with
      | Some triple when not (Rdf.Graph.mem triple !graph) ->
          graph := Rdf.Graph.add triple !graph;
          bump s;
          bump o
      | Some _ | None -> ()
  in
  let arcs =
    List.concat_map
      (fun (_, (s : Shex.Schema.shape)) -> Shex.Rse.arcs s.expr)
      (Shex.Schema.shapes schema)
  in
  let node () = Prng.pick rng node_terms in
  let instantiate (a : Shex.Rse.arc) =
    let p = instantiate_pred rng a.pred in
    let focus = node () in
    let obj =
      if Prng.bool rng 0.1 then Rdf.Term.bnode "b0"
      else
        match a.obj with
        | Shex.Rse.Ref _ -> node ()
        | Shex.Rse.Values vo ->
            if Prng.bool rng 0.7 then matching_object rng vo
            else Prng.pick rng object_pool
    in
    (* An inverse constraint on [focus] is witnessed by an incoming
       triple, so the generated object becomes the subject. *)
    if a.inverse then emit obj p focus else emit focus p obj
  in
  List.iter
    (fun a ->
      let copies = Prng.int rng 4 in
      for _ = 1 to copies do
        instantiate a
      done)
    arcs;
  let noise = Prng.int rng 5 in
  for _ = 1 to noise do
    emit (node ()) (Prng.pick rng pred_pool) (Prng.pick rng object_pool)
  done;
  (!graph, node_terms)

(* ------------------------------------------------------------------ *)
(* Edit scripts                                                        *)
(* ------------------------------------------------------------------ *)

type edit = Insert of Rdf.Triple.t | Delete of Rdf.Triple.t

(* Inserts are biased toward instantiating the schema's own arc
   constraints (like [graph_for]) so edits actually flip verdicts
   instead of only adding ignorable noise; the same degree cap keeps
   the backtracking baseline feasible after any prefix of the
   script. *)
let edit_script rng schema graph n =
  let arcs =
    List.concat_map
      (fun (_, (s : Shex.Schema.shape)) -> Shex.Rse.arcs s.expr)
      (Shex.Schema.shapes schema)
  in
  let node () = Prng.pick rng node_terms in
  let degree t g = List.length (Rdf.Graph.out_triples t g) in
  let gen_insert g =
    let candidate () =
      if arcs <> [] && Prng.bool rng 0.7 then begin
        let (a : Shex.Rse.arc) = Prng.pick rng arcs in
        let p = instantiate_pred rng a.pred in
        let focus = node () in
        let obj =
          match a.obj with
          | Shex.Rse.Ref _ -> node ()
          | Shex.Rse.Values vo ->
              if Prng.bool rng 0.7 then matching_object rng vo
              else Prng.pick rng object_pool
        in
        if a.inverse then Rdf.Triple.make_opt obj p focus
        else Rdf.Triple.make_opt focus p obj
      end
      else
        Rdf.Triple.make_opt (node ()) (Prng.pick rng pred_pool)
          (Prng.pick rng object_pool)
    in
    let rec fresh tries =
      match candidate () with
      | Some tr
        when (not (Rdf.Graph.mem tr g))
             && degree (Rdf.Triple.subject tr) g < max_degree
             && degree (Rdf.Triple.obj tr) g < max_degree ->
          Some tr
      | _ -> if tries < 8 then fresh (tries + 1) else None
    in
    fresh 0
  in
  let rec build g k acc =
    if k = 0 then List.rev acc
    else
      let existing = Rdf.Graph.to_list g in
      let delete () =
        let tr = Prng.pick rng existing in
        build (Rdf.Graph.remove tr g) (k - 1) (Delete tr :: acc)
      in
      if existing <> [] && Prng.bool rng 0.45 then delete ()
      else
        match gen_insert g with
        | Some tr -> build (Rdf.Graph.add tr g) (k - 1) (Insert tr :: acc)
        | None -> if existing = [] then List.rev acc else delete ()
  in
  build graph n []

let case ?(mode = Surface) seed =
  let rng = Prng.create seed in
  let schema = schema ~mode rng in
  let graph, foci = graph_for rng schema in
  let associations =
    List.concat_map
      (fun node ->
        List.map (fun l -> (node, l)) (Shex.Schema.labels schema))
      foci
  in
  { seed; mode; schema; graph; associations }
