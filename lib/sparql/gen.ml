let ( let* ) = Result.bind

(* Value-set test on a bound object variable. *)
let rec value_expr (vo : Shex.Value_set.obj) (o : Ast.var) :
    (Ast.expr, string) result =
  let var = Ast.E_var o in
  match vo with
  | Shex.Value_set.Obj_any -> Ok (Ast.E_bool true)
  | Shex.Value_set.Obj_in terms ->
      Ok
        (List.fold_left
           (fun acc t ->
             Ast.E_or (acc, Ast.E_cmp (Ast.Eq, var, Ast.E_const t)))
           (Ast.E_bool false) terms)
  | Shex.Value_set.Obj_datatype prim ->
      Ok
        (Ast.E_and
           ( Ast.E_is_literal var,
             Ast.E_cmp
               ( Ast.Eq,
                 Ast.E_datatype var,
                 Ast.E_const (Rdf.Term.Iri (Rdf.Xsd.iri prim)) ) ))
  | Shex.Value_set.Obj_datatype_iri iri ->
      Ok
        (Ast.E_and
           ( Ast.E_is_literal var,
             Ast.E_cmp
               (Ast.Eq, Ast.E_datatype var, Ast.E_const (Rdf.Term.Iri iri))
           ))
  | Shex.Value_set.Obj_kind k ->
      Ok
        (match k with
        | Shex.Value_set.Iri_kind -> Ast.E_is_iri var
        | Shex.Value_set.Bnode_kind -> Ast.E_is_blank var
        | Shex.Value_set.Literal_kind -> Ast.E_is_literal var
        | Shex.Value_set.Non_literal_kind ->
            Ast.E_or (Ast.E_is_iri var, Ast.E_is_blank var))
  | Shex.Value_set.Obj_stem stem ->
      Ok (Ast.E_and (Ast.E_is_iri var, Ast.E_regex (var, stem)))
  | Shex.Value_set.Obj_or parts ->
      List.fold_left
        (fun acc part ->
          let* acc = acc in
          let* e = value_expr part o in
          Ok (Ast.E_or (acc, e)))
        (Ok (Ast.E_bool false))
        parts
  | Shex.Value_set.Obj_not inner ->
      let* e = value_expr inner o in
      Ok (Ast.E_not e)

type analysed = {
  a_pred : Rdf.Iri.t;
  a_min : int;
  a_max : int option;
  a_value : Shex.Value_set.obj;
}

let analyse shape =
  match Shex.Sorbe.of_rse shape with
  | None ->
      Error
        "shape is outside the SPARQL-translatable fragment (not a \
         single-occurrence concatenation of arc constraints)"
  | Some constrs ->
      List.fold_left
        (fun acc (c : Shex.Sorbe.constr) ->
          let* acc = acc in
          if c.arc.inverse then Error "inverse arcs are not translatable"
          else
            let* pred =
              match c.arc.pred with
              | Shex.Value_set.Pred iri -> Ok iri
              | _ -> Error "only singleton predicate sets are translatable"
            in
            let* value =
              match c.arc.obj with
              | Shex.Rse.Values vo -> Ok vo
              | Shex.Rse.Ref _ ->
                  Error
                    "shape references (recursion) cannot be expressed in \
                     SPARQL (\xc2\xa73)"
            in
            Ok
              ({ a_pred = pred;
                 a_min = c.card.Shex.Sorbe.min;
                 a_max = c.card.Shex.Sorbe.max;
                 a_value = value }
              :: acc))
        (Ok []) constrs
      |> Result.map List.rev

(* Build the query's pattern around the focus variable [?X]. *)
let build constrs =
  let focus = Ast.v "X" and x_vars = [ "X" ] in
  let fresh =
    let counter = ref 0 in
    fun base ->
      incr counter;
      Printf.sprintf "%s%d" base !counter
  in
  (* Anchor: the focus node appears as a subject. *)
  let anchor =
    Ast.Sub_select
      (Ast.select ~distinct:true x_vars
         (Ast.bgp
            [ Ast.triple focus (Ast.v (fresh "ap")) (Ast.v (fresh "ao")) ]))
  in
  (* Per-constraint cardinality patterns. *)
  let* cardinality_patterns =
    List.fold_left
      (fun acc a ->
        let* acc = acc in
        let o = fresh "o" in
        let c = fresh "c" in
        let count_bgp =
          Ast.bgp [ Ast.triple focus (Ast.c (Rdf.Term.Iri a.a_pred)) (Ast.v o) ]
        in
        let count_select having =
          Ast.Sub_select
            (Ast.select ~group_by:x_vars ~aggs:[ (Ast.Count_star, c) ]
               ~having x_vars count_bgp)
        in
        let ge m = Ast.E_cmp (Ast.Ge, Ast.E_var c, Ast.E_int m) in
        let le n = Ast.E_cmp (Ast.Le, Ast.E_var c, Ast.E_int n) in
        let absent =
          Ast.Filter
            ( Ast.E_not_exists
                (Ast.bgp
                   [ Ast.triple focus
                       (Ast.c (Rdf.Term.Iri a.a_pred))
                       (Ast.v (fresh "o")) ]),
              Ast.bgp [] )
        in
        match (a.a_min, a.a_max) with
        | 0, None -> Ok acc
        | 0, Some n -> Ok (Ast.Union (count_select [ le n ], absent) :: acc)
        | m, None -> Ok (count_select [ ge m ] :: acc)
        | m, Some n -> Ok (count_select [ ge m; le n ] :: acc))
      (Ok []) constrs
    |> Result.map List.rev
  in
  (* Value-correctness: no triple with this predicate may carry a
     failing object. *)
  let* value_filters =
    List.fold_left
      (fun acc a ->
        let* acc = acc in
        let o = fresh "vo" in
        let* ok = value_expr a.a_value o in
        Ok
          (Ast.E_not_exists
             (Ast.Filter
                ( Ast.E_not ok,
                  Ast.bgp
                    [ Ast.triple focus (Ast.c (Rdf.Term.Iri a.a_pred))
                        (Ast.v o) ] ))
          :: acc))
      (Ok []) constrs
    |> Result.map List.rev
  in
  (* Closedness: every outgoing predicate is one of the shape's.
     Example 4 omits this; the RSE semantics requires it. *)
  let closedness =
    let p = fresh "p" and o = fresh "oc" in
    Ast.E_not_exists
      (Ast.Filter
         ( Ast.conj_all
             (List.map
                (fun a ->
                  Ast.E_cmp
                    ( Ast.Ne,
                      Ast.E_var p,
                      Ast.E_const (Rdf.Term.Iri a.a_pred) ))
                constrs),
           Ast.bgp [ Ast.triple focus (Ast.v p) (Ast.v o) ] ))
  in
  let where =
    Ast.Filter
      ( Ast.conj_all (value_filters @ [ closedness ]),
        Ast.join_all (anchor :: cardinality_patterns) )
  in
  Ok where

let of_shape shape =
  let* constrs = analyse shape in
  let* where = build constrs in
  Ok (Ast.select ~distinct:true [ "X" ] where)

let matching_nodes g shape =
  let* sel = of_shape shape in
  Ok
    (Eval.select g sel
    |> List.filter_map (fun mu -> Eval.Solution.find "X" mu)
    |> List.sort_uniq Rdf.Term.compare)

(* ------------------------------------------------------------------ *)
(* The paper's Example 4, in its own style                            *)
(* ------------------------------------------------------------------ *)

let example4_query () =
  let foaf l = Rdf.Term.Iri (Rdf.Iri.of_string_exn ("http://xmlns.com/foaf/0.1/" ^ l)) in
  let xsd p = Rdf.Term.Iri (Rdf.Xsd.iri p) in
  let x = "Person" in
  let count_select ?(filter = None) ~agg ~having pred =
    let bgp = Ast.bgp [ Ast.triple (Ast.v x) (Ast.c pred) (Ast.v "o") ] in
    let where = match filter with None -> bgp | Some e -> Ast.Filter (e, bgp) in
    Ast.Sub_select
      (Ast.select ~group_by:[ x ] ~aggs:[ (Ast.Count_star, agg) ] ~having
         [ x ] where)
  in
  let is_lit_with_dt dt =
    Ast.E_and
      ( Ast.E_is_literal (Ast.E_var "o"),
        Ast.E_cmp (Ast.Eq, Ast.E_datatype (Ast.E_var "o"), Ast.E_const dt) )
  in
  let eq_count a b = Ast.E_cmp (Ast.Eq, Ast.E_var a, Ast.E_var b) in
  let c_ge agg n = Ast.E_cmp (Ast.Ge, Ast.E_var agg, Ast.E_int n) in
  let c_eq agg n = Ast.E_cmp (Ast.Eq, Ast.E_var agg, Ast.E_int n) in
  (* age: exactly one arc, and exactly one arc that is an xsd:integer *)
  let age_all = count_select ~agg:"age_all" ~having:[ c_eq "age_all" 1 ]
      (foaf "age")
  in
  let age_ok =
    count_select
      ~filter:(Some (is_lit_with_dt (xsd Rdf.Xsd.Integer)))
      ~agg:"age_ok" ~having:[ c_eq "age_ok" 1 ] (foaf "age")
  in
  (* name: ≥1 arcs, all of them xsd:string *)
  let name_all =
    count_select ~agg:"Person_c0" ~having:[ c_ge "Person_c0" 1 ] (foaf "name")
  in
  let name_ok =
    count_select
      ~filter:(Some (is_lit_with_dt (xsd Rdf.Xsd.String)))
      ~agg:"Person_c1" ~having:[ c_ge "Person_c1" 1 ] (foaf "name")
  in
  (* knows: either all values are IRIs/bnodes (counts agree), or the
     predicate is absent — the paper's OPTIONAL/!bound branch. *)
  let knows_all = count_select ~agg:"Person_c2" ~having:[] (foaf "knows") in
  let knows_ok =
    count_select
      ~filter:
        (Some
           (Ast.E_or
              ( Ast.E_is_iri (Ast.E_var "o"),
                Ast.E_is_blank (Ast.E_var "o") )))
      ~agg:"Person_c3"
      ~having:[ c_ge "Person_c3" 1 ]
      (foaf "knows")
  in
  let knows_present =
    Ast.Filter
      (eq_count "Person_c2" "Person_c3", Ast.Join (knows_all, knows_ok))
  in
  let knows_absent =
    (* { SELECT ?Person { ?Person ?ap ?ao OPTIONAL { ?Person foaf:knows ?o }
         FILTER (!bound(?o)) } } — we give OPTIONAL an anchor so ?Person
         ranges over subjects, where the paper leaves it implicit. *)
    Ast.Sub_select
      (Ast.select ~distinct:true [ x ]
         (Ast.Filter
            ( Ast.E_not (Ast.E_bound "o"),
              Ast.Optional
                ( Ast.bgp [ Ast.triple (Ast.v x) (Ast.v "ap") (Ast.v "ao") ],
                  Ast.bgp [ Ast.triple (Ast.v x) (Ast.c (foaf "knows")) (Ast.v "o") ]
                ) )))
  in
  Ast.Ask
    (Ast.Join
       ( age_all,
         Ast.Join
           ( age_ok,
             Ast.Join
               ( Ast.Filter
                   ( eq_count "Person_c0" "Person_c1",
                     Ast.Join (name_all, name_ok) ),
                 Ast.Union (knows_present, knows_absent) ) ) ))
