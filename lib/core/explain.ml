type ref_failure = { ref_node : Rdf.Term.t; ref_label : Label.t }

type t =
  | No_shape of { node : Rdf.Term.t; label : Label.t }
  | Node_constraint of { node : Rdf.Term.t; constraint_ : Value_set.obj }
  | Blame_triple of {
      node : Rdf.Term.t;
      label : Label.t;
      triple : Neigh.dtriple;
      residual : Rse.t;
      ref_failures : ref_failure list;
    }
  | Missing_arcs of {
      node : Rdf.Term.t;
      label : Label.t;
      residual : Rse.t;
      missing : Rse.arc list;
    }

(* The arcs a non-nullable residual still demands: every alternative
   through the expression needs at least one of them.  Star and Not
   are nullable (ν of a star is true; a non-nullable ¬e misses "nothing
   concrete" — it has too much, not too little), so they contribute
   none.  And demands the arcs of each non-nullable conjunct; a
   non-nullable Or (both sides non-nullable) offers the arcs of either
   alternative as candidates, and a non-nullable e{m,n} those of e. *)
let required_arcs e =
  let rec go (e : Rse.t) =
    match e with
    | Empty | Epsilon | Star _ | Not _ -> []
    | Arc a -> [ a ]
    | And (e1, e2) ->
        (if Rse.nullable e1 then [] else go e1)
        @ if Rse.nullable e2 then [] else go e2
    | Or (e1, e2) ->
        if Rse.nullable e1 || Rse.nullable e2 then [] else go e1 @ go e2
    | Repeat (inner, _, _) -> if Rse.nullable e then [] else go inner
  in
  List.sort_uniq Rse.arc_compare (go e)

let of_trace ~check ~node ~label (tr : Deriv.trace) =
  if tr.Deriv.result then None
  else
    (* First step whose derivative collapsed to ∅: the consumed triple
       is the culprit (Example 12), and the expression it was derived
       from shows what the triple was matched against. *)
    let rec first_empty before = function
      | [] -> None
      | s :: _ when Rse.equal s.Deriv.after Rse.empty ->
          Some (before, s.Deriv.consumed)
      | s :: rest -> first_empty s.Deriv.after rest
    in
    match first_empty tr.Deriv.initial tr.Deriv.steps with
    | Some (residual, dt) ->
        (* If the fatal triple travels along a reference arc whose far
           node fails the referenced shape, the blame is really that
           recursive failure — name it. *)
        let far = Neigh.far dt in
        let ref_failures =
          Rse.arcs residual
          |> List.filter_map (fun (a : Rse.arc) ->
                 match a.obj with
                 | Rse.Ref l
                   when Bool.equal a.inverse (Neigh.inverse dt)
                        && Value_set.pred_mem a.pred
                             (Rdf.Triple.predicate dt.Neigh.triple)
                        && not (check l dt) ->
                     Some { ref_node = far; ref_label = l }
                 | Rse.Ref _ | Rse.Values _ -> None)
          |> List.sort_uniq (fun a b ->
                 let c = Rdf.Term.compare a.ref_node b.ref_node in
                 if c <> 0 then c else Label.compare a.ref_label b.ref_label)
        in
        Some (Blame_triple { node; label; triple = dt; residual; ref_failures })
    | None ->
        let residual =
          match List.rev tr.Deriv.steps with
          | [] -> tr.Deriv.initial
          | s :: _ -> s.Deriv.after
        in
        Some
          (Missing_arcs
             { node; label; residual; missing = required_arcs residual })

let pp_arc ppf (a : Rse.arc) = Rse.pp ppf (Rse.arc ~inverse:a.inverse a.pred a.obj)

let pp_arcs ppf arcs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_arc ppf arcs

let pp ppf = function
  | No_shape { node; label } ->
      Format.fprintf ppf "node %a: no rule for shape label %a" Rdf.Term.pp
        node Label.pp label
  | Node_constraint { node; constraint_ } ->
      Format.fprintf ppf
        "the focus node %a does not satisfy the shape's node constraint %a"
        Rdf.Term.pp node Value_set.pp_obj constraint_
  | Blame_triple { triple; ref_failures; _ } ->
      Format.fprintf ppf
        "triple %a matches no arc of the remaining expression (it reduces \
         the expression to \xe2\x88\x85)"
        Neigh.pp triple;
      List.iter
        (fun { ref_node; ref_label } ->
          Format.fprintf ppf
            "; node %a does not conform to the referenced shape %a"
            Rdf.Term.pp ref_node Label.pp ref_label)
        ref_failures
  | Missing_arcs { residual; missing; _ } -> (
      Format.fprintf ppf
        "all triples were consumed but obligations remain: the residual \
         expression %a is not nullable (some required arc is missing)"
        Rse.pp residual;
      match missing with
      | [] -> ()
      | arcs -> Format.fprintf ppf "; missing: %a" pp_arcs arcs)

let to_string ex = Format.asprintf "%a" pp ex

let node = function
  | No_shape { node; _ }
  | Node_constraint { node; _ }
  | Blame_triple { node; _ }
  | Missing_arcs { node; _ } -> node

let to_json ex =
  let term n = Json.String (Rdf.Term.to_string n) in
  let label l = Json.String (Label.to_string l) in
  let common kind extra =
    Json.Object (("kind", Json.String kind) :: extra)
  in
  match ex with
  | No_shape { node; label = l } ->
      common "no_shape" [ ("node", term node); ("shape", label l) ]
  | Node_constraint { node; constraint_ } ->
      common "node_constraint"
        [ ("node", term node);
          ( "constraint",
            Json.String (Format.asprintf "%a" Value_set.pp_obj constraint_) )
        ]
  | Blame_triple { node; label = l; triple; residual; ref_failures } ->
      common "blame_triple"
        [ ("node", term node);
          ("shape", label l);
          ("triple", Json.String (Format.asprintf "%a" Neigh.pp triple));
          ("residual", Json.String (Rse.to_string residual));
          ( "ref_failures",
            Json.Array
              (List.map
                 (fun { ref_node; ref_label } ->
                   Json.Object
                     [ ("node", term ref_node); ("shape", label ref_label) ])
                 ref_failures) ) ]
  | Missing_arcs { node; label = l; residual; missing } ->
      common "missing_arcs"
        [ ("node", term node);
          ("shape", label l);
          ("residual", Json.String (Rse.to_string residual));
          ( "missing",
            Json.Array
              (List.map
                 (fun a -> Json.String (Format.asprintf "%a" pp_arc a))
                 missing) ) ]
