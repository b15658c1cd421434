type options = { max_value_set : int; close_cardinalities : bool }

let default_options = { max_value_set = 0; close_cardinalities = true }

module Iri_map = Map.Make (Rdf.Iri)

(* objects of each predicate, per node *)
let profile g node =
  List.fold_left
    (fun acc tr ->
      let p = Rdf.Triple.predicate tr in
      let prev = Option.value (Iri_map.find_opt p acc) ~default:[] in
      Iri_map.add p (Rdf.Triple.obj tr :: prev) acc)
    Iri_map.empty
    (Rdf.Graph.out_triples node g)

let distinct_terms terms =
  List.fold_left
    (fun acc t -> if List.exists (Rdf.Term.equal t) acc then acc else t :: acc)
    [] terms
  |> List.rev

(* The most specific value class covering all observed objects. *)
let generalise options objects =
  let distinct = distinct_terms objects in
  if
    options.max_value_set > 0
    && List.length distinct <= options.max_value_set
  then Value_set.Obj_in distinct
  else
    let literals =
      List.filter_map Rdf.Term.as_literal objects
    in
    if List.length literals = List.length objects then
      (* all literals: shared well-formed datatype? *)
      let prims =
        List.map
          (fun l ->
            match Rdf.Literal.xsd_primitive l with
            | Some prim when Rdf.Literal.has_datatype l prim -> Some prim
            | _ -> None)
          literals
      in
      match prims with
      | Some first :: rest when List.for_all (fun p -> p = Some first) rest ->
          Value_set.Obj_datatype first
      | _ -> Value_set.Obj_kind Value_set.Literal_kind
    else if List.for_all Rdf.Term.is_iri objects then
      Value_set.Obj_kind Value_set.Iri_kind
    else if List.for_all Rdf.Term.is_bnode objects then
      Value_set.Obj_kind Value_set.Bnode_kind
    else if List.for_all (fun t -> not (Rdf.Term.is_literal t)) objects then
      Value_set.Obj_kind Value_set.Non_literal_kind
    else Value_set.Obj_any

(* Predicate profiles across all example nodes: observed min/max
   multiplicity (counting absence as 0) and all objects. *)
let aggregate g nodes =
  let profiles = List.map (profile g) nodes in
  let all_preds =
    List.fold_left
      (fun acc prof -> Iri_map.union (fun _ a _ -> Some a) acc prof)
      Iri_map.empty profiles
    |> Iri_map.bindings |> List.map fst
  in
  List.map
    (fun p ->
      let counts =
        List.map
          (fun prof ->
            List.length (Option.value (Iri_map.find_opt p prof) ~default:[]))
          profiles
      in
      let objects =
        List.concat_map
          (fun prof -> Option.value (Iri_map.find_opt p prof) ~default:[])
          profiles
      in
      let min_c = List.fold_left min max_int counts in
      let max_c = List.fold_left max 0 counts in
      (p, min_c, max_c, objects))
    all_preds

let constraint_of options (p, min_c, max_c, _objects) obj_spec =
  let arc =
    match obj_spec with
    | `Values vo -> Rse.arc_v (Value_set.Pred p) vo
    | `Ref l -> Rse.arc_ref (Value_set.Pred p) l
  in
  let max = if options.close_cardinalities then Some max_c else None in
  Rse.repeat min_c max arc

(* The shape of [nodes]: one constraint per aggregated predicate, a
   reference to [ref_of objects] when it names a label, the
   generalised value class otherwise. *)
let shape_of options g ~ref_of nodes =
  Rse.and_all
    (List.map
       (fun ((_, _, _, objects) as agg) ->
         match ref_of objects with
         | Some l -> constraint_of options agg (`Ref l)
         | None ->
             constraint_of options agg (`Values (generalise options objects)))
       (aggregate g nodes))

let infer_shape ?(options = default_options) g nodes =
  if nodes = [] then invalid_arg "Infer.infer_shape: no example nodes";
  shape_of options g ~ref_of:(fun _ -> None) nodes

let infer_schema ?(options = default_options) g groups =
  if List.exists (fun (_, nodes) -> nodes = []) groups then
    Error "every label needs at least one example node"
  else
    let label_of_node n =
      List.find_map
        (fun (l, nodes) ->
          if List.exists (Rdf.Term.equal n) nodes then Some l else None)
        groups
    in
    (* A reference when every object is an example of one common
       label. *)
    let ref_of objects =
      match List.map label_of_node objects with
      | Some first :: rest
        when List.for_all
               (function Some l' -> Label.equal l' first | None -> false)
               rest ->
          Some first
      | _ -> None
    in
    Schema.make
      (List.map (fun (l, nodes) -> (l, shape_of options g ~ref_of nodes)) groups)
