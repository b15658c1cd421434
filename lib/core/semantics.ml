module Graph_set = Set.Make (struct
  type t = Rdf.Triple.Set.t

  let compare = Rdf.Triple.Set.compare
end)

exception Not_enumerable of string

let finite_pred = function
  | Value_set.Pred i -> [ i ]
  | Value_set.Pred_in is -> is
  | Value_set.Pred_stem _ | Value_set.Pred_any | Value_set.Pred_compl _ ->
      raise (Not_enumerable "predicate set is not finite")

let rec finite_obj = function
  | Value_set.Obj_in terms -> terms
  | Value_set.Obj_or vs -> List.concat_map finite_obj vs
  | Value_set.Obj_any | Value_set.Obj_datatype _
  | Value_set.Obj_datatype_iri _ | Value_set.Obj_kind _
  | Value_set.Obj_stem _ | Value_set.Obj_not _ ->
      raise (Not_enumerable "object set is not finite")

(* Disjoint pairwise unions of two languages, capped at max_card. *)
let combine ~max_card l1 l2 =
  Graph_set.fold
    (fun t1 acc ->
      Graph_set.fold
        (fun t2 acc ->
          if Rdf.Triple.Set.disjoint t1 t2 then
            let u = Rdf.Triple.Set.union t1 t2 in
            if Rdf.Triple.Set.cardinal u <= max_card then
              Graph_set.add u acc
            else acc
          else acc)
        l2 acc)
    l1 Graph_set.empty

let enumerate ~node ~max_card e =
  let rec go (e : Rse.t) =
    match e with
    | Empty -> Graph_set.empty
    | Epsilon -> Graph_set.singleton Rdf.Triple.Set.empty
    | Arc { inverse = true; _ } ->
        raise (Not_enumerable "inverse arcs are not enumerable")
    | Arc { obj = Ref _; _ } ->
        raise (Not_enumerable "shape references are not enumerable")
    | Arc { pred; obj = Values vo; inverse = false } ->
        let preds = finite_pred pred and objs = finite_obj vo in
        List.fold_left
          (fun acc p ->
            List.fold_left
              (fun acc o ->
                match Rdf.Triple.make_opt node p o with
                | Some tr ->
                    Graph_set.add (Rdf.Triple.Set.singleton tr) acc
                | None -> acc)
              acc objs)
          Graph_set.empty preds
    | Star inner ->
        (* Iterate L ← {∅} ∪ (L(e) ⊎ L) to fixpoint under the cap. *)
        let base = go inner in
        let rec fix acc =
          let next =
            Graph_set.union acc
              (Graph_set.add Rdf.Triple.Set.empty
                 (combine ~max_card base acc))
          in
          if Graph_set.equal next acc then acc else fix next
        in
        fix (Graph_set.singleton Rdf.Triple.Set.empty)
    | Repeat (inner, m, n) ->
        (* ⋃ L(e)ᵏ over m ≤ k ≤ n.  Under the cap the powers are empty
           past max_card when ∅ ∉ L(e), and stationary from max_card on
           when ∅ ∈ L(e), so the walk stops whatever the bounds. *)
        let base = go inner in
        let rec powers k lk acc =
          let acc = if k >= m then Graph_set.union lk acc else acc in
          if n = Some k || Graph_set.is_empty lk then acc
          else
            let next = combine ~max_card base lk in
            if Graph_set.equal next lk then Graph_set.union lk acc
            else powers (k + 1) next acc
        in
        powers 0 (Graph_set.singleton Rdf.Triple.Set.empty) Graph_set.empty
    | And (e1, e2) -> combine ~max_card (go e1) (go e2)
    | Or (e1, e2) -> Graph_set.union (go e1) (go e2)
    | Not _ -> raise (Not_enumerable "negation is not enumerable")
  in
  go e

let language ~node ~max_card e =
  match enumerate ~node ~max_card e with
  | s -> Ok (Graph_set.elements s)
  | exception Not_enumerable msg -> Error msg

let mem ~node g e =
  let sigma = Rdf.Triple.Set.of_list (Rdf.Graph.out_triples node g) in
  let max_card = Rdf.Triple.Set.cardinal sigma in
  match enumerate ~node ~max_card e with
  | s -> Ok (Graph_set.mem sigma s)
  | exception Not_enumerable msg -> Error msg
