type t = { stratum_of : int Label.Map.t }

(* Tarjan's strongly-connected-components algorithm over the label
   dependency graph (all references, any polarity). *)
let tarjan labels successors =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (successors v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      (* v is the root of a component: pop the stack down to v. *)
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if Label.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) labels;
  (* Tarjan emits components in reverse topological order: a component
     is finished only after everything it reaches; prepending puts
     successors first. *)
  List.rev !components

let compute rules =
  let labels = List.map fst rules in
  let pos_refs = Hashtbl.create 16 and neg_refs = Hashtbl.create 16 in
  List.iter
    (fun (l, e) ->
      Hashtbl.replace pos_refs l (Label.Set.elements (Rse.refs e));
      Hashtbl.replace neg_refs l (Label.Set.elements (Rse.refs_under_not e)))
    rules;
  let successors l =
    Option.value (Hashtbl.find_opt pos_refs l) ~default:[]
  in
  let components = tarjan labels successors in
  let component_of =
    List.fold_left
      (fun (i, acc) comp ->
        (i + 1, List.fold_left (fun acc l -> Label.Map.add l i acc) acc comp))
      (0, Label.Map.empty) components
    |> snd
  in
  (* Reject negative edges inside a component. *)
  let offenders =
    List.concat_map
      (fun (l, _) ->
        List.filter_map
          (fun l' ->
            if Label.Map.find_opt l component_of
               = Label.Map.find_opt l' component_of
            then Some (l, l')
            else None)
          (Option.value (Hashtbl.find_opt neg_refs l) ~default:[]))
      rules
  in
  match offenders with
  | (l, l') :: _ ->
      Error
        (Format.asprintf
           "schema is not stratified: %a negates a reference to %a inside \
            a recursive cycle (negation through recursion has no \
            well-defined fixpoint)"
           Label.pp l Label.pp l')
  | [] ->
      (* Components arrive in topological order (dependencies first),
         so a left fold can assign strata bottom-up: a component's
         stratum is the max over its dependencies, +1 when the
         dependency is negated. *)
      let stratum_of =
        List.fold_left
          (fun strata comp ->
            let s =
              List.fold_left
                (fun s l ->
                  let dep_stratum ~strict l' =
                    if List.exists (Label.equal l') comp then s
                    else
                      match Label.Map.find_opt l' strata with
                      | Some s' -> if strict then s' + 1 else s'
                      | None -> 0
                  in
                  let s =
                    List.fold_left
                      (fun s l' -> max s (dep_stratum ~strict:false l'))
                      s
                      (Option.value (Hashtbl.find_opt pos_refs l) ~default:[])
                  in
                  List.fold_left
                    (fun s l' -> max s (dep_stratum ~strict:true l'))
                    s
                    (Option.value (Hashtbl.find_opt neg_refs l) ~default:[]))
                0 comp
            in
            List.fold_left (fun acc l -> Label.Map.add l s acc) strata comp)
          Label.Map.empty components
      in
      Ok { stratum_of }

let stratum t l = Option.value (Label.Map.find_opt l t.stratum_of) ~default:0
