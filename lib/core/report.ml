type status = Conformant | Nonconformant

type entry = {
  node : Rdf.Term.t;
  label : Label.t;
  status : status;
  explain : Explain.t option;
}

let reason e = Option.map Explain.to_string e.explain

type t = { entries : entry list }

(* Routed through {!Validate.check_all} so every report — CLI shape
   maps included — honours the session's [?domains] sharding; at
   [domains = 1] check_all is exactly the sequential map this used
   to be. *)
let run session associations =
  let outcomes = Validate.check_all session associations in
  { entries =
      List.map2
        (fun (node, label) { Validate.ok; explain } ->
          { node; label; status = (if ok then Conformant else Nonconformant);
            explain })
        associations outcomes }

let run_shape_map session shape_map graph =
  run session (Shape_map.resolve shape_map graph)

let conformant t =
  List.filter (fun e -> e.status = Conformant) t.entries

let nonconformant t =
  List.filter (fun e -> e.status = Nonconformant) t.entries

let all_conformant t = nonconformant t = []

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i e ->
      if i > 0 then Format.pp_print_cut ppf ();
      match e.status with
      | Conformant ->
          Format.fprintf ppf "PASS %a@@%a" Rdf.Term.pp e.node Label.pp e.label
      | Nonconformant ->
          Format.fprintf ppf "FAIL %a@@%a%s" Rdf.Term.pp e.node Label.pp
            e.label
            (match reason e with
            | Some reason -> "\n     " ^ reason
            | None -> ""))
    t.entries;
  Format.pp_print_cut ppf ();
  Format.fprintf ppf "%d conformant, %d nonconformant"
    (List.length (conformant t))
    (List.length (nonconformant t));
  Format.pp_close_box ppf ()

let to_result_shape_map t =
  String.concat ",\n"
    (List.map
       (fun e ->
         Printf.sprintf "%s@%s<%s>"
           (Rdf.Term.to_string e.node)
           (match e.status with Conformant -> "" | Nonconformant -> "!")
           (Label.to_string e.label))
       t.entries)

(* Whole-graph reports repeat explanation text: every node with no
   triples for a shape fails it with the shape's own expression as
   residual.  The node-free part of a [Missing_arcs] explanation (its
   reason string and its explain members bar the node) is rendered once
   per distinct (label, residual, missing) and the node filled in per
   entry.  Equal residuals print equally, and the shared case is caught
   by physical identity before any structural comparison.  The hash
   looks deep enough that distinct residuals rarely share a bucket, and
   never visits more of a residual than rendering it would. *)
module Missing_texts = Hashtbl.Make (struct
  type t = Label.t * Rse.t * Rse.arc list

  let equal (l1, r1, m1) (l2, r2, m2) =
    Label.equal l1 l2
    && (r1 == r2 || Rse.equal r1 r2)
    && List.equal Rse.arc_equal m1 m2

  let hash (l, r, _) = Hashtbl.hash_param 100 1000 (l, r)
end)

let to_json ?metrics ?profile t =
  let missing_texts = Missing_texts.create 16 in
  let term n = Json.String (Rdf.Term.to_string n) in
  let rendered ex = (Json.String (Explain.to_string ex), Explain.to_json ex) in
  let with_node node = function
    | Json.Object members ->
        Json.Object
          (List.map
             (fun ((k, _) as m) ->
               if String.equal k "node" then (k, node) else m)
             members)
    | other -> other
  in
  (* [node_json] renders the entry's node; it is reused when the
     explanation is about the same node, as a checked entry's is. *)
  let explanation (e : entry) node_json ex =
    let reason, explain =
      match ex with
      | Explain.Missing_arcs { node; label; residual; missing } ->
          let key = (label, residual, missing) in
          let reason, explain =
            match Missing_texts.find_opt missing_texts key with
            | Some texts -> texts
            | None ->
                let texts = rendered ex in
                Missing_texts.add missing_texts key texts;
                texts
          in
          let node =
            if Rdf.Term.equal node e.node then node_json else term node
          in
          (reason, with_node node explain)
      | Explain.No_shape _ | Explain.Node_constraint _
      | Explain.Blame_triple _ ->
          rendered ex
    in
    [ ("reason", reason); ("explain", explain) ]
  in
  let entry_json e =
    let node_json = term e.node in
    Json.Object
      ([ ("node", node_json);
         ("shape", Json.String (Label.to_string e.label));
         ( "status",
           Json.String
             (match e.status with
             | Conformant -> "conformant"
             | Nonconformant -> "nonconformant") ) ]
      @
      match e.explain with
      | Some ex -> explanation e node_json ex
      | None -> [])
  in
  Json.Object
    ([ ("entries", Json.Array (List.map entry_json t.entries));
       ("conformant", Json.int (List.length (conformant t)));
       ("nonconformant", Json.int (List.length (nonconformant t))) ]
    @
    (* Appended last so existing consumers of the report keys are
       untouched when no snapshot is supplied. *)
    (match metrics with
    | Some snap -> [ ("metrics", Telemetry.to_json snap) ]
    | None -> [])
    @
    match profile with
    | Some p -> [ ("profile", Profile.to_json p) ]
    | None -> [])
