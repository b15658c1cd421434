type ctx = { ns : Rdf.Namespace.t; used : (string, unit) Hashtbl.t }

let iri_text ctx iri =
  match Rdf.Namespace.shrink ctx.ns iri with
  | Some pname ->
      (match String.index_opt pname ':' with
      | Some i -> Hashtbl.replace ctx.used (String.sub pname 0 i) ()
      | None -> ());
      pname
  | None -> Printf.sprintf "<%s>" (Rdf.Iri.to_string iri)

let literal_text ctx l =
  let lexical = Rdf.Literal.lexical l in
  match Rdf.Literal.lang l with
  | Some tag -> Printf.sprintf "\"%s\"@%s" (Rdf.Literal.escape lexical) tag
  | None -> (
      match Rdf.Literal.xsd_primitive l with
      | Some Rdf.Xsd.String -> Printf.sprintf "\"%s\"" (Rdf.Literal.escape lexical)
      | Some Rdf.Xsd.Integer when Rdf.Xsd.valid_lexical Rdf.Xsd.Integer lexical
        ->
          lexical
      | Some Rdf.Xsd.Decimal
        when Rdf.Xsd.valid_lexical Rdf.Xsd.Decimal lexical
             && String.contains lexical '.' ->
          lexical
      | Some Rdf.Xsd.Boolean when lexical = "true" || lexical = "false" ->
          lexical
      | _ ->
          Printf.sprintf "\"%s\"^^%s" (Rdf.Literal.escape lexical)
            (iri_text ctx (Rdf.Literal.datatype l)))

let term_text ctx = function
  | Rdf.Term.Iri iri -> iri_text ctx iri
  | Rdf.Term.Bnode b -> Printf.sprintf "_:%s" (Rdf.Bnode.label b)
  | Rdf.Term.Literal l -> literal_text ctx l

let predicate_text ctx p =
  if Rdf.Iri.equal p Rdf.Namespace.Vocab.rdf_type then "a" else iri_text ctx p

(* Group the subject's triples by predicate, preserving term order. *)
let grouped_by_predicate triples =
  List.fold_left
    (fun acc tr ->
      let p = Rdf.Triple.predicate tr in
      match acc with
      | (p', objs) :: rest when Rdf.Iri.equal p p' ->
          (p', Rdf.Triple.obj tr :: objs) :: rest
      | _ -> (p, [ Rdf.Triple.obj tr ]) :: acc)
    [] triples
  |> List.rev_map (fun (p, objs) -> (p, List.rev objs))

let to_string ?(namespaces = Rdf.Namespace.default) g =
  let ctx = { ns = namespaces; used = Hashtbl.create 8 } in
  let body = Buffer.create 1024 in
  let subjects = Rdf.Graph.subjects g in
  List.iter
    (fun s ->
      let groups = grouped_by_predicate (Rdf.Graph.out_triples s g) in
      Buffer.add_string body (term_text ctx s);
      let n_groups = List.length groups in
      List.iteri
        (fun gi (p, objs) ->
          Buffer.add_string body
            (if gi = 0 then " " else "    ");
          Buffer.add_string body (predicate_text ctx p);
          Buffer.add_char body ' ';
          Buffer.add_string body
            (String.concat ", " (List.map (term_text ctx) objs));
          if gi < n_groups - 1 then Buffer.add_string body " ;\n"
          else Buffer.add_string body " .\n")
        groups)
    subjects;
  let header = Buffer.create 256 in
  List.iter
    (fun (prefix, ns) ->
      if Hashtbl.mem ctx.used prefix then
        Buffer.add_string header
          (Printf.sprintf "@prefix %s: <%s> .\n" prefix ns))
    (Rdf.Namespace.bindings namespaces);
  if Buffer.length header > 0 then Buffer.add_char header '\n';
  Buffer.contents header ^ Buffer.contents body

let to_channel ?namespaces oc g = output_string oc (to_string ?namespaces g)

let to_file ?namespaces path g =
  Out_channel.with_open_bin path (fun oc -> to_channel ?namespaces oc g)
