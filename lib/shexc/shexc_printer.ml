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
      | Some Rdf.Xsd.String ->
          Printf.sprintf "\"%s\"" (Rdf.Literal.escape lexical)
      | Some Rdf.Xsd.Integer
        when Rdf.Xsd.valid_lexical Rdf.Xsd.Integer lexical ->
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

let rec value_set_items ctx = function
  | Shex.Value_set.Obj_in terms -> List.map (term_text ctx) terms
  | Shex.Value_set.Obj_stem s -> [ Printf.sprintf "<%s>~" s ]
  | Shex.Value_set.Obj_or parts ->
      List.concat_map (value_set_items ctx) parts
  | Shex.Value_set.Obj_any | Shex.Value_set.Obj_datatype _
  | Shex.Value_set.Obj_datatype_iri _ | Shex.Value_set.Obj_kind _
  | Shex.Value_set.Obj_not _ ->
      invalid_arg "Shexc_printer: value class not expressible in a value set"

let obj_text ctx = function
  | Shex.Value_set.Obj_any -> "."
  | Shex.Value_set.Obj_datatype prim -> iri_text ctx (Rdf.Xsd.iri prim)
  | Shex.Value_set.Obj_datatype_iri iri -> iri_text ctx iri
  | Shex.Value_set.Obj_kind Shex.Value_set.Iri_kind -> "IRI"
  | Shex.Value_set.Obj_kind Shex.Value_set.Bnode_kind -> "BNODE"
  | Shex.Value_set.Obj_kind Shex.Value_set.Literal_kind -> "LITERAL"
  | Shex.Value_set.Obj_kind Shex.Value_set.Non_literal_kind -> "NONLITERAL"
  | (Shex.Value_set.Obj_in _ | Shex.Value_set.Obj_stem _
    | Shex.Value_set.Obj_or _) as vs ->
      Printf.sprintf "[ %s ]" (String.concat " " (value_set_items ctx vs))
  | Shex.Value_set.Obj_not _ ->
      invalid_arg "Shexc_printer: Obj_not has no ShExC notation"

let pred_text ctx = function
  | Shex.Value_set.Pred iri ->
      if Rdf.Iri.equal iri Rdf.Namespace.Vocab.rdf_type then "a"
      else iri_text ctx iri
  | Shex.Value_set.Pred_in _ | Shex.Value_set.Pred_stem _
  | Shex.Value_set.Pred_any | Shex.Value_set.Pred_compl _ ->
      invalid_arg "Shexc_printer: predicate sets have no ShExC notation"

let label_text l = Printf.sprintf "<%s>" (Shex.Label.to_string l)

let arc_text ctx (a : Shex.Rse.arc) =
  let dir = if a.inverse then "^" else "" in
  let obj =
    match a.obj with
    | Shex.Rse.Values vo -> obj_text ctx vo
    | Shex.Rse.Ref l -> "@" ^ label_text l
  in
  Printf.sprintf "%s%s %s" dir (pred_text ctx a.pred) obj

(* The bounds {0,*}, {0,1} and {1,1} never reach a counted node; they
   print through Star, e? and the bare body. *)
let cardinality_suffix m n =
  match (m, n) with
  | 1, None -> " +"
  | m, Some n when m = n -> Printf.sprintf " {%d}" m
  | m, Some n -> Printf.sprintf " {%d,%d}" m n
  | m, None -> Printf.sprintf " {%d,}" m

(* Precedence: Or < And < unary.  Cardinality suffixes apply to a
   parenthesised group unless the body is a bare arc.  Every node
   prints as itself, so printing then parsing gives the expression
   back. *)
let rec expr_text ctx prec (e : Shex.Rse.t) =
  let parens p body = if prec >= p then "(" ^ body ^ ")" else body in
  let counted inner suffix =
    match inner with
    | Shex.Rse.Arc a -> arc_text ctx a ^ suffix
    | _ -> Printf.sprintf "(%s)%s" (expr_text ctx 0 inner) suffix
  in
  match e with
  | Shex.Rse.Empty ->
      (* ∅ has no direct ShExC notation; an unsatisfiable value set is
         the closest equivalent.  It never appears in parsed schemas. *)
      invalid_arg "Shexc_printer: the empty shape has no ShExC notation"
  | Shex.Rse.Epsilon -> ""
  | Shex.Rse.Arc a -> arc_text ctx a
  | Shex.Rse.Star inner -> counted inner " *"
  | Shex.Rse.Or (inner, Shex.Rse.Epsilon)
  | Shex.Rse.Or (Shex.Rse.Epsilon, inner) ->
      counted inner " ?"
  | Shex.Rse.Repeat (inner, m, n) -> counted inner (cardinality_suffix m n)
  | Shex.Rse.And (e1, e2) ->
      parens 2
        (Printf.sprintf "%s , %s" (expr_text ctx 1 e1) (expr_text ctx 1 e2))
  | Shex.Rse.Or (e1, e2) ->
      parens 1
        (Printf.sprintf "%s | %s" (expr_text ctx 0 e1) (expr_text ctx 0 e2))
  | Shex.Rse.Not inner -> (
      match inner with
      | Shex.Rse.Arc a -> "! " ^ arc_text ctx a
      | _ -> Printf.sprintf "! (%s)" (expr_text ctx 0 inner))

let expr_to_string ?(namespaces = Rdf.Namespace.default) e =
  let ctx = { ns = namespaces; used = Hashtbl.create 8 } in
  expr_text ctx 0 e

(* Recognise the desugared forms of OPEN and EXTRA (see
   {!Shex.Rse.open_up} / {!Shex.Rse.with_extra}) so they round-trip
   through their surface modifiers. *)
let split_modifier (e : Shex.Rse.t) =
  let rec conjuncts = function
    | Shex.Rse.And (e1, e2) -> conjuncts e1 @ conjuncts e2
    | e -> [ e ]
  in
  let is_open_star = function
    | Shex.Rse.Star
        (Shex.Rse.Arc
          { pred = Shex.Value_set.Pred_compl _ | Shex.Value_set.Pred_any;
            obj = Shex.Rse.Values Shex.Value_set.Obj_any;
            _ }) ->
        true
    | _ -> false
  in
  let extra_of = function
    | Shex.Rse.Star
        (Shex.Rse.Arc
          { pred = Shex.Value_set.Pred_in extras;
            obj = Shex.Rse.Values Shex.Value_set.Obj_any;
            inverse = false }) ->
        Some extras
    | _ -> None
  in
  let parts = conjuncts e in
  if List.exists is_open_star parts then
    let rest = List.filter (fun p -> not (is_open_star p)) parts in
    (`Open, Shex.Rse.and_all rest)
  else
    match List.find_map extra_of parts with
    | Some extras ->
        let rest = List.filter (fun p -> extra_of p = None) parts in
        (`Extra extras, Shex.Rse.and_all rest)
    | None -> (`Closed, e)

let schema_to_string ?(namespaces = Rdf.Namespace.default) schema =
  let ctx = { ns = namespaces; used = Hashtbl.create 8 } in
  let bodies =
    List.map
      (fun (l, { Shex.Schema.focus; expr }) ->
        let modifier, core = split_modifier expr in
        let focus_text =
          match focus with
          | None -> ""
          | Some vo -> " " ^ obj_text ctx vo
        in
        let modifier_text =
          match modifier with
          | `Closed -> ""
          | `Open -> " OPEN"
          | `Extra extras ->
              " EXTRA "
              ^ String.concat " " (List.map (iri_text ctx) extras)
        in
        let body =
          match core with
          | Shex.Rse.Epsilon -> ""
          | _ -> "\n  " ^ expr_text ctx 0 core ^ "\n"
        in
        Printf.sprintf "%s%s%s {%s}" (label_text l) focus_text modifier_text
          body)
      (Shex.Schema.shapes schema)
  in
  let header =
    List.filter_map
      (fun (prefix, ns) ->
        if Hashtbl.mem ctx.used prefix then
          Some (Printf.sprintf "PREFIX %s: <%s>" prefix ns)
        else None)
      (Rdf.Namespace.bindings namespaces)
  in
  String.concat "\n"
    ((if header = [] then [] else header @ [ "" ]) @ bodies)
  ^ "\n"
