module R = Shex.Rse
module V = Shex.Value_set

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Export                                                             *)
(* ------------------------------------------------------------------ *)

let value_json (term : Rdf.Term.t) : Json.t =
  match term with
  | Rdf.Term.Iri iri -> Json.String (Rdf.Iri.to_string iri)
  | Rdf.Term.Literal l -> (
      let base = [ ("value", Json.String (Rdf.Literal.lexical l)) ] in
      match Rdf.Literal.lang l with
      | Some tag -> Json.Object (base @ [ ("language", Json.String tag) ])
      | None ->
          if
            Rdf.Iri.equal (Rdf.Literal.datatype l)
              (Rdf.Xsd.iri Rdf.Xsd.String)
          then Json.Object base
          else
            Json.Object
              (base
              @ [ ( "type",
                    Json.String (Rdf.Iri.to_string (Rdf.Literal.datatype l))
                  ) ]))
  | Rdf.Term.Bnode b ->
      (* Vendor extension: ShExJ value sets cannot name blank nodes. *)
      Json.Object [ ("bnode", Json.String (Rdf.Bnode.label b)) ]

let kind_name = function
  | V.Iri_kind -> "iri"
  | V.Bnode_kind -> "bnode"
  | V.Literal_kind -> "literal"
  | V.Non_literal_kind -> "nonliteral"

let rec node_constraint_json (vo : V.obj) : Json.t =
  let nc fields = Json.Object (("type", Json.String "NodeConstraint") :: fields) in
  match vo with
  | V.Obj_any -> nc []
  | V.Obj_datatype prim ->
      nc [ ("datatype", Json.String (Rdf.Iri.to_string (Rdf.Xsd.iri prim))) ]
  | V.Obj_datatype_iri iri ->
      nc [ ("datatype", Json.String (Rdf.Iri.to_string iri)) ]
  | V.Obj_kind k -> nc [ ("nodeKind", Json.String (kind_name k)) ]
  | V.Obj_in terms ->
      nc [ ("values", Json.Array (List.map value_json terms)) ]
  | V.Obj_stem stem ->
      nc
        [ ( "values",
            Json.Array
              [ Json.Object
                  [ ("type", Json.String "IriStem");
                    ("stem", Json.String stem) ] ] ) ]
  | V.Obj_or parts -> (
      (* Mixed finite values and stems flatten into one values list;
         anything else uses the vendor OrConstraint. *)
      let rec values_of = function
        | V.Obj_in terms -> Some (List.map value_json terms)
        | V.Obj_stem stem ->
            Some
              [ Json.Object
                  [ ("type", Json.String "IriStem");
                    ("stem", Json.String stem) ] ]
        | V.Obj_or parts ->
            List.fold_left
              (fun acc p ->
                match (acc, values_of p) with
                | Some acc, Some vs -> Some (acc @ vs)
                | _ -> None)
              (Some []) parts
        | V.Obj_any | V.Obj_datatype _ | V.Obj_datatype_iri _ | V.Obj_kind _
        | V.Obj_not _ ->
            None
      in
      match values_of (V.Obj_or parts) with
      | Some values -> nc [ ("values", Json.Array values) ]
      | None ->
          Json.Object
            [ ("type", Json.String "OrConstraint");
              ( "constraints",
                Json.Array (List.map node_constraint_json parts) ) ])
  | V.Obj_not inner ->
      Json.Object
        [ ("type", Json.String "NotConstraint");
          ("constraint", node_constraint_json inner) ]

let pred_iri (p : V.pred) =
  match p with
  | V.Pred iri -> Ok iri
  | V.Pred_in _ | V.Pred_stem _ | V.Pred_any | V.Pred_compl _ ->
      Error "ShExJ export: only singleton predicate sets are supported"

let triple_constraint (a : R.arc) ~min ~max : Json.t =
  let predicate =
    match pred_iri a.pred with
    | Ok iri -> Rdf.Iri.to_string iri
    | Error msg -> invalid_arg ("Shexj.export: " ^ msg)
  in
  let value_expr =
    match a.obj with
    | R.Values V.Obj_any -> []
    | R.Values vo -> [ ("valueExpr", node_constraint_json vo) ]
    | R.Ref l -> [ ("valueExpr", Json.String (Shex.Label.to_string l)) ]
  in
  Json.Object
    ([ ("type", Json.String "TripleConstraint");
       ("predicate", Json.String predicate) ]
    @ (if a.inverse then [ ("inverse", Json.Bool true) ] else [])
    @ value_expr
    @ [ ("min", Json.int min);
        ("max", Json.int (match max with Some n -> n | None -> -1)) ])

let with_card json min max =
  (* An expression that already carries a cardinality must first be
     boxed in a singleton EachOf, or the two min/max pairs would
     collide on one object. *)
  let json =
    match json with
    | Json.Object fields
      when List.mem_assoc "min" fields || List.mem_assoc "max" fields ->
        Json.Object
          [ ("type", Json.String "EachOf");
            ("expressions", Json.Array [ json ]) ]
    | json -> json
  in
  match json with
  | Json.Object fields ->
      Json.Object
        (fields
        @ [ ("min", Json.int min);
            ("max", Json.int (match max with Some n -> n | None -> -1)) ])
  | other -> other

let rec flatten_and acc (e : R.t) =
  match e with
  | R.And (e1, e2) -> flatten_and (flatten_and acc e2) e1
  | e -> e :: acc

let rec flatten_or acc (e : R.t) =
  match e with
  | R.Or (e1, e2) -> flatten_or (flatten_or acc e2) e1
  | e -> e :: acc

let rec expr_json (e : R.t) : Json.t =
  match e with
  | R.Empty -> Json.Object [ ("type", Json.String "Empty") ]
  | R.Epsilon ->
      Json.Object
        [ ("type", Json.String "EachOf"); ("expressions", Json.Array []) ]
  | R.Arc a -> triple_constraint a ~min:1 ~max:(Some 1)
  | R.Star (R.Arc a) -> triple_constraint a ~min:0 ~max:None
  | R.Or (R.Arc a, R.Epsilon) | R.Or (R.Epsilon, R.Arc a) ->
      triple_constraint a ~min:0 ~max:(Some 1)
  | R.Repeat (R.Arc a, min, max) -> triple_constraint a ~min ~max
  | R.Star inner -> with_card (expr_json inner) 0 None
  | R.Or (R.Epsilon, inner) | R.Or (inner, R.Epsilon) ->
      with_card (expr_json inner) 0 (Some 1)
  | R.Repeat (inner, min, max) -> with_card (expr_json inner) min max
  | R.And _ ->
      Json.Object
        [ ("type", Json.String "EachOf");
          ( "expressions",
            Json.Array (List.map expr_json (flatten_and [] e)) ) ]
  | R.Or _ ->
      Json.Object
        [ ("type", Json.String "OneOf");
          ("expressions", Json.Array (List.map expr_json (flatten_or [] e)))
        ]
  | R.Not inner ->
      Json.Object
        [ ("type", Json.String "Not"); ("expression", expr_json inner) ]

let export schema =
  let shape (l, { Shex.Schema.focus; expr }) =
    Json.Object
      ([ ("type", Json.String "Shape");
         ("id", Json.String (Shex.Label.to_string l));
         ("closed", Json.Bool true) ]
      @ (match focus with
        | Some vo -> [ ("focus", node_constraint_json vo) ]
        | None -> [])
      @
      match expr with
      | R.Epsilon -> []
      | _ -> [ ("expression", expr_json expr) ])
  in
  Json.Object
    [ ("type", Json.String "Schema");
      ("shapes", Json.Array (List.map shape (Shex.Schema.shapes schema))) ]

let export_string ?minify schema = Json.to_string ?minify (export schema)

(* ------------------------------------------------------------------ *)
(* Import                                                             *)
(* ------------------------------------------------------------------ *)

let import_value (j : Json.t) : (Rdf.Term.t option * string option, string) result =
  (* Returns (term, stem): exactly one is Some. *)
  match j with
  | Json.String iri_text -> (
      match Rdf.Iri.of_string iri_text with
      | Ok iri -> Ok (Some (Rdf.Term.Iri iri), None)
      | Error msg -> Error msg)
  | Json.Object _ when Json.find_string "type" j = Some "IriStem" -> (
      match Json.find_string "stem" j with
      | Some stem -> Ok (None, Some stem)
      | None -> Error "IriStem without stem")
  | Json.Object _ -> (
      match Json.find_string "bnode" j with
      | Some label -> (
          (* Only a label that "_:" reads back as itself prints as ShExC. *)
          let st = Turtle.Lexer.stream_of_string ("_:" ^ label) in
          match Turtle.Lexer.read_blank_label st with
          | l when l = label && Turtle.Lexer.peek st < 0 ->
              Ok (Some (Rdf.Term.Bnode (Rdf.Bnode.of_string label)), None)
          | _ | (exception Turtle.Lexer.Error _) ->
              Error (Printf.sprintf "invalid blank node label %S" label))
      | None -> (
          match Json.find_string "value" j with
          | None -> Error "value set entry without value"
          | Some lexical -> (
              match Json.find_string "language" j with
              | Some tag ->
                  Ok (Some (Rdf.Term.Literal (Rdf.Literal.make ~lang:tag lexical)), None)
              | None -> (
                  match Json.find_string "type" j with
                  | Some dt -> (
                      match Rdf.Iri.of_string dt with
                      | Ok iri ->
                          Ok
                            ( Some
                                (Rdf.Term.Literal
                                   (Rdf.Literal.make ~datatype:iri lexical)),
                              None )
                      | Error msg -> Error msg)
                  | None ->
                      Ok (Some (Rdf.Term.Literal (Rdf.Literal.string lexical)), None)))))
  | _ -> Error "malformed value set entry"

let rec import_node_constraint (j : Json.t) : (V.obj, string) result =
  match Json.find_string "type" j with
  | Some "NodeConstraint" | None -> (
      match Json.find_string "datatype" j with
      | Some dt -> (
          match Rdf.Iri.of_string dt with
          | Error msg -> Error msg
          | Ok iri -> (
              match Rdf.Xsd.of_iri iri with
              | Some prim -> Ok (V.Obj_datatype prim)
              | None -> Ok (V.Obj_datatype_iri iri)))
      | None -> (
          match Json.find_string "nodeKind" j with
          | Some "iri" -> Ok (V.Obj_kind V.Iri_kind)
          | Some "bnode" -> Ok (V.Obj_kind V.Bnode_kind)
          | Some "literal" -> Ok (V.Obj_kind V.Literal_kind)
          | Some "nonliteral" -> Ok (V.Obj_kind V.Non_literal_kind)
          | Some other -> Error (Printf.sprintf "unknown nodeKind %S" other)
          | None -> (
              match Json.find_list "values" j with
              | None -> Ok V.Obj_any
              | Some values ->
                  let* terms, stems =
                    List.fold_left
                      (fun acc v ->
                        let* terms, stems = acc in
                        let* term, stem = import_value v in
                        Ok
                          ( (match term with Some t -> t :: terms | None -> terms),
                            match stem with Some s -> s :: stems | None -> stems ))
                      (Ok ([], []))
                      values
                  in
                  let parts =
                    (if terms = [] then []
                     else [ V.Obj_in (List.rev terms) ])
                    @ List.rev_map (fun s -> V.Obj_stem s) stems
                  in
                  (match parts with
                  | [] -> Error "empty value set"
                  | [ single ] -> Ok single
                  | parts -> Ok (V.Obj_or parts)))))
  | Some "OrConstraint" -> (
      match Json.find_list "constraints" j with
      | None -> Error "OrConstraint without constraints"
      | Some cs ->
          let* parts =
            List.fold_left
              (fun acc c ->
                let* acc = acc in
                let* p = import_node_constraint c in
                Ok (p :: acc))
              (Ok []) cs
          in
          Ok (V.Obj_or (List.rev parts)))
  | Some "NotConstraint" -> (
      match Json.find "constraint" j with
      | None -> Error "NotConstraint without constraint"
      | Some c ->
          let* inner = import_node_constraint c in
          Ok (V.Obj_not inner))
  | Some other -> Error (Printf.sprintf "unknown value constraint type %S" other)

let import_cardinality j =
  let min = Option.value (Json.find_int "min" j) ~default:1 in
  let max =
    match Json.find_int "max" j with
    | Some -1 -> None
    | Some n -> Some n
    | None -> Some min
  in
  (* When neither is present the constraint is exactly-one. *)
  let max =
    if Json.find "min" j = None && Json.find "max" j = None then Some 1
    else max
  in
  (min, max)

let rec import_expr (j : Json.t) : (R.t, string) result =
  match j with
  | Json.Object _ -> (
      let min, max = import_cardinality j in
      let* base =
        match Json.find_string "type" j with
        | Some "TripleConstraint" -> (
            match Json.find_string "predicate" j with
            | None -> Error "TripleConstraint without predicate"
            | Some pred_text -> (
                match Rdf.Iri.of_string pred_text with
                | Error msg -> Error msg
                | Ok pred ->
                    let inverse =
                      Json.find "inverse" j = Some (Json.Bool true)
                    in
                    (match Json.find "valueExpr" j with
                    | None ->
                        Ok (R.arc_v ~inverse (V.Pred pred) V.Obj_any)
                    | Some (Json.String ref_text) ->
                        Ok
                          (R.arc_ref ~inverse (V.Pred pred)
                             (Shex.Label.of_string ref_text))
                    | Some nc ->
                        let* vo = import_node_constraint nc in
                        Ok (R.arc_v ~inverse (V.Pred pred) vo))))
        | Some "EachOf" -> (
            match Json.find_list "expressions" j with
            | None -> Error "EachOf without expressions"
            | Some exprs ->
                let* parts = import_exprs exprs in
                Ok (R.and_all parts))
        | Some "OneOf" -> (
            match Json.find_list "expressions" j with
            | None -> Error "OneOf without expressions"
            | Some exprs ->
                let* parts = import_exprs exprs in
                Ok (R.or_all parts))
        | Some "Not" -> (
            match Json.find "expression" j with
            | None -> Error "Not without expression"
            | Some inner ->
                let* e = import_expr inner in
                Ok (R.not_ e))
        | Some "Empty" -> Ok R.empty
        | Some other ->
            Error (Printf.sprintf "unknown triple expression type %S" other)
        | None -> Error "triple expression without type"
      in
      if min = 1 && max = Some 1 then Ok base
      else
        match R.repeat min max base with
        | e -> Ok e
        | exception Invalid_argument msg -> Error msg)
  | _ -> Error "triple expression must be an object"

and import_exprs exprs =
  let* parts =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* e = import_expr j in
        Ok (e :: acc))
      (Ok []) exprs
  in
  Ok (List.rev parts)

let import (j : Json.t) : (Shex.Schema.t, string) result =
  match Json.find_string "type" j with
  | Some "Schema" -> (
      match Json.find_list "shapes" j with
      | None -> Error "Schema without shapes"
      | Some shapes ->
          let* rules =
            List.fold_left
              (fun acc shape ->
                let* acc = acc in
                match Json.find_string "id" shape with
                | None -> Error "Shape without id"
                | Some id -> (
                    let label = Shex.Label.of_string id in
                    let* focus =
                      match Json.find "focus" shape with
                      | None -> Ok None
                      | Some nc ->
                          let* vo = import_node_constraint nc in
                          Ok (Some vo)
                    in
                    match Json.find "expression" shape with
                    | None ->
                        Ok ((label, { Shex.Schema.focus; expr = R.epsilon }) :: acc)
                    | Some expr ->
                        let* e = import_expr expr in
                        Ok ((label, { Shex.Schema.focus; expr = e }) :: acc)))
              (Ok []) shapes
          in
          Shex.Schema.make_shapes (List.rev rules))
  | _ -> Error "not a ShExJ Schema document"

let import_string src =
  let* j = Json.of_string src in
  import j
