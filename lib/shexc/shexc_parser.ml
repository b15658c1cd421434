module L = Shexc_lexer

type document = {
  schema : Shex.Schema.t;
  namespaces : Rdf.Namespace.t;
  base : Rdf.Iri.t option;
}

exception Parse_error of string * int * int

type state = {
  tokens : L.located array;
  mutable index : int;
  mutable namespaces : Rdf.Namespace.t;
  mutable base : Rdf.Iri.t option;
}

let current st = st.tokens.(st.index)
let advance st = if st.index < Array.length st.tokens - 1 then st.index <- st.index + 1

let error st msg =
  let { L.line; col; _ } = current st in
  raise (Parse_error (msg, line, col))

let expect st token msg =
  if (current st).L.token = token then advance st else error st msg

let or_error st = function Ok v -> v | Error msg -> error st msg
let resolve_iri st text = or_error st (Rdf.Iri.of_reference ?base:st.base text)

let parse_iri st =
  match (current st).L.token with
  | L.Iriref text ->
      advance st;
      resolve_iri st text
  | L.Pname (prefix, local) ->
      advance st;
      or_error st (Rdf.Namespace.expand_pname st.namespaces prefix local)
  | _ -> error st "expected an IRI"

(* Shape labels keep the IRI text (after prefix expansion / base
   resolution), so <Person> and @<Person> agree. *)
let label_of_iri iri = Shex.Label.of_string (Rdf.Iri.to_string iri)

let parse_label st =
  match (current st).L.token with
  | L.Iriref _ | L.Pname _ -> label_of_iri (parse_iri st)
  | _ -> error st "expected a shape label"

(* ------------------------------------------------------------------ *)
(* Value sets                                                         *)
(* ------------------------------------------------------------------ *)

let parse_value_set_literal st =
  match (current st).L.token with
  | L.String_lit s -> (
      advance st;
      match (current st).L.token with
      | L.Langtag tag ->
          advance st;
          Rdf.Term.Literal (Rdf.Literal.make ~lang:tag s)
      | L.Caret_caret ->
          advance st;
          let dt = parse_iri st in
          Rdf.Term.Literal (Rdf.Literal.make ~datatype:dt s)
      | _ -> Rdf.Term.Literal (Rdf.Literal.string s))
  | L.Integer_lit s ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.make ~datatype:(Rdf.Xsd.iri Rdf.Xsd.Integer) s)
  | L.Decimal_lit s ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.make ~datatype:(Rdf.Xsd.iri Rdf.Xsd.Decimal) s)
  | L.Double_lit s ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.make ~datatype:(Rdf.Xsd.iri Rdf.Xsd.Double) s)
  | L.Kw "TRUE" ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.boolean true)
  | L.Kw "FALSE" ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.boolean false)
  | _ -> error st "expected a value"

let parse_value_set st =
  expect st L.Lbracket "expected [";
  let rec go terms stems =
    match (current st).L.token with
    | L.Rbracket ->
        advance st;
        (List.rev terms, List.rev stems)
    | L.Iriref _ | L.Pname _ -> (
        let iri = parse_iri st in
        match (current st).L.token with
        | L.Tilde ->
            advance st;
            go terms (Rdf.Iri.to_string iri :: stems)
        | _ -> go (Rdf.Term.Iri iri :: terms) stems)
    | L.Blank_label label ->
        advance st;
        go (Rdf.Term.Bnode (Rdf.Bnode.of_string label) :: terms) stems
    | L.Eof -> error st "unterminated value set"
    | _ -> go (parse_value_set_literal st :: terms) stems
  in
  let terms, stems = go [] [] in
  let parts =
    (if terms = [] then [] else [ Shex.Value_set.Obj_in terms ])
    @ List.map (fun s -> Shex.Value_set.Obj_stem s) stems
  in
  match parts with
  | [] -> error st "empty value set"
  | [ single ] -> single
  | parts -> Shex.Value_set.Obj_or parts

(* ------------------------------------------------------------------ *)
(* Value classes, cardinalities, triple expressions                    *)
(* ------------------------------------------------------------------ *)

type obj_class =
  | Class_values of Shex.Value_set.obj
  | Class_ref of Shex.Label.t

let parse_value_class st =
  match (current st).L.token with
  | L.Dot ->
      advance st;
      Class_values Shex.Value_set.Obj_any
  | L.At_ref text ->
      advance st;
      Class_ref (label_of_iri (resolve_iri st text))
  | L.At_pname (prefix, local) ->
      advance st;
      Class_ref
        (label_of_iri
           (or_error st (Rdf.Namespace.expand_pname st.namespaces prefix local)))
  | L.Kw "IRI" ->
      advance st;
      Class_values (Shex.Value_set.Obj_kind Shex.Value_set.Iri_kind)
  | L.Kw "BNODE" ->
      advance st;
      Class_values (Shex.Value_set.Obj_kind Shex.Value_set.Bnode_kind)
  | L.Kw "LITERAL" ->
      advance st;
      Class_values (Shex.Value_set.Obj_kind Shex.Value_set.Literal_kind)
  | L.Kw "NONLITERAL" ->
      advance st;
      Class_values (Shex.Value_set.Obj_kind Shex.Value_set.Non_literal_kind)
  | L.Lbracket -> Class_values (parse_value_set st)
  | L.Iriref _ | L.Pname _ -> (
      let iri = parse_iri st in
      match Rdf.Xsd.of_iri iri with
      | Some prim -> Class_values (Shex.Value_set.Obj_datatype prim)
      | None -> Class_values (Shex.Value_set.Obj_datatype_iri iri))
  | _ -> error st "expected a value class"

let parse_int st =
  match (current st).L.token with
  | L.Integer_lit s -> (
      advance st;
      match int_of_string_opt s with
      | Some n when n >= 0 -> n
      | _ -> error st "expected a non-negative integer")
  | _ -> error st "expected an integer"

(* cardinality ::= '*' | '+' | '?' | '{' m (',' (n | '*'))? '}' *)
let parse_cardinality st =
  match (current st).L.token with
  | L.Star ->
      advance st;
      Some (0, None)
  | L.Plus ->
      advance st;
      Some (1, None)
  | L.Question ->
      advance st;
      Some (0, Some 1)
  | L.Lbrace -> (
      advance st;
      let m = parse_int st in
      match (current st).L.token with
      | L.Rbrace ->
          advance st;
          Some (m, Some m)
      | L.Comma -> (
          advance st;
          match (current st).L.token with
          | L.Star ->
              advance st;
              expect st L.Rbrace "expected }";
              Some (m, None)
          | L.Rbrace ->
              advance st;
              Some (m, None)
          | _ ->
              let n = parse_int st in
              if n < m then error st "max cardinality below min";
              expect st L.Rbrace "expected }";
              Some (m, Some n))
      | _ -> error st "expected , or } in cardinality")
  | _ -> None

let apply_cardinality st e = function
  | None -> e
  | Some (0, None) -> Shex.Rse.star e
  | Some (1, None) -> Shex.Rse.plus e
  | Some (0, Some 1) -> Shex.Rse.opt e
  | Some (m, n) -> (
      match Shex.Rse.repeat m n e with
      | e -> e
      | exception Invalid_argument msg -> error st msg)

let rec parse_one_of st =
  let g = parse_group st in
  let rec go acc =
    match (current st).L.token with
    | L.Pipe ->
        advance st;
        go (Shex.Rse.or_ acc (parse_group st))
    | _ -> acc
  in
  go g

and parse_group st =
  let u = parse_unary st in
  let rec go acc =
    match (current st).L.token with
    | L.Comma | L.Semicolon -> (
        advance st;
        (* allow a trailing separator before } or ) *)
        match (current st).L.token with
        | L.Rbrace | L.Rparen -> acc
        | _ -> go (Shex.Rse.and_ acc (parse_unary st)))
    | _ -> acc
  in
  go u

and parse_unary st =
  match (current st).L.token with
  | L.Bang ->
      advance st;
      Shex.Rse.not_ (parse_unary st)
  | L.Lparen ->
      advance st;
      let e = parse_one_of st in
      expect st L.Rparen "expected )";
      let card = parse_cardinality st in
      apply_cardinality st e card
  | _ ->
      let inverse =
        if (current st).L.token = L.Caret then begin advance st; true end
        else false
      in
      let pred =
        match (current st).L.token with
        | L.Kw "A" ->
            advance st;
            Rdf.Namespace.Vocab.rdf_type
        | _ -> parse_iri st
      in
      let obj_class = parse_value_class st in
      let card = parse_cardinality st in
      let arc =
        match obj_class with
        | Class_values vo ->
            Shex.Rse.arc_v ~inverse (Shex.Value_set.Pred pred) vo
        | Class_ref l -> Shex.Rse.arc_ref ~inverse (Shex.Value_set.Pred pred) l
      in
      apply_cardinality st arc card

(* Optional node constraint on the focus itself, between the label and
   the body: a node kind, a datatype, or a value set.  A datatype IRI
   is only taken as a focus constraint when a body (or modifier)
   follows, which keeps shape declarations unambiguous. *)
let parse_focus_constraint st =
  match (current st).L.token with
  | L.Kw "IRI" ->
      advance st;
      Some (Shex.Value_set.Obj_kind Shex.Value_set.Iri_kind)
  | L.Kw "BNODE" ->
      advance st;
      Some (Shex.Value_set.Obj_kind Shex.Value_set.Bnode_kind)
  | L.Kw "LITERAL" ->
      advance st;
      Some (Shex.Value_set.Obj_kind Shex.Value_set.Literal_kind)
  | L.Kw "NONLITERAL" ->
      advance st;
      Some (Shex.Value_set.Obj_kind Shex.Value_set.Non_literal_kind)
  | L.Lbracket -> Some (parse_value_set st)
  | L.Iriref _ | L.Pname _ -> (
      let saved = st.index in
      let iri = parse_iri st in
      match (current st).L.token with
      | L.Lbrace | L.Kw ("OPEN" | "CLOSED" | "EXTRA") ->
          Some
            (match Rdf.Xsd.of_iri iri with
            | Some prim -> Shex.Value_set.Obj_datatype prim
            | None -> Shex.Value_set.Obj_datatype_iri iri)
      | _ ->
          st.index <- saved;
          None)
  | _ -> None

let parse_shape_body st =
  (* Optional modifiers before the braces:
     CLOSED (the default — regular shape expressions are closed),
     OPEN (tolerate unmentioned predicates),
     EXTRA iri+ (tolerate extra arcs with the given predicates). *)
  let modifier =
    match (current st).L.token with
    | L.Kw "CLOSED" ->
        advance st;
        `Closed
    | L.Kw "OPEN" ->
        advance st;
        `Open
    | L.Kw "EXTRA" ->
        advance st;
        let rec iris acc =
          match (current st).L.token with
          | L.Iriref _ | L.Pname _ -> iris (parse_iri st :: acc)
          | _ -> List.rev acc
        in
        let extras = iris [] in
        if extras = [] then error st "EXTRA needs at least one predicate"
        else `Extra extras
    | _ -> `Closed
  in
  expect st L.Lbrace "expected {";
  let body =
    match (current st).L.token with
    | L.Rbrace ->
        advance st;
        Shex.Rse.epsilon
    | _ ->
        let e = parse_one_of st in
        expect st L.Rbrace "expected }";
        e
  in
  match modifier with
  | `Closed -> body
  | `Open -> Shex.Rse.open_up body
  | `Extra extras ->
      Shex.Rse.with_extra (Shex.Value_set.Pred_in extras) body

let parse_directive st =
  match (current st).L.token with
  | L.Kw "PREFIX" -> (
      advance st;
      match (current st).L.token with
      | L.Pname (prefix, "") -> (
          advance st;
          match (current st).L.token with
          | L.Iriref text ->
              advance st;
              let iri = resolve_iri st text in
              st.namespaces <-
                Rdf.Namespace.add prefix (Rdf.Iri.to_string iri)
                  st.namespaces
          | _ -> error st "expected namespace IRI")
      | _ -> error st "expected prefix declaration (e.g. foaf:)")
  | L.Kw "BASE" -> (
      advance st;
      match (current st).L.token with
      | L.Iriref text ->
          advance st;
          st.base <- Some (resolve_iri st text)
      | _ -> error st "expected base IRI")
  | _ -> error st "expected a directive"

let parse_document st =
  let rec go rules =
    match (current st).L.token with
    | L.Eof -> List.rev rules
    | L.Kw ("PREFIX" | "BASE") ->
        parse_directive st;
        go rules
    | _ ->
        let label = parse_label st in
        let focus = parse_focus_constraint st in
        let body = parse_shape_body st in
        go ((label, { Shex.Schema.focus; expr = body }) :: rules)
  in
  go []

let parse ?base src =
  match L.tokenize src with
  | exception L.Error (msg, line, col) ->
      Error (Printf.sprintf "lexical error at %d:%d: %s" line col msg)
  | tokens -> (
      let st =
        { tokens = Array.of_list tokens;
          index = 0;
          namespaces = Rdf.Namespace.empty;
          base }
      in
      match parse_document st with
      | rules -> (
          match Shex.Schema.make_shapes rules with
          | Ok schema ->
              Ok { schema; namespaces = st.namespaces; base = st.base }
          | Error msg -> Error msg)
      | exception Parse_error (msg, line, col) ->
          Error (Printf.sprintf "parse error at %d:%d: %s" line col msg))

let parse_schema ?base src =
  Result.map (fun d -> d.schema) (parse ?base src)

let parse_schema_exn ?base src =
  match parse_schema ?base src with
  | Ok s -> s
  | Error msg -> failwith msg
