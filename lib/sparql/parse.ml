module L = Lexer

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

let expect_kw st kw =
  match (current st).L.token with
  | L.Kw k when k = kw -> advance st
  | _ -> error st (Printf.sprintf "expected %s" kw)

let or_error st = function Ok v -> v | Error msg -> error st msg
let resolve_iri st text = or_error st (Rdf.Iri.of_reference ?base:st.base text)

let parse_iri st =
  match (current st).L.token with
  | L.Iriref text ->
      advance st;
      resolve_iri st text
  | L.Pname ("_", _) -> error st "blank node where an IRI is required"
  | L.Pname (prefix, local) ->
      advance st;
      or_error st (Rdf.Namespace.expand_pname st.namespaces prefix local)
  | L.Kw "A" ->
      advance st;
      Rdf.Namespace.Vocab.rdf_type
  | _ -> error st "expected an IRI"

(* Terms in triple patterns.  Blank nodes become variables named with
   the "_:" prefix (standard BGP semantics). *)
let parse_term_pat st : Ast.term_pat =
  match (current st).L.token with
  | L.Var v ->
      advance st;
      Ast.Var v
  | L.Pname ("_", local) ->
      advance st;
      Ast.Var ("_:" ^ local)
  | L.Iriref _ | L.Pname _ | L.Kw "A" -> Ast.Const (Rdf.Term.Iri (parse_iri st))
  | L.String_lit s -> (
      advance st;
      match (current st).L.token with
      | L.Langtag tag ->
          advance st;
          Ast.Const (Rdf.Term.Literal (Rdf.Literal.make ~lang:tag s))
      | L.Caret_caret ->
          advance st;
          let dt = parse_iri st in
          Ast.Const (Rdf.Term.Literal (Rdf.Literal.make ~datatype:dt s))
      | _ -> Ast.Const (Rdf.Term.Literal (Rdf.Literal.string s)))
  | L.Integer_lit s ->
      advance st;
      Ast.Const (Rdf.Term.Literal (Rdf.Literal.typed Rdf.Xsd.Integer s))
  | L.Decimal_lit s ->
      advance st;
      Ast.Const (Rdf.Term.Literal (Rdf.Literal.typed Rdf.Xsd.Decimal s))
  | L.Double_lit s ->
      advance st;
      Ast.Const (Rdf.Term.Literal (Rdf.Literal.typed Rdf.Xsd.Double s))
  | L.Kw "TRUE" ->
      advance st;
      Ast.Const (Rdf.Term.Literal (Rdf.Literal.boolean true))
  | L.Kw "FALSE" ->
      advance st;
      Ast.Const (Rdf.Term.Literal (Rdf.Literal.boolean false))
  | _ -> error st "expected a term (variable, IRI or literal)"

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_or_expr st

and parse_or_expr st =
  let e = parse_and_expr st in
  let rec go acc =
    match (current st).L.token with
    | L.Pipe_pipe ->
        advance st;
        go (Ast.E_or (acc, parse_and_expr st))
    | _ -> acc
  in
  go e

and parse_and_expr st =
  let e = parse_rel_expr st in
  let rec go acc =
    match (current st).L.token with
    | L.Amp_amp ->
        advance st;
        go (Ast.E_and (acc, parse_rel_expr st))
    | _ -> acc
  in
  go e

and parse_rel_expr st =
  let e = parse_add_expr st in
  let cmp op =
    advance st;
    Ast.E_cmp (op, e, parse_add_expr st)
  in
  match (current st).L.token with
  | L.Eq -> cmp Ast.Eq
  | L.Neq -> cmp Ast.Ne
  | L.Lt -> cmp Ast.Lt
  | L.Le -> cmp Ast.Le
  | L.Gt -> cmp Ast.Gt
  | L.Ge -> cmp Ast.Ge
  | _ -> e

and parse_add_expr st =
  let e = parse_unary_expr st in
  let rec go acc =
    match (current st).L.token with
    | L.Plus ->
        advance st;
        go (Ast.E_add (acc, parse_unary_expr st))
    | _ -> acc
  in
  go e

and parse_unary_expr st =
  match (current st).L.token with
  | L.Bang ->
      advance st;
      Ast.E_not (parse_unary_expr st)
  | _ -> parse_primary_expr st

and parse_primary_expr st =
  match (current st).L.token with
  | L.Lparen ->
      advance st;
      let e = parse_expr st in
      expect st L.Rparen "expected )";
      e
  | L.Var v ->
      advance st;
      Ast.E_var v
  | L.Integer_lit s ->
      advance st;
      (match int_of_string_opt s with
      | Some n -> Ast.E_int n
      | None -> error st "integer out of range")
  | L.String_lit s -> (
      advance st;
      match (current st).L.token with
      | L.Langtag tag ->
          advance st;
          Ast.E_const (Rdf.Term.Literal (Rdf.Literal.make ~lang:tag s))
      | L.Caret_caret ->
          advance st;
          let dt = parse_iri st in
          Ast.E_const (Rdf.Term.Literal (Rdf.Literal.make ~datatype:dt s))
      | _ -> Ast.E_const (Rdf.Term.Literal (Rdf.Literal.string s)))
  | L.Kw "TRUE" ->
      advance st;
      Ast.E_bool true
  | L.Kw "FALSE" ->
      advance st;
      Ast.E_bool false
  | L.Kw (("ISIRI" | "ISURI") as _k) ->
      advance st;
      Ast.E_is_iri (parenthesised st)
  | L.Kw "ISLITERAL" ->
      advance st;
      Ast.E_is_literal (parenthesised st)
  | L.Kw "ISBLANK" ->
      advance st;
      Ast.E_is_blank (parenthesised st)
  | L.Kw "DATATYPE" ->
      advance st;
      Ast.E_datatype (parenthesised st)
  | L.Kw "BOUND" -> (
      advance st;
      expect st L.Lparen "expected (";
      match (current st).L.token with
      | L.Var v ->
          advance st;
          expect st L.Rparen "expected )";
          Ast.E_bound v
      | _ -> error st "bound() takes a variable")
  | L.Kw "STR" ->
      (* str(e) — only as the regex subject; pass the inner expression
         through since our regex builtin applies str() itself. *)
      advance st;
      parenthesised st
  | L.Kw "REGEX" -> (
      advance st;
      expect st L.Lparen "expected (";
      let subject = parse_expr st in
      expect st L.Comma "expected , in regex";
      match (current st).L.token with
      | L.String_lit pattern ->
          advance st;
          expect st L.Rparen "expected )";
          let prefix =
            if String.length pattern > 0 && pattern.[0] = '^' then
              String.sub pattern 1 (String.length pattern - 1)
            else pattern
          in
          Ast.E_regex (subject, prefix)
      | _ -> error st "regex pattern must be a string literal")
  | L.Kw "EXISTS" ->
      advance st;
      Ast.E_exists (parse_group st)
  | L.Kw "NOT" ->
      advance st;
      expect_kw st "EXISTS";
      Ast.E_not_exists (parse_group st)
  | L.Iriref _ | L.Pname _ -> Ast.E_const (Rdf.Term.Iri (parse_iri st))
  | _ -> error st "expected an expression"

and parenthesised st =
  expect st L.Lparen "expected (";
  let e = parse_expr st in
  expect st L.Rparen "expected )";
  e

(* ------------------------------------------------------------------ *)
(* Graph patterns                                                     *)
(* ------------------------------------------------------------------ *)

(* triplesBlock with ';' and ',' abbreviations. *)
and parse_triples_block st =
  let triples = ref [] in
  let subject = parse_term_pat st in
  let rec predicate_object_list () =
    let pred = parse_term_pat st in
    let rec object_list () =
      let obj = parse_term_pat st in
      triples := { Ast.tp_s = subject; tp_p = pred; tp_o = obj } :: !triples;
      match (current st).L.token with
      | L.Comma ->
          advance st;
          object_list ()
      | _ -> ()
    in
    object_list ();
    match (current st).L.token with
    | L.Semicolon -> (
        advance st;
        match (current st).L.token with
        | L.Dot | L.Rbrace | L.Semicolon -> ()
        | _ -> predicate_object_list ())
    | _ -> ()
  in
  predicate_object_list ();
  List.rev !triples

and parse_group st : Ast.pattern =
  expect st L.Lbrace "expected {";
  let acc = ref None in
  let filters = ref [] in
  let join p =
    acc := Some (match !acc with None -> p | Some q -> Ast.Join (q, p))
  in
  let rec loop () =
    match (current st).L.token with
    | L.Rbrace -> advance st
    | L.Dot ->
        advance st;
        loop ()
    | L.Kw "FILTER" ->
        advance st;
        (* FILTER EXISTS { } / FILTER NOT EXISTS { } / FILTER (expr) *)
        let e =
          match (current st).L.token with
          | L.Kw "EXISTS" ->
              advance st;
              Ast.E_exists (parse_group st)
          | L.Kw "NOT" ->
              advance st;
              expect_kw st "EXISTS";
              Ast.E_not_exists (parse_group st)
          | _ ->
              (* FILTER (expr) or FILTER builtin(args) *)
              parse_primary_expr st
        in
        filters := e :: !filters;
        loop ()
    | L.Kw "OPTIONAL" ->
        advance st;
        let right = parse_group st in
        let left = match !acc with None -> Ast.Bgp [] | Some p -> p in
        acc := Some (Ast.Optional (left, right));
        loop ()
    | L.Lbrace ->
        (* Braced subgroup, possibly a UNION chain or a sub-SELECT. *)
        let first = parse_group_or_subselect st in
        let rec unions acc_p =
          match (current st).L.token with
          | L.Kw "UNION" ->
              advance st;
              let next = parse_group_or_subselect st in
              unions (Ast.Union (acc_p, next))
          | _ -> acc_p
        in
        join (unions first);
        loop ()
    | L.Eof -> error st "unterminated group"
    | _ ->
        let triples = parse_triples_block st in
        join (Ast.Bgp triples);
        loop ()
  in
  loop ();
  let body = match !acc with None -> Ast.Bgp [] | Some p -> p in
  List.fold_left (fun p e -> Ast.Filter (e, p)) body (List.rev !filters)

and parse_group_or_subselect st : Ast.pattern =
  (* Caller saw '{'.  Look one token ahead for SELECT. *)
  let saved = st.index in
  expect st L.Lbrace "expected {";
  match (current st).L.token with
  | L.Kw "SELECT" ->
      let sel = parse_select st in
      expect st L.Rbrace "expected } after subselect";
      Ast.Sub_select sel
  | _ ->
      st.index <- saved;
      parse_group st

(* ------------------------------------------------------------------ *)
(* SELECT / ASK                                                       *)
(* ------------------------------------------------------------------ *)

and parse_select st : Ast.select =
  expect_kw st "SELECT";
  let distinct =
    match (current st).L.token with
    | L.Kw "DISTINCT" ->
        advance st;
        true
    | _ -> false
  in
  let vars = ref [] and aggs = ref [] in
  let rec projection () =
    match (current st).L.token with
    | L.Var v ->
        advance st;
        vars := v :: !vars;
        projection ()
    | L.Star ->
        advance st;
        projection ()
    | L.Lparen -> (
        advance st;
        match (current st).L.token with
        | L.Kw "COUNT" ->
            advance st;
            expect st L.Lparen "expected ( after COUNT";
            expect st L.Star "only COUNT(*) is supported";
            expect st L.Rparen "expected )";
            expect_kw st "AS";
            (match (current st).L.token with
            | L.Var v ->
                advance st;
                aggs := (Ast.Count_star, v) :: !aggs
            | _ -> error st "expected a variable after AS");
            expect st L.Rparen "expected )";
            projection ()
        | _ -> error st "expected an aggregate")
    | _ -> ()
  in
  projection ();
  (* WHERE is optional before the group. *)
  (match (current st).L.token with
  | L.Kw "WHERE" -> advance st
  | _ -> ());
  let where = parse_group st in
  let group_by = ref [] in
  (match (current st).L.token with
  | L.Kw "GROUP" ->
      advance st;
      expect_kw st "BY";
      let rec go () =
        match (current st).L.token with
        | L.Var v ->
            advance st;
            group_by := v :: !group_by;
            go ()
        | _ -> ()
      in
      go ()
  | _ -> ());
  let having = ref [] in
  let rec having_loop () =
    match (current st).L.token with
    | L.Kw "HAVING" ->
        advance st;
        having := parenthesised st :: !having;
        having_loop ()
    | _ -> ()
  in
  having_loop ();
  { Ast.sel_vars = List.rev !vars;
    sel_aggs = List.rev !aggs;
    sel_where = where;
    sel_group_by = List.rev !group_by;
    sel_having = List.rev !having;
    sel_distinct = distinct }

let parse_prologue st =
  let rec go () =
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
                    st.namespaces;
                go ()
            | _ -> error st "expected namespace IRI")
        | _ -> error st "expected prefix declaration")
    | L.Kw "BASE" -> (
        advance st;
        match (current st).L.token with
        | L.Iriref text ->
            advance st;
            st.base <- Some (resolve_iri st text);
            go ()
        | _ -> error st "expected base IRI")
    | _ -> ()
  in
  go ()

let parse src =
  match L.tokenize src with
  | exception L.Error (msg, line, col) ->
      Error (Printf.sprintf "lexical error at %d:%d: %s" line col msg)
  | tokens -> (
      let st =
        { tokens = Array.of_list tokens;
          index = 0;
          namespaces = Rdf.Namespace.empty;
          base = None }
      in
      match
        parse_prologue st;
        match (current st).L.token with
        | L.Kw "ASK" ->
            advance st;
            let p = parse_group st in
            expect st L.Eof "trailing content after query";
            Ast.Ask p
        | L.Kw "SELECT" ->
            let sel = parse_select st in
            expect st L.Eof "trailing content after query";
            Ast.Select_q sel
        | _ -> error st "expected ASK or SELECT"
      with
      | q -> Ok q
      | exception Parse_error (msg, line, col) ->
          Error (Printf.sprintf "parse error at %d:%d: %s" line col msg))

let parse_exn src =
  match parse src with Ok q -> q | Error msg -> failwith msg
