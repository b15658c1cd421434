type document = {
  graph : Rdf.Graph.t;
  namespaces : Rdf.Namespace.t;
  base : Rdf.Iri.t option;
}

exception Parse_error of string * int * int

(* The parser pulls tokens lazily (one-token lookahead, which the
   grammar below never exceeds), so parsing a channel-backed stream
   holds one token plus the graph being built — never the source text
   or the token list. *)
type state = {
  next : unit -> Lexer.located;
  mutable cur : Lexer.located;
  mutable namespaces : Rdf.Namespace.t;
  mutable base : Rdf.Iri.t option;
  mutable graph : Rdf.Graph.t;
  mutable bnode_counter : int;
}

let current st = st.cur
let advance st = if st.cur.Lexer.token <> Lexer.Eof then st.cur <- st.next ()

let error st msg =
  let { Lexer.line; col; _ } = current st in
  raise (Parse_error (msg, line, col))

let expect st token msg =
  if (current st).Lexer.token = token then advance st else error st msg

let fresh_bnode st =
  let n = st.bnode_counter in
  st.bnode_counter <- n + 1;
  Rdf.Term.Bnode (Rdf.Bnode.of_string (Printf.sprintf "tb%d" n))

let emit st s p o =
  match Rdf.Triple.make_opt s p o with
  | Some tr -> st.graph <- Rdf.Graph.add tr st.graph
  | None -> error st "literal in subject position"

let or_error st = function Ok v -> v | Error msg -> error st msg
let resolve_iri st text = or_error st (Rdf.Iri.of_reference ?base:st.base text)

let xsd_iri p = Rdf.Xsd.iri p

(* iri ::= IRIREF | PrefixedName *)
let parse_iri st =
  match (current st).Lexer.token with
  | Lexer.Iriref text ->
      advance st;
      resolve_iri st text
  | Lexer.Pname (prefix, local) ->
      advance st;
      or_error st (Rdf.Namespace.expand_pname st.namespaces prefix local)
  | _ -> error st "expected an IRI"

let parse_literal_tail st lexical =
  (* After a string: optional language tag or ^^datatype. *)
  match (current st).Lexer.token with
  | Lexer.Langtag tag ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.make ~lang:tag lexical)
  | Lexer.Caret_caret ->
      advance st;
      let dt = parse_iri st in
      Rdf.Term.Literal (Rdf.Literal.make ~datatype:dt lexical)
  | _ -> Rdf.Term.Literal (Rdf.Literal.string lexical)

let rec parse_object st =
  match (current st).Lexer.token with
  | Lexer.Iriref _ | Lexer.Pname _ -> Rdf.Term.Iri (parse_iri st)
  | Lexer.Blank_label label ->
      advance st;
      Rdf.Term.Bnode (Rdf.Bnode.of_string label)
  | Lexer.Anon ->
      advance st;
      fresh_bnode st
  | Lexer.String_lit lexical ->
      advance st;
      parse_literal_tail st lexical
  | Lexer.Integer_lit s ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.make ~datatype:(xsd_iri Rdf.Xsd.Integer) s)
  | Lexer.Decimal_lit s ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.make ~datatype:(xsd_iri Rdf.Xsd.Decimal) s)
  | Lexer.Double_lit s ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.make ~datatype:(xsd_iri Rdf.Xsd.Double) s)
  | Lexer.Kw_true ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.boolean true)
  | Lexer.Kw_false ->
      advance st;
      Rdf.Term.Literal (Rdf.Literal.boolean false)
  | Lexer.Lbracket ->
      let subject, _ = parse_bracket_node st in
      subject
  | Lexer.Lparen -> parse_collection st
  | _ -> error st "expected an object (IRI, blank node, literal, [...] or (...))"

(* '[' ... : either ANON ([]) or a blankNodePropertyList
   ('[' predicateObjectList ']').  The streaming lexer cannot emit a
   dedicated ANON token (that needs unbounded lookahead over the
   whitespace between the brackets), so the split happens here on the
   very next token.  Returns the blank node and whether a property
   list was present. *)
and parse_bracket_node st =
  expect st Lexer.Lbracket "expected [";
  let subject = fresh_bnode st in
  match (current st).Lexer.token with
  | Lexer.Rbracket ->
      advance st;
      (subject, false)
  | _ ->
      parse_predicate_object_list st subject;
      expect st Lexer.Rbracket "expected ]";
      (subject, true)

(* collection ::= '(' object* ')' — rdf:first/rdf:rest chain *)
and parse_collection st =
  expect st Lexer.Lparen "expected (";
  let rec items acc =
    match (current st).Lexer.token with
    | Lexer.Rparen ->
        advance st;
        List.rev acc
    | Lexer.Eof -> error st "unterminated collection"
    | _ -> items (parse_object st :: acc)
  in
  let objects = items [] in
  let nil = Rdf.Term.Iri Rdf.Namespace.Vocab.rdf_nil in
  let rec chain = function
    | [] -> nil
    | o :: rest ->
        let cell = fresh_bnode st in
        let tail = chain rest in
        emit st cell Rdf.Namespace.Vocab.rdf_first o;
        emit st cell Rdf.Namespace.Vocab.rdf_rest tail;
        cell
  in
  chain objects

(* verb ::= 'a' | iri *)
and parse_verb st =
  match (current st).Lexer.token with
  | Lexer.Kw_a ->
      advance st;
      Rdf.Namespace.Vocab.rdf_type
  | _ -> parse_iri st

(* objectList ::= object (',' object)* *)
and parse_object_list st subject verb =
  let o = parse_object st in
  emit st subject verb o;
  match (current st).Lexer.token with
  | Lexer.Comma ->
      advance st;
      parse_object_list st subject verb
  | _ -> ()

(* predicateObjectList ::= verb objectList (';' (verb objectList)?)* *)
and parse_predicate_object_list st subject =
  let verb = parse_verb st in
  parse_object_list st subject verb;
  let rec more () =
    match (current st).Lexer.token with
    | Lexer.Semicolon -> (
        advance st;
        match (current st).Lexer.token with
        | Lexer.Semicolon | Lexer.Dot | Lexer.Rbracket | Lexer.Eof ->
            more ()
        | _ ->
            let verb = parse_verb st in
            parse_object_list st subject verb;
            more ())
    | _ -> ()
  in
  more ()

(* subject ::= iri | BlankNode | collection *)
let parse_subject st =
  match (current st).Lexer.token with
  | Lexer.Iriref _ | Lexer.Pname _ -> Rdf.Term.Iri (parse_iri st)
  | Lexer.Blank_label label ->
      advance st;
      Rdf.Term.Bnode (Rdf.Bnode.of_string label)
  | Lexer.Anon ->
      advance st;
      fresh_bnode st
  | Lexer.Lparen -> parse_collection st
  | _ -> error st "expected a subject"

let parse_triples st =
  match (current st).Lexer.token with
  | Lexer.Lbracket -> (
      (* blankNodePropertyList predicateObjectList? — but a bare ANON
         subject ([] p o .) requires the predicateObjectList. *)
      let subject, had_props = parse_bracket_node st in
      if not had_props then parse_predicate_object_list st subject
      else
        match (current st).Lexer.token with
        | Lexer.Dot -> ()
        | _ -> parse_predicate_object_list st subject)
  | _ ->
      let subject = parse_subject st in
      parse_predicate_object_list st subject

let parse_directive st =
  match (current st).Lexer.token with
  | Lexer.At_prefix | Lexer.Kw_prefix ->
      let sparql_style = (current st).Lexer.token = Lexer.Kw_prefix in
      advance st;
      (match (current st).Lexer.token with
      | Lexer.Pname (prefix, "") ->
          advance st;
          (match (current st).Lexer.token with
          | Lexer.Iriref text ->
              advance st;
              let iri = resolve_iri st text in
              st.namespaces <-
                Rdf.Namespace.add prefix (Rdf.Iri.to_string iri)
                  st.namespaces
          | _ -> error st "expected namespace IRI")
      | _ -> error st "expected prefix declaration (e.g. foaf:)");
      if not sparql_style then expect st Lexer.Dot "expected . after @prefix"
  | Lexer.At_base | Lexer.Kw_base ->
      let sparql_style = (current st).Lexer.token = Lexer.Kw_base in
      advance st;
      (match (current st).Lexer.token with
      | Lexer.Iriref text ->
          advance st;
          st.base <- Some (resolve_iri st text)
      | _ -> error st "expected base IRI");
      if not sparql_style then expect st Lexer.Dot "expected . after @base"
  | _ -> error st "expected a directive"

let parse_document st =
  let rec go () =
    match (current st).Lexer.token with
    | Lexer.Eof -> ()
    | Lexer.At_prefix | Lexer.At_base | Lexer.Kw_prefix | Lexer.Kw_base ->
        parse_directive st;
        go ()
    | _ ->
        parse_triples st;
        expect st Lexer.Dot "expected . after triples";
        go ()
  in
  go ()

let parse_stream ?base stream =
  (* Tokenization is lazy now, so lexical errors can surface at any
     point of the parse, not just up front. *)
  match
    let st =
      { next = (fun () -> Lexer.next stream);
        cur = Lexer.next stream;
        namespaces = Rdf.Namespace.empty;
        base;
        graph = Rdf.Graph.empty;
        bnode_counter = 0 }
    in
    parse_document st;
    st
  with
  | st -> Ok { graph = st.graph; namespaces = st.namespaces; base = st.base }
  | exception Lexer.Error (msg, line, col) ->
      Error (Printf.sprintf "lexical error at %d:%d: %s" line col msg)
  | exception Parse_error (msg, line, col) ->
      Error (Printf.sprintf "parse error at %d:%d: %s" line col msg)

let parse ?base src = parse_stream ?base (Lexer.stream_of_string src)

let parse_graph ?base src =
  Result.map (fun (d : document) -> d.graph) (parse ?base src)

let parse_graph_exn ?base src =
  match parse_graph ?base src with
  | Ok g -> g
  | Error msg -> failwith msg

let parse_file ?base path =
  (* Streaming end to end: the lexer window slides over the channel,
     so peak memory is bounded by the parsed graph, not graph + source
     text (the old version slurped the whole file first). *)
  match
    In_channel.with_open_bin path (fun ic ->
        parse_stream ?base (Lexer.stream_of_channel ic))
  with
  | result -> result
  | exception Sys_error msg -> Error msg
