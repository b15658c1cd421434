let parse src = Parse.parse_graph src

(* ------------------------------------------------------------------ *)
(* Streaming bulk loading                                              *)
(* ------------------------------------------------------------------ *)

(* One triple at a time off the token stream: the N-Triples grammar
   needs no lookahead beyond the literal tail, so the fold holds one
   token, one triple and the accumulator — nothing proportional to
   the document.  Term construction mirrors the Turtle parser exactly
   (same [Literal.make] calls), so a graph loaded here is
   term-for-term the graph [parse] builds. *)
let fold_stream f acc stream =
  let exception Fail of string in
  let fail (l : Lexer.located) msg =
    raise
      (Fail
         (Printf.sprintf "not N-Triples at %d:%d: %s" l.Lexer.line l.Lexer.col
            msg))
  in
  let iri_of l text =
    match Rdf.Iri.of_string text with
    | Ok iri -> iri
    | Error msg -> fail l msg
  in
  let rec go acc =
    let t = Lexer.next stream in
    match t.Lexer.token with
    | Lexer.Eof -> acc
    | _ ->
        let s =
          match t.Lexer.token with
          | Lexer.Iriref text -> Rdf.Term.Iri (iri_of t text)
          | Lexer.Blank_label label ->
              Rdf.Term.Bnode (Rdf.Bnode.of_string label)
          | _ -> fail t "invalid subject"
        in
        let tp = Lexer.next stream in
        let p =
          match tp.Lexer.token with
          | Lexer.Iriref text -> iri_of tp text
          | _ -> fail tp "predicate must be an IRI"
        in
        let tobj = Lexer.next stream in
        let o, tdot =
          match tobj.Lexer.token with
          | Lexer.Iriref text ->
              (Rdf.Term.Iri (iri_of tobj text), Lexer.next stream)
          | Lexer.Blank_label label ->
              (Rdf.Term.Bnode (Rdf.Bnode.of_string label), Lexer.next stream)
          | Lexer.String_lit lexical -> (
              let tail = Lexer.next stream in
              match tail.Lexer.token with
              | Lexer.Langtag tag ->
                  ( Rdf.Term.Literal (Rdf.Literal.make ~lang:tag lexical),
                    Lexer.next stream )
              | Lexer.Caret_caret -> (
                  let tdt = Lexer.next stream in
                  match tdt.Lexer.token with
                  | Lexer.Iriref text ->
                      ( Rdf.Term.Literal
                          (Rdf.Literal.make ~datatype:(iri_of tdt text) lexical),
                        Lexer.next stream )
                  | _ -> fail tdt "datatype must be an IRI")
              | _ -> (Rdf.Term.Literal (Rdf.Literal.string lexical), tail))
          | _ -> fail tobj "invalid object"
        in
        (match tdot.Lexer.token with
        | Lexer.Dot -> ()
        | _ -> fail tdot "expected .");
        (* [make] cannot raise: the subject was vetted above. *)
        go (f acc (Rdf.Triple.make s p o))
  in
  match go acc with
  | acc -> Ok acc
  | exception Fail msg -> Error msg
  | exception Lexer.Error (msg, line, col) ->
      Error (Printf.sprintf "lexical error at %d:%d: %s" line col msg)

let fold_file path f init =
  match
    In_channel.with_open_bin path (fun ic ->
        fold_stream f init (Lexer.stream_of_channel ic))
  with
  | result -> result
  | exception Sys_error msg -> Error msg

let load_file path =
  let b = Rdf.Columnar.builder () in
  match
    fold_file path
      (fun () tr -> Rdf.Columnar.add_triple b tr)
      ()
  with
  | Ok () -> Ok (Rdf.Columnar.freeze b)
  | Error _ as e -> e

let term_text = function
  | Rdf.Term.Iri iri -> Printf.sprintf "<%s>" (Rdf.Iri.to_string iri)
  | Rdf.Term.Bnode b -> Printf.sprintf "_:%s" (Rdf.Bnode.label b)
  | Rdf.Term.Literal l -> (
      let lexical = Rdf.Literal.escape (Rdf.Literal.lexical l) in
      match Rdf.Literal.lang l with
      | Some tag -> Printf.sprintf "\"%s\"@%s" lexical tag
      | None ->
          if Rdf.Iri.equal (Rdf.Literal.datatype l) (Rdf.Xsd.iri Rdf.Xsd.String)
          then Printf.sprintf "\"%s\"" lexical
          else
            Printf.sprintf "\"%s\"^^<%s>" lexical
              (Rdf.Iri.to_string (Rdf.Literal.datatype l)))

let to_string g =
  let buf = Buffer.create 1024 in
  Rdf.Graph.iter
    (fun tr ->
      Buffer.add_string buf (term_text (Rdf.Triple.subject tr));
      Buffer.add_char buf ' ';
      Buffer.add_string buf
        (Printf.sprintf "<%s>" (Rdf.Iri.to_string (Rdf.Triple.predicate tr)));
      Buffer.add_char buf ' ';
      Buffer.add_string buf (term_text (Rdf.Triple.obj tr));
      Buffer.add_string buf " .\n")
    g;
  Buffer.contents buf

let to_file path g =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string g))
