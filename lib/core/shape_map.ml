type selector =
  | Node of Rdf.Term.t
  | Focus_subject of Rdf.Iri.t option * Rdf.Term.t option
  | Focus_object of Rdf.Term.t option * Rdf.Iri.t option

type association = { selector : selector; label : Label.t }
type t = association list

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

type token =
  | T_iri of string        (* decoded text of <...> *)
  | T_pname of string * string
  | T_bnode of string
  | T_literal of Rdf.Literal.t
  | T_focus
  | T_wild
  | T_kw_a
  | T_at
  | T_lbrace
  | T_rbrace
  | T_comma
  | T_eof

exception Parse_error of string

module T = Turtle.Lexer

let number_literal = function
  | T.Integer_lit s -> Rdf.Literal.typed Rdf.Xsd.Integer s
  | T.Decimal_lit s -> Rdf.Literal.typed Rdf.Xsd.Decimal s
  | T.Double_lit s -> Rdf.Literal.typed Rdf.Xsd.Double s
  | _ -> assert false (* read_number returns only number tokens *)

(* Terms through Turtle's scanners; raises [T.Error] with a position. *)
let tokenize src =
  let st = T.stream_of_string src in
  let punct tok = T.advance st; tok in
  let next () =
    T.skip_blank st;
    let c = T.peek st in
    if c < 0 then T_eof
    else
      match Char.chr c with
      | '<' -> T_iri (T.read_iriref st)
      | ('"' | '\'') as quote ->
          T_literal (Rdf.Literal.string (T.read_string st quote))
      | '@' -> punct T_at
      | '{' -> punct T_lbrace
      | '}' -> punct T_rbrace
      | ',' -> punct T_comma
      | '_' ->
          if T.peek_at st 1 = Char.code ':' then T_bnode (T.read_blank_label st)
          else punct T_wild
      | '+' | '-' | '.' | '0' .. '9' ->
          T_literal (number_literal (T.read_number st))
      | ':' | 'A' .. 'Z' | 'a' .. 'z' | '\128' .. '\255' ->
          let word = T.read_pn_prefix st in
          if T.peek st = Char.code ':' then begin
            T.advance st;
            T_pname (word, T.read_pn_local st)
          end
          else if word = "FOCUS" then T_focus
          else if word = "a" then T_kw_a
          else T.error st (Printf.sprintf "unexpected word %S" word)
      | c -> T.error st (Printf.sprintf "unexpected character %C" c)
  in
  let rec all acc =
    match next () with
    | T_eof -> List.rev (T_eof :: acc)
    | t -> all (t :: acc)
  in
  all []

type parser_state = { mutable tokens : token list; ns : Rdf.Namespace.t }

let peek_tok st = match st.tokens with [] -> T_eof | t :: _ -> t

let advance_tok st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let or_fail = function Ok v -> v | Error msg -> raise (Parse_error msg)

let parse_iri st =
  match peek_tok st with
  | T_iri text ->
      advance_tok st;
      or_fail (Rdf.Iri.of_string text)
  | T_pname (p, l) ->
      advance_tok st;
      or_fail (Rdf.Namespace.expand_pname st.ns p l)
  | T_kw_a ->
      advance_tok st;
      Rdf.Namespace.Vocab.rdf_type
  | _ -> raise (Parse_error "expected an IRI")

let parse_term st =
  match peek_tok st with
  | T_iri _ | T_pname _ -> Rdf.Term.Iri (parse_iri st)
  | T_bnode label ->
      advance_tok st;
      Rdf.Term.Bnode (Rdf.Bnode.of_string label)
  | T_literal l ->
      advance_tok st;
      Rdf.Term.Literal l
  | _ -> raise (Parse_error "expected a node (IRI, blank node or literal)")

let parse_opt_term st =
  match peek_tok st with
  | T_wild ->
      advance_tok st;
      None
  | _ -> Some (parse_term st)

let parse_opt_pred st =
  match peek_tok st with
  | T_wild ->
      advance_tok st;
      None
  | _ -> Some (parse_iri st)

(* {FOCUS p o} or {s p FOCUS} *)
let parse_triple_selector st =
  advance_tok st (* '{' *);
  let selector =
    match peek_tok st with
    | T_focus ->
        advance_tok st;
        let pred = parse_opt_pred st in
        let obj = parse_opt_term st in
        Focus_subject (pred, obj)
    | _ ->
        let subj = parse_opt_term st in
        let pred = parse_opt_pred st in
        (match peek_tok st with
        | T_focus -> advance_tok st
        | _ -> raise (Parse_error "expected FOCUS in object position"));
        Focus_object (subj, pred)
  in
  (match peek_tok st with
  | T_rbrace -> advance_tok st
  | _ -> raise (Parse_error "expected }"));
  selector

let parse_association st =
  let selector =
    match peek_tok st with
    | T_lbrace -> parse_triple_selector st
    | _ -> Node (parse_term st)
  in
  (match peek_tok st with
  | T_at -> advance_tok st
  | _ -> raise (Parse_error "expected @ before the shape label"));
  let label =
    match peek_tok st with
    | T_iri text ->
        advance_tok st;
        Label.of_string text
    | T_pname (p, l) ->
        advance_tok st;
        Label.of_string
          (Rdf.Iri.to_string (or_fail (Rdf.Namespace.expand_pname st.ns p l)))
    | _ -> raise (Parse_error "expected a shape label")
  in
  { selector; label }

let parse ?(namespaces = Rdf.Namespace.default) src =
  match tokenize src with
  | exception T.Error (msg, line, col) ->
      Error
        (Printf.sprintf "shape map: lexical error at %d:%d: %s" line col msg)
  | tokens -> (
      let st = { tokens; ns = namespaces } in
      let rec go acc =
        match peek_tok st with
        | T_eof -> List.rev acc
        | T_comma ->
            advance_tok st;
            go acc
        | _ -> go (parse_association st :: acc)
      in
      match go [] with
      | assocs -> Ok assocs
      | exception Parse_error msg -> Error ("shape map: " ^ msg))

let parse_exn ?namespaces src =
  match parse ?namespaces src with
  | Ok t -> t
  | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* Resolution                                                         *)
(* ------------------------------------------------------------------ *)

let resolve t graph =
  let module Pair_set = Set.Make (struct
    type t = Rdf.Term.t * Label.t

    let compare (n1, l1) (n2, l2) =
      let c = Rdf.Term.compare n1 n2 in
      if c <> 0 then c else Label.compare l1 l2
  end) in
  let add_selector acc { selector; label } =
    match selector with
    | Node n -> Pair_set.add (n, label) acc
    | Focus_subject (pred, obj) ->
        List.fold_left
          (fun acc tr -> Pair_set.add (Rdf.Triple.subject tr, label) acc)
          acc
          (Rdf.Graph.match_pattern ?p:pred ?o:obj graph)
    | Focus_object (subj, pred) ->
        List.fold_left
          (fun acc tr -> Pair_set.add (Rdf.Triple.obj tr, label) acc)
          acc
          (Rdf.Graph.match_pattern ?s:subj ?p:pred graph)
  in
  Pair_set.elements (List.fold_left add_selector Pair_set.empty t)

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let pp_selector ppf = function
  | Node n -> Rdf.Term.pp ppf n
  | Focus_subject (pred, obj) ->
      Format.fprintf ppf "{FOCUS %s %s}"
        (match pred with Some p -> Format.asprintf "%a" Rdf.Iri.pp p | None -> "_")
        (match obj with Some o -> Rdf.Term.to_string o | None -> "_")
  | Focus_object (subj, pred) ->
      Format.fprintf ppf "{%s %s FOCUS}"
        (match subj with Some s -> Rdf.Term.to_string s | None -> "_")
        (match pred with Some p -> Format.asprintf "%a" Rdf.Iri.pp p | None -> "_")

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
    (fun ppf { selector; label } ->
      Format.fprintf ppf "%a@@%a" pp_selector selector Label.pp label)
    ppf t
