type t = {
  lexical : string;
  datatype : Iri.t;
  lang : string option; (* lowercased; implies datatype = rdf:langString *)
}

let xsd_string = Xsd.iri Xsd.String
let rdf_lang_string = Xsd.iri Xsd.Lang_string

let make ?lang ?datatype lexical =
  match lang with
  | Some tag ->
      { lexical; datatype = rdf_lang_string;
        lang = Some (String.lowercase_ascii tag) }
  | None ->
      let datatype = Option.value datatype ~default:xsd_string in
      { lexical; datatype; lang = None }

let string s = make s
let typed dt lexical = make ~datatype:(Xsd.iri dt) lexical
let integer n = typed Xsd.Integer (string_of_int n)

let decimal f =
  (* %.17g keeps round-trip precision; strip a trailing '.' to stay in
     the xsd:decimal lexical space. *)
  let s = Printf.sprintf "%.17g" f in
  let s = if String.contains s '.' || String.contains s 'e'
             || String.contains s 'n' || String.contains s 'i'
          then s else s ^ ".0" in
  typed Xsd.Double s

let boolean b = typed Xsd.Boolean (if b then "true" else "false")
let lexical t = t.lexical
let datatype t = t.datatype
let lang t = t.lang
let xsd_primitive t = Xsd.of_iri t.datatype

let has_datatype t dt =
  Iri.equal t.datatype (Xsd.iri dt) && Xsd.valid_lexical dt t.lexical

let as_int t =
  match xsd_primitive t with
  | Some dt when Xsd.derived_from_integer dt -> Xsd.parse_integer t.lexical
  | Some _ | None -> None

let as_float t =
  match xsd_primitive t with
  | Some dt when Xsd.is_numeric dt -> Xsd.parse_decimal t.lexical
  | Some _ | None -> None

let as_bool t =
  match xsd_primitive t with
  | Some Xsd.Boolean -> (
      match t.lexical with
      | "true" | "1" -> Some true
      | "false" | "0" -> Some false
      | _ -> None)
  | Some _ | None -> None

let equal a b =
  String.equal a.lexical b.lexical
  && Iri.equal a.datatype b.datatype
  && Option.equal String.equal a.lang b.lang

let compare a b =
  let c = String.compare a.lexical b.lexical in
  if c <> 0 then c
  else
    let c = Iri.compare a.datatype b.datatype in
    if c <> 0 then c else Option.compare String.compare a.lang b.lang

(* Component hashes mixed arithmetically: the old version allocated a
   tuple (and a fresh datatype string) per call just to re-hash it. *)
let hash t =
  let h = Hashtbl.hash t.lexical in
  let h = ((h * 0x1000193) lxor Iri.hash t.datatype) land max_int in
  match t.lang with
  | None -> h
  | Some lang -> ((h * 0x1000193) lxor Hashtbl.hash lang) land max_int

(* Beyond the named escapes, every other C0 control character (and
   DEL) is written as \u00XX: emitting them raw produces documents
   that other parsers reject and that do not survive CRLF-normalising
   transports. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 || Char.code c = 0x7F ->
          Buffer.add_string buf (Printf.sprintf "\\u%04X" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp ppf t =
  match t.lang with
  | Some tag -> Format.fprintf ppf "\"%s\"@@%s" (escape t.lexical) tag
  | None ->
      if Iri.equal t.datatype xsd_string then
        Format.fprintf ppf "\"%s\"" (escape t.lexical)
      else
        Format.fprintf ppf "\"%s\"^^%a" (escape t.lexical) Iri.pp
          t.datatype
