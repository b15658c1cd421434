module String_map = Map.Make (String)

type t = string String_map.t

let empty = String_map.empty
let add prefix ns t = String_map.add prefix ns t
let find prefix t = String_map.find_opt prefix t

let expand_pname t prefix local =
  match find prefix t with
  | None -> Error (Printf.sprintf "unbound prefix %S" prefix)
  | Some ns -> Iri.of_string (ns ^ local)

let expand t name =
  match String.index_opt name ':' with
  | None -> Error (Printf.sprintf "not a prefixed name: %S" name)
  | Some i ->
      expand_pname t (String.sub name 0 i)
        (String.sub name (i + 1) (String.length name - i - 1))

let safe_local local =
  let n = String.length local in
  let ok_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.'
  in
  let rec check i = i >= n || (ok_char local.[i] && check (i + 1)) in
  check 0 && (n = 0 || (local.[0] <> '.' && local.[n - 1] <> '.'))

let shrink t iri =
  let s = Iri.to_string iri in
  let best =
    String_map.fold
      (fun prefix ns acc ->
        let ln = String.length ns in
        if ln > 0 && ln <= String.length s && String.sub s 0 ln = ns then
          match acc with
          | Some (_, best_len) when best_len >= ln -> acc
          | Some _ | None -> Some (prefix, ln)
        else acc)
      t None
  in
  match best with
  | None -> None
  | Some (prefix, ln) ->
      let local = String.sub s ln (String.length s - ln) in
      if safe_local local then Some (prefix ^ ":" ^ local) else None

let bindings t = String_map.bindings t

let default =
  empty
  |> add "rdf" "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
  |> add "rdfs" "http://www.w3.org/2000/01/rdf-schema#"
  |> add "xsd" "http://www.w3.org/2001/XMLSchema#"
  |> add "owl" "http://www.w3.org/2002/07/owl#"
  |> add "foaf" "http://xmlns.com/foaf/0.1/"
  |> add "schema" "http://schema.org/"
  |> add "ex" "http://example.org/"
  |> add "" "http://example.org/"

module Vocab = struct
  let mk ns local = Iri.of_string_exn (ns ^ local)
  let rdf l = mk "http://www.w3.org/1999/02/22-rdf-syntax-ns#" l
  let rdfs l = mk "http://www.w3.org/2000/01/rdf-schema#" l
  let xsd l = mk "http://www.w3.org/2001/XMLSchema#" l
  let foaf l = mk "http://xmlns.com/foaf/0.1/" l
  let ex l = mk "http://example.org/" l
  let rdf_type = rdf "type"
  let rdf_first = rdf "first"
  let rdf_rest = rdf "rest"
  let rdf_nil = rdf "nil"
end
