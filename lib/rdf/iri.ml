type t = string

let forbidden_char c =
  match c with
  | '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\' | ' ' -> true
  | c -> Char.code c <= 0x20

(* A loop, not a local recursive function: bulk loads validate every
   IRI they read, and a closure would be allocated per IRI. *)
let validate s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && not (forbidden_char s.[!i]) do
    incr i
  done;
  if !i >= n then Ok s
  else
    Error
      (Printf.sprintf "invalid character %C at position %d in IRI %S" s.[!i]
         !i s)

let of_string s = validate s

let of_string_exn s =
  match validate s with
  | Ok iri -> iri
  | Error msg -> invalid_arg ("Iri.of_string_exn: " ^ msg)

let to_string t = t

(* RFC 3986 §3.1: scheme = ALPHA *( ALPHA / DIGIT / "+" / "-" / "." ) *)
let scheme t =
  let n = String.length t in
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let is_scheme_char c =
    is_alpha c || (c >= '0' && c <= '9') || c = '+' || c = '-' || c = '.'
  in
  if n = 0 || not (is_alpha t.[0]) then None
  else
    let rec scan i =
      if i >= n then None
      else if t.[i] = ':' then Some (String.sub t 0 i)
      else if is_scheme_char t.[i] then scan (i + 1)
      else None
    in
    scan 1

let is_absolute t = scheme t <> None

(* Split an IRI into (scheme, authority, path, query, fragment) per
   RFC 3986 appendix B, without regexes. Each component keeps its
   delimiter semantics: authority is the text after "//", query after
   "?", fragment after "#". *)
type components = {
  c_scheme : string option;
  c_authority : string option;
  c_path : string;
  c_query : string option;
  c_fragment : string option;
}

let split iri =
  let s, rest =
    match scheme iri with
    | Some sc ->
        (Some sc, String.sub iri (String.length sc + 1)
                    (String.length iri - String.length sc - 1))
    | None -> (None, iri)
  in
  let rest, fragment =
    match String.index_opt rest '#' with
    | Some i ->
        ( String.sub rest 0 i,
          Some (String.sub rest (i + 1) (String.length rest - i - 1)) )
    | None -> (rest, None)
  in
  let rest, query =
    match String.index_opt rest '?' with
    | Some i ->
        ( String.sub rest 0 i,
          Some (String.sub rest (i + 1) (String.length rest - i - 1)) )
    | None -> (rest, None)
  in
  let authority, path =
    if String.length rest >= 2 && rest.[0] = '/' && rest.[1] = '/' then
      let after = String.sub rest 2 (String.length rest - 2) in
      match String.index_opt after '/' with
      | Some i ->
          ( Some (String.sub after 0 i),
            String.sub after i (String.length after - i) )
      | None -> (Some after, "")
    else (None, rest)
  in
  { c_scheme = s; c_authority = authority; c_path = path; c_query = query;
    c_fragment = fragment }

let unsplit c =
  let buf = Buffer.create 64 in
  (match c.c_scheme with
  | Some s ->
      Buffer.add_string buf s;
      Buffer.add_char buf ':'
  | None -> ());
  (match c.c_authority with
  | Some a ->
      Buffer.add_string buf "//";
      Buffer.add_string buf a
  | None -> ());
  Buffer.add_string buf c.c_path;
  (match c.c_query with
  | Some q ->
      Buffer.add_char buf '?';
      Buffer.add_string buf q
  | None -> ());
  (match c.c_fragment with
  | Some f ->
      Buffer.add_char buf '#';
      Buffer.add_string buf f
  | None -> ());
  Buffer.contents buf

(* RFC 3986 §5.2.4 remove_dot_segments, on "/"-separated paths. *)
let remove_dot_segments path =
  let absolute = String.length path > 0 && path.[0] = '/' in
  let segments = String.split_on_char '/' path in
  let segments = if absolute then List.tl segments else segments in
  let rec go acc = function
    | [] -> List.rev acc
    | "." :: [] -> List.rev ("" :: acc)
    | "." :: rest -> go acc rest
    | ".." :: [] -> List.rev ("" :: (match acc with [] -> [] | _ :: t -> t))
    | ".." :: rest -> go (match acc with [] -> [] | _ :: t -> t) rest
    | seg :: rest -> go (seg :: acc) rest
  in
  let out = go [] segments in
  (if absolute then "/" else "") ^ String.concat "/" out

(* RFC 3986 §5.2.3 merge. *)
let merge_paths ~base_authority ~base_path ref_path =
  if base_authority <> None && base_path = "" then "/" ^ ref_path
  else
    match String.rindex_opt base_path '/' with
    | Some i -> String.sub base_path 0 (i + 1) ^ ref_path
    | None -> ref_path

let resolve ~base r =
  let b = split base and r' = split r in
  let target =
    if r'.c_scheme <> None then
      { r' with c_path = remove_dot_segments r'.c_path }
    else if r'.c_authority <> None then
      { r' with
        c_scheme = b.c_scheme;
        c_path = remove_dot_segments r'.c_path }
    else if r'.c_path = "" then
      { b with
        c_query = (if r'.c_query <> None then r'.c_query else b.c_query);
        c_fragment = r'.c_fragment }
    else if String.length r'.c_path > 0 && r'.c_path.[0] = '/' then
      { b with
        c_path = remove_dot_segments r'.c_path;
        c_query = r'.c_query;
        c_fragment = r'.c_fragment }
    else
      let merged =
        merge_paths ~base_authority:b.c_authority ~base_path:b.c_path
          r'.c_path
      in
      { b with
        c_path = remove_dot_segments merged;
        c_query = r'.c_query;
        c_fragment = r'.c_fragment }
  in
  unsplit target

let of_reference ?base text =
  let r = of_string text in
  match r with
  | Ok iri when not (is_absolute iri) -> (
      match base with Some base -> Ok (resolve ~base iri) | None -> r)
  | Ok _ | Error _ -> r

let equal = String.equal
let compare = String.compare
let hash = Hashtbl.hash
let pp ppf t = Format.fprintf ppf "<%s>" t
