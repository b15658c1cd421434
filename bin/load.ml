(* Loading what the CLI and the daemon validate: schema files, data
   files, and shape labels as users name them.  Failures come back as
   the one-line message both print; the CLI exits 2 on it, the daemon
   answers it as an "error: ..." line.  [Sys_error] (a missing or
   unreadable file) propagates, and both callers print it as
   "error: ...". *)

(* Schemas are small and read whole: the ShExC/ShExJ parsers want a
   string.  ShExJ when the extension is .json, ShExC otherwise. *)
let schema path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  let result =
    if Filename.check_suffix path ".json" then Shexc.Shexj.import_string src
    else Shexc.Shexc_parser.parse_schema src
  in
  Result.map_error (Printf.sprintf "%s: %s" path) result

(* Data graphs are not small: the lexer slides a window over the
   channel, so peak memory while loading is bounded by the graph, never
   graph + source text. *)
let graph path =
  match Turtle.Parse.parse_file path with
  | Ok d -> Ok d.Turtle.Parse.graph
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)

(* The exact label, or else the first whose text ends with [name], so
   users can say "Person" for <http://…/Person>. *)
let label schema name =
  let exact = Shex.Label.of_string name in
  let labels = Shex.Schema.labels schema in
  if Shex.Schema.mem schema exact then Ok exact
  else
    match
      List.find_opt
        (fun l ->
          let s = Shex.Label.to_string l in
          let n = String.length s and m = String.length name in
          n >= m && String.sub s (n - m) m = name)
        labels
    with
    | Some l -> Ok l
    | None ->
        Error
          (Printf.sprintf "unknown shape label %S (known: %s)" name
             (String.concat ", " (List.map Shex.Label.to_string labels)))
