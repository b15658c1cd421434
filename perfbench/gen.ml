(* Input generator: [gen.exe WORKLOAD SEED DIR] writes one workload's
   inputs into DIR -- the schema ([schema.shex]), the data as
   N-Triples ([data.nt]) and the ground truth ([expect.txt]) -- so the
   measured process receives only files.  The same seed gives the same
   files.  Sizes are fixed per workload; the seed only moves structure
   (which persons are invalid, which predicates a shape uses, ...), so
   the amount of work barely changes from seed to seed.

   expect.txt has one fact per line:
   - [conformant NODE LABEL]: NODE conforms to LABEL; every other
     (node, label) pair of the graph does not
   - [edit TARGET FLIP...] (portal-edits): deleting TARGET's foaf:name
     arcs flips exactly TARGET and the FLIP persons to nonconformant,
     and re-inserting them flips the same set back
   - [query NODE 0|1] (portal-edits): a query target and its verdict in
     the unedited graph *)

let portal_report_persons = 20_000
let portal_edits_persons = 40_000
let bulk_persons = 100_000
let wide_nodes = 1_200
let wide_shapes = 12
let wide_pool = 32
let edit_targets = 4_000
let query_targets = 4_096

let person_shex =
  "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
   PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\n\
   <Person> {\n\
  \  foaf:age xsd:integer\n\
  \  , foaf:name xsd:string+\n\
  \  , foaf:knows @<Person>*\n\
   }\n"

let write_text path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* Clustered FOAF portal (community 10): valid persons know only valid
   persons of their own community, so the conformant persons are
   exactly the generator's valid ones. *)
let portal ~persons ~seed =
  Workload.Foaf_gen.generate_clustered ~community:10
    { Workload.Foaf_gen.n_persons = persons; invalid_fraction = 0.1;
      knows_degree = 2; seed }

let write_portal dir (g : Workload.Foaf_gen.generated) expect =
  write_text (Filename.concat dir "schema.shex") person_shex;
  Turtle.Ntriples.to_file (Filename.concat dir "data.nt") g.graph;
  List.iter
    (fun p -> Printf.bprintf expect "conformant %s Person\n" (Rdf.Term.to_string p))
    g.valid

let foaf_knows = Rdf.Iri.of_string_exn "http://xmlns.com/foaf/0.1/knows"

(* Deleting a person's names makes it fail, and with it every valid
   person that reaches it through foaf:knows (knows objects must be
   conformant persons).  Invalid persons fail either way. *)
let flip_sets (g : Workload.Foaf_gen.generated) =
  let valid = Hashtbl.create 1024 in
  List.iter (fun p -> Hashtbl.replace valid p ()) g.valid;
  let knowers = Hashtbl.create 1024 in
  Rdf.Graph.iter
    (fun tr ->
      if Rdf.Iri.equal (Rdf.Triple.predicate tr) foaf_knows then
        Hashtbl.add knowers (Rdf.Triple.obj tr) (Rdf.Triple.subject tr))
    g.graph;
  fun target ->
    let seen = Hashtbl.create 16 in
    let rec visit p =
      if Hashtbl.mem valid p && not (Hashtbl.mem seen p) then begin
        Hashtbl.replace seen p ();
        List.iter visit (Hashtbl.find_all knowers p)
      end
    in
    visit target;
    Hashtbl.fold (fun p () acc -> p :: acc) seen []

let portal_edits dir seed expect =
  let g = portal ~persons:portal_edits_persons ~seed in
  write_portal dir g expect;
  let rng = Workload.Prng.create (seed + 1) in
  let flips = flip_sets g in
  Workload.Prng.shuffle rng g.valid
  |> List.filteri (fun i _ -> i < edit_targets)
  |> List.iter (fun target ->
         Printf.bprintf expect "edit %s" (Rdf.Term.to_string target);
         List.iter
           (fun p ->
             if not (Rdf.Term.equal p target) then
               Printf.bprintf expect " %s" (Rdf.Term.to_string p))
           (flips target);
         Buffer.add_char expect '\n');
  let everyone = Array.of_list (g.valid @ g.invalid) in
  let valid = Hashtbl.create 1024 in
  List.iter (fun p -> Hashtbl.replace valid p ()) g.valid;
  for _ = 1 to query_targets do
    let q = everyone.(Workload.Prng.int rng (Array.length everyone)) in
    Printf.bprintf expect "query %s %d\n" (Rdf.Term.to_string q)
      (if Hashtbl.mem valid q then 1 else 0)
  done

(* The bulk portal, written straight to N-Triples like experiment E17's
   writer: age, name (about one person in ten has none and fails),
   three knows arcs at seed-chosen offsets, always to named persons.
   The offsets tie the persons into one giant strongly-connected
   component. *)
let portal_bulk dir seed expect =
  write_text (Filename.concat dir "schema.shex") person_shex;
  let n = bulk_persons in
  let rng = Workload.Prng.create seed in
  let named = Array.init n (fun _ -> not (Workload.Prng.bool rng 0.1)) in
  let offsets = List.init 3 (fun _ -> 1 + Workload.Prng.int rng (n - 1)) in
  let person b k = Printf.bprintf b "<http://example.org/people/p%d>" k in
  Out_channel.with_open_bin (Filename.concat dir "data.nt") @@ fun oc ->
  let buf = Buffer.create (1 lsl 16) in
  for k = 0 to n - 1 do
    person buf k;
    Printf.bprintf buf
      " <http://xmlns.com/foaf/0.1/age> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      (18 + (k mod 60));
    if named.(k) then begin
      person buf k;
      Printf.bprintf buf " <http://xmlns.com/foaf/0.1/name> \"Person %d\" .\n" k;
      Printf.bprintf expect "conformant <http://example.org/people/p%d> Person\n" k
    end;
    List.iter
      (fun off ->
        let rec next t = if named.(t) then t else next ((t + 1) mod n) in
        let t = next ((k + off) mod n) in
        if t <> k then begin
          person buf k;
          Buffer.add_string buf " <http://xmlns.com/foaf/0.1/knows> ";
          person buf t;
          Buffer.add_string buf " .\n"
        end)
      offsets;
    if Buffer.length buf > 1 lsl 15 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  done;
  Buffer.output_buffer oc buf

(* -- wide-shapes -------------------------------------------------- *)

type value_class = Int | Str | Vset of int list | Iri_kind | Ref of int
type card = One | Range of int * int | Opt | Star | Plus

type constr = { pred : int; vc : value_class; card : card }

type item = Arc of constr | Alt of constr * constr

(* Every shape carries [ex:kind [ex:K<i>]], which no other shape admits,
   so a node built for one shape fails every other shape (shapes are
   closed: an arc no constraint accepts refutes the match).  Even shapes
   are single-occurrence (SORBE under --engine auto); odd shapes repeat
   one predicate and hold one alternative (the lazy DFA).  Shape i
   refers to shape i+2 when it exists, so references never cycle. *)
let wide_schema rng =
  let vset () =
    Workload.Prng.shuffle rng (List.init 10 Fun.id)
    |> List.filteri (fun i _ -> i < 6)
    |> List.sort compare
  in
  (* Predicates follow a fixed rotation of the pool and constraints keep
     their order: neighbourhoods arrive in predicate order, so a
     seed-dependent layout would change how many DFA states the data
     explores, and with it the work of a pass.  The seed picks value-set
     members and the data. *)
  Array.init wide_shapes (fun i ->
      let pred k = ((i * 5) + (k * 2) + (k / 16)) mod wide_pool in
      let c k vc card = { pred = pred k; vc; card } in
      let ref_or_int =
        if i + 2 < wide_shapes then Ref (i + 2) else Int
      in
      let shared = c 0 Int (Range (2, 5)) in
      let common =
        [ Arc shared;
          Arc (c 1 Int (Range (2, 5)));
          Arc (c 2 Int (Range (2, 5)));
          Arc (c 3 Str (Range (2, 5)));
          Arc (c 4 (Vset (vset ())) (Range (0, 3)));
          Arc (c 5 Iri_kind (Range (0, 3)));
          Arc (c 6 Int One);
          Arc (c 7 (Vset (vset ())) One);
          Arc (c 8 Str Star);
          Arc (c 9 Iri_kind Plus);
          Arc (c 10 ref_or_int (Range (0, 3)));
          Arc (c 11 Int (Range (0, 3))) ]
      in
      let tail =
        if i mod 2 = 0 then
          [ Arc (c 12 (Vset (vset ())) (Range (0, 3)));
            Arc (c 13 Str One);
            Arc (c 14 Int Opt) ]
        else
          [ Arc { (c 12 (Vset (vset ())) (Range (0, 3))) with pred = shared.pred };
            Alt (c 13 Str One, c 14 Int (Range (2, 5))) ]
      in
      common @ tail)

let shex_constr b { pred; vc; card } =
  Printf.bprintf b "ex:p%d " pred;
  (match vc with
  | Int -> Buffer.add_string b "xsd:integer"
  | Str -> Buffer.add_string b "xsd:string"
  | Iri_kind -> Buffer.add_string b "IRI"
  | Ref j -> Printf.bprintf b "@<S%d>" j
  | Vset vs ->
      Printf.bprintf b "[%s]"
        (String.concat " " (List.map (Printf.sprintf "ex:v%d") vs)));
  match card with
  | One -> ()
  | Range (m, n) -> Printf.bprintf b "{%d,%d}" m n
  | Opt -> Buffer.add_char b '?'
  | Star -> Buffer.add_char b '*'
  | Plus -> Buffer.add_char b '+'

let wide_shex schema =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "PREFIX ex: <http://example.org/w/>\n\
     PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n";
  Array.iteri
    (fun i items ->
      Printf.bprintf b "\n<S%d> {\n  ex:kind [ex:K%d]\n" i i;
      List.iter
        (fun item ->
          Buffer.add_string b "  , ";
          (match item with
          | Arc c -> shex_constr b c
          | Alt (x, y) ->
              Buffer.add_string b "( ";
              shex_constr b x;
              Buffer.add_string b " | ";
              shex_constr b y;
              Buffer.add_string b " )");
          Buffer.add_char b '\n')
        items;
      Buffer.add_string b "}\n")
    schema;
  Buffer.contents b

let wide dir seed expect =
  let rng = Workload.Prng.create seed in
  let schema = wide_schema rng in
  write_text (Filename.concat dir "schema.shex") (wide_shex schema);
  let shape_of k = k mod wide_shapes in
  let invalid = Array.init wide_nodes (fun _ -> Workload.Prng.bool rng 0.2) in
  let valid_of = Array.make wide_shapes [||] in
  for i = 0 to wide_shapes - 1 do
    valid_of.(i) <-
      Array.of_list
        (List.filter
           (fun k -> shape_of k = i && not invalid.(k))
           (List.init wide_nodes Fun.id))
  done;
  (* [count] distinct draws from [0, bound) *)
  let distinct count bound =
    Workload.Prng.shuffle rng (List.init bound Fun.id)
    |> List.filteri (fun i _ -> i < count)
  in
  let count = function
    | One -> 1
    | Range (m, n) -> m + Workload.Prng.int rng (n - m + 1)
    | Opt -> Workload.Prng.int rng 2
    | Star -> Workload.Prng.int rng 4
    | Plus -> 1 + Workload.Prng.int rng 3
  in
  Out_channel.with_open_bin (Filename.concat dir "data.nt") @@ fun oc ->
  let buf = Buffer.create (1 lsl 16) in
  let arc k pred obj =
    Printf.bprintf buf "<http://example.org/w/n%d> <http://example.org/w/p%d> %s .\n"
      k pred obj
  in
  let int_lit v =
    Printf.sprintf "\"%d\"^^<http://www.w3.org/2001/XMLSchema#integer>" v
  in
  let ex name = Printf.sprintf "<http://example.org/w/%s>" name in
  let emit k { pred; vc; card } =
    let n = count card in
    match vc with
    | Int -> List.iter (fun v -> arc k pred (int_lit v)) (distinct n 100)
    | Str -> List.iter (fun v -> arc k pred (Printf.sprintf "\"s%d\"" v)) (distinct n 100)
    | Iri_kind ->
        List.iter (fun v -> arc k pred (ex (Printf.sprintf "o%d" v))) (distinct n 100)
    | Vset vs ->
        let vs = Array.of_list vs in
        List.iter
          (fun v -> arc k pred (ex (Printf.sprintf "v%d" vs.(v))))
          (distinct n (Array.length vs))
    | Ref j ->
        let targets = valid_of.(j) in
        List.iter
          (fun v -> arc k pred (ex (Printf.sprintf "n%d" targets.(v))))
          (distinct n (Array.length targets))
  in
  (* One unambiguous violation per invalid node: six values on a
     {2,5} integer constraint, a string where exactly one integer is
     required, or an IRI outside the one-value set. *)
  let violate k items =
    let arcs = List.filter_map (function Arc c -> Some c | Alt _ -> None) items in
    let first p = List.find p arcs in
    match Workload.Prng.int rng 3 with
    | 0 ->
        let c = first (fun c -> c.vc = Int && c.card = Range (2, 5)) in
        emit k { c with card = Range (6, 6) };
        c
    | 1 ->
        let c = first (fun c -> c.vc = Int && c.card = One) in
        arc k c.pred "\"x\"";
        c
    | _ -> (
        let c =
          first (fun c -> c.card = One && match c.vc with Vset _ -> true | _ -> false)
        in
        match c.vc with
        | Vset vs ->
            let outside = List.find (fun v -> not (List.mem v vs)) (List.init 10 Fun.id) in
            arc k c.pred (ex (Printf.sprintf "v%d" outside));
            c
        | _ -> assert false)
  in
  for k = 0 to wide_nodes - 1 do
    let i = shape_of k in
    let items = schema.(i) in
    Printf.bprintf buf "<http://example.org/w/n%d> <http://example.org/w/kind> %s .\n"
      k (ex (Printf.sprintf "K%d" i));
    let broken = if invalid.(k) then Some (violate k items) else None in
    List.iter
      (function
        | Arc c -> if Some c <> broken then emit k c
        | Alt (x, y) -> emit k (if Workload.Prng.bool rng 0.5 then x else y))
      items;
    if not invalid.(k) then
      Printf.bprintf expect "conformant <http://example.org/w/n%d> S%d\n" k i;
    if Buffer.length buf > 1 lsl 15 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  done;
  Buffer.output_buffer oc buf

let () =
  match Sys.argv with
  | [| _; workload; seed; dir |] ->
      let seed = int_of_string seed in
      let expect = Buffer.create (1 lsl 20) in
      (match workload with
      | "portal-report" ->
          write_portal dir (portal ~persons:portal_report_persons ~seed) expect
      | "portal-bulk" -> portal_bulk dir seed expect
      | "wide-shapes" -> wide dir seed expect
      | "portal-edits" -> portal_edits dir seed expect
      | w ->
          Printf.eprintf "gen: unknown workload %s\n" w;
          exit 2);
      write_text (Filename.concat dir "expect.txt") (Buffer.contents expect)
  | _ ->
      prerr_endline "usage: gen WORKLOAD SEED DIR";
      exit 2
