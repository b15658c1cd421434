type t = {
  triples : Triple.Set.t;
  size : int;  (* [Triple.Set.cardinal triples], which walks the set *)
  by_subject : Triple.Set.t Term.Map.t;
  by_object : Triple.Set.t Term.Map.t;
}

let empty =
  { triples = Triple.Set.empty;
    size = 0;
    by_subject = Term.Map.empty;
    by_object = Term.Map.empty }

let is_empty g = Triple.Set.is_empty g.triples
let cardinal g = g.size
let mem tr g = Triple.Set.mem tr g.triples

let index_add key tr index =
  Term.Map.update key
    (function
      | None -> Some (Triple.Set.singleton tr)
      | Some set -> Some (Triple.Set.add tr set))
    index

let index_remove key tr index =
  Term.Map.update key
    (function
      | None -> None
      | Some set ->
          let set = Triple.Set.remove tr set in
          if Triple.Set.is_empty set then None else Some set)
    index

let add tr g =
  if mem tr g then g
  else
    { triples = Triple.Set.add tr g.triples;
      size = g.size + 1;
      by_subject = index_add (Triple.subject tr) tr g.by_subject;
      by_object = index_add (Triple.obj tr) tr g.by_object }

let remove tr g =
  if not (mem tr g) then g
  else
    { triples = Triple.Set.remove tr g.triples;
      size = g.size - 1;
      by_subject = index_remove (Triple.subject tr) tr g.by_subject;
      by_object = index_remove (Triple.obj tr) tr g.by_object }

let singleton tr = add tr empty
let to_list g = Triple.Set.elements g.triples

(* Bulk (re)indexing: build both secondary indexes in one ordered pass
   over an already-constructed triple set, instead of one [add] — two
   O(log n) map updates plus set rebalancing — per triple.  The
   subject index falls out of set order directly (runs of equal
   subjects are contiguous, and each run is already sorted); the
   object index needs one auxiliary sort. *)
let of_set set =
  if Triple.Set.is_empty set then empty
  else begin
    let n = Triple.Set.cardinal set in
    let arr = Array.make n (Triple.Set.min_elt set) in
    let i = ref 0 in
    Triple.Set.iter
      (fun tr ->
        arr.(!i) <- tr;
        incr i)
      set;
    (* Group a key-sorted array into key -> set-of-run.  Keys arrive in
       ascending order, and each run is itself Triple.compare-sorted,
       so both the map and the per-key sets build without churn. *)
    let group key arr =
      let m = ref Term.Map.empty in
      let start = ref 0 in
      for j = 1 to n do
        if j = n || not (Term.equal (key arr.(j)) (key arr.(!start))) then begin
          let run = ref Triple.Set.empty in
          for k = j - 1 downto !start do
            run := Triple.Set.add arr.(k) !run
          done;
          m := Term.Map.add (key arr.(!start)) !run !m;
          start := j
        end
      done;
      !m
    in
    (* [arr] is in set (SPO) order already: subject runs are contiguous. *)
    let by_subject = group Triple.subject arr in
    let arr_o = Array.copy arr in
    Array.sort
      (fun a b ->
        let c = Term.compare (Triple.obj a) (Triple.obj b) in
        if c <> 0 then c else Triple.compare a b)
      arr_o;
    let by_object = group Triple.obj arr_o in
    { triples = set; size = n; by_subject; by_object }
  end

let of_list trs = of_set (Triple.Set.of_list trs)
let of_seq seq = of_set (Triple.Set.of_seq seq)

(* Set operations route through {!of_set} — one bulk reindex of the
   result — unless one side is a small delta of the other, where
   incremental index edits win.  The oracle shrinker and the workload
   generator hit these on every candidate graph. *)
let small_delta d g = 8 * cardinal d <= cardinal g

let union g1 g2 =
  let small, large = if cardinal g1 >= cardinal g2 then (g2, g1) else (g1, g2) in
  if small_delta small large then Triple.Set.fold add small.triples large
  else of_set (Triple.Set.union g1.triples g2.triples)

let diff g1 g2 =
  if small_delta g2 g1 then Triple.Set.fold remove g2.triples g1
  else of_set (Triple.Set.diff g1.triples g2.triples)

let subset g1 g2 = Triple.Set.subset g1.triples g2.triples
let equal g1 g2 = Triple.Set.equal g1.triples g2.triples
let fold f g acc = Triple.Set.fold f g.triples acc
let iter f g = Triple.Set.iter f g.triples
let for_all f g = Triple.Set.for_all f g.triples
let exists f g = Triple.Set.exists f g.triples

let filter f g = of_set (Triple.Set.filter f g.triples)

let index_find key index =
  match Term.Map.find_opt key index with
  | None -> Triple.Set.empty
  | Some set -> set

let out_triples n g = Triple.Set.elements (index_find n g.by_subject)
let in_triples o g = Triple.Set.elements (index_find o g.by_object)

let objects_of s p g =
  out_triples s g
  |> List.filter_map (fun tr ->
         if Iri.equal (Triple.predicate tr) p then Some (Triple.obj tr)
         else None)

let subjects g =
  Term.Map.fold (fun s _ acc -> s :: acc) g.by_subject [] |> List.rev

let predicates g =
  let module Iri_set = Set.Make (Iri) in
  Triple.Set.fold
    (fun tr acc -> Iri_set.add (Triple.predicate tr) acc)
    g.triples Iri_set.empty
  |> Iri_set.elements

(* The keys of the two indexes are the distinct subjects and objects:
   a merge-unique of them is the node list, with no pass over the
   triples.  Both key lists descend, so consing the larger head builds
   [acc] in ascending term order. *)
let nodes g =
  let descending index = Term.Map.fold (fun k _ acc -> k :: acc) index [] in
  let rec merge acc ss os =
    match (ss, os) with
    | [], rest | rest, [] -> List.rev_append rest acc
    | s :: ss', o :: os' ->
        let c = Term.compare s o in
        if c = 0 then merge (s :: acc) ss' os'
        else if c > 0 then merge (s :: acc) ss' os
        else merge (o :: acc) ss os'
  in
  merge [] (descending g.by_subject) (descending g.by_object)

let match_pattern ?s ?p ?o g =
  let candidates =
    match (s, o) with
    | Some s, _ -> index_find s g.by_subject
    | None, Some o -> index_find o g.by_object
    | None, None -> g.triples
  in
  let keep tr =
    (match s with None -> true | Some s -> Term.equal (Triple.subject tr) s)
    && (match p with
       | None -> true
       | Some p -> Iri.equal (Triple.predicate tr) p)
    && match o with None -> true | Some o -> Term.equal (Triple.obj tr) o
  in
  Triple.Set.elements (Triple.Set.filter keep candidates)

let decompositions g =
  (* Example 3: pair every subset with its complement, ({}, g) first.
     Deliberately the naïve powerset enumeration — this is the
     baseline's cost. *)
  let rec go = function
    | [] -> [ (empty, empty) ]
    | tr :: rest ->
        let sub = go rest in
        List.concat_map
          (fun (g1, g2) -> [ (g1, add tr g2); (add tr g1, g2) ])
          sub
  in
  go (to_list g)

let pp ppf g =
  Format.pp_open_vbox ppf 0;
  let first = ref true in
  iter
    (fun tr ->
      if !first then first := false else Format.pp_print_cut ppf ();
      Triple.pp ppf tr)
    g;
  Format.pp_close_box ppf ()
