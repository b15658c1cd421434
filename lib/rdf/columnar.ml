type t = {
  ids : Interner.t;  (* canonical: id order = Term.compare order *)
  n : int;  (* distinct triples *)
  (* Parallel columns sorted lexicographically by (s, p, o). *)
  spo_s : int array;
  spo_p : int array;
  spo_o : int array;
  (* Row permutations of the SPO columns: pos_row sorted by (p, s, o),
     osp_row by (o, s, p).  Permutations instead of copied columns:
     the indirection costs one load per probe and saves 6n words. *)
  pos_row : int array;
  osp_row : int array;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type builder = {
  interner : Interner.t;  (* provisional ids, in arrival order *)
  mutable bs : int array;
  mutable bp : int array;
  mutable bo : int array;
  mutable blen : int;
}

let builder ?(terms = 1024) ?(triples = 4096) () =
  let triples = max 16 triples in
  { interner = Interner.create ~capacity:terms ();
    bs = Array.make triples 0;
    bp = Array.make triples 0;
    bo = Array.make triples 0;
    blen = 0 }

let push b =
  if b.blen >= Array.length b.bs then begin
    let cap' = 2 * Array.length b.bs in
    let extend a =
      let a' = Array.make cap' 0 in
      Array.blit a 0 a' 0 b.blen;
      a'
    in
    b.bs <- extend b.bs;
    b.bp <- extend b.bp;
    b.bo <- extend b.bo
  end

let add b s p o =
  if not (Term.subject_ok s) then
    invalid_arg
      (Format.asprintf "Columnar.add: literal in subject position: %a" Term.pp
         s);
  push b;
  let i = b.blen in
  b.bs.(i) <- Interner.intern b.interner s;
  b.bp.(i) <- Interner.intern b.interner (Term.Iri p);
  b.bo.(i) <- Interner.intern b.interner o;
  b.blen <- i + 1

let add_triple b tr =
  add b (Triple.subject tr) (Triple.predicate tr) (Triple.obj tr)

let triples_added b = b.blen

(* Stable counting sort of items [0, n) by [key i] < [buckets]: one
   count per key, prefix sums, then [place i slot] once per item in
   item order.  Returns the bucket ends: bucket k is
   [ends.(k-1), ends.(k)), with ends.(-1) taken as 0. *)
let bucket_sort ~buckets n key place =
  let next = Array.make (buckets + 1) 0 in
  for i = 0 to n - 1 do
    let k = key i + 1 in
    next.(k) <- next.(k) + 1
  done;
  for k = 1 to buckets do
    next.(k) <- next.(k) + next.(k - 1)
  done;
  for i = 0 to n - 1 do
    let k = key i in
    place i next.(k);
    next.(k) <- next.(k) + 1
  done;
  next

(* Sort [a.(lo) .. a.(hi-1)]: insertion sort on the short runs most
   subjects have, the library sort for a hub subject's long one. *)
let sort_run (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let run = Array.sub a lo (hi - lo) in
    Array.sort Int.compare run;
    Array.blit run 0 a lo (hi - lo)
  end

(* A (p, o) id pair packs into one int as p·2³¹ + o, so int order on
   the packed key is (p, o) order. *)
let id_bits = 31

let freeze b =
  let ids, remap = Interner.compact b.interner in
  let terms = Interner.cardinal ids in
  assert (terms <= 1 lsl id_bits);
  (* SPO: each raw row's packed (p, o) key, scattered into its
     canonical subject's bucket; buckets are in subject order. *)
  let keys = Array.make b.blen 0 in
  let ends =
    bucket_sort ~buckets:terms b.blen
      (fun i -> remap.(b.bs.(i)))
      (fun i slot ->
        keys.(slot) <- (remap.(b.bp.(i)) lsl id_bits) lor remap.(b.bo.(i)))
  in
  (* Sort each bucket and drop its adjacent duplicates in place — a
     graph is a set of triples, whatever the loader fed us.  [ends.(s)]
     becomes subject s's distinct count. *)
  let n = ref 0 and lo = ref 0 in
  for s = 0 to terms - 1 do
    let hi = ends.(s) and first = !n in
    sort_run keys !lo hi;
    for i = !lo to hi - 1 do
      if !n = first || keys.(!n - 1) <> keys.(i) then begin
        keys.(!n) <- keys.(i);
        incr n
      end
    done;
    ends.(s) <- !n - first;
    lo := hi
  done;
  let n = !n in
  let spo_s = Array.make n 0 in
  let row = ref 0 in
  for s = 0 to terms - 1 do
    Array.fill spo_s !row ends.(s) s;
    row := !row + ends.(s)
  done;
  let spo_p = Array.init n (fun i -> keys.(i) lsr id_bits)
  and spo_o = Array.init n (fun i -> keys.(i) land ((1 lsl id_bits) - 1)) in
  (* At a fixed predicate, SPO rows are in (s, o) order, and at a fixed
     object in (s, p) order: a stable bucket pass by p over the SPO
     rows is POS order, and by o it is OSP order. *)
  let by col =
    let rows = Array.make n 0 in
    ignore
      (bucket_sort ~buckets:terms n
         (fun r -> col.(r))
         (fun r slot -> rows.(slot) <- r));
    rows
  in
  { ids; n; spo_s; spo_p; spo_o; pos_row = by spo_p; osp_row = by spo_o }

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let cardinal t = t.n
let terms_cardinal t = Interner.cardinal t.ids
let interner t = t.ids
let term t id = Interner.resolve t.ids id

let pred_of t id =
  match Interner.resolve t.ids id with
  | Term.Iri p -> p
  | Term.Bnode _ | Term.Literal _ ->
      (* [add] only interns predicates as IRIs. *)
      assert false

let triple_of t row =
  Triple.make
    (Interner.resolve t.ids t.spo_s.(row))
    (pred_of t t.spo_p.(row))
    (Interner.resolve t.ids t.spo_o.(row))

(* First index in [0, n) whose key is ≥ v / > v: the usual halves. *)
let lower_bound key n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound key n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key mid <= v then lo := mid + 1 else hi := mid
  done;
  !lo

(* The contiguous [lo, hi) slice of rows with the given key id. *)
let slice key n v =
  let lo = lower_bound key n v in
  let hi = upper_bound key n v in
  (lo, hi)

let rows_to_list t project lo hi =
  let rec go i acc =
    if i < lo then acc else go (i - 1) (triple_of t (project i) :: acc)
  in
  go (hi - 1) []

let out_slice t term =
  let sid = Interner.find_id t.ids term in
  if sid < 0 then (0, 0) else slice (fun i -> t.spo_s.(i)) t.n sid

let in_slice t term =
  let oid = Interner.find_id t.ids term in
  if oid < 0 then (0, 0) else slice (fun i -> t.spo_o.(t.osp_row.(i))) t.n oid

let out_triples t term =
  let lo, hi = out_slice t term in
  rows_to_list t Fun.id lo hi

(* OSP order is (o, s, p) which, at fixed object, is exactly
   Triple.compare order on the slice. *)
let in_triples t term =
  let lo, hi = in_slice t term in
  rows_to_list t (fun i -> t.osp_row.(i)) lo hi

let triples_with_predicate t p =
  let pid = Interner.find_id t.ids (Term.Iri p) in
  if pid < 0 then []
  else
    let lo, hi = slice (fun i -> t.spo_p.(t.pos_row.(i))) t.n pid in
    rows_to_list t (fun i -> t.pos_row.(i)) lo hi

let out_degree t term =
  let lo, hi = out_slice t term in
  hi - lo

let in_degree t term =
  let lo, hi = in_slice t term in
  hi - lo

let node_ids t =
  (* Distinct subject ids and object ids are both ascending runs of
     their sorted columns; a merge-unique of the two is the distinct
     node ids in term order (canonical ids sort like terms). *)
  let next_distinct key n i =
    let v = key i in
    let j = ref (i + 1) in
    while !j < n && key !j = v do incr j done;
    !j
  in
  let s_key i = t.spo_s.(i) and o_key i = t.spo_o.(t.osp_row.(i)) in
  let rec merge i j acc =
    if i >= t.n && j >= t.n then List.rev acc
    else if j >= t.n || (i < t.n && s_key i < o_key j) then
      merge (next_distinct s_key t.n i) j (s_key i :: acc)
    else if i >= t.n || o_key j < s_key i then
      merge i (next_distinct o_key t.n j) (o_key j :: acc)
    else
      merge (next_distinct s_key t.n i) (next_distinct o_key t.n j)
        (s_key i :: acc)
  in
  merge 0 0 []

let nodes t = List.map (Interner.resolve t.ids) (node_ids t)

let iter f t =
  for row = 0 to t.n - 1 do
    f (triple_of t row)
  done

let of_graph g =
  let b =
    builder ~terms:(2 * Graph.cardinal g) ~triples:(Graph.cardinal g) ()
  in
  Graph.iter (add_triple b) g;
  freeze b

let to_graph t = Graph.of_seq (Seq.init t.n (fun row -> triple_of t row))
