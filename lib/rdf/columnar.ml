type t = {
  ids : Interner.t;  (* canonical: id order = Term.compare order *)
  n : int;  (* distinct triples *)
  (* Parallel columns sorted lexicographically by (s, p, o). *)
  spo_s : int array;
  spo_p : int array;
  spo_o : int array;
  (* Subject id s's SPO rows are [s_start.(s), s_start.(s+1)). *)
  s_start : int array;
  (* A row permutation of the SPO columns sorted by (o, s, p), and
     object id o's OSP positions [o_start.(o), o_start.(o+1)).  A
     permutation instead of copied columns: the indirection costs one
     load per row and saves 2n words. *)
  osp_row : int array;
  o_start : int array;
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

(* Stable counting sort of items [0, n) by [key i] < [buckets]: one
   count per key, prefix sums, then [place i slot] once per item in
   item order.  Returns the bucket starts: bucket k is
   [start.(k), start.(k+1)), and start.(buckets) = n. *)
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
  (* Each cursor stopped at its bucket's end, the next one's start. *)
  Array.blit next 0 next 1 buckets;
  next.(0) <- 0;
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
  let s_start =
    bucket_sort ~buckets:terms b.blen
      (fun i -> remap.(b.bs.(i)))
      (fun i slot ->
        keys.(slot) <- (remap.(b.bp.(i)) lsl id_bits) lor remap.(b.bo.(i)))
  in
  (* Sort each bucket and drop its adjacent duplicates in place — a
     graph is a set of triples, whatever the loader fed us.  Subject s's
     bucket start becomes its first distinct row. *)
  let n = ref 0 in
  for s = 0 to terms - 1 do
    let lo = s_start.(s) and hi = s_start.(s + 1) and first = !n in
    sort_run keys lo hi;
    for i = lo to hi - 1 do
      if !n = first || keys.(!n - 1) <> keys.(i) then begin
        keys.(!n) <- keys.(i);
        incr n
      end
    done;
    s_start.(s) <- first
  done;
  let n = !n in
  s_start.(terms) <- n;
  let spo_s = Array.make n 0 in
  for s = 0 to terms - 1 do
    Array.fill spo_s s_start.(s) (s_start.(s + 1) - s_start.(s)) s
  done;
  let spo_p = Array.init n (fun i -> keys.(i) lsr id_bits)
  and spo_o = Array.init n (fun i -> keys.(i) land ((1 lsl id_bits) - 1)) in
  (* At a fixed object, SPO rows are in (s, p) order: a stable bucket
     pass by o over the SPO rows is OSP order. *)
  let osp_row = Array.make n 0 in
  let o_start =
    bucket_sort ~buckets:terms n
      (fun r -> spo_o.(r))
      (fun r slot -> osp_row.(slot) <- r)
  in
  { ids; n; spo_s; spo_p; spo_o; s_start; osp_row; o_start }

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

let in_range t id = id >= 0 && id < Interner.cardinal t.ids

(* Right fold of [f] over the triples of id's slice of the offsets
   [start], reading each position's row through [row], with the row's
   id in column [far].  An id outside [0, terms) — [find_id]'s -1 for
   an absent term, or an id numbered past the store — has none. *)
let fold_slice start row far f t id acc =
  if not (in_range t id) then acc
  else begin
    let acc = ref acc in
    for i = start.(id + 1) - 1 downto start.(id) do
      let r = row t i in
      acc := f (triple_of t r) far.(r) !acc
    done;
    !acc
  end

let fold_out f t id acc =
  fold_slice t.s_start (fun _ row -> row) t.spo_o f t id acc

(* OSP order is (o, s, p) which, at fixed object, is exactly
   Triple.compare order on the slice. *)
let fold_in f t id acc =
  fold_slice t.o_start (fun t i -> t.osp_row.(i)) t.spo_s f t id acc

let cons tr _ acc = tr :: acc
let find t term = Interner.find_id t.ids term
let out_triples t term = fold_out cons t (find t term) []
let in_triples t term = fold_in cons t (find t term) []

(* An id is a node when it has an out- or an in-slice; canonical ids
   sort like terms, so ascending ids are term order. *)
let node_ids t =
  let rec go id acc =
    if id < 0 then acc
    else if
      t.s_start.(id) < t.s_start.(id + 1) || t.o_start.(id) < t.o_start.(id + 1)
    then go (id - 1) (id :: acc)
    else go (id - 1) acc
  in
  go (Interner.cardinal t.ids - 1) []

let nodes t = List.map (Interner.resolve t.ids) (node_ids t)

let of_graph g =
  let b =
    builder ~terms:(2 * Graph.cardinal g) ~triples:(Graph.cardinal g) ()
  in
  Graph.iter (add_triple b) g;
  freeze b

let to_graph t = Graph.of_seq (Seq.init t.n (fun row -> triple_of t row))
