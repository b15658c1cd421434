(* Property-based tests (qcheck): random regular shape expressions and
   random neighbourhoods, checking the invariants that tie the three
   matchers (derivatives, backtracking, enumeration) together. *)

open Util
open Shex

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

(* Universe: predicates {a, b, c} × integer values {1, 2, 3} at node n.
   Small enough for the exponential backtracking oracle, rich enough to
   exercise overlaps between value sets. *)

let preds = [ "a"; "b"; "c" ]
let values = [ 1; 2; 3 ]

let all_triples =
  List.concat_map
    (fun p -> List.map (fun v -> t3 "n" p (num v)) values)
    preds

let gen_triple = QCheck.Gen.oneofl all_triples

let gen_graph =
  QCheck.Gen.(
    list_size (int_bound 5) gen_triple >|= fun ts -> Rdf.Graph.of_list ts)

(* Random expressions built with the smart constructors.  Arc value
   sets are non-empty subsets of the value universe. *)
let gen_arc =
  QCheck.Gen.(
    oneofl preds >>= fun p ->
    list_size (int_range 1 3) (oneofl values) >>= fun vs ->
    return (arc_num p (List.sort_uniq Int.compare vs)))

let gen_rse =
  QCheck.Gen.(
    sized
    @@ fix (fun self size ->
           if size <= 1 then
             frequency
               [ (6, gen_arc); (1, return Rse.epsilon);
                 (1, return Rse.empty) ]
           else
             frequency
               [ (2, gen_arc);
                 (2, self (size - 1) >|= Rse.star);
                 ( 3,
                   self (size / 2) >>= fun e1 ->
                   self (size / 2) >|= fun e2 -> Rse.and_ e1 e2 );
                 ( 3,
                   self (size / 2) >>= fun e1 ->
                   self (size / 2) >|= fun e2 -> Rse.or_ e1 e2 );
                 (1, self (size - 1) >|= Rse.opt);
                 (* Counted nodes.  Their bodies get half the budget: a
                    counted body is derived afresh at every count, so
                    deep ones make the exhaustive properties below
                    slow. *)
                 ( 1,
                   self (size / 2) >>= fun e ->
                   oneof
                     [ return (Rse.plus e);
                       ( int_bound 2 >>= fun m ->
                         opt (int_bound 2) >|= fun extra ->
                         Rse.repeat m (Option.map (( + ) m) extra) e ) ] ) ]))

let arb_rse = QCheck.make ~print:Rse.to_string gen_rse

let arb_graph =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Rdf.Graph.pp g)
    gen_graph

let arb_rse_graph = QCheck.pair arb_rse arb_graph

(* Keep the backtracking oracle tractable. *)
let small_enough g = Rdf.Graph.cardinal g <= 5

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let count = 500

let prop_deriv_equals_backtrack =
  QCheck.Test.make ~count ~name:"derivatives ≡ backtracking (Fig. 1)"
    arb_rse_graph (fun (e, g) ->
      QCheck.assume (small_enough g);
      Bool.equal
        (deriv_matches (node "n") g e)
        (backtrack_matches (node "n") g e))

let prop_deriv_equals_enumeration =
  QCheck.Test.make ~count ~name:"derivatives ≡ enumerated Sn[[e]]"
    arb_rse_graph (fun (e, g) ->
      QCheck.assume (small_enough g);
      match Semantics.mem ~node:(node "n") g e with
      | Ok verdict -> Bool.equal verdict (deriv_matches (node "n") g e)
      | Error _ -> QCheck.assume_fail ())

let prop_order_independence =
  (* Consuming the neighbourhood in any order yields the same verdict. *)
  QCheck.Test.make ~count
    ~name:"derivative matching is consumption-order independent"
    (QCheck.triple arb_rse arb_graph QCheck.int)
    (fun (e, g, seed) ->
      QCheck.assume (small_enough g);
      let dts =
        List.map Neigh.out (Rdf.Graph.out_triples (node "n") g)
      in
      let shuffled =
        let st = Random.State.make [| seed |] in
        let arr = Array.of_list dts in
        let n = Array.length arr in
        for i = n - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let tmp = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- tmp
        done;
        Array.to_list arr
      in
      Bool.equal
        (Rse.nullable (Deriv.deriv_graph dts e))
        (Rse.nullable (Deriv.deriv_graph shuffled e)))

let prop_nullable_iff_matches_empty =
  QCheck.Test.make ~count ~name:"ν(e) ⇔ e matches the empty graph" arb_rse
    (fun e ->
      Bool.equal (Rse.nullable e)
        (deriv_matches (node "n") Rdf.Graph.empty e))

let prop_raw_ctors_same_verdict =
  (* §4 simplification changes sizes, never verdicts. *)
  QCheck.Test.make ~count:200
    ~name:"raw constructors give the same verdict (E5 soundness)"
    arb_rse_graph (fun (e, g) ->
      QCheck.assume (Rdf.Graph.cardinal g <= 4);
      Bool.equal
        (deriv_matches (node "n") g e)
        (Rse.nullable
           (Deriv.deriv_graph ~ctors:Rse.raw_ctors (neigh (node "n") g e) e)))

let prop_smart_never_bigger =
  QCheck.Test.make ~count ~name:"smart derivative ≤ raw derivative size"
    (QCheck.pair arb_rse QCheck.(int_bound (List.length all_triples - 1)))
    (fun (e, idx) ->
      let dt = Neigh.out (List.nth all_triples idx) in
      Rse.size (Deriv.deriv dt e)
      <= Rse.size (Deriv.deriv ~ctors:Rse.raw_ctors dt e))

let prop_deriv_not_nullable_after_epsilon =
  (* ∂t(ε) = ∅ generalises: deriving any nullable-only expression by a
     triple it cannot match yields a non-matching expression. *)
  QCheck.Test.make ~count ~name:"∂t(e) nullable ⇒ e matches {t}"
    (QCheck.pair arb_rse QCheck.(int_bound (List.length all_triples - 1)))
    (fun (e, idx) ->
      let tr = List.nth all_triples idx in
      let d = Deriv.deriv (Neigh.out tr) e in
      Bool.equal (Rse.nullable d)
        (deriv_matches (node "n") (Rdf.Graph.singleton tr) e))

let prop_star_absorbs =
  (* e* matches any neighbourhood that can be partitioned into e's —
     in particular (e⋆)⋆ behaves like e⋆. *)
  QCheck.Test.make ~count ~name:"(e⋆)⋆ ≡ e⋆" arb_rse_graph (fun (e, g) ->
      QCheck.assume (small_enough g);
      let s = Rse.star e in
      Bool.equal
        (deriv_matches (node "n") g s)
        (deriv_matches (node "n") g (Rse.star s)))

let prop_or_commutes =
  QCheck.Test.make ~count ~name:"e₁|e₂ ≡ e₂|e₁"
    (QCheck.triple arb_rse arb_rse arb_graph) (fun (e1, e2, g) ->
      QCheck.assume (small_enough g);
      Bool.equal
        (deriv_matches (node "n") g (Rse.or_ e1 e2))
        (deriv_matches (node "n") g (Rse.or_ e2 e1)))

let prop_and_commutes =
  QCheck.Test.make ~count ~name:"e₁‖e₂ ≡ e₂‖e₁"
    (QCheck.triple arb_rse arb_rse arb_graph) (fun (e1, e2, g) ->
      QCheck.assume (small_enough g);
      Bool.equal
        (deriv_matches (node "n") g (Rse.and_ e1 e2))
        (deriv_matches (node "n") g (Rse.and_ e2 e1)))

let prop_negation_involutive =
  QCheck.Test.make ~count ~name:"¬¬e ≡ e under matching" arb_rse_graph
    (fun (e, g) ->
      QCheck.assume (small_enough g);
      Bool.equal
        (deriv_matches (node "n") g e)
        (deriv_matches (node "n") g (Rse.not_ (Rse.not_ e))))

let prop_negation_complements =
  QCheck.Test.make ~count ~name:"¬e matches ⇔ e does not" arb_rse_graph
    (fun (e, g) ->
      QCheck.assume (small_enough g);
      Bool.equal
        (not (deriv_matches (node "n") g e))
        (deriv_matches (node "n") g (Rse.not_ e)))

let prop_sorbe_agrees =
  QCheck.Test.make ~count:100 ~max_gen:10_000
    ~name:"SORBE counting ≡ derivatives" arb_rse_graph (fun (e, g) ->
      match Sorbe.of_rse e with
      | None -> QCheck.assume_fail ()
      | Some s ->
          Bool.equal
            (deriv_matches (node "n") g e)
            (sorbe_matches (node "n") g s))

let prop_repeat_counts =
  (* e{m,n} over a single arc matches exactly the neighbourhoods with
     between m and n matching triples. *)
  QCheck.Test.make ~count
    ~name:"repeat over one arc counts triples"
    (QCheck.triple
       (QCheck.make QCheck.Gen.(int_bound 3))
       (QCheck.make QCheck.Gen.(int_bound 3))
       (QCheck.make QCheck.Gen.(int_bound 3)))
    (fun (m, extra, k) ->
      let n = m + extra in
      let e = Rse.repeat m (Some n) (arc_num "b" [ 1; 2; 3 ]) in
      let g = graph_of (List.init k (fun j -> t3 "n" "b" (num (j + 1)))) in
      Bool.equal (k >= m && k <= n) (deriv_matches (node "n") g e))

let prop_repeat_matches_expansion =
  (* e{m,n} as one node ≡ §4's reading as copies of e. *)
  QCheck.Test.make ~count
    ~name:"counted node ≡ its expansion into copies"
    arb_rse_graph (fun (e, g) ->
      QCheck.assume (small_enough g);
      Bool.equal
        (deriv_matches (node "n") g e)
        (deriv_matches (node "n") g (expand_repeat e)))

(* A memo kept across derivatives is sound when it serves one member
   vector and one table: walking the same derivatives with one memo per
   vector, every step is physically the derivative a memo-less call
   returns, and the table interns exactly the expressions — with the
   same ids — that a second table walked without memos does. *)
let prop_deriv_memo_sound =
  QCheck.Test.make ~count ~name:"Hrse.deriv with a kept memo ≡ without"
    (QCheck.triple arb_rse
       QCheck.(
         list_of_size Gen.(int_range 1 3) (list_of_size (Gen.return 8) bool))
       QCheck.(list_of_size Gen.(int_bound 6) small_nat))
    (fun (e, vectors, walk) ->
      let arcs = Rse.arcs e in
      let atom (a : Rse.arc) =
        let rec index i = function
          | [] -> invalid_arg "atom"
          | b :: rest -> if Rse.arc_equal a b then i else index (i + 1) rest
        in
        index 0 arcs
      in
      let members =
        Array.of_list
          (List.map
             (fun bits ->
               Array.init (List.length arcs) (fun i -> List.nth bits (i mod 8)))
             vectors)
      in
      let memos = Array.map (fun _ -> Hrse.memo ()) members in
      let kept = Hrse.create () and fresh = Hrse.create () in
      let rec go a b = function
        | [] -> true
        | sym :: rest ->
            let i = sym mod Array.length members in
            let a' = Hrse.deriv ~memo:memos.(i) kept members.(i) a in
            let b' = Hrse.deriv fresh members.(i) b in
            a' == Hrse.deriv kept members.(i) a
            && a'.Hrse.id = b'.Hrse.id
            && Hrse.cardinal kept = Hrse.cardinal fresh
            && go a' b' rest
      in
      go (Hrse.of_rse kept atom e) (Hrse.of_rse fresh atom e) walk)

let prop_size_positive =
  QCheck.Test.make ~count ~name:"size is positive" arb_rse
    (fun e -> Rse.size e >= 1)

let prop_validate_engines_agree =
  (* Schema validation with the derivative, backtracking and
     auto-compiled engines agrees on random reference-free schemas. *)
  QCheck.Test.make ~count:200 ~name:"validate engines agree"
    arb_rse_graph (fun (e, g) ->
      QCheck.assume (small_enough g);
      let l = Label.of_string "S" in
      let schema = Schema.make_exn [ (l, e) ] in
      let verdict engine =
        Validate.check_bool
          (Validate.session ~engine schema g)
          (node "n") l
      in
      let d = verdict Validate.Derivatives in
      Bool.equal d (verdict Validate.Backtracking)
      && Bool.equal d (verdict Validate.Auto))

let prop_open_up_monotone =
  (* Opening a shape only adds matches, never removes them. *)
  QCheck.Test.make ~count ~name:"open_up is monotone" arb_rse_graph
    (fun (e, g) ->
      QCheck.assume (small_enough g);
      QCheck.assume (not (Rse.has_not e));
      (not (deriv_matches (node "n") g e))
      || deriv_matches (node "n") g (Rse.open_up e))

let prop_open_up_ignores_unmentioned =
  (* An open shape's verdict is unchanged by triples with predicates
     outside its vocabulary. *)
  QCheck.Test.make ~count:200 ~name:"open_up ignores foreign predicates"
    arb_rse_graph (fun (e, g) ->
      QCheck.assume (small_enough g);
      QCheck.assume (not (Rse.has_not e));
      let open_e = Rse.open_up e in
      let noisy =
        Rdf.Graph.add (t3 "n" "zzz-foreign" (num 1)) g
      in
      Bool.equal
        (deriv_matches (node "n") g open_e)
        (deriv_matches (node "n") noisy open_e))

let prop_turtle_roundtrip =
  QCheck.Test.make ~count:200 ~name:"turtle write/parse roundtrip"
    arb_graph (fun g ->
      match Turtle.Parse.parse_graph (Turtle.Write.to_string g) with
      | Ok g' -> Rdf.Graph.equal g g'
      | Error _ -> false)

let prop_ntriples_roundtrip =
  QCheck.Test.make ~count:200 ~name:"n-triples roundtrip" arb_graph
    (fun g ->
      match read_ntriples (Turtle.Ntriples.to_string g) with
      | Ok g' -> Rdf.Graph.equal g g'
      | Error _ -> false)

(* Literal lexical forms over a hostile character set: C0 controls
   (including CR, LF, BS, FF), DEL, quotes and backslashes.  The
   writers must escape all of these (raw controls are unparseable or
   corrupted by CRLF-normalising transports); the lexer must decode
   them back to the original bytes. *)
let hostile_chars =
  [ '\000'; '\001'; '\n'; '\r'; '\t'; '\b'; '\012'; '\027'; '\127';
    '"'; '\\'; 'a'; 'z'; ' ' ]

let gen_hostile_literal_graph =
  QCheck.Gen.(
    let gen_string =
      string_size ~gen:(oneofl hostile_chars) (int_bound 8)
    in
    let gen_triple =
      oneofl preds >>= fun p ->
      gen_string >|= fun s -> t3 "n" p (Rdf.Term.str s)
    in
    list_size (int_range 1 4) gen_triple >|= Rdf.Graph.of_list)

let arb_hostile_literal_graph =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Rdf.Graph.pp g)
    gen_hostile_literal_graph

let prop_turtle_control_char_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"turtle roundtrip of control-character literals"
    arb_hostile_literal_graph (fun g ->
      match Turtle.Parse.parse_graph (Turtle.Write.to_string g) with
      | Ok g' -> Rdf.Graph.equal g g'
      | Error _ -> false)

let prop_ntriples_control_char_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"n-triples roundtrip of control-character literals"
    arb_hostile_literal_graph (fun g ->
      match read_ntriples (Turtle.Ntriples.to_string g) with
      | Ok g' -> Rdf.Graph.equal g g'
      | Error _ -> false)

(* Because the writers escape every control character, the only line
   breaks in a serialised document are structural — so rewriting them
   to CRLF (a Windows checkout) or bare CR (a pre-OSX transport) must
   not change the parsed graph.  A leading comment line exercises the
   comment skipper on each ending too. *)
let with_line_endings nl doc =
  String.concat nl (String.split_on_char '\n' doc)

let prop_line_ending_invariance =
  QCheck.Test.make ~count:200
    ~name:"turtle parsing is invariant under CRLF / CR line endings"
    (QCheck.pair arb_graph arb_hostile_literal_graph)
    (fun (g1, g2) ->
      let g =
        Rdf.Graph.fold Rdf.Graph.add g1 g2
      in
      let doc = "# header comment\n" ^ Turtle.Write.to_string g in
      List.for_all
        (fun nl ->
          match Turtle.Parse.parse_graph (with_line_endings nl doc) with
          | Ok g' -> Rdf.Graph.equal g g'
          | Error _ -> false)
        [ "\r\n"; "\r" ])

(* Semantic equivalence over the finite triple universe, decided on
   every neighbourhood of at most [max_card] triples — a complete
   decision procedure for that universe.  The subsets are walked
   depth-first in triple order, so a neighbourhood is its parent
   subset plus its greatest triple, and both expressions reach it by
   one derivative step from the parent's: each neighbourhood costs two
   steps, consumed in the order a match from scratch consumes them.
   A subtree whose two derivatives are [Rse.equal] is accepted without
   walking it: on these reference-free expressions a derivative is a
   function of the triple and the expression, so equal expressions
   have equal derivatives, and equal ν, on every extension. *)
let semantically_equal ?(max_card = 4) e1 e2 =
  let rec walk card e1 e2 triples =
    Rse.equal e1 e2
    ||
    match triples with
    | [] -> true
    | tr :: rest ->
        let dt = Neigh.out tr in
        let e1' = Deriv.deriv dt e1 and e2' = Deriv.deriv dt e2 in
        Bool.equal (Rse.nullable e1') (Rse.nullable e2')
        && (card + 1 = max_card || walk (card + 1) e1' e2' rest)
        && walk card e1 e2 rest
  in
  Bool.equal (Rse.nullable e1) (Rse.nullable e2)
  && walk 0 e1 e2 (List.sort Rdf.Triple.compare all_triples)

(* The walk tells a pair apart that only a three-triple neighbourhood
   separates, and equates two structurally different spellings of
   one shape. *)
let test_semantically_equal () =
  let a = arc_num "a" values in
  let at_most_two = Rse.repeat 0 (Some 2) a in
  check_bool "a{0,2} ≢ a* (they differ on {a1, a2, a3})" false
    (semantically_equal at_most_two (Rse.star a));
  check_bool "… which no neighbourhood of two triples shows" true
    (semantically_equal ~max_card:2 at_most_two (Rse.star a));
  let plus = Rse.plus a and spelled = Rse.and_ a (Rse.star a) in
  check_bool "a+ and a ‖ a* are different expressions" false
    (Rse.equal plus spelled);
  check_bool "a+ ≡ a ‖ a*" true (semantically_equal plus spelled);
  (* Both derivatives by ⟨n,a,1⟩ are ε, so that branch is pruned; its
     sibling {⟨n,b,1⟩} still tells the two apart. *)
  let a1_or b = Rse.or_ (arc_num "a" [ 1 ]) (arc_num "b" [ b ]) in
  let by_a1 = Deriv.deriv (Neigh.out (t3 "n" "a" (num 1))) in
  check_bool "a1|b1 and a1|b2 agree after ⟨n,a,1⟩" true
    (Rse.equal (by_a1 (a1_or 1)) (by_a1 (a1_or 2)));
  check_bool "a1|b1 ≢ a1|b2 (they differ on {b1})" false
    (semantically_equal (a1_or 1) (a1_or 2))

let prop_shexj_roundtrip =
  (* Random (reference-free) schemas survive the JSON interchange up
     to semantics.  Structural equality is too strong: the or-factoring
     normalisation is not associative, so re-normalising on import can
     factor subgroups differently (always semantics-preserving, which
     is exactly what this property decides exhaustively over the
     finite triple universe). *)
  QCheck.Test.make ~count:60 ~name:"ShExJ roundtrip preserves semantics"
    arb_rse (fun e ->
      match Schema.make [ (Label.of_string "S", e) ] with
      | Error _ -> QCheck.assume_fail ()
      | Ok schema -> (
          match Shexc.Shexj.import_string (Shexc.Shexj.export_string schema) with
          | Error _ -> false
          | Ok schema' ->
              semantically_equal
                (Schema.find_exn schema (Label.of_string "S"))
                (Schema.find_exn schema' (Label.of_string "S"))))

let prop_shexj_verdict_preserved =
  QCheck.Test.make ~count:100
    ~name:"ShExJ roundtrip preserves verdicts" arb_rse_graph
    (fun (e, g) ->
      QCheck.assume (small_enough g);
      match Schema.make [ (Label.of_string "S", e) ] with
      | Error _ -> QCheck.assume_fail ()
      | Ok schema -> (
          match Shexc.Shexj.import_string (Shexc.Shexj.export_string schema) with
          | Error _ -> false
          | Ok schema' ->
              let l = Label.of_string "S" in
              Bool.equal
                (Validate.check_bool (Validate.session schema g) (node "n") l)
                (Validate.check_bool (Validate.session schema' g) (node "n")
                   l)))

(* ------------------------------------------------------------------ *)
(* Graph bulk set-ops ≡ per-triple folds                               *)
(* ------------------------------------------------------------------ *)

(* A wider universe than [gen_graph]'s single-node one: many subjects
   with links between them, so set-op results carry real subject and
   object indexes to get wrong.  [union]/[diff] pick between an
   incremental path and a bulk [of_set] reindex by the [small_delta]
   size heuristic, so each property pins both branches explicitly. *)
let gen_wide_triple =
  QCheck.Gen.(
    let subj = int_bound 9 >|= fun k -> node (Printf.sprintf "n%d" k) in
    let obj = oneof [ subj; (int_bound 3 >|= num) ] in
    subj >>= fun s ->
    oneofl [ "a"; "b"; "c"; "d" ] >>= fun p ->
    obj >|= fun o -> Rdf.Triple.make s (ex p) o)

let gen_wide_graph size_gen =
  QCheck.Gen.(list_size size_gen gen_wide_triple >|= Rdf.Graph.of_list)

let arb_graph_pair =
  QCheck.make
    ~print:(fun (g1, g2) ->
      Format.asprintf "%a@.--@.%a" Rdf.Graph.pp g1 Rdf.Graph.pp g2)
    QCheck.Gen.(
      (* One side large, the other either tiny (delta branch) or
         comparable (bulk branch). *)
      pair
        (gen_wide_graph (int_bound 60))
        (oneof
           [ gen_wide_graph (int_bound 4); gen_wide_graph (int_bound 60) ]))

(* The secondary indexes agree with the triple set — the invariant the
   bulk constructors must re-establish without per-triple [add]s. *)
let well_indexed g =
  let trs = Rdf.Graph.to_list g in
  List.for_all
    (fun n ->
      List.equal Rdf.Triple.equal
        (Rdf.Graph.out_triples n g)
        (List.filter
           (fun tr -> Rdf.Term.equal (Rdf.Triple.subject tr) n)
           trs)
      && List.equal Rdf.Triple.equal
           (Rdf.Graph.in_triples n g)
           (List.filter
              (fun tr -> Rdf.Term.equal (Rdf.Triple.obj tr) n)
              trs))
    (Rdf.Graph.nodes g)

let union_fold g1 g2 = Rdf.Graph.fold Rdf.Graph.add g2 g1
let diff_fold g1 g2 = Rdf.Graph.fold Rdf.Graph.remove g2 g1

(* True when [union g1 g2] (resp. [diff g1 g2]) takes the incremental
   small-delta path; its negation is the bulk-reindex path. *)
let delta_branch d g =
  8 * Rdf.Graph.cardinal d <= Rdf.Graph.cardinal g

let prop_bulk_union_fold =
  QCheck.Test.make ~count:150 ~name:"bulk union ≡ fold, well-indexed"
    arb_graph_pair (fun (g1, g2) ->
      let u = Rdf.Graph.union g1 g2 in
      Rdf.Graph.equal u (union_fold g1 g2) && well_indexed u)

let prop_union_both_branches =
  QCheck.Test.make ~count:150 ~name:"union agrees across the size heuristic"
    arb_graph_pair (fun (g1, g2) ->
      let small, large =
        if Rdf.Graph.cardinal g1 >= Rdf.Graph.cardinal g2 then (g2, g1)
        else (g1, g2)
      in
      (* Force the opposite branch by padding the small side with the
         large one's triples: a self-union is size-balanced, so the
         bulk path runs even when (g1, g2) took the delta path. *)
      let balanced = union_fold large small in
      Rdf.Graph.equal
        (Rdf.Graph.union balanced large)
        (union_fold balanced large)
      && (delta_branch small large
          || Rdf.Graph.equal (Rdf.Graph.union small large)
               (union_fold small large)))

let prop_bulk_diff_fold =
  QCheck.Test.make ~count:150 ~name:"bulk diff ≡ fold, well-indexed"
    arb_graph_pair (fun (g1, g2) ->
      let d = Rdf.Graph.diff g1 g2 in
      let d' = Rdf.Graph.diff g2 g1 in
      Rdf.Graph.equal d (diff_fold g1 g2)
      && Rdf.Graph.equal d' (diff_fold g2 g1)
      && well_indexed d && well_indexed d')

let prop_bulk_filter_fold =
  QCheck.Test.make ~count:150 ~name:"bulk filter ≡ fold, well-indexed"
    arb_graph_pair (fun (g1, g2) ->
      let keep tr = Rdf.Graph.mem tr g2 || Rdf.Term.is_literal (Rdf.Triple.obj tr) in
      let f = Rdf.Graph.filter keep g1 in
      Rdf.Graph.equal f
        (Rdf.Graph.fold
           (fun tr acc -> if keep tr then Rdf.Graph.add tr acc else acc)
           g1 Rdf.Graph.empty)
      && well_indexed f)

(* [Graph.cardinal] is kept in the graph rather than recounted, so
   every constructor has to maintain it: after each step of a random
   sequence of adds, removes (no-op ones included), unions, diffs and
   filters it still equals the number of triples
   listed. *)
type graph_op =
  | Op_add of Rdf.Triple.t
  | Op_add_nth of int  (* re-add a present triple: a no-op *)
  | Op_remove of Rdf.Triple.t  (* usually absent: a no-op *)
  | Op_remove_nth of int
  | Op_union of Rdf.Graph.t
  | Op_diff of Rdf.Graph.t
  | Op_filter of int

let nth_triple g i =
  let trs = Rdf.Graph.to_list g in
  if trs = [] then None else Some (List.nth trs (i mod List.length trs))

let apply_graph_op g = function
  | Op_add tr -> Rdf.Graph.add tr g
  | Op_add_nth i ->
      Option.fold ~none:g ~some:(fun tr -> Rdf.Graph.add tr g) (nth_triple g i)
  | Op_remove tr -> Rdf.Graph.remove tr g
  | Op_remove_nth i ->
      Option.fold ~none:g
        ~some:(fun tr -> Rdf.Graph.remove tr g)
        (nth_triple g i)
  | Op_union h -> Rdf.Graph.union g h
  | Op_diff h -> Rdf.Graph.diff g h
  | Op_filter k ->
      Rdf.Graph.filter
        (fun tr -> Hashtbl.hash (Rdf.Triple.subject tr) mod 3 <> k)
        g

let graph_op_to_string = function
  | Op_add tr -> Format.asprintf "add %a" Rdf.Triple.pp tr
  | Op_add_nth i -> Printf.sprintf "re-add #%d" i
  | Op_remove tr -> Format.asprintf "remove %a" Rdf.Triple.pp tr
  | Op_remove_nth i -> Printf.sprintf "remove #%d" i
  | Op_union h -> Printf.sprintf "union (%d triples)" (Rdf.Graph.cardinal h)
  | Op_diff h -> Printf.sprintf "diff (%d triples)" (Rdf.Graph.cardinal h)
  | Op_filter k -> Printf.sprintf "filter %d" k

let gen_graph_op =
  QCheck.Gen.(
    frequency
      [ (4, gen_wide_triple >|= fun tr -> Op_add tr);
        (1, nat >|= fun i -> Op_add_nth i);
        (2, gen_wide_triple >|= fun tr -> Op_remove tr);
        (2, nat >|= fun i -> Op_remove_nth i);
        (1, gen_wide_graph (int_bound 60) >|= fun h -> Op_union h);
        (1, gen_wide_graph (int_bound 4) >|= fun h -> Op_union h);
        (1, gen_wide_graph (int_bound 60) >|= fun h -> Op_diff h);
        (1, int_bound 2 >|= fun k -> Op_filter k) ])

let prop_cardinal_is_kept =
  QCheck.Test.make ~count:200 ~name:"Graph.cardinal kept through edits and set ops"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map graph_op_to_string ops))
       QCheck.Gen.(list_size (int_bound 40) gen_graph_op))
    (fun ops ->
      let ok g = Rdf.Graph.cardinal g = List.length (Rdf.Graph.to_list g) in
      let rec go g = function
        | [] -> true
        | op :: rest ->
            let g = apply_graph_op g op in
            ok g && go g rest
      in
      go Rdf.Graph.empty ops)

let prop_columnar_roundtrip =
  QCheck.Test.make ~count:150 ~name:"columnar of_graph/to_graph roundtrip"
    arb_graph_pair (fun (g1, g2) ->
      (* Union first so the round-tripped graph exercises the bulk
         constructors' output, not just generator output. *)
      let g = Rdf.Graph.union g1 g2 in
      let c = Rdf.Columnar.of_graph g in
      let g' = Rdf.Columnar.to_graph c in
      Rdf.Graph.equal g g' && well_indexed g'
      && List.for_all
           (fun n ->
             List.equal Shex.Neigh.equal
               (Neigh.of_node ~include_inverse:true n g)
               (Neigh.of_columnar ~include_inverse:true n c))
           (Rdf.Graph.nodes g))

(* The builder under arbitrary input: a shuffled multiset over IRIs,
   bnodes and literals, some triples fed twice, and one hub subject
   with more arcs than the freeze sorts by insertion. *)
let gen_builder_input =
  QCheck.Gen.(
    let hub = node "hub" in
    let subj =
      oneof
        [ (int_bound 5 >|= fun k -> node (Printf.sprintf "n%d" k));
          ( int_bound 2 >|= fun k ->
            Rdf.Term.Bnode (Rdf.Bnode.of_string (Printf.sprintf "b%d" k)) ) ]
    in
    let obj =
      oneof
        [ subj; return hub; (int_bound 4 >|= num);
          (oneofl [ "x"; "y" ] >|= Rdf.Term.str) ]
    in
    let pred = oneofl [ "a"; "b"; "c"; "d" ] >|= ex in
    list_size (int_bound 40)
      (subj >>= fun s -> pred >>= fun p -> obj >|= Rdf.Triple.make s p)
    >>= fun rest ->
    int_range 17 60 >>= fun arcs ->
    flatten_l
      (List.init arcs (fun k ->
           pred >|= fun p -> Rdf.Triple.make hub p (num k)))
    >>= fun spokes ->
    let fed = rest @ spokes in
    list_size (int_bound 20) (oneofl fed) >>= fun again ->
    shuffle_l (fed @ again))

let prop_columnar_builder_any_order =
  QCheck.Test.make ~count:150
    ~name:"columnar builder ≡ Graph.of_list, any input order"
    (QCheck.make
       ~print:(fun trs ->
         String.concat "\n"
           (List.map (Format.asprintf "%a" Rdf.Triple.pp) trs))
       gen_builder_input)
    (fun trs ->
      let b = Rdf.Columnar.builder ~terms:4 ~triples:4 () in
      List.iter (Rdf.Columnar.add_triple b) trs;
      columnar_agrees (Rdf.Columnar.freeze b) (Rdf.Graph.of_list trs))

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_deriv_equals_backtrack;
      prop_deriv_equals_enumeration;
      prop_order_independence;
      prop_nullable_iff_matches_empty;
      prop_raw_ctors_same_verdict;
      prop_smart_never_bigger;
      prop_deriv_not_nullable_after_epsilon;
      prop_star_absorbs;
      prop_or_commutes;
      prop_and_commutes;
      prop_negation_involutive;
      prop_negation_complements;
      prop_sorbe_agrees;
      prop_repeat_counts;
      prop_size_positive;
      prop_validate_engines_agree;
      prop_open_up_monotone;
      prop_open_up_ignores_unmentioned;
      prop_turtle_roundtrip;
      prop_ntriples_roundtrip;
      prop_turtle_control_char_roundtrip;
      prop_ntriples_control_char_roundtrip;
      prop_line_ending_invariance;
      prop_shexj_roundtrip;
      prop_shexj_verdict_preserved;
      prop_bulk_union_fold;
      prop_union_both_branches;
      prop_bulk_diff_fold;
      prop_bulk_filter_fold;
      prop_cardinal_is_kept;
      prop_columnar_roundtrip;
      prop_columnar_builder_any_order;
      prop_repeat_matches_expansion;
      prop_deriv_memo_sound ]

let suites =
  [ ( "properties",
      tests
      @ [ Alcotest.test_case "equivalence by derivatives along the subset tree"
            `Quick test_semantically_equal ] ) ]
