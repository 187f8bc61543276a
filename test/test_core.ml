(* Tests for Xc_core: the synopsis graph (builder and sealed forms),
   reference construction, node merges, the Δ metric, the candidate
   pool, XCLUSTERBUILD and estimation. *)

open Xc_xml
module Synopsis = Xc_core.Synopsis
module B = Synopsis.Builder
module S = Synopsis.Sealed
module Levels = Synopsis.Levels
module Reference = Xc_core.Reference
module Merge = Xc_core.Merge
module Delta = Xc_core.Delta
module Pool = Xc_core.Pool
module Build = Xc_core.Build
module Estimate = Xc_core.Estimate
module Size = Xc_core.Size
module Vs = Xc_vsumm.Value_summary

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg
let checkf2 msg = Alcotest.check (Alcotest.float 1e-2) msg

(* db with two structurally distinct paper shapes and one book *)
let sample_doc () =
  let paper ~cites year title =
    let children =
      [ Node.leaf "year" (Value.Numeric year); Node.leaf "title" (Value.Str title) ]
      @ if cites then [ Node.make "cites" ~children:[ Node.make "ref" ] ] else []
    in
    Node.make "paper" ~children
  in
  Document.create
    (Node.make "db"
       ~children:
         [ paper ~cites:true 2000 "Counting Twigs";
           paper ~cites:true 2001 "Holistic Joins";
           paper ~cites:false 2004 "Synopses";
           Node.make "book"
             ~children:[ Node.leaf "year" (Value.Numeric 1999);
                         Node.leaf "title" (Value.Str "Databases") ] ])

let exact doc q = Xc_twig.Twig_eval.selectivity doc (Xc_twig.Twig_parse.parse q)
let est syn q = Estimate.selectivity syn (Xc_twig.Twig_parse.parse q)
let estb b q = est (Synopsis.freeze b) q

(* ---- Synopsis data structure ------------------------------------------- *)

let tiny_synopsis () =
  let syn = B.create ~doc_height:3 in
  let r = B.add_node syn ~label:(Label.of_string "r") ~vtype:Value.Tnull ~count:1 ~vsumm:Vs.vnone in
  let a = B.add_node syn ~label:(Label.of_string "a") ~vtype:Value.Tnull ~count:4 ~vsumm:Vs.vnone in
  let b = B.add_node syn ~label:(Label.of_string "b") ~vtype:Value.Tnull ~count:8 ~vsumm:Vs.vnone in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid a) 4.0;
  B.set_edge syn ~parent:(B.sid a) ~child:(B.sid b) 2.0;
  (syn, r, a, b)

let test_synopsis_edges () =
  let syn, r, a, b = tiny_synopsis () in
  checkf "edge" 4.0 (B.edge_count syn ~parent:(B.sid r) ~child:(B.sid a));
  checkf "absent edge" 0.0 (B.edge_count syn ~parent:(B.sid r) ~child:(B.sid b));
  check Alcotest.int "n_nodes" 3 (B.n_nodes syn);
  check Alcotest.int "n_edges" 2 (B.n_edges syn);
  check Alcotest.int "structural bytes" ((3 * Size.node_bytes) + (2 * Size.edge_bytes))
    (B.structural_bytes syn);
  (* deleting an edge cleans the reverse index *)
  B.set_edge syn ~parent:(B.sid a) ~child:(B.sid b) 0.0;
  check Alcotest.int "edge removed" 1 (B.n_edges syn);
  check Alcotest.bool "validate" true (B.validate syn = Ok ())

let test_synopsis_levels () =
  let syn, r, a, b = tiny_synopsis () in
  let levels = Levels.compute syn in
  check Alcotest.int "leaf" 0 (Levels.get levels ~default:(-1) (B.sid b));
  check Alcotest.int "mid" 1 (Levels.get levels ~default:(-1) (B.sid a));
  check Alcotest.int "root" 2 (Levels.get levels ~default:(-1) (B.sid r));
  check Alcotest.int "max level" 2 (Levels.max_level levels);
  Levels.set levels 99 7;
  check Alcotest.int "set raises max" 7 (Levels.max_level levels);
  check (Alcotest.option Alcotest.int) "absent sid" None (Levels.level levels 1000)

let test_synopsis_copy_independent () =
  let syn, r, a, _ = tiny_synopsis () in
  let copy = B.copy syn in
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid a) 9.0;
  checkf "copy keeps old edge" 4.0
    (B.edge_count copy ~parent:(B.sid r) ~child:(B.sid a))

let test_synopsis_validate_catches () =
  let syn, _, a, b = tiny_synopsis () in
  (* corrupt: remove b from the table but leave the edge dangling *)
  B.remove_node syn (B.sid b);
  (match B.validate syn with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected dangling edge to be caught");
  ignore a;
  (* a summary of another kind than the node's type is refused *)
  let num = Vs.of_values [ Value.Numeric 1 ] in
  Alcotest.check_raises "add_node"
    (Invalid_argument "Synopsis.Builder: value summary does not fit the node's type")
    (fun () ->
      ignore (B.add_node syn ~label:(Label.of_string "x") ~vtype:Value.Tstring ~count:1 ~vsumm:num));
  Alcotest.check_raises "set_vsumm"
    (Invalid_argument "Synopsis.Builder: value summary does not fit the node's type")
    (fun () -> B.set_vsumm syn a num)

let test_freeze_matches_builder () =
  let syn, r, a, b = tiny_synopsis () in
  let sealed = Synopsis.freeze syn in
  check Alcotest.bool "sealed valid" true (S.validate sealed = Ok ());
  check Alcotest.int "n_nodes" (B.n_nodes syn) (S.n_nodes sealed);
  check Alcotest.int "n_edges" (B.n_edges syn) (S.n_edges sealed);
  check Alcotest.int "structural bytes" (B.structural_bytes syn)
    (S.structural_bytes sealed);
  check Alcotest.int "root sid" (B.root syn) (S.root_sid sealed);
  checkf "edge r->a" 4.0 (S.edge_count sealed ~parent:(B.sid r) ~child:(B.sid a));
  checkf "edge a->b" 2.0 (S.edge_count sealed ~parent:(B.sid a) ~child:(B.sid b));
  checkf "absent edge" 0.0 (S.edge_count sealed ~parent:(B.sid r) ~child:(B.sid b));
  check (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "succ of r" [ (B.sid a, 4.0) ] (S.succ sealed (B.sid r));
  check (Alcotest.list Alcotest.int) "pred of b" [ B.sid a ] (S.pred sealed (B.sid b));
  (* freezing is a snapshot: later builder mutation is invisible *)
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid a) 9.0;
  checkf "sealed unchanged" 4.0 (S.edge_count sealed ~parent:(B.sid r) ~child:(B.sid a));
  (* each freeze is a distinct value *)
  let sealed2 = Synopsis.freeze syn in
  check Alcotest.bool "fresh uid" true (S.uid sealed <> S.uid sealed2)

let test_freeze_requires_root () =
  let syn = B.create ~doc_height:1 in
  match Synopsis.freeze syn with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected freeze without a root to be rejected"

(* ---- Reference construction --------------------------------------------- *)

let test_reference_counts () =
  let doc = sample_doc () in
  let reference = Reference.build ~min_extent:1 doc in
  check Alcotest.bool "valid" true (B.validate reference = Ok ());
  (* total extent mass = document size *)
  let mass = B.fold (fun acc n -> acc + B.count n) 0 reference in
  check Alcotest.int "extent mass" (Document.n_elements doc) mass;
  (* two paper shapes => two paper clusters (count-stability) *)
  let papers =
    B.fold
      (fun acc n ->
        if String.equal (Label.to_string (B.label n)) "paper" then n :: acc else acc)
      [] reference
  in
  check Alcotest.int "two paper clusters" 2 (List.length papers);
  (* backward stability: title under paper vs book are separate clusters *)
  let titles =
    B.fold
      (fun acc n ->
        if String.equal (Label.to_string (B.label n)) "title" then n :: acc else acc)
      [] reference
  in
  check Alcotest.int "three title clusters" 3 (List.length titles)

let test_reference_estimates_struct_exactly () =
  (* on the reference synopsis, structural twigs estimate exactly *)
  let doc = sample_doc () in
  let reference = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
  List.iter
    (fun q -> checkf ("exact: " ^ q) (exact doc q) (est reference q))
    [ "/db/paper"; "//paper/title"; "//ref"; "//paper[cites]/year"; "/db/*/title";
      "//paper[cites/ref]/title"; "//book/year" ]

let test_reference_value_estimates () =
  let doc = sample_doc () in
  let reference = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
  checkf2 "year range" (exact doc "//paper[year < 2002]")
    (est reference "//paper[year < 2002]");
  checkf2 "substring" (exact doc "//paper[title contains(Twig)]")
    (est reference "//paper[title contains(Twig)]")

let test_tag_only () =
  let doc = sample_doc () in
  let syn = Reference.tag_only doc in
  (* one cluster per (label, vtype): db, paper, book, year, title, cites, ref *)
  check Alcotest.int "seven clusters" 7 (B.n_nodes syn);
  check Alcotest.bool "valid" true (B.validate syn = Ok ());
  (* structural counts on tags remain exact under tag-only clustering *)
  checkf "papers" 3.0 (estb syn "//paper");
  checkf "titles" 4.0 (estb syn "//title")

let test_reference_min_extent_pools () =
  let doc = Xc_data.Imdb.generate ~seed:3 ~n_movies:300 () in
  let fine = Reference.build ~min_extent:1 doc in
  let pooled = Reference.build ~min_extent:64 doc in
  check Alcotest.bool "pooling shrinks the reference" true
    (B.n_nodes pooled < B.n_nodes fine);
  check Alcotest.bool "still valid" true (B.validate pooled = Ok ())

(* ---- Merge ---------------------------------------------------------------- *)

let test_merge_counts_and_edges () =
  let doc = sample_doc () in
  let syn = Reference.build ~min_extent:1 doc in
  let papers =
    B.fold
      (fun acc n ->
        if String.equal (Label.to_string (B.label n)) "paper" then n :: acc else acc)
      [] syn
  in
  match papers with
  | [ u; v ] ->
    let cu = B.count u and cv = B.count v in
    let n_before = B.n_nodes syn in
    let str_before = B.structural_bytes syn in
    let predicted = Merge.saved_bytes syn u v in
    let w = Merge.apply syn (B.sid u) (B.sid v) in
    check Alcotest.int "counts add" (cu + cv) (B.count w);
    check Alcotest.int "one fewer node" (n_before - 1) (B.n_nodes syn);
    check Alcotest.int "saved bytes exact" (str_before - predicted)
      (B.structural_bytes syn);
    check Alcotest.bool "valid after merge" true (B.validate syn = Ok ());
    (* structural tag counts survive any merge *)
    checkf "papers still 3" 3.0 (estb syn "//paper");
    checkf "titles still 4" 4.0 (estb syn "//title")
  | _ -> Alcotest.fail "expected two paper clusters"

let test_merge_to_tag_only_equivalence () =
  (* merging everything mergeable yields the tag-only structural counts *)
  let doc = sample_doc () in
  let syn = B.copy (Reference.build ~min_extent:1 doc) in
  let params = Build.budget ~bstr_kb:0 ~bval_kb:10_000 () in
  Build.phase1_merge { params with Build.bstr = 0 } syn;
  check Alcotest.bool "valid" true (B.validate syn = Ok ());
  let tag = Reference.tag_only doc in
  check Alcotest.int "same node count" (B.n_nodes tag) (B.n_nodes syn)

let test_merge_incompatible_rejected () =
  let doc = sample_doc () in
  let syn = Reference.build ~min_extent:1 doc in
  let find label =
    B.fold
      (fun acc n ->
        if String.equal (Label.to_string (B.label n)) label then Some n else acc)
      None syn
    |> Option.get
  in
  let paper = find "paper" and year = find "year" in
  Alcotest.check_raises "label mismatch"
    (Invalid_argument "Merge.apply: incompatible nodes") (fun () ->
      ignore (Merge.apply syn (B.sid paper) (B.sid year)));
  Alcotest.check_raises "self merge"
    (Invalid_argument "Merge.apply: cannot merge a node with itself") (fun () ->
      ignore (Merge.apply syn (B.sid paper) (B.sid paper)))

let test_merge_self_loop () =
  (* recursive structure: merging the two 'a' clusters creates a self-loop
     with the right average count *)
  let syn = B.create ~doc_height:3 in
  let add label count =
    B.add_node syn ~label:(Label.of_string label) ~vtype:Value.Tnull ~count
      ~vsumm:Vs.vnone
  in
  let r = add "r" 1 and a1 = add "a" 2 and a2 = add "a" 6 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid a1) 2.0;
  B.set_edge syn ~parent:(B.sid a1) ~child:(B.sid a2) 3.0;
  let w = Merge.apply syn (B.sid a1) (B.sid a2) in
  check Alcotest.bool "valid" true (B.validate syn = Ok ());
  (* count(w,w) = (2*3 + 6*0)/8 *)
  checkf "self loop avg" 0.75
    (B.edge_count syn ~parent:(B.sid w) ~child:(B.sid w));
  checkf "root edge total" 2.0
    (B.edge_count syn ~parent:(B.sid r) ~child:(B.sid w))

(* ---- Delta ------------------------------------------------------------------ *)

let merge_delta ?structural_only syn u v =
  fst (Delta.merge_delta_counted ?structural_only (Delta.scratch ()) syn u v)

let test_delta_identical_is_zero () =
  (* merging two clusters with identical centroids and values costs 0 *)
  let syn = B.create ~doc_height:2 in
  let add label count vsumm =
    B.add_node syn ~label:(Label.of_string label) ~vtype:Value.Tnumeric ~count ~vsumm
  in
  let mk_vs () = Vs.of_values (List.init 10 (fun i -> Value.Numeric i)) in
  let u = add "x" 5 (mk_vs ()) and v = add "x" 5 (mk_vs ()) in
  let r =
    B.add_node syn ~label:(Label.of_string "r") ~vtype:Value.Tnull ~count:1
      ~vsumm:Vs.vnone
  in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid u) 5.0;
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid v) 5.0;
  checkf "zero delta" 0.0 (merge_delta syn u v)

let test_delta_grows_with_dissimilarity () =
  let syn = B.create ~doc_height:2 in
  let add label count vsumm =
    B.add_node syn ~label:(Label.of_string label) ~vtype:Value.Tnumeric ~count ~vsumm
  in
  let low = Vs.of_values (List.init 20 (fun i -> Value.Numeric i)) in
  let near = Vs.of_values (List.init 20 (fun i -> Value.Numeric (i + 3))) in
  let far = Vs.of_values (List.init 20 (fun i -> Value.Numeric (i + 500))) in
  let u = add "x" 20 low and v1 = add "x" 20 near and v2 = add "x" 20 far in
  let r =
    B.add_node syn ~label:(Label.of_string "r") ~vtype:Value.Tnull ~count:1
      ~vsumm:Vs.vnone
  in
  B.set_root syn (B.sid r);
  List.iter
    (fun n -> B.set_edge syn ~parent:(B.sid r) ~child:(B.sid n) 20.0)
    [ u; v1; v2 ];
  let d_near = merge_delta syn u v1 and d_far = merge_delta syn u v2 in
  check Alcotest.bool "near < far" true (d_near < d_far);
  check Alcotest.bool "positive" true (d_near > 0.0)

let test_delta_structural_component () =
  (* same (null) values, different fanouts: structural error must show *)
  let syn, _, a, b = tiny_synopsis () in
  let c =
    B.add_node syn ~label:(Label.of_string "a") ~vtype:Value.Tnull ~count:4
      ~vsumm:Vs.vnone
  in
  B.set_edge syn ~parent:(B.sid c) ~child:(B.sid b) 7.0;
  let d = merge_delta syn a c in
  check Alcotest.bool "fanout difference costs" true (d > 0.0);
  (* structural_only agrees here because the values are Null anyway *)
  checkf "structural-only same" d (merge_delta ~structural_only:true syn a c)

let test_compression_step () =
  let syn = B.create ~doc_height:2 in
  let vs = Vs.of_values (List.init 64 (fun i -> Value.Numeric i)) in
  let u =
    B.add_node syn ~label:(Label.of_string "x") ~vtype:Value.Tnumeric ~count:64
      ~vsumm:vs
  in
  B.set_root syn (B.sid u);
  match Delta.compression_step syn u with
  | Some (delta, step) ->
    check Alcotest.bool "delta >= 0" true (delta >= 0.0);
    check Alcotest.int "histogram step saves 8" 8 step.Vs.saved
  | None -> Alcotest.fail "expected a compression step"

(* ---- Pool ------------------------------------------------------------------- *)

let test_pool_only_compatible_pairs () =
  let doc = sample_doc () in
  let syn = Reference.build ~min_extent:1 doc in
  let levels = Levels.compute syn in
  let pool = Pool.build Pool.default_config syn ~levels ~level:99 in
  let rec drain () =
    match Pool.pop_valid Pool.default_config syn pool with
    | None -> ()
    | Some cand ->
      let u = B.find syn cand.Pool.u and v = B.find syn cand.Pool.v in
      check Alcotest.bool "compatible" true (Merge.compatible u v);
      drain ()
  in
  drain ()

let test_pool_respects_level () =
  let doc = sample_doc () in
  let syn = Reference.build ~min_extent:1 doc in
  let levels = Levels.compute syn in
  (* at level 0 only leaves pair up *)
  let pool = Pool.build Pool.default_config syn ~levels ~level:0 in
  let rec drain () =
    match Pool.pop_valid Pool.default_config syn pool with
    | None -> ()
    | Some cand ->
      check Alcotest.int "leaf level u" 0 (Levels.get levels ~default:(-1) cand.Pool.u);
      check Alcotest.int "leaf level v" 0 (Levels.get levels ~default:(-1) cand.Pool.v);
      drain ()
  in
  drain ()

let test_pool_orders_by_marginal_loss () =
  let doc = sample_doc () in
  let syn = Reference.build ~min_extent:1 doc in
  let levels = Levels.compute syn in
  let pool = Pool.build Pool.default_config syn ~levels ~level:99 in
  let rec losses acc =
    match Pool.pop_valid Pool.default_config syn pool with
    | None -> List.rev acc
    | Some cand -> losses (Delta.marginal_loss cand.Pool.delta cand.Pool.saved :: acc)
  in
  let seq = losses [] in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && nondecreasing rest
    | _ -> true
  in
  check Alcotest.bool "sorted" true (nondecreasing seq)

(* ---- Build ------------------------------------------------------------------- *)

let sealed_all_exhausted syn =
  let ok = ref true in
  for i = 0 to S.n_nodes syn - 1 do
    if Option.is_some (Vs.compress_step (S.vsumm syn i)) then ok := false
  done;
  !ok

let test_build_meets_budgets () =
  let doc = Xc_data.Imdb.generate ~seed:11 ~n_movies:400 () in
  let reference = Reference.build ~min_extent:8 doc in
  let str_before = B.structural_bytes reference in
  let params = Build.budget ~bstr_kb:6 ~bval_kb:40 () in
  let syn = Build.run params reference in
  check Alcotest.bool "structural budget met" true
    (S.structural_bytes syn <= Size.kb 6);
  (* the value budget is met unless compression bottomed out on its
     lossless floors (RLE buckets, per-symbol PST nodes) *)
  check Alcotest.bool "value budget met or floors reached" true
    (S.value_bytes syn <= Size.kb 40 || sealed_all_exhausted syn);
  check Alcotest.bool "valid" true (S.validate syn = Ok ());
  (* the reference itself is untouched by the run *)
  check Alcotest.int "reference intact" str_before (B.structural_bytes reference)

let test_build_extent_mass_invariant () =
  let doc = Xc_data.Imdb.generate ~seed:12 ~n_movies:300 () in
  let reference = Reference.build doc in
  let syn = Build.run (Build.budget ~bstr_kb:4 ~bval_kb:30 ()) reference in
  let mass = Array.fold_left ( + ) 0 (S.counts syn) in
  check Alcotest.int "extent mass preserved" (Document.n_elements doc) mass

let test_build_sweep_prefix_consistency () =
  (* sweep snapshots equal independent runs at the same budget *)
  let doc = Xc_data.Imdb.generate ~seed:13 ~n_movies:250 () in
  let reference = Reference.build doc in
  let sweep = Build.sweep_at (Build.budget ~bval_kb:40 ()) ~bstr_kbs:[ 8; 4 ] reference in
  let independent = Build.run (Build.budget ~bstr_kb:4 ~bval_kb:40 ()) reference in
  let at4 = List.assoc 4 sweep in
  check Alcotest.int "same nodes" (S.n_nodes independent) (S.n_nodes at4);
  check Alcotest.int "same structural bytes" (S.structural_bytes independent)
    (S.structural_bytes at4);
  (* and estimates agree *)
  let q = "//movie/cast/actor/name" in
  checkf "same estimate" (est independent q) (est at4 q)

let test_structure_value_correlation_beats_tag_only () =
  (* the headline mechanism: when the same tag carries different value
     distributions on different paths, a structure-value cluster
     estimates a path-specific predicate exactly while the tag-only
     summary mixes the distributions and errs *)
  let doc =
    (* 100 'old' years (1900..1949) under a, 100 'new' (2000..2049) under b *)
    Document.create
      (Node.make "db"
         ~children:
           [ Node.make "a"
               ~children:
                 (List.init 100 (fun i -> Node.leaf "year" (Value.Numeric (1900 + (i mod 50)))));
             Node.make "b"
               ~children:
                 (List.init 100 (fun i -> Node.leaf "year" (Value.Numeric (2000 + (i mod 50))))) ])
  in
  let q = "/db/a/year[. < 1950]" in
  let truth = exact doc q in
  checkf "truth" 100.0 truth;
  let reference = Reference.build ~min_extent:1 doc in
  checkf "reference exact" truth (estb reference q);
  let tag = Reference.tag_only doc in
  let tag_est = estb tag q in
  (* tag-only mixes both year populations: σ = 0.5 over a 200-element
     cluster reached through the /db/a edge => half the true count *)
  check Alcotest.bool "tag-only underestimates by ~2x" true
    (tag_est < 0.7 *. truth)

(* ---- Estimate --------------------------------------------------------------- *)

let test_estimate_reach () =
  let doc = sample_doc () in
  let syn = Synopsis.freeze (Reference.tag_only doc) in
  let reach = Estimate.reach syn [ Xc_twig.Path_expr.desc "title" ] (S.root_sid syn) in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 reach in
  checkf "4 titles reachable" 4.0 total

let test_estimate_wildcards_and_desc () =
  let doc = sample_doc () in
  let syn = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
  List.iter
    (fun q -> checkf ("exact: " ^ q) (exact doc q) (est syn q))
    [ "//*"; "/db//*"; "//paper//*"; "/*/paper" ]

let test_estimate_predicate_type_mismatch_zero () =
  let doc = sample_doc () in
  let syn = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
  checkf "range on string node" 0.0 (est syn "//paper[title > 1900]");
  checkf "contains on numeric node" 0.0 (est syn "//paper[year contains(x)]")

let test_estimate_cyclic_synopsis_terminates () =
  (* descendant estimation over a cyclic synopsis must terminate *)
  let syn = B.create ~doc_height:6 in
  let add label count =
    B.add_node syn ~label:(Label.of_string label) ~vtype:Value.Tnull ~count
      ~vsumm:Vs.vnone
  in
  let r = add "r" 1 and a = add "p" 10 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid a) 2.0;
  B.set_edge syn ~parent:(B.sid a) ~child:(B.sid a) 0.5;
  let v = estb syn "//p" in
  check Alcotest.bool "finite" true (Float.is_finite v);
  check Alcotest.bool "positive" true (v > 0.0)

(* ---- Codec ------------------------------------------------------------------ *)

let same_estimates doc a b =
  List.iter
    (fun q -> checkf ("roundtrip estimate: " ^ q) (est a q) (est b q))
    [ "//paper"; "//paper[year < 2002]"; "//paper[title contains(Twi)]";
      "//paper[cites/ref]/title"; "/db/*/year[. = 1999]" ];
  ignore doc

let test_codec_roundtrip () =
  let doc = sample_doc () in
  let syn = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
  let encoded = Xc_core.Codec.to_string syn in
  let decoded = Xc_core.Codec.of_string_exn encoded in
  check Alcotest.int "same nodes" (S.n_nodes syn) (S.n_nodes decoded);
  check Alcotest.int "same edges" (S.n_edges syn) (S.n_edges decoded);
  check Alcotest.int "same structural bytes" (S.structural_bytes syn)
    (S.structural_bytes decoded);
  check Alcotest.int "same value bytes" (S.value_bytes syn)
    (S.value_bytes decoded);
  check Alcotest.bool "valid" true (S.validate decoded = Ok ());
  same_estimates doc syn decoded

let test_codec_roundtrip_compressed () =
  (* compressed summaries (including TEXT buckets) round-trip too *)
  let doc = Xc_data.Imdb.generate ~seed:21 ~n_movies:150 () in
  let reference = Reference.build ~min_extent:8 doc in
  let syn = Build.run (Build.budget ~bstr_kb:3 ~bval_kb:20 ()) reference in
  let decoded = Xc_core.Codec.of_string_exn (Xc_core.Codec.to_string syn) in
  check Alcotest.int "same value bytes" (S.value_bytes syn)
    (S.value_bytes decoded);
  List.iter
    (fun q ->
      checkf ("estimate: " ^ q)
        (Estimate.selectivity syn (Xc_twig.Twig_parse.parse q))
        (Estimate.selectivity decoded (Xc_twig.Twig_parse.parse q)))
    [ "//movie[plot ftcontains(xml)]"; "//movie[year > 1990]/title";
      "//actor/name[. contains(ar)]"; "//movie/cast/actor" ]

let test_codec_file_io () =
  let doc = sample_doc () in
  let syn = Synopsis.freeze (Reference.build doc) in
  let path = Filename.temp_file "xcluster" ".syn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xc_core.Codec.save_exn path syn;
      let loaded = Xc_core.Codec.load_exn path in
      check Alcotest.int "same nodes" (S.n_nodes syn) (S.n_nodes loaded))

let test_codec_rejects_garbage () =
  (match Xc_core.Codec.of_string "not a synopsis" with
  | Error Xc_core.Codec.Bad_magic -> ()
  | Error e -> Alcotest.failf "expected bad magic, got %s" (Xc_core.Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "expected bad magic failure");
  let doc = sample_doc () in
  let good = Xc_core.Codec.to_string (Synopsis.freeze (Reference.build doc)) in
  let truncated = String.sub good 0 (String.length good / 2) in
  match Xc_core.Codec.of_string truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected truncation failure"

let () =
  Alcotest.run ~and_exit:false "xc_core"
    [ ( "synopsis",
        [ Alcotest.test_case "edges" `Quick test_synopsis_edges;
          Alcotest.test_case "levels" `Quick test_synopsis_levels;
          Alcotest.test_case "copy" `Quick test_synopsis_copy_independent;
          Alcotest.test_case "validate" `Quick test_synopsis_validate_catches;
          Alcotest.test_case "freeze" `Quick test_freeze_matches_builder;
          Alcotest.test_case "freeze needs root" `Quick test_freeze_requires_root ] );
      ( "reference",
        [ Alcotest.test_case "counts" `Quick test_reference_counts;
          Alcotest.test_case "struct exact" `Quick test_reference_estimates_struct_exactly;
          Alcotest.test_case "value estimates" `Quick test_reference_value_estimates;
          Alcotest.test_case "tag only" `Quick test_tag_only;
          Alcotest.test_case "min extent pools" `Quick test_reference_min_extent_pools ] );
      ( "merge",
        [ Alcotest.test_case "counts+edges" `Quick test_merge_counts_and_edges;
          Alcotest.test_case "merge-to-tag-only" `Quick test_merge_to_tag_only_equivalence;
          Alcotest.test_case "incompatible" `Quick test_merge_incompatible_rejected;
          Alcotest.test_case "self loop" `Quick test_merge_self_loop ] );
      ( "delta",
        [ Alcotest.test_case "identical zero" `Quick test_delta_identical_is_zero;
          Alcotest.test_case "dissimilarity" `Quick test_delta_grows_with_dissimilarity;
          Alcotest.test_case "structural" `Quick test_delta_structural_component;
          Alcotest.test_case "compression" `Quick test_compression_step ] );
      ( "pool",
        [ Alcotest.test_case "compatible pairs" `Quick test_pool_only_compatible_pairs;
          Alcotest.test_case "level filter" `Quick test_pool_respects_level;
          Alcotest.test_case "marginal order" `Quick test_pool_orders_by_marginal_loss ] );
      ( "build",
        [ Alcotest.test_case "meets budgets" `Slow test_build_meets_budgets;
          Alcotest.test_case "extent mass" `Slow test_build_extent_mass_invariant;
          Alcotest.test_case "sweep prefix" `Slow test_build_sweep_prefix_consistency;
          Alcotest.test_case "correlation beats tag-only" `Quick
            test_structure_value_correlation_beats_tag_only ] );
      ( "codec",
        [ Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "roundtrip compressed" `Quick test_codec_roundtrip_compressed;
          Alcotest.test_case "file io" `Quick test_codec_file_io;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage ] );
      ( "estimate",
        [ Alcotest.test_case "reach" `Quick test_estimate_reach;
          Alcotest.test_case "wildcards+desc" `Quick test_estimate_wildcards_and_desc;
          Alcotest.test_case "type mismatch" `Quick test_estimate_predicate_type_mismatch_zero;
          Alcotest.test_case "cyclic terminates" `Quick test_estimate_cyclic_synopsis_terminates ] ) ]


(* ---- Boolean full-text estimation + auto split (appended suite) --------- *)

let test_estimate_ft_any_excludes () =
  let doc = sample_doc () in
  let syn = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
  checkf2 "ftany" (exact doc "//paper[abs ftany(xml, tree)]")
    (est syn "//paper[abs ftany(xml, tree)]");
  checkf2 "ftexcludes none match" (exact doc "//paper[abs ftexcludes(xml)]")
    (est syn "//paper[abs ftexcludes(xml)]");
  (* disjunction never below the max single-term estimate *)
  check Alcotest.bool "any >= single" true
    (est syn "//paper[abs ftany(tree, count)]" >= est syn "//paper[abs ftcontains(tree)]" -. 1e-9)

let test_auto_split () =
  let doc = Xc_data.Imdb.generate ~seed:41 ~n_movies:400 () in
  let reference = Reference.build ~min_extent:8 doc in
  let spec = { Xc_twig.Workload.default_spec with n_queries = 30 } in
  let wl = Xc_twig.Workload.generate ~spec doc in
  let sanity = Xc_twig.Workload.sanity_bound wl in
  let sample syn =
    Xc_exp.Error_metric.overall_relative ~sanity
      (Xc_exp.Error_metric.score (Estimate.selectivity syn) wl)
  in
  let params, best = Build.auto_split ~total_kb:40 ~sample reference in
  (* the winner respects the unified budget *)
  check Alcotest.bool "total budget" true
    (params.Build.bstr + params.Build.bval <= Size.kb 40);
  check Alcotest.bool "built within structural budget" true
    (S.structural_bytes best <= max params.Build.bstr (S.structural_bytes best));
  (* and is at least as good as the extreme all-value split *)
  let all_value = Build.run (Build.budget ~bstr_kb:0 ~bval_kb:40 ()) reference in
  check Alcotest.bool "no worse than 0-structure" true
    (sample best <= sample all_value +. 1e-9)

let () =
  Alcotest.run "xc_core_extensions"
    [ ( "extensions",
        [ Alcotest.test_case "ftany/ftexcludes estimate" `Quick test_estimate_ft_any_excludes;
          Alcotest.test_case "auto split" `Slow test_auto_split ] ) ]
