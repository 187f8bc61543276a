(* Tests for Xc_twig: path expressions, predicates, query model, the
   textual parser, the exact evaluator and workload generation. *)

open Xc_twig
open Xc_xml

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* A small fixed document:
   db
     paper (year=2000, cites)   title="Counting Twigs"  abs={xml,tree,count}
     paper (year=2004)          title="Synopses"        abs={xml,synopsis}
     book  (year=2004)          title="Databases"
*)
let sample_doc () =
  let paper1 =
    Node.make "paper"
      ~children:
        [ Node.leaf "year" (Value.Numeric 2000);
          Node.leaf "title" (Value.Str "Counting Twigs");
          Node.leaf "abs"
            (Value.text_of_terms
               [ Dictionary.of_string "xml"; Dictionary.of_string "tree";
                 Dictionary.of_string "count" ]);
          Node.make "cites" ~children:[ Node.make "ref"; Node.make "ref" ] ]
  in
  let paper2 =
    Node.make "paper"
      ~children:
        [ Node.leaf "year" (Value.Numeric 2004);
          Node.leaf "title" (Value.Str "Synopses");
          Node.leaf "abs"
            (Value.text_of_terms
               [ Dictionary.of_string "xml"; Dictionary.of_string "synopsis" ]) ]
  in
  let book =
    Node.make "book"
      ~children:
        [ Node.leaf "year" (Value.Numeric 2004);
          Node.leaf "title" (Value.Str "Databases") ]
  in
  Document.create (Node.make "db" ~children:[ paper1; paper2; book ])

let count doc q = Twig_eval.selectivity doc (Twig_parse.parse q)

(* ---- Predicate ---------------------------------------------------------- *)

let test_predicate_range () =
  check Alcotest.bool "in" true (Predicate.matches (Range (1, 5)) (Value.Numeric 3));
  check Alcotest.bool "low edge" true (Predicate.matches (Range (3, 5)) (Value.Numeric 3));
  check Alcotest.bool "high edge" true (Predicate.matches (Range (1, 3)) (Value.Numeric 3));
  check Alcotest.bool "out" false (Predicate.matches (Range (4, 5)) (Value.Numeric 3));
  check Alcotest.bool "wrong type" false (Predicate.matches (Range (1, 5)) (Value.Str "3"))

let test_predicate_contains () =
  check Alcotest.bool "middle" true (Predicate.matches (Contains "ell") (Value.Str "hello"));
  check Alcotest.bool "prefix" true (Predicate.matches (Contains "he") (Value.Str "hello"));
  check Alcotest.bool "suffix" true (Predicate.matches (Contains "lo") (Value.Str "hello"));
  check Alcotest.bool "whole" true (Predicate.matches (Contains "hello") (Value.Str "hello"));
  check Alcotest.bool "absent" false (Predicate.matches (Contains "xyz") (Value.Str "hello"));
  check Alcotest.bool "empty needle" true (Predicate.matches (Contains "") (Value.Str "hi"));
  check Alcotest.bool "longer than hay" false (Predicate.matches (Contains "hihi") (Value.Str "hi"));
  check Alcotest.bool "wrong type" false (Predicate.matches (Contains "3") (Value.Numeric 3))

(* contains against a naive String.sub scan, with needles that are
   empty, as long as the haystack (equal or not) and longer than it *)
let contains_against_scan =
  let module G = QCheck.Gen in
  let ab n = G.string_size ~gen:(G.oneofl [ 'a'; 'b' ]) (G.int_bound n) in
  let gen =
    G.(
      ab 8 >>= fun hay ->
      oneof
        [ ab 10;
          return "";
          return hay;
          map (fun c -> String.mapi (fun i x -> if i = 0 then c else x) hay) (oneofl [ 'a'; 'b' ]);
          map (fun s -> hay ^ s) (ab 3) ]
      >|= fun needle -> (hay, needle))
  in
  QCheck.Test.make ~name:"contains = naive scan" ~count:500
    (QCheck.make ~print:(fun (h, n) -> Printf.sprintf "hay %S, needle %S" h n) gen)
    (fun (hay, needle) ->
      let nl = String.length needle in
      let rec scan i =
        i + nl <= String.length hay && (String.sub hay i nl = needle || scan (i + 1))
      in
      Predicate.matches (Contains needle) (Value.Str hay) = scan 0)

let test_predicate_ftcontains () =
  let xml = Dictionary.of_string "xml" and tree = Dictionary.of_string "tree" in
  let v = Value.text_of_terms [ xml; tree ] in
  check Alcotest.bool "one" true (Predicate.matches (Ft_contains [ xml ]) v);
  check Alcotest.bool "both" true (Predicate.matches (Ft_contains [ xml; tree ]) v);
  check Alcotest.bool "missing" false
    (Predicate.matches (Ft_contains [ Dictionary.of_string "nope" ]) v);
  check Alcotest.bool "partial" false
    (Predicate.matches (Ft_contains [ xml; Dictionary.of_string "nope" ]) v)

(* ---- Twig_query ---------------------------------------------------------- *)

let test_query_make_assigns_ids () =
  let q =
    Twig_query.make
      ( [],
        [ ( [ Path_expr.child "a" ],
            Twig_query.node
              ~edges:[ ([ Path_expr.child "b" ], Twig_query.node ()) ]
              () ) ] )
  in
  check Alcotest.int "3 nodes" 3 q.Twig_query.n_nodes;
  let ids = ref [] in
  Twig_query.iter_nodes (fun n -> ids := n.Twig_query.qid :: !ids) q;
  check (Alcotest.list Alcotest.int) "dense preorder" [ 0; 1; 2 ] (List.rev !ids)

let test_query_classify () =
  let mk preds = Twig_query.linear ~preds [ Path_expr.child "x" ] in
  let open Twig_query in
  check Alcotest.string "struct" "Struct" (class_name (classify (mk [])));
  check Alcotest.string "numeric" "Numeric"
    (class_name (classify (mk [ Predicate.Range (1, 2) ])));
  check Alcotest.string "string" "String"
    (class_name (classify (mk [ Predicate.Contains "a" ])));
  check Alcotest.string "text" "Text"
    (class_name
       (classify (mk [ Predicate.Ft_contains [ Dictionary.of_string "t" ] ])));
  check Alcotest.string "mixed" "Mixed"
    (class_name (classify (mk [ Predicate.Range (1, 2); Predicate.Contains "a" ])))

(* ---- Twig_parse ----------------------------------------------------------- *)

let test_parse_simple_paths () =
  let q = Twig_parse.parse "/db/paper/title" in
  check Alcotest.int "collapsed to one edge" 2 q.Twig_query.n_nodes;
  let q2 = Twig_parse.parse "//paper//title" in
  check Alcotest.int "desc edges" 2 q2.Twig_query.n_nodes

let test_parse_predicates () =
  let q = Twig_parse.parse "//paper[year > 2000]/title[contains(Tree)]" in
  check Alcotest.int "nodes: root, paper, year, title" 4 q.Twig_query.n_nodes;
  check Alcotest.int "preds" 2 (Twig_query.n_predicates q);
  check Alcotest.bool "mixed class" true (Twig_query.classify q = Twig_query.Cmixed)

let test_parse_ftcontains () =
  let q = Twig_parse.parse "//paper[abs ftcontains(xml, synopsis)]" in
  check Alcotest.int "preds" 1 (Twig_query.n_predicates q);
  check Alcotest.bool "text" true (Twig_query.classify q = Twig_query.Ctext)

let test_parse_range_forms () =
  List.iter
    (fun (s, expected) ->
      let q = Twig_parse.parse s in
      let found = ref None in
      Twig_query.iter_nodes
        (fun n -> match n.Twig_query.preds with [ p ] -> found := Some p | _ -> ())
        q;
      match !found with
      | Some p -> check Alcotest.bool s true (Predicate.equal p expected)
      | None -> Alcotest.failf "no predicate parsed in %s" s)
    [ ("//a[. > 5]", Predicate.Range (6, max_int));
      ("//a[. >= 5]", Predicate.Range (5, max_int));
      ("//a[. < 5]", Predicate.Range (min_int, 4));
      ("//a[. <= 5]", Predicate.Range (min_int, 5));
      ("//a[. = 5]", Predicate.Range (5, 5));
      ("//a[. in 2..8]", Predicate.Range (2, 8));
      ("//a[b in 2..8]", Predicate.Range (2, 8)) ]

let test_parse_wildcard () =
  let q = Twig_parse.parse "/db/*/title" in
  check Alcotest.int "nodes" 2 q.Twig_query.n_nodes

let test_parse_keyword_like_tags () =
  (* tags that start like keywords must not be eaten as predicates *)
  let q = Twig_parse.parse "//item[incategory]" in
  check Alcotest.int "branch, not range" 3 q.Twig_query.n_nodes;
  check Alcotest.int "no preds" 0 (Twig_query.n_predicates q)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Twig_parse.parse s with
      | exception Twig_parse.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %s" s)
    [ ""; "paper"; "//paper["; "//paper[]"; "//paper[. in 2..]"; "//a/"; "//a trailing" ]

let test_parse_pp_roundtrip () =
  (* pretty-printing a parsed query re-parses to the same structure *)
  List.iter
    (fun s ->
      let q = Twig_parse.parse s in
      let printed = Format.asprintf "%a" Twig_query.pp q in
      let q2 = Twig_parse.parse printed in
      check Alcotest.int ("same shape: " ^ s) q.Twig_query.n_nodes q2.Twig_query.n_nodes)
    [ "/db/paper/title"; "//paper[year > 2000]/title"; "//a[b][c]//d" ]

(* Twig_parse.parse reads back what Twig_query.pp prints: the same
   structure, predicates and order, so the same compiled-query key. *)
let roundtrips q =
  let printed = Format.asprintf "%a" Twig_query.pp q in
  match Twig_parse.parse printed with
  | q' -> Xc_core.Plan.query_key q' = Xc_core.Plan.query_key q
  | exception Twig_parse.Parse_error msg -> QCheck.Test.fail_reportf "%S: %s" printed msg

let workload_docs =
  lazy
    [ Xc_data.Xmark.generate ~seed:5 ~scale:0.01 ();
      Xc_data.Imdb.generate ~seed:5 ~n_movies:60 ();
      Xc_data.Dblp.generate ~seed:5 ~n_authors:60 () ]

(* every twig the three generators make — range, contains and ftcontains
   predicates from positive workloads, and the negatives' sabotaged ones *)
let pp_parse_workload =
  QCheck.Test.make ~name:"parse (pp q) = q on workload twigs" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun doc ->
          let spec = { Workload.default_spec with n_queries = 24; seed } in
          List.for_all
            (fun e -> roundtrips e.Workload.query)
            (Workload.generate ~spec doc @ Workload.negative ~n:8 ~seed doc))
        (Lazy.force workload_docs))

(* any needle: edge whitespace, parentheses, quotes and backslashes *)
let pp_parse_needles =
  let gen = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; ' '; '\t'; ')'; '('; '"'; '\\'; ']' ]) (int_bound 6)) in
  QCheck.Test.make ~name:"parse (pp q) = q on any contains needle" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun needle ->
      roundtrips
        (Twig_query.make
           ( [],
             [ ( [ Path_expr.desc "a" ],
                 Twig_query.node ~preds:[ Contains needle ]
                   ~edges:[ ([ Path_expr.child "b" ], Twig_query.node ~preds:[ Contains needle ] ()) ]
                   () ) ] )))

(* ---- Twig_eval -------------------------------------------------------------- *)

let test_eval_child_paths () =
  let doc = sample_doc () in
  checkf "papers" 2.0 (count doc "/db/paper");
  checkf "titles" 3.0 (count doc "/db/*/title");
  checkf "paper titles" 2.0 (count doc "/db/paper/title");
  checkf "missing" 0.0 (count doc "/db/journal")

let test_eval_descendant () =
  let doc = sample_doc () in
  checkf "all refs" 2.0 (count doc "//ref");
  checkf "ref under paper" 2.0 (count doc "//paper//ref");
  checkf "titles anywhere" 3.0 (count doc "//title");
  checkf "db itself not descendant" 1.0 (count doc "//db")

let test_eval_branching_tuples () =
  let doc = sample_doc () in
  (* binding tuples multiply across branches: paper1 has 2 refs x 1 title *)
  checkf "refs x titles" 2.0 (count doc "//paper[title]/cites/ref");
  checkf "paper with cites and title" 1.0 (count doc "//paper[cites][title]")

let test_eval_value_predicates () =
  let doc = sample_doc () in
  checkf "year > 2000" 1.0 (count doc "//paper[year > 2000]");
  checkf "year = 2004 anywhere" 2.0 (count doc "//*[year = 2004]");
  checkf "title contains" 1.0 (count doc "//paper[title contains(Twig)]");
  checkf "ftcontains both" 1.0 (count doc "//paper[abs ftcontains(xml, synopsis)]");
  checkf "ftcontains xml" 2.0 (count doc "//paper[abs ftcontains(xml)]");
  checkf "pred on wrong type" 0.0 (count doc "//paper[title > 1900]")

let test_eval_example_from_paper () =
  (* the paper's intro example shape:
     //paper[year>2000][abs ftcontains(synopsis, xml)]/title[contains(Tree)] *)
  let doc = sample_doc () in
  checkf "full twig" 0.0
    (count doc "//paper[year > 2000][abs ftcontains(synopsis, xml)]/title[contains(Tree)]");
  checkf "relaxed" 1.0
    (count doc "//paper[year > 2000][abs ftcontains(synopsis, xml)]/title")

let test_eval_matches_path () =
  let doc = sample_doc () in
  (* preorder: 0 db, 1 paper1, ..., 5 cites, 6 ref *)
  check Alcotest.bool "root//ref reaches refs" true
    (Twig_reference.matches_path doc [ Path_expr.desc "ref" ] 0 6);
  check Alcotest.bool "no self match" false
    (Twig_reference.matches_path doc [ Path_expr.desc "db" ] 0 0)

let eval_against_naive =
  (* the evaluator agrees with a naive count on random small documents
     and //tag queries *)
  QCheck.Test.make ~name:"evaluator agrees with naive semantics" ~count:80
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Xc_util.Rng.create seed in
      let tags = [| "a"; "b"; "c" |] in
      let rec gen depth =
        let n_children = if depth >= 3 then 0 else Xc_util.Rng.int rng 3 in
        Node.make (Xc_util.Rng.pick rng tags)
          ~children:(List.init n_children (fun _ -> gen (depth + 1)))
      in
      let doc = Document.create (Node.make "r" ~children:[ gen 0; gen 0 ]) in
      let tag = Xc_util.Rng.pick rng tags in
      (* naive //tag count *)
      let naive = ref 0 in
      Node.iter
        (fun n -> if String.equal (Label.to_string n.Node.label) tag then incr naive)
        doc.Document.root;
      let got = Twig_eval.selectivity doc (Twig_parse.parse ("//" ^ tag)) in
      Float.abs (got -. float_of_int !naive) < 1e-9)

let eval_against_reference =
  QCheck.Test.make ~name:"indexed evaluator = dense reference, bit for bit" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xc_util.Rng.create seed in
      let doc = Random_doc.generate ~values:true rng in
      let q = Random_doc.twig rng in
      let got = Twig_eval.selectivity doc q and want = Twig_reference.selectivity doc q in
      Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)
      || QCheck.Test.fail_reportf "%a: indexed %h, reference %h" Twig_query.pp q got want)

(* A descendant step either walks each source element's ancestors or,
   when that would cost more than the document's size, sums subtrees in
   one reverse scan. A deep chain a/b/c/a/... whose elements each carry
   a leaf d takes the scan for wildcard and common sources and the walk
   for the one e; both must match the dense reference bit for bit. *)
let test_eval_deep_chain () =
  let tags = [| "a"; "b"; "c" |] in
  let chain = ref (Node.make "e") in
  for i = 1_999 downto 0 do
    chain :=
      Node.make tags.(i mod 3)
        ~children:[ Node.make "d" ~value:(Value.Numeric (i mod 7)); !chain ]
  done;
  let doc = Document.create !chain in
  List.iter
    (fun text ->
      let q = Twig_parse.parse text in
      let got = Twig_eval.selectivity doc q and want = Twig_reference.selectivity doc q in
      if not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)) then
        Alcotest.failf "%s: indexed %h, reference %h" text got want)
    [ "//a//*"; "//*//b"; "//a//b//c"; "//a[//d > 3]//c"; "/a//*/d"; "//b//e"; "//*//e";
      "//a[/d]//b[//e]" ]

(* ---- Workload ----------------------------------------------------------------- *)

let bigger_doc () = Xc_data.Imdb.generate ~seed:5 ~n_movies:120 ()

let test_workload_positive () =
  let doc = bigger_doc () in
  let spec = { Workload.default_spec with n_queries = 60 } in
  let wl = Workload.generate ~spec doc in
  check Alcotest.bool "nonempty" true (List.length wl > 0);
  List.iter
    (fun e ->
      if e.Workload.true_count <= 0.0 then
        Alcotest.failf "non-positive query: %s"
          (Format.asprintf "%a" Twig_query.pp e.Workload.query);
      (* recorded count must equal re-evaluation *)
      let again = Twig_eval.selectivity doc e.Workload.query in
      if Float.abs (again -. e.Workload.true_count) > 1e-6 then
        Alcotest.fail "count mismatch")
    wl

let test_workload_classes_covered () =
  let doc = bigger_doc () in
  let spec = { Workload.default_spec with n_queries = 80 } in
  let wl = Workload.generate ~spec doc in
  let classes = Workload.classes wl in
  List.iter
    (fun c ->
      check Alcotest.bool (Twig_query.class_name c) true (List.mem c classes))
    [ Twig_query.Cstruct; Cnumeric; Cstring; Ctext ];
  (* class labels agree with query contents *)
  List.iter
    (fun e ->
      check Alcotest.bool "label consistent" true
        (Twig_query.classify e.Workload.query = e.Workload.cls))
    wl

let test_workload_deterministic () =
  let doc = bigger_doc () in
  let spec = { Workload.default_spec with n_queries = 20 } in
  let a = Workload.generate ~spec doc and b = Workload.generate ~spec doc in
  check Alcotest.int "same size" (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      check Alcotest.string "same query"
        (Format.asprintf "%a" Twig_query.pp x.Workload.query)
        (Format.asprintf "%a" Twig_query.pp y.Workload.query))
    a b

let test_workload_negative () =
  let doc = bigger_doc () in
  let negs = Workload.negative ~n:20 doc in
  check Alcotest.bool "found some" true (List.length negs > 0);
  List.iter
    (fun e -> checkf "zero selectivity" 0.0 e.Workload.true_count)
    negs

let test_sanity_bound () =
  let entry count =
    { Workload.query = Twig_parse.parse "//x";
      true_count = count;
      cls = Twig_query.Cstruct }
  in
  let wl = List.map entry [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 100. ] in
  checkf "10th percentile" 1.0 (Workload.sanity_bound wl);
  checkf "empty default" 1.0 (Workload.sanity_bound []);
  (* never below 1 *)
  let tiny = List.map entry [ 0.1; 0.2; 0.3 ] in
  checkf "floor" 1.0 (Workload.sanity_bound tiny)

let () =
  Alcotest.run ~and_exit:false "xc_twig"
    [ ( "predicate",
        [ Alcotest.test_case "range" `Quick test_predicate_range;
          Alcotest.test_case "contains" `Quick test_predicate_contains;
          Alcotest.test_case "ftcontains" `Quick test_predicate_ftcontains;
          QCheck_alcotest.to_alcotest contains_against_scan ] );
      ( "twig_query",
        [ Alcotest.test_case "make ids" `Quick test_query_make_assigns_ids;
          Alcotest.test_case "classify" `Quick test_query_classify ] );
      ( "twig_parse",
        [ Alcotest.test_case "simple paths" `Quick test_parse_simple_paths;
          Alcotest.test_case "predicates" `Quick test_parse_predicates;
          Alcotest.test_case "ftcontains" `Quick test_parse_ftcontains;
          Alcotest.test_case "range forms" `Quick test_parse_range_forms;
          Alcotest.test_case "wildcard" `Quick test_parse_wildcard;
          Alcotest.test_case "keyword-like tags" `Quick test_parse_keyword_like_tags;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "pp roundtrip" `Quick test_parse_pp_roundtrip;
          QCheck_alcotest.to_alcotest pp_parse_workload;
          QCheck_alcotest.to_alcotest pp_parse_needles ] );
      ( "twig_eval",
        [ Alcotest.test_case "child paths" `Quick test_eval_child_paths;
          Alcotest.test_case "descendant" `Quick test_eval_descendant;
          Alcotest.test_case "branch tuples" `Quick test_eval_branching_tuples;
          Alcotest.test_case "value predicates" `Quick test_eval_value_predicates;
          Alcotest.test_case "paper example" `Quick test_eval_example_from_paper;
          Alcotest.test_case "matches_path" `Quick test_eval_matches_path;
          Alcotest.test_case "deep chain" `Quick test_eval_deep_chain;
          QCheck_alcotest.to_alcotest eval_against_naive;
          QCheck_alcotest.to_alcotest eval_against_reference ] );
      ( "workload",
        [ Alcotest.test_case "positive" `Quick test_workload_positive;
          Alcotest.test_case "classes covered" `Quick test_workload_classes_covered;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "negative" `Quick test_workload_negative;
          Alcotest.test_case "sanity bound" `Quick test_sanity_bound ] ) ]


(* ---- Boolean-model full-text extensions (appended suite) ---------------- *)

let test_ft_any_matches () =
  let a = Dictionary.of_string "alpha" and b = Dictionary.of_string "beta" in
  let c = Dictionary.of_string "gamma" in
  let v = Value.text_of_terms [ a; b ] in
  check Alcotest.bool "first" true (Predicate.matches (Ft_any [ a; c ]) v);
  check Alcotest.bool "none" false (Predicate.matches (Ft_any [ c ]) v);
  check Alcotest.bool "wrong type" false (Predicate.matches (Ft_any [ a ]) (Value.Str "alpha"))

let test_ft_excludes_matches () =
  let a = Dictionary.of_string "alpha" and c = Dictionary.of_string "gamma" in
  let v = Value.text_of_terms [ a ] in
  check Alcotest.bool "excluded ok" true (Predicate.matches (Ft_excludes [ c ]) v);
  check Alcotest.bool "present fails" false (Predicate.matches (Ft_excludes [ a; c ]) v)

let test_ft_parse_forms () =
  let q = Twig_parse.parse "//paper[abs ftany(xml, tree)]" in
  check Alcotest.int "one pred" 1 (Twig_query.n_predicates q);
  check Alcotest.bool "text class" true (Twig_query.classify q = Twig_query.Ctext);
  let q2 = Twig_parse.parse "//paper[abs ftexcludes(xml)]" in
  check Alcotest.int "one pred" 1 (Twig_query.n_predicates q2)

let test_ft_eval () =
  let doc = sample_doc () in
  checkf "any xml|synopsis -> both papers" 2.0
    (count doc "//paper[abs ftany(xml, synopsis)]");
  checkf "any tree -> one" 1.0 (count doc "//paper[abs ftany(tree)]");
  checkf "excludes synopsis -> one paper" 1.0
    (count doc "//paper[abs ftexcludes(synopsis)]");
  checkf "excludes xml -> none" 0.0 (count doc "//paper[abs ftexcludes(xml)]")

let test_ft_pp_roundtrip () =
  List.iter
    (fun s ->
      let q = Twig_parse.parse s in
      let printed = Format.asprintf "%a" Twig_query.pp q in
      let q2 = Twig_parse.parse printed in
      check Alcotest.bool ("pp roundtrip " ^ s) true
        (Format.asprintf "%a" Twig_query.pp q2 = printed))
    [ "//paper[abs ftany(xml,tree)]"; "//paper[abs ftexcludes(xml)]" ]

let () =
  Alcotest.run "xc_twig_fulltext"
    [ ( "boolean-model",
        [ Alcotest.test_case "ftany matches" `Quick test_ft_any_matches;
          Alcotest.test_case "ftexcludes matches" `Quick test_ft_excludes_matches;
          Alcotest.test_case "parse forms" `Quick test_ft_parse_forms;
          Alcotest.test_case "eval" `Quick test_ft_eval;
          Alcotest.test_case "pp roundtrip" `Quick test_ft_pp_roundtrip ] ) ]
