(* End-to-end integration tests across the whole stack: generate or
   parse documents, build synopses, and check system-level properties
   (structural exactness on references, predicate monotonicity, budget
   monotonicity, persistence, designated-path workloads). *)

open Xc_xml
module Synopsis = Xc_core.Synopsis
module Reference = Xc_core.Reference
module Build = Xc_core.Build
module Estimate = Xc_core.Estimate
module Workload = Xc_twig.Workload

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let exact doc q = Xc_twig.Twig_eval.selectivity doc (Xc_twig.Twig_parse.parse q)
let est syn q = Estimate.selectivity syn (Xc_twig.Twig_parse.parse q)

(* ---- structural exactness on references, across generators ------------- *)

let test_struct_exact_xmark () =
  let doc = Xc_data.Xmark.generate ~seed:51 ~scale:0.04 () in
  let reference = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
  List.iter
    (fun q -> checkf ("exact " ^ q) (exact doc q) (est reference q))
    [ "//item"; "//person/name"; "//open_auction/bidder";
      "/site/regions/*/item/quantity"; "//parlist//text";
      "//closed_auction[annotation]/price"; "//person[profile/age]" ]

let struct_exact_random_docs =
  QCheck.Test.make ~name:"reference estimates structural twigs exactly" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let doc = Random_doc.generate (Xc_util.Rng.create seed) in
      let reference = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
      List.for_all
        (fun q -> Float.abs (exact doc q -. est reference q) < 1e-6)
        [ "//a"; "//b//c"; "/r/*/d"; "//a[b]"; "//c/d" ])

(* ---- predicate and budget monotonicity --------------------------------- *)

let test_predicate_monotonicity () =
  (* under any synopsis, adding a predicate cannot increase the estimate *)
  let doc = Xc_data.Imdb.generate ~seed:52 ~n_movies:300 () in
  let reference = Reference.build doc in
  let syn = Build.run (Build.budget ~bstr_kb:4 ~bval_kb:30 ()) reference in
  List.iter
    (fun (broad, narrow) ->
      let b = est syn broad and n = est syn narrow in
      if n > b +. 1e-6 then
        Alcotest.failf "%s (%f) should not exceed %s (%f)" narrow n broad b)
    [ ("//movie/year", "//movie/year[. > 1990]");
      ("//movie/title", "//movie/title[. contains(a)]");
      ("//movie/plot", "//movie/plot[. ftcontains(xml)]");
      ("//movie[year > 1990]", "//movie[year > 1990][box_office > 0]") ]

let test_budget_monotone_size () =
  let doc = Xc_data.Imdb.generate ~seed:53 ~n_movies:300 () in
  let reference = Reference.build ~min_extent:8 doc in
  let sizes =
    List.map
      (fun kb ->
        let syn = Build.run (Build.budget ~bstr_kb:kb ~bval_kb:20 ()) reference in
        Synopsis.Sealed.structural_bytes syn)
      [ 1; 2; 4; 8 ]
  in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  check Alcotest.bool "structural size grows with budget" true (nondecreasing sizes)

(* ---- total-count invariants --------------------------------------------- *)

let test_wildcard_total_counts () =
  let doc = Xc_data.Dblp.generate ~seed:54 ~n_authors:80 () in
  let reference = Reference.build doc in
  (* //* counts every element except the root... plus the root: descendant
     of the virtual document node includes the root element *)
  checkf "//* = all elements" (float_of_int (Document.n_elements doc))
    (est (Synopsis.freeze reference) "//*");
  (* and the same must hold on any compressed synopsis: merges preserve
     extent mass *)
  let syn = Build.run (Build.budget ~bstr_kb:1 ~bval_kb:10 ()) reference in
  checkf "compressed //* = all elements" (float_of_int (Document.n_elements doc))
    (est syn "//*")

(* ---- file round trip ------------------------------------------------------ *)

let test_file_roundtrip_pipeline () =
  let doc = Xc_data.Imdb.generate ~seed:55 ~n_movies:120 () in
  let path = Filename.temp_file "xcluster" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.to_file path doc;
      let typing = Parser.typing_of_assoc Xc_data.Imdb.value_typing in
      let doc2 = Parser.parse_file ~typing path in
      check Alcotest.int "same elements" (Document.n_elements doc)
        (Document.n_elements doc2);
      (* and the re-parsed document supports the full pipeline *)
      let reference = Reference.build doc2 in
      let syn = Build.run (Build.budget ~bstr_kb:2 ~bval_kb:16 ()) reference in
      List.iter
        (fun q ->
          let t = exact doc2 q and e = est syn q in
          if t > 0.0 && Float.abs (e -. t) /. t > 1.0 then
            Alcotest.failf "%s way off: exact %f est %f" q t e)
        [ "//movie"; "//movie/cast/actor"; "//movie/director/name" ])

(* ---- designated-path workloads ------------------------------------------- *)

let test_workload_respects_designated_paths () =
  let doc = Xc_data.Imdb.generate ~seed:56 ~n_movies:200 () in
  let designated =
    [ List.map Label.of_string [ "imdb"; "movie"; "year" ];
      List.map Label.of_string [ "imdb"; "movie"; "title" ] ]
  in
  let spec =
    { Workload.default_spec with n_queries = 40; value_paths = Some designated }
  in
  let wl = Workload.generate ~spec doc in
  (* every value query's class must be numeric or string (the only
     designated types); no text queries can exist *)
  List.iter
    (fun e ->
      match e.Workload.cls with
      | Xc_twig.Twig_query.Ctext -> Alcotest.fail "text predicate on undesignated path"
      | _ -> ())
    wl

(* ---- persistence across the pipeline -------------------------------------- *)

let test_persistence_matches_live_estimates () =
  let doc = Xc_data.Xmark.generate ~seed:57 ~scale:0.03 () in
  let reference = Reference.build ~min_extent:4 doc in
  let syn = Build.run (Build.budget ~bstr_kb:4 ~bval_kb:30 ()) reference in
  let loaded = Xc_core.Codec.of_string_exn (Xc_core.Codec.to_string syn) in
  let spec = { Workload.default_spec with n_queries = 30 } in
  let wl = Workload.generate ~spec doc in
  List.iter
    (fun e ->
      checkf "same estimate"
        (Estimate.selectivity syn e.Workload.query)
        (Estimate.selectivity loaded e.Workload.query))
    wl

(* ---- auto split ------------------------------------------------------------ *)

let test_auto_split_within_candidates () =
  let doc = Xc_data.Dblp.generate ~seed:58 ~n_authors:100 () in
  let reference = Reference.build ~min_extent:8 ~value_min_extent:64 doc in
  let sample syn = est syn "//paper" in
  (* a degenerate sample functional still yields a well-formed winner *)
  let params, syn = Build.auto_split ~total_kb:30 ~sample reference in
  check Alcotest.bool "bstr within budget" true (params.Build.bstr <= Xc_core.Size.kb 30);
  check Alcotest.bool "synopsis valid" true (Synopsis.Sealed.validate syn = Ok ())

let () =
  Alcotest.run ~and_exit:false "xc_integration"
    [ ( "exactness",
        [ Alcotest.test_case "xmark structural" `Quick test_struct_exact_xmark;
          QCheck_alcotest.to_alcotest struct_exact_random_docs ] );
      ( "monotonicity",
        [ Alcotest.test_case "predicates shrink estimates" `Quick
            test_predicate_monotonicity;
          Alcotest.test_case "budget grows size" `Slow test_budget_monotone_size ] );
      ( "invariants",
        [ Alcotest.test_case "wildcard totals" `Quick test_wildcard_total_counts ] );
      ( "roundtrips",
        [ Alcotest.test_case "file pipeline" `Quick test_file_roundtrip_pipeline;
          Alcotest.test_case "persistence estimates" `Quick
            test_persistence_matches_live_estimates ] );
      ( "workloads",
        [ Alcotest.test_case "designated paths" `Quick
            test_workload_respects_designated_paths ] );
      ( "auto-split",
        [ Alcotest.test_case "well-formed winner" `Slow test_auto_split_within_candidates ] ) ]


(* ---- differential testing + explain (appended suite) --------------------- *)

let random_twig rng =
  (* a random structural twig over the imdb tag set, as a string *)
  let tags = [| "movie"; "cast"; "actor"; "name"; "title"; "year"; "director";
                "plot"; "genre"; "episodes"; "episode" |] in
  let step () =
    (if Xc_util.Rng.bool rng then "//" else "/")
    ^ if Xc_util.Rng.chance rng 0.1 then "*" else Xc_util.Rng.pick rng tags
  in
  let buf = Buffer.create 32 in
  Buffer.add_string buf "//movie";
  let n = 1 + Xc_util.Rng.int rng 2 in
  for _ = 1 to n do
    Buffer.add_string buf (step ())
  done;
  if Xc_util.Rng.chance rng 0.4 then begin
    (* an existential branch *)
    let b = Buffer.contents buf in
    Buffer.clear buf;
    Buffer.add_string buf "//movie[";
    Buffer.add_string buf (Xc_util.Rng.pick rng tags);
    Buffer.add_string buf "]";
    Buffer.add_string buf (String.sub b 7 (String.length b - 7))
  end;
  Buffer.contents buf

let differential_struct_estimates =
  (* the reference synopsis must agree with the exact evaluator on any
     structural twig, not just hand-picked ones *)
  let doc = Xc_data.Imdb.generate ~seed:60 ~n_movies:150 () in
  let reference = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
  QCheck.Test.make ~name:"reference = exact evaluator on random struct twigs"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xc_util.Rng.create seed in
      let q = random_twig rng in
      let t = exact doc q and e = est reference q in
      Float.abs (t -. e) <= 1e-6 *. Float.max 1.0 t)

let test_explain_masses () =
  let doc = Xc_data.Imdb.generate ~seed:61 ~n_movies:100 () in
  let reference = Synopsis.freeze (Reference.build doc) in
  (* steps without predicates coalesce into one edge, so this twig has a
     single non-root variable bound to actor clusters *)
  let q = Xc_twig.Twig_parse.parse "//movie/cast/actor" in
  let explanation = Estimate.explain reference q in
  check Alcotest.int "one variable" 1 (List.length explanation);
  (* the leaf variable's total expected bindings equals the estimate *)
  let leaf = List.hd explanation in
  let total =
    List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 leaf.Estimate.bindings
  in
  checkf "leaf mass = selectivity" (Estimate.selectivity reference q) total;
  (* all clusters reported for the actor variable are labelled actor *)
  List.iter
    (fun (_, label, _) -> check Alcotest.string "label" "actor" label)
    leaf.Estimate.bindings

let test_explain_with_predicates () =
  let doc = Xc_data.Imdb.generate ~seed:62 ~n_movies:100 () in
  let reference = Synopsis.freeze (Reference.build doc) in
  let q = Xc_twig.Twig_parse.parse "//movie/year[. > 1990]" in
  let broad = Estimate.explain reference (Xc_twig.Twig_parse.parse "//movie/year") in
  let narrow = Estimate.explain reference q in
  let mass expl =
    List.fold_left
      (fun acc e -> List.fold_left (fun a (_, _, w) -> a +. w) acc e.Estimate.bindings)
      0.0 expl
  in
  check Alcotest.bool "predicate reduces bound mass" true (mass narrow < mass broad)

let () =
  Alcotest.run "xc_integration_diff"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest differential_struct_estimates ] );
      ( "explain",
        [ Alcotest.test_case "masses" `Quick test_explain_masses;
          Alcotest.test_case "with predicates" `Quick test_explain_with_predicates ] ) ]
