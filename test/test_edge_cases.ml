(* Edge-case tests across all libraries: degenerate inputs, boundary
   conditions, serialization round-trips of every summary kind, and
   adversarial (corrupt) inputs. *)

open Xc_vsumm
module Dict = Xc_xml.Dictionary
module Synopsis = Xc_core.Synopsis

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checkf3 msg = Alcotest.check (Alcotest.float 1e-3) msg

(* ---- Histogram edges --------------------------------------------------- *)

let test_hist_single_value () =
  let h = Histogram.build (Array.make 50 7) in
  check Alcotest.int "one bucket" 1 (Histogram.n_buckets h);
  checkf "point query" 1.0 (Histogram.range_fraction h 7 7);
  checkf "outside" 0.0 (Histogram.range_fraction h 8 10)

let test_hist_negative_values () =
  let h = Histogram.build [| -10; -5; 0; 5; 10 |] in
  checkf3 "negatives covered" 1.0 (Histogram.range_fraction h (-10) 10);
  checkf3 "negative half" (2.0 /. 5.0) (Histogram.range_fraction h (-10) (-5))

let test_hist_of_raw_validation () =
  let bad msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  bad "Histogram.of_raw: bounds/counts length mismatch" (fun () ->
      ignore (Histogram.of_raw ~bounds:[| 0; 1 |] ~counts:[| 1.0; 2.0 |]));
  bad "Histogram.of_raw: bounds not ascending" (fun () ->
      ignore (Histogram.of_raw ~bounds:[| 0; 0 |] ~counts:[| 1.0 |]));
  bad "Histogram.of_raw: negative count" (fun () ->
      ignore (Histogram.of_raw ~bounds:[| 0; 1 |] ~counts:[| -1.0 |]))

let test_hist_raw_roundtrip () =
  let h = Histogram.build ~n_buckets:6 (Array.init 100 (fun i -> i * i mod 37)) in
  let bounds, counts = Histogram.raw h in
  let h2 = Histogram.of_raw ~bounds ~counts in
  List.iter
    (fun p -> checkf "same prefix" (Histogram.prefix_fraction h p) (Histogram.prefix_fraction h2 p))
    [ 0; 5; 17; 36; 40 ]

let test_maxdiff_gap_buckets_are_mergeable () =
  (* zero-count gap buckets compress away first (their error is 0) *)
  let values = Array.concat [ Array.make 100 10; Array.make 100 1000 ] in
  let h = ref (Histogram.build_maxdiff ~n_buckets:4 values) in
  while Histogram.n_buckets !h > 1 do
    h := Histogram.compress_once !h
  done;
  checkf3 "mass survives" 200.0 (Histogram.n_values !h)

(* ---- Wavelet edges ------------------------------------------------------- *)

let test_wavelet_single_value () =
  let w = Wavelet.build (Array.make 10 42) in
  checkf3 "exact point" 1.0 (Wavelet.range_fraction w 42 42);
  check Alcotest.int "lo" 42 (Wavelet.lo w);
  check Alcotest.int "hi" 42 (Wavelet.hi w)

let test_wavelet_large_domain_caps_cells () =
  (* domain of 1M values still builds (1024-cell cap) *)
  let values = Array.init 500 (fun i -> i * 2000) in
  let w = Wavelet.build ~n_coeffs:16 values in
  checkf3 "half" 0.5 (Wavelet.prefix_fraction w 500_000)

(* ---- RLE edges ------------------------------------------------------------ *)

let test_rle_boundary_merging () =
  let b = Rle_bitmap.of_list [ 5 ] in
  let b = Rle_bitmap.add b 7 in
  check Alcotest.int "two runs" 2 (Rle_bitmap.n_runs b);
  let b = Rle_bitmap.add b 6 in
  check Alcotest.int "merged" 1 (Rle_bitmap.n_runs b);
  (* removing an endpoint shrinks, removing the middle splits *)
  let b = Rle_bitmap.remove b 5 in
  check Alcotest.int "still one run" 1 (Rle_bitmap.n_runs b);
  check Alcotest.int "card" 2 (Rle_bitmap.cardinality b)

let rle_remove_property =
  QCheck.Test.make ~name:"rle remove deletes exactly one bit" ~count:150
    QCheck.(pair (list (int_range 0 100)) (int_range 0 100))
    (fun (bits, victim) ->
      let b = Rle_bitmap.of_list bits in
      let b' = Rle_bitmap.remove b victim in
      let expected =
        List.sort_uniq Int.compare bits |> List.filter (fun x -> x <> victim)
      in
      List.of_seq (Rle_bitmap.to_seq b') = expected)

(* ---- PST edges ------------------------------------------------------------- *)

let test_pst_empty_collection () =
  let p = Pst.build [] in
  checkf "n" 0.0 (Pst.n_strings p);
  checkf "selectivity" 0.0 (Pst.selectivity p "x")

let test_pst_empty_string_member () =
  let p = Pst.build [ ""; "ab" ] in
  checkf "n counts both" 2.0 (Pst.n_strings p);
  checkf3 "ab in half" 0.5 (Pst.selectivity p "ab")

let test_pst_substring_prefix_closure () =
  (* the retained substring set of any PST is prefix-closed *)
  let p = Pst.build ~max_nodes:64 [ "hello world"; "help me"; "yelp" ] in
  Pst.iter_substrings
    (fun s _ ->
      if String.length s > 1 then begin
        let prefix = String.sub s 0 (String.length s - 1) in
        match Pst.count p prefix with
        | Some _ -> ()
        | None -> Alcotest.failf "prefix %S of %S missing" prefix s
      end)
    p

let test_pst_of_substrings_roundtrip () =
  let p = Pst.build [ "abc"; "abd"; "xyz" ] in
  let entries = ref [] in
  Pst.iter_substrings (fun s c -> entries := (s, c) :: !entries) p;
  let q =
    Pst.of_substrings ~total_len:(Pst.total_len p) ~n:(Pst.n_strings p)
      ~max_depth:(Pst.max_depth p) (List.rev !entries)
  in
  check Alcotest.int "same node count" (Pst.n_nodes p) (Pst.n_nodes q);
  List.iter
    (fun s -> checkf ("same sel " ^ s) (Pst.selectivity p s) (Pst.selectivity q s))
    [ "ab"; "abc"; "xy"; "bd"; "q" ]

let test_pst_avg_len_tracks_merge () =
  let a = Pst.build [ "aaaa" ] and b = Pst.build [ "bb"; "bb" ] in
  let m = Pst.merge a b in
  checkf "total len" 8.0 (Pst.total_len m);
  checkf "n" 3.0 (Pst.n_strings m)

(* ---- Term summaries edges --------------------------------------------------- *)

let test_term_vector_zero_freqs_dropped () =
  let c = Term_vector.of_entries ~n:4.0 [ (1, 0.0); (2, 0.5) ] in
  check Alcotest.int "support" 1 (Term_vector.support_size c);
  checkf "zero absent" 0.0 (Term_vector.frequency c 1)

let test_term_hist_empty_docs () =
  let th = Term_hist.build [] in
  checkf "selectivity of anything" 0.0
    (Term_hist.selectivity th [ Dict.of_string "whatever" ])

let test_term_hist_empty_conjunction () =
  let th = Term_hist.build [ [| Dict.of_string "solo" |] ] in
  checkf "empty term list = 1" 1.0 (Term_hist.selectivity th [])

let test_term_hist_parts_roundtrip () =
  let docs =
    [ [| Dict.of_string "pa"; Dict.of_string "pb" |]; [| Dict.of_string "pa" |] ]
  in
  let th = Term_hist.build ~top_k:1 docs in
  let top, bucket, avg = Term_hist.parts th in
  let th2 = Term_hist.of_parts ~n:(Term_hist.n_documents th) ~top ~bucket ~bucket_avg:avg in
  check Alcotest.int "same size" (Term_hist.size_bytes th) (Term_hist.size_bytes th2);
  List.iter
    (fun w ->
      let id = (Dict.of_string w :> int) in
      checkf ("same freq " ^ w) (Term_hist.frequency th id) (Term_hist.frequency th2 id))
    [ "pa"; "pb"; "absent" ]

(* ---- Synopsis / Merge edges --------------------------------------------------- *)

module B = Synopsis.Builder

let test_levels_with_cycle () =
  let syn = B.create ~doc_height:4 in
  let add l c =
    B.add_node syn ~label:(Xc_xml.Label.of_string l) ~vtype:Xc_xml.Value.Tnull
      ~count:c ~vsumm:Value_summary.vnone
  in
  let r = add "r" 1 and a = add "a" 4 and leaf = add "x" 2 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid a) 4.0;
  B.set_edge syn ~parent:(B.sid a) ~child:(B.sid a) 0.25;
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid leaf) 2.0;
  let levels = Synopsis.Levels.compute syn in
  let level sid = Synopsis.Levels.get levels ~default:(-1) sid in
  check Alcotest.int "leaf" 0 (level (B.sid leaf));
  check Alcotest.int "root via leaf" 1 (level (B.sid r));
  (* the self-looping node has no leaf-bound path: parked above max *)
  check Alcotest.bool "cycle node above" true (level (B.sid a) > level (B.sid r))

let test_merge_shared_parent_edge_counts () =
  let syn = B.create ~doc_height:3 in
  let add l c =
    B.add_node syn ~label:(Xc_xml.Label.of_string l) ~vtype:Xc_xml.Value.Tnull
      ~count:c ~vsumm:Value_summary.vnone
  in
  let r = add "r" 1 and u = add "x" 2 and v = add "x" 6 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid u) 2.0;
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid v) 6.0;
  let predicted = Xc_core.Merge.saved_bytes syn u v in
  let before = B.structural_bytes syn in
  let w = Xc_core.Merge.apply syn (B.sid u) (B.sid v) in
  (* count(r,w) = count(r,u) + count(r,v) *)
  checkf "parent edge adds" 8.0
    (B.edge_count syn ~parent:(B.sid r) ~child:(B.sid w));
  check Alcotest.int "saved as predicted" (before - predicted)
    (B.structural_bytes syn)

let test_compression_step_none_for_vnone () =
  let syn = B.create ~doc_height:2 in
  let u =
    B.add_node syn ~label:(Xc_xml.Label.of_string "x") ~vtype:Xc_xml.Value.Tnull
      ~count:3 ~vsumm:Value_summary.vnone
  in
  B.set_root syn (B.sid u);
  check Alcotest.bool "no op" true (Option.is_none (Xc_core.Delta.compression_step syn u))

(* ---- Codec fuzz ----------------------------------------------------------------- *)

let codec_rejects_corruption =
  QCheck.Test.make ~name:"codec rejects corrupted encodings with Error" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 1 95))
    (fun (seed, percent) ->
      let doc = Xc_data.Imdb.generate ~seed:71 ~n_movies:20 () in
      let syn = Xc_core.Synopsis.freeze (Xc_core.Reference.build ~min_extent:1 doc) in
      let good = Xc_core.Codec.to_string syn in
      let rng = Xc_util.Rng.create seed in
      (* truncate and flip a byte *)
      let cut = max 5 (String.length good * percent / 100) in
      let corrupt = Bytes.of_string (String.sub good 0 (min cut (String.length good))) in
      if Bytes.length corrupt > 8 then begin
        let i = 8 + Xc_util.Rng.int rng (Bytes.length corrupt - 8) in
        Bytes.set corrupt i (Char.chr (Xc_util.Rng.int rng 256))
      end;
      match Xc_core.Codec.of_string (Bytes.to_string corrupt) with
      | Ok _ | Error _ -> true (* typed outcome either way: decoding is total *)
      | exception _ -> false)

(* ---- Parser hard cases --------------------------------------------------------- *)

let test_parser_deep_nesting () =
  let depth = 5_000 in
  let buf = Buffer.create (depth * 7) in
  for _ = 1 to depth do
    Buffer.add_string buf "<a>"
  done;
  Buffer.add_string buf "1";
  for _ = 1 to depth do
    Buffer.add_string buf "</a>"
  done;
  let doc = Xc_xml.Parser.parse_string (Buffer.contents buf) in
  check Alcotest.int "all elements" depth (Xc_xml.Document.n_elements doc)

let test_parser_numeric_bounds () =
  let doc = Xc_xml.Parser.parse_string "<r><n>-42</n><m>00123</m></r>" in
  let v i = doc.Xc_xml.Document.nodes.(i).Xc_xml.Node.value in
  check Alcotest.bool "negative" true (v 1 = Xc_xml.Value.Numeric (-42));
  check Alcotest.bool "leading zeros" true (v 2 = Xc_xml.Value.Numeric 123)

let test_parser_hex_entity () =
  let doc = Xc_xml.Parser.parse_string "<r><s>&#x41;&#66;</s></r>" in
  match doc.Xc_xml.Document.nodes.(1).Xc_xml.Node.value with
  | Xc_xml.Value.Str s -> check Alcotest.string "decoded" "AB" s
  | _ -> Alcotest.fail "expected string"

let test_parse_nested_branch_predicates () =
  let q = Xc_twig.Twig_parse.parse "//a[b/c[d > 3]]//e" in
  check Alcotest.int "preds" 1 (Xc_twig.Twig_query.n_predicates q);
  (* nested branch with its own predicate evaluates *)
  let doc =
    Xc_xml.Document.create
      (Xc_xml.Node.make "r"
         ~children:
           [ Xc_xml.Node.make "a"
               ~children:
                 [ Xc_xml.Node.make "b"
                     ~children:
                       [ Xc_xml.Node.make "c"
                           ~children:[ Xc_xml.Node.leaf "d" (Xc_xml.Value.Numeric 5) ] ];
                   Xc_xml.Node.make "e" ] ])
  in
  checkf "evaluates" 1.0 (Xc_twig.Twig_eval.selectivity doc q)

let test_eval_repeated_branches_multiply () =
  (* [cast][cast] squares the branch cardinality in binding tuples *)
  let doc =
    Xc_xml.Document.create
      (Xc_xml.Node.make "r"
         ~children:
           [ Xc_xml.Node.make "m"
               ~children:[ Xc_xml.Node.make "c"; Xc_xml.Node.make "c" ] ])
  in
  (* every variable contributes: branch c (2) x output c (2) = 4 tuples *)
  checkf "single branch" 4.0 (Xc_twig.Twig_eval.selectivity doc (Xc_twig.Twig_parse.parse "//m[c]/c"));
  checkf "squared" 8.0 (Xc_twig.Twig_eval.selectivity doc (Xc_twig.Twig_parse.parse "//m[c][c]/c"))

let () =
  Alcotest.run "xc_edge_cases"
    [ ( "histogram",
        [ Alcotest.test_case "single value" `Quick test_hist_single_value;
          Alcotest.test_case "negatives" `Quick test_hist_negative_values;
          Alcotest.test_case "of_raw validation" `Quick test_hist_of_raw_validation;
          Alcotest.test_case "raw roundtrip" `Quick test_hist_raw_roundtrip;
          Alcotest.test_case "maxdiff gaps mergeable" `Quick
            test_maxdiff_gap_buckets_are_mergeable ] );
      ( "wavelet",
        [ Alcotest.test_case "single value" `Quick test_wavelet_single_value;
          Alcotest.test_case "large domain" `Quick test_wavelet_large_domain_caps_cells ] );
      ( "rle",
        [ Alcotest.test_case "boundary merging" `Quick test_rle_boundary_merging;
          QCheck_alcotest.to_alcotest rle_remove_property ] );
      ( "pst",
        [ Alcotest.test_case "empty collection" `Quick test_pst_empty_collection;
          Alcotest.test_case "empty string member" `Quick test_pst_empty_string_member;
          Alcotest.test_case "prefix closure" `Quick test_pst_substring_prefix_closure;
          Alcotest.test_case "of_substrings roundtrip" `Quick test_pst_of_substrings_roundtrip;
          Alcotest.test_case "avg len tracks merge" `Quick test_pst_avg_len_tracks_merge ] );
      ( "terms",
        [ Alcotest.test_case "zero freqs dropped" `Quick test_term_vector_zero_freqs_dropped;
          Alcotest.test_case "empty docs" `Quick test_term_hist_empty_docs;
          Alcotest.test_case "empty conjunction" `Quick test_term_hist_empty_conjunction;
          Alcotest.test_case "parts roundtrip" `Quick test_term_hist_parts_roundtrip ] );
      ( "synopsis",
        [ Alcotest.test_case "levels with cycle" `Quick test_levels_with_cycle;
          Alcotest.test_case "shared parent merge" `Quick test_merge_shared_parent_edge_counts;
          Alcotest.test_case "vnone compression" `Quick test_compression_step_none_for_vnone ] );
      ( "codec",
        [ QCheck_alcotest.to_alcotest codec_rejects_corruption ] );
      ( "parser",
        [ Alcotest.test_case "deep nesting" `Quick test_parser_deep_nesting;
          Alcotest.test_case "numeric bounds" `Quick test_parser_numeric_bounds;
          Alcotest.test_case "hex entities" `Quick test_parser_hex_entity;
          Alcotest.test_case "nested branch predicates" `Quick
            test_parse_nested_branch_predicates;
          Alcotest.test_case "repeated branches" `Quick test_eval_repeated_branches_multiply ] ) ]
