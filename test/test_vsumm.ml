(* Tests for Xc_vsumm: histograms, PSTs, RLE bitmaps, term vectors,
   end-biased term histograms and the unified value-summary layer. *)

open Xc_vsumm
module Dict = Xc_xml.Dictionary

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checkf3 msg = Alcotest.check (Alcotest.float 1e-3) msg

(* ---- Histogram --------------------------------------------------------- *)

let test_hist_build_exact () =
  let h = Histogram.build [| 1; 1; 2; 3; 3; 3 |] in
  checkf "total" 6.0 (Histogram.n_values h);
  check Alcotest.int "lo" 1 (Histogram.lo h);
  check Alcotest.int "hi" 4 (Histogram.hi h);
  (* enough buckets: every distinct value is its own bucket *)
  checkf "freq of 1" (2.0 /. 6.0) (Histogram.range_fraction h 1 1);
  checkf "freq of 2" (1.0 /. 6.0) (Histogram.range_fraction h 2 2);
  checkf "freq of 3" (3.0 /. 6.0) (Histogram.range_fraction h 3 3)

let test_hist_range_queries () =
  let h = Histogram.build (Array.init 100 Fun.id) in
  checkf3 "half" 0.5 (Histogram.range_fraction h 0 49);
  checkf3 "all" 1.0 (Histogram.range_fraction h 0 99);
  checkf3 "open high" 1.0 (Histogram.range_fraction h 0 max_int);
  checkf3 "none below" 0.0 (Histogram.range_fraction h (-10) (-1));
  checkf3 "none above" 0.0 (Histogram.range_fraction h 100 200);
  checkf3 "empty range" 0.0 (Histogram.range_fraction h 5 4)

let test_hist_bucket_cap () =
  let h = Histogram.build ~n_buckets:4 (Array.init 1000 Fun.id) in
  check Alcotest.bool "at most 4" true (Histogram.n_buckets h <= 4);
  (* equi-depth: each bucket about a quarter of the mass *)
  List.iter
    (fun b ->
      let f = Histogram.prefix_fraction h b in
      let expected = float_of_int b /. 1000.0 in
      if Float.abs (f -. expected) > 0.05 then
        Alcotest.failf "prefix at %d: %f vs %f" b f expected)
    [ 250; 500; 750 ]

let test_hist_merge_mass () =
  let a = Histogram.build [| 1; 2; 3 |] and b = Histogram.build [| 10; 20 |] in
  let m = Histogram.merge a b in
  checkf3 "mass adds" 5.0 (Histogram.n_values m);
  checkf3 "low range" (3.0 /. 5.0) (Histogram.range_fraction m 1 3);
  checkf3 "high range" (2.0 /. 5.0) (Histogram.range_fraction m 10 20)

let test_hist_merge_overlapping () =
  let a = Histogram.build (Array.make 10 5) and b = Histogram.build (Array.make 30 5) in
  let m = Histogram.merge a b in
  checkf3 "all at 5" 1.0 (Histogram.range_fraction m 5 5);
  checkf3 "mass" 40.0 (Histogram.n_values m)

let test_hist_compress () =
  let h = Histogram.build ~n_buckets:8 (Array.init 64 Fun.id) in
  let before = Histogram.n_buckets h in
  let c = Histogram.compress_once h in
  check Alcotest.int "one fewer" (before - 1) (Histogram.n_buckets c);
  checkf3 "mass preserved" (Histogram.n_values h) (Histogram.n_values c);
  check Alcotest.int "8 bytes saved" (Histogram.size_bytes h - 8) (Histogram.size_bytes c)

let test_hist_compress_to_one () =
  let h = ref (Histogram.build ~n_buckets:8 (Array.init 64 Fun.id)) in
  while Histogram.n_buckets !h > 1 do
    h := Histogram.compress_once !h
  done;
  checkf3 "total selectivity still 1" 1.0 (Histogram.range_fraction !h 0 63);
  Alcotest.check_raises "single-bucket error"
    (Invalid_argument "Histogram.compress_error: single bucket") (fun () ->
      ignore (Histogram.compress_error !h))

let test_hist_equiwidth () =
  let h = Histogram.build_equiwidth ~n_buckets:10 (Array.init 100 Fun.id) in
  check Alcotest.bool "about 10 buckets" true (Histogram.n_buckets h <= 10);
  checkf3 "uniform half" 0.5 (Histogram.prefix_fraction h 50)

let test_hist_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Histogram.build: empty") (fun () ->
      ignore (Histogram.build [||]))

let hist_prefix_monotone =
  QCheck.Test.make ~name:"histogram prefix_fraction is monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 500))
    (fun values ->
      let h = Histogram.build ~n_buckets:8 (Array.of_list values) in
      let probes = List.init 50 (fun i -> i * 11) in
      let rec mono last = function
        | [] -> true
        | p :: rest ->
          let f = Histogram.prefix_fraction h p in
          f >= last -. 1e-9 && f <= 1.0 +. 1e-9 && mono f rest
      in
      mono 0.0 probes)

let hist_merge_commutes =
  QCheck.Test.make ~name:"histogram merge estimate is symmetric" ~count:50
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (int_range 0 100))
              (list_of_size (Gen.int_range 1 50) (int_range 0 100)))
    (fun (xs, ys) ->
      let a = Histogram.build ~n_buckets:6 (Array.of_list xs) in
      let b = Histogram.build ~n_buckets:6 (Array.of_list ys) in
      let m1 = Histogram.merge a b and m2 = Histogram.merge b a in
      List.for_all
        (fun p ->
          Float.abs (Histogram.prefix_fraction m1 p -. Histogram.prefix_fraction m2 p)
          < 1e-9)
        (List.init 20 (fun i -> i * 6)))

(* ---- Rle_bitmap --------------------------------------------------------- *)

let test_rle_basic () =
  let b = Rle_bitmap.of_list [ 1; 2; 3; 7; 9; 10 ] in
  check Alcotest.int "cardinality" 6 (Rle_bitmap.cardinality b);
  check Alcotest.int "runs" 3 (Rle_bitmap.n_runs b);
  List.iter (fun x -> check Alcotest.bool "mem" true (Rle_bitmap.mem b x)) [ 1; 2; 3; 7; 9; 10 ];
  List.iter (fun x -> check Alcotest.bool "not mem" false (Rle_bitmap.mem b x)) [ 0; 4; 6; 8; 11 ]

let test_rle_empty () =
  check Alcotest.int "card" 0 (Rle_bitmap.cardinality Rle_bitmap.empty);
  check Alcotest.bool "mem" false (Rle_bitmap.mem Rle_bitmap.empty 5)

let test_rle_add_remove () =
  let b = Rle_bitmap.of_list [ 1; 3 ] in
  let b2 = Rle_bitmap.add b 2 in
  check Alcotest.int "merged into one run" 1 (Rle_bitmap.n_runs b2);
  check Alcotest.int "card" 3 (Rle_bitmap.cardinality b2);
  let b3 = Rle_bitmap.remove b2 2 in
  check Alcotest.int "split back" 2 (Rle_bitmap.n_runs b3);
  check Alcotest.bool "removed" false (Rle_bitmap.mem b3 2);
  (* idempotence *)
  check Alcotest.bool "add existing" true (Rle_bitmap.equal b2 (Rle_bitmap.add b2 3));
  check Alcotest.bool "remove missing" true (Rle_bitmap.equal b3 (Rle_bitmap.remove b3 2))

let test_rle_union () =
  let a = Rle_bitmap.of_list [ 1; 2; 8 ] and b = Rle_bitmap.of_list [ 2; 3; 9 ] in
  let u = Rle_bitmap.union a b in
  check (Alcotest.list Alcotest.int) "union bits" [ 1; 2; 3; 8; 9 ]
    (List.of_seq (Rle_bitmap.to_seq u))

let rle_roundtrip =
  QCheck.Test.make ~name:"rle to_seq roundtrips membership" ~count:200
    QCheck.(list (int_range 0 300))
    (fun bits ->
      let b = Rle_bitmap.of_list bits in
      let expected = List.sort_uniq Int.compare bits in
      List.of_seq (Rle_bitmap.to_seq b) = expected
      && List.for_all (fun x -> Rle_bitmap.mem b x) expected
      && Rle_bitmap.cardinality b = List.length expected)

(* ---- Pst ---------------------------------------------------------------- *)

let test_pst_exact_counts () =
  let p = Pst.build [ "abc"; "abd"; "xbc" ] in
  checkf "n" 3.0 (Pst.n_strings p);
  check (Alcotest.option (Alcotest.float 1e-9)) "ab in 2" (Some 2.0) (Pst.count p "ab");
  check (Alcotest.option (Alcotest.float 1e-9)) "bc in 2" (Some 2.0) (Pst.count p "bc");
  check (Alcotest.option (Alcotest.float 1e-9)) "abc in 1" (Some 1.0) (Pst.count p "abc");
  check (Alcotest.option (Alcotest.float 1e-9)) "b in 3" (Some 3.0) (Pst.count p "b")

let test_pst_presence_not_occurrences () =
  (* "aaa" contains "a" three times but counts once *)
  let p = Pst.build [ "aaa"; "ba" ] in
  check (Alcotest.option (Alcotest.float 1e-9)) "a presence" (Some 2.0) (Pst.count p "a")

let test_pst_selectivity_exact () =
  let p = Pst.build [ "hello"; "help"; "yelp" ] in
  checkf "el in all" 1.0 (Pst.selectivity p "el");
  checkf3 "hel in 2/3" (2.0 /. 3.0) (Pst.selectivity p "hel");
  checkf "absent symbol" 0.0 (Pst.selectivity p "z");
  checkf "empty string" 1.0 (Pst.selectivity p "")

let test_pst_depth_cap () =
  let p = Pst.build ~max_depth:3 [ "abcdef" ] in
  check (Alcotest.option (Alcotest.float 1e-9)) "abc kept" (Some 1.0) (Pst.count p "abc");
  check Alcotest.bool "abcd not retained" true (Pst.count p "abcd" = None);
  (* Markov chaining still gives a positive estimate for longer strings *)
  check Alcotest.bool "markov positive" true (Pst.selectivity p "abcd" > 0.0)

let test_pst_merge () =
  let a = Pst.build [ "ab" ] and b = Pst.build [ "ab"; "cd" ] in
  let m = Pst.merge a b in
  checkf "n" 3.0 (Pst.n_strings m);
  check (Alcotest.option (Alcotest.float 1e-9)) "ab" (Some 2.0) (Pst.count m "ab");
  check (Alcotest.option (Alcotest.float 1e-9)) "cd" (Some 1.0) (Pst.count m "cd");
  (* merged tree node count consistent with its own accounting *)
  let counted = ref 0 in
  Pst.iter_substrings (fun _ _ -> incr counted) m;
  check Alcotest.int "n_nodes" (Pst.n_nodes m) !counted

let test_pst_prune_keeps_symbols () =
  let p = Pst.build [ "abcd"; "bcde"; "cdef" ] in
  Pst.prune_to p 0;
  (* depth-1 nodes (one per symbol) are never pruned *)
  check Alcotest.int "six symbols survive" 6 (Pst.n_nodes p);
  List.iter
    (fun s -> check Alcotest.bool ("symbol " ^ s) true (Pst.count p s <> None))
    [ "a"; "b"; "c"; "d"; "e"; "f" ]

let test_pst_prune_reduces_size () =
  let p = Pst.build [ "abcdef"; "abcxyz"; "qrstuv" ] in
  let before = Pst.n_nodes p in
  (match Pst.prune_once p with
  | Some (err, saved) ->
    check Alcotest.int "9 bytes" 9 saved;
    check Alcotest.bool "err >= 0" true (err >= 0.0)
  | None -> Alcotest.fail "expected a prunable leaf");
  check Alcotest.int "one fewer node" (before - 1) (Pst.n_nodes p);
  check Alcotest.int "size bytes" (9 * (before - 1)) (Pst.size_bytes p)

let test_pst_negative_queries_zero () =
  let p = Pst.build [ "movie"; "title" ] in
  Pst.prune_to p 8;
  (* a substring with a symbol absent from the data must estimate 0,
     even after aggressive pruning (the paper's negative-query fix) *)
  checkf "absent" 0.0 (Pst.selectivity p "qqq");
  checkf "absent mix" 0.0 (Pst.selectivity p "mz")

let test_pst_copy_independent () =
  let p = Pst.build [ "abc"; "abd" ] in
  let q = Pst.copy p in
  Pst.prune_to p 3;
  check Alcotest.bool "copy untouched" true (Pst.n_nodes q > 3);
  check (Alcotest.option (Alcotest.float 1e-9)) "copy count" (Some 2.0) (Pst.count q "ab")

let pst_estimate_bounded =
  QCheck.Test.make ~name:"pst selectivity within [0,1]" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 20) (string_gen_of_size (Gen.int_range 1 12) Gen.printable))
              (string_gen_of_size (Gen.int_range 1 6) Gen.printable))
    (fun (strings, query) ->
      let p = Pst.build ~max_nodes:64 strings in
      let s = Pst.selectivity p query in
      s >= 0.0 && s <= 1.0)

let pst_exact_when_unpruned =
  QCheck.Test.make ~name:"pst selectivity exact on retained substrings" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 15) (string_gen_of_size (Gen.int_range 1 8) (Gen.char_range 'a' 'd')))
    (fun strings ->
      let p = Pst.build ~max_nodes:100_000 strings in
      (* every length-2 query over the alphabet *)
      let queries =
        List.concat_map
          (fun a -> List.map (fun b -> Printf.sprintf "%c%c" a b) [ 'a'; 'b'; 'c'; 'd' ])
          [ 'a'; 'b'; 'c'; 'd' ]
      in
      List.for_all
        (fun q ->
          match Pst.count p q with
          | None ->
            (* absent from the collection: only the bound holds (the
               Markov assumption may estimate a small non-zero value) *)
            Pst.selectivity p q >= 0.0 && Pst.selectivity p q <= 1.0
          | Some c ->
            let truth = c /. float_of_int (List.length strings) in
            Float.abs (Pst.selectivity p q -. truth) < 1e-9)
        queries)

(* The indexed PST against the list-walking one it replaced
   (Pst_reference): the same retained substrings in the same order with
   bitwise counts, the same node count, bitwise selectivities, and the
   same (err, bytes) prune sequence until nothing is prunable; checked
   after build, copy, merge and an of_substrings round trip. max_nodes
   is small enough that the mid-build prune (at 3x) fires. *)
let pst_matches_reference =
  let gen =
    let open QCheck.Gen in
    let* k = int_range 3 6 in
    let letter bound = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound bound) in
    let* strings =
      list_size (int_range 1 300) (string_size ~gen:(letter (k - 1)) (int_bound 10))
    in
    let* max_nodes = int_range 8 64 in
    let* max_depth = int_range 2 8 in
    (* needles may use one letter the strings never do *)
    let needle = string_size ~gen:(letter k) (int_bound 9) in
    let* needles = list_repeat 12 needle in
    return (strings, max_nodes, max_depth, needles)
  in
  let print (strings, max_nodes, max_depth, needles) =
    Printf.sprintf "max_nodes=%d max_depth=%d strings=[%s] needles=[%s]" max_nodes max_depth
      (String.concat ";" (List.map (Printf.sprintf "%S") strings))
      (String.concat ";" (List.map (Printf.sprintf "%S") needles))
  in
  let bits = Int64.bits_of_float in
  let substrings iter t =
    let acc = ref [] in
    iter (fun s c -> acc := (s, bits c) :: !acc) t;
    List.rev !acc
  in
  let same what stage a b =
    if a <> b then QCheck.Test.fail_reportf "%s differs after %s" what stage
  in
  (* compares one pair, then prunes both to exhaustion step by step *)
  let agree stage needles p r =
    same "substrings" stage (substrings Pst.iter_substrings p)
      (substrings Pst_reference.iter_substrings r);
    same "n_nodes" stage (Pst.n_nodes p) (Pst_reference.n_nodes r);
    same "selectivity" stage
      (List.map (fun s -> bits (Pst.selectivity p s)) needles)
      (List.map (fun s -> bits (Pst_reference.selectivity r s)) needles);
    let rec prune steps =
      same "peek_prune" stage
        (Option.map bits (Pst.peek_prune p)) (Option.map bits (Pst_reference.peek_prune r));
      match (Pst.prune_once p, Pst_reference.prune_once r) with
      | None, None -> ()
      | Some (e, b), Some (e', b') when bits e = bits e' && b = b' ->
        same "n_nodes while pruning" stage (Pst.n_nodes p) (Pst_reference.n_nodes r);
        prune (steps + 1)
      | _ -> QCheck.Test.fail_reportf "prune step %d differs after %s" steps stage
    in
    prune 0;
    same "pruned substrings" stage (substrings Pst.iter_substrings p)
      (substrings Pst_reference.iter_substrings r)
  in
  QCheck.Test.make ~name:"pst matches the list-walking reference" ~count:60
    (QCheck.make ~print gen)
    (fun (strings, max_nodes, max_depth, needles) ->
      let half = List.filteri (fun i _ -> i mod 2 = 0) strings in
      let p = Pst.build ~max_depth ~max_nodes strings
      and r = Pst_reference.build ~max_depth ~max_nodes strings in
      let p2 = Pst.build ~max_depth ~max_nodes half
      and r2 = Pst_reference.build ~max_depth ~max_nodes half in
      let pc = Pst.copy p and rc = Pst_reference.copy r in
      let pm = Pst.merge p p2 and rm = Pst_reference.merge r r2 in
      let entries = substrings Pst.iter_substrings p in
      let entries = List.map (fun (s, c) -> (s, Int64.float_of_bits c)) entries in
      let n = Pst.n_strings p and total_len = Pst.total_len p in
      let po = Pst.of_substrings ~total_len ~n ~max_depth entries
      and ro = Pst_reference.of_substrings ~total_len ~n ~max_depth entries in
      agree "build" needles p r;
      agree "copy" needles pc rc;
      agree "merge" needles pm rm;
      agree "of_substrings" needles po ro;
      true)

(* ---- Term_vector / Term_hist ------------------------------------------- *)

let term s = Dict.of_string s
let tid s = (term s :> int)

let docs_of_lists lists =
  List.map (fun l -> Array.of_list (List.sort_uniq Dict.compare (List.map term l))) lists

let test_centroid () =
  let docs = docs_of_lists [ [ "xml"; "tree" ]; [ "xml" ]; [ "data"; "xml" ] ] in
  let c = Term_vector.of_documents docs in
  checkf "n" 3.0 (Term_vector.n_documents c);
  checkf3 "xml" 1.0 (Term_vector.frequency c (tid "xml"));
  checkf3 "tree" (1.0 /. 3.0) (Term_vector.frequency c (tid "tree"));
  checkf "absent" 0.0 (Term_vector.frequency c (tid "nothere"))

let test_centroid_combine () =
  let a = Term_vector.of_entries ~n:2.0 [ (1, 1.0); (2, 0.5) ] in
  let b = Term_vector.of_entries ~n:6.0 [ (2, 1.0); (3, 0.5) ] in
  let c = Term_vector.combine a b in
  checkf "n" 8.0 (Term_vector.n_documents c);
  checkf3 "term1" 0.25 (Term_vector.frequency c 1);
  checkf3 "term2" ((0.25 *. 0.5) +. (0.75 *. 1.0)) (Term_vector.frequency c 2);
  checkf3 "term3" 0.375 (Term_vector.frequency c 3)

let test_term_hist_exact_top () =
  let c =
    Term_vector.of_entries ~n:10.0 [ (1, 0.9); (2, 0.8); (3, 0.1); (4, 0.05) ]
  in
  let th = Term_hist.of_centroid ~top_k:2 c in
  check Alcotest.int "top 2" 2 (Term_hist.n_top th);
  check Alcotest.int "bucket 2" 2 (Term_hist.bucket_size th);
  checkf3 "top exact" 0.9 (Term_hist.frequency th 1);
  checkf3 "top exact 2" 0.8 (Term_hist.frequency th 2);
  (* bucket terms share the average *)
  checkf3 "bucket avg" 0.075 (Term_hist.frequency th 3);
  checkf3 "bucket avg" 0.075 (Term_hist.frequency th 4);
  (* absent terms estimate 0 exactly: the end-biased design goal *)
  checkf "absent is zero" 0.0 (Term_hist.frequency th 5)

let test_term_hist_selectivity_product () =
  let docs = docs_of_lists [ [ "xml"; "synopsis" ]; [ "xml" ] ] in
  let th = Term_hist.build docs in
  checkf3 "conjunction" 0.5 (Term_hist.selectivity th [ term "xml"; term "synopsis" ]);
  checkf "with absent term" 0.0
    (Term_hist.selectivity th [ term "xml"; term "notinthedata" ])

let test_term_hist_compress () =
  let c =
    Term_vector.of_entries ~n:10.0 [ (1, 0.9); (2, 0.8); (3, 0.3); (4, 0.2) ]
  in
  let th = Term_hist.of_centroid ~top_k:4 c in
  match Term_hist.compress_once th with
  | Some (err, _saved, th') ->
    check Alcotest.int "one term demoted" 3 (Term_hist.n_top th');
    check Alcotest.int "bucket grew" 1 (Term_hist.bucket_size th');
    (* the lowest frequency (term 4) was demoted *)
    checkf3 "demoted estimate becomes avg" 0.2 (Term_hist.frequency th' 4);
    check Alcotest.bool "err nonneg" true (err >= 0.0);
    (* supports unchanged *)
    check Alcotest.int "support" (Term_hist.support_size th) (Term_hist.support_size th')
  | None -> Alcotest.fail "expected a compression step"

let test_term_hist_compress_exhausts () =
  let c = Term_vector.of_entries ~n:4.0 [ (1, 0.5); (2, 0.25) ] in
  let th = ref (Term_hist.of_centroid ~top_k:2 c) in
  let steps = ref 0 in
  let rec go () =
    match Term_hist.compress_once !th with
    | Some (_, _, th') ->
      th := th';
      incr steps;
      go ()
    | None -> ()
  in
  go ();
  check Alcotest.int "two steps" 2 !steps;
  check Alcotest.int "nothing indexed" 0 (Term_hist.n_top !th);
  (* both terms still present through the uniform bucket *)
  checkf3 "avg" 0.375 (Term_hist.frequency !th 1);
  checkf3 "avg" 0.375 (Term_hist.frequency !th 2)

let test_term_hist_fuse () =
  let a = Term_hist.of_centroid ~top_k:8 (Term_vector.of_entries ~n:2.0 [ (1, 1.0) ]) in
  let b = Term_hist.of_centroid ~top_k:8 (Term_vector.of_entries ~n:2.0 [ (2, 0.5) ]) in
  let f = Term_hist.fuse a b in
  checkf "n" 4.0 (Term_hist.n_documents f);
  checkf3 "term1 halves" 0.5 (Term_hist.frequency f 1);
  checkf3 "term2 quarters" 0.25 (Term_hist.frequency f 2)

let test_term_hist_dots () =
  let a = Term_hist.of_centroid ~top_k:8 (Term_vector.of_entries ~n:2.0 [ (1, 1.0); (2, 0.5) ]) in
  let b = Term_hist.of_centroid ~top_k:8 (Term_vector.of_entries ~n:2.0 [ (2, 1.0); (3, 0.5) ]) in
  let suu, svv, suv = Term_hist.dot_products a b in
  checkf3 "suu" 1.25 suu;
  checkf3 "svv" 1.25 svv;
  checkf3 "suv" 0.5 suv

(* ---- Value_summary ------------------------------------------------------ *)

let test_vs_of_values () =
  let open Xc_xml.Value in
  check Alcotest.bool "empty" true (Value_summary.of_values [] = Value_summary.Vnone);
  check Alcotest.string "num" "numeric"
    (Value_summary.type_name (Value_summary.of_values [ Numeric 1; Numeric 2 ]));
  check Alcotest.string "str" "string"
    (Value_summary.type_name (Value_summary.of_values [ Str "ab" ]));
  check Alcotest.string "text" "text"
    (Value_summary.type_name (Value_summary.of_values [ text_of_terms [ term "x" ] ]));
  Alcotest.check_raises "mixed" (Invalid_argument "Value_summary.of_values: mixed value types")
    (fun () -> ignore (Value_summary.of_values [ Numeric 1; Str "x" ]))

let test_vs_selectivities () =
  let open Xc_xml.Value in
  let num = Value_summary.of_values (List.init 100 (fun i -> Numeric i)) in
  checkf3 "numeric range" 0.5 (Value_summary.numeric_selectivity num ~lo:0 ~hi:49);
  let strs = Value_summary.of_values [ Str "hello"; Str "help" ] in
  checkf3 "substring" 1.0 (Value_summary.substring_selectivity strs "hel");
  let txt = Value_summary.of_values [ text_of_terms [ term "xml" ]; text_of_terms [ term "db" ] ] in
  checkf3 "term" 0.5 (Value_summary.text_selectivity txt [ term "xml" ]);
  (* Vnone answers 0.0: an undesignated path carries no evidence *)
  checkf "vnone" 0.0 (Value_summary.numeric_selectivity Value_summary.Vnone ~lo:0 ~hi:1)

let test_vs_fuse_type_mismatch () =
  let open Xc_xml.Value in
  let a = Value_summary.of_values [ Numeric 1 ] in
  let b = Value_summary.of_values [ Str "x" ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Value_summary.fuse: type mismatch")
    (fun () -> ignore (Value_summary.fuse a b))

let test_vs_pred_dots_none () =
  let suu, svv, suv = Value_summary.pred_dots Value_summary.Vnone Value_summary.Vnone in
  checkf "suu" 1.0 suu;
  checkf "svv" 1.0 svv;
  checkf "suv" 1.0 suv

let test_vs_pred_dots_identical_symmetry () =
  let open Xc_xml.Value in
  let a = Value_summary.of_values (List.init 50 (fun i -> Numeric (i mod 7))) in
  let suu, svv, suv = Value_summary.pred_dots a a in
  checkf3 "diag equal" suu svv;
  checkf3 "cross equals diag" suu suv;
  checkf3 "self_dots agrees" suu (Value_summary.self_dots a)

let test_vs_compression_cycle () =
  let open Xc_xml.Value in
  let vs = ref (Value_summary.of_values (List.init 200 (fun i -> Numeric (i mod 40)))) in
  let total_before = Value_summary.size_bytes !vs in
  let rec squeeze n =
    match Value_summary.compress_step !vs with
    | Some step ->
      check Alcotest.bool "err nonneg" true (step.Value_summary.err >= 0.0);
      let vs' = step.Value_summary.apply () in
      check Alcotest.int "saved matches"
        (Value_summary.size_bytes !vs - step.Value_summary.saved)
        (Value_summary.size_bytes vs');
      vs := vs';
      squeeze (n + 1)
    | None -> n
  in
  let steps = squeeze 0 in
  check Alcotest.bool "made progress" true (steps > 0);
  check Alcotest.bool "smaller" true (Value_summary.size_bytes !vs < total_before)

let vs_fuse_preserves_numeric_mixture =
  QCheck.Test.make ~name:"fused numeric selectivity is count-weighted mixture" ~count:60
    QCheck.(pair (list_of_size (Gen.int_range 1 40) (int_range 0 60))
              (list_of_size (Gen.int_range 1 40) (int_range 0 60)))
    (fun (xs, ys) ->
      let open Xc_xml.Value in
      let a = Value_summary.of_values (List.map (fun v -> Numeric v) xs) in
      let b = Value_summary.of_values (List.map (fun v -> Numeric v) ys) in
      let f = Value_summary.fuse a b in
      let na = float_of_int (List.length xs) and nb = float_of_int (List.length ys) in
      let w = na /. (na +. nb) in
      List.for_all
        (fun h ->
          let expected =
            (w *. Value_summary.numeric_selectivity a ~lo:0 ~hi:h)
            +. ((1.0 -. w) *. Value_summary.numeric_selectivity b ~lo:0 ~hi:h)
          in
          Float.abs (Value_summary.numeric_selectivity f ~lo:0 ~hi:h -. expected) < 1e-6)
        [ 10; 30; 60 ])

let () =
  Alcotest.run ~and_exit:false "xc_vsumm"
    [ ( "histogram",
        [ Alcotest.test_case "exact build" `Quick test_hist_build_exact;
          Alcotest.test_case "range queries" `Quick test_hist_range_queries;
          Alcotest.test_case "bucket cap" `Quick test_hist_bucket_cap;
          Alcotest.test_case "merge mass" `Quick test_hist_merge_mass;
          Alcotest.test_case "merge overlap" `Quick test_hist_merge_overlapping;
          Alcotest.test_case "compress" `Quick test_hist_compress;
          Alcotest.test_case "compress to one" `Quick test_hist_compress_to_one;
          Alcotest.test_case "equiwidth" `Quick test_hist_equiwidth;
          Alcotest.test_case "empty rejected" `Quick test_hist_empty_rejected;
          QCheck_alcotest.to_alcotest hist_prefix_monotone;
          QCheck_alcotest.to_alcotest hist_merge_commutes ] );
      ( "rle_bitmap",
        [ Alcotest.test_case "basic" `Quick test_rle_basic;
          Alcotest.test_case "empty" `Quick test_rle_empty;
          Alcotest.test_case "add/remove" `Quick test_rle_add_remove;
          Alcotest.test_case "union" `Quick test_rle_union;
          QCheck_alcotest.to_alcotest rle_roundtrip ] );
      ( "pst",
        [ Alcotest.test_case "exact counts" `Quick test_pst_exact_counts;
          Alcotest.test_case "presence semantics" `Quick test_pst_presence_not_occurrences;
          Alcotest.test_case "selectivity exact" `Quick test_pst_selectivity_exact;
          Alcotest.test_case "depth cap + markov" `Quick test_pst_depth_cap;
          Alcotest.test_case "merge" `Quick test_pst_merge;
          Alcotest.test_case "prune keeps symbols" `Quick test_pst_prune_keeps_symbols;
          Alcotest.test_case "prune reduces size" `Quick test_pst_prune_reduces_size;
          Alcotest.test_case "negative queries zero" `Quick test_pst_negative_queries_zero;
          Alcotest.test_case "copy independent" `Quick test_pst_copy_independent;
          QCheck_alcotest.to_alcotest pst_estimate_bounded;
          QCheck_alcotest.to_alcotest pst_exact_when_unpruned;
          QCheck_alcotest.to_alcotest pst_matches_reference ] );
      ( "term_vector",
        [ Alcotest.test_case "centroid" `Quick test_centroid;
          Alcotest.test_case "combine" `Quick test_centroid_combine ] );
      ( "term_hist",
        [ Alcotest.test_case "exact top + bucket" `Quick test_term_hist_exact_top;
          Alcotest.test_case "selectivity product" `Quick test_term_hist_selectivity_product;
          Alcotest.test_case "compress" `Quick test_term_hist_compress;
          Alcotest.test_case "compress exhausts" `Quick test_term_hist_compress_exhausts;
          Alcotest.test_case "fuse" `Quick test_term_hist_fuse;
          Alcotest.test_case "dot products" `Quick test_term_hist_dots ] );
      ( "value_summary",
        [ Alcotest.test_case "of_values" `Quick test_vs_of_values;
          Alcotest.test_case "selectivities" `Quick test_vs_selectivities;
          Alcotest.test_case "fuse mismatch" `Quick test_vs_fuse_type_mismatch;
          Alcotest.test_case "pred_dots none" `Quick test_vs_pred_dots_none;
          Alcotest.test_case "pred_dots symmetry" `Quick test_vs_pred_dots_identical_symmetry;
          Alcotest.test_case "compression cycle" `Quick test_vs_compression_cycle;
          QCheck_alcotest.to_alcotest vs_fuse_preserves_numeric_mixture ] ) ]

(* ---- Wavelet (appended suite) -------------------------------------------- *)

let test_wavelet_exact_small () =
  (* few distinct values, plenty of coefficients: reconstruction exact *)
  let w = Wavelet.build ~n_coeffs:64 [| 1; 1; 2; 3; 3; 3; 7; 7 |] in
  checkf3 "freq of 3" (3.0 /. 8.0) (Wavelet.range_fraction w 3 3);
  checkf3 "range 1-3" (6.0 /. 8.0) (Wavelet.range_fraction w 1 3);
  checkf3 "all" 1.0 (Wavelet.range_fraction w 1 7);
  checkf3 "none" 0.0 (Wavelet.range_fraction w 8 100)

let test_wavelet_compression_bounds () =
  let values = Array.init 5000 (fun i -> i * i mod 997) in
  let w = Wavelet.build ~n_coeffs:16 values in
  check Alcotest.bool "few coeffs" true (Wavelet.n_retained w <= 16);
  check Alcotest.int "size" (8 * Wavelet.n_retained w) (Wavelet.size_bytes w);
  (* estimates stay plausible even at heavy compression *)
  let f = Wavelet.range_fraction w 0 498 in
  check Alcotest.bool "about half" true (f > 0.3 && f < 0.7)

let test_wavelet_prefix_monotone () =
  let values = Array.init 2000 (fun i -> (i * 7919) mod 1500) in
  let w = Wavelet.build ~n_coeffs:24 values in
  let last = ref 0.0 in
  for v = 0 to 1500 do
    let f = Wavelet.prefix_fraction w v in
    if f < !last -. 1e-9 then Alcotest.failf "not monotone at %d" v;
    last := f
  done

let wavelet_matches_histogram_roughly =
  QCheck.Test.make ~name:"wavelet and histogram agree on smooth data" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Xc_util.Rng.create seed in
      let values = Array.init 1000 (fun _ -> Xc_util.Rng.int rng 256) in
      let w = Wavelet.build ~n_coeffs:48 values in
      let h = Histogram.build ~n_buckets:48 values in
      List.for_all
        (fun p ->
          Float.abs (Wavelet.prefix_fraction w p -. Histogram.prefix_fraction h p)
          < 0.12)
        [ 32; 64; 128; 192 ])

let test_maxdiff_isolates_outliers () =
  (* one huge spike amid uniform noise: maxdiff gives the spike a tight
     bucket, so its frequency estimate is (nearly) exact *)
  let values =
    Array.concat [ Array.make 1000 500; Array.init 200 (fun i -> i * 5) ]
  in
  let h = Histogram.build_maxdiff ~n_buckets:8 values in
  let f = Histogram.range_fraction h 500 500 in
  check Alcotest.bool "spike isolated" true (f > 0.75);
  checkf3 "mass" 1200.0 (Histogram.n_values h)

let test_maxdiff_small_cases () =
  let h = Histogram.build_maxdiff [| 5 |] in
  checkf3 "single" 1.0 (Histogram.range_fraction h 5 5);
  let h2 = Histogram.build_maxdiff ~n_buckets:10 [| 1; 2; 3 |] in
  checkf3 "per-value" (1.0 /. 3.0) (Histogram.range_fraction h2 2 2)

let () =
  Alcotest.run "xc_vsumm_wavelet" ~and_exit:false
    [ ( "wavelet",
        [ Alcotest.test_case "exact small" `Quick test_wavelet_exact_small;
          Alcotest.test_case "compression bounds" `Quick test_wavelet_compression_bounds;
          Alcotest.test_case "prefix monotone" `Quick test_wavelet_prefix_monotone;
          QCheck_alcotest.to_alcotest wavelet_matches_histogram_roughly ] );
      ( "maxdiff",
        [ Alcotest.test_case "isolates outliers" `Quick test_maxdiff_isolates_outliers;
          Alcotest.test_case "small cases" `Quick test_maxdiff_small_cases ] ) ]
