(* Tests for the matrix-major cohort path: it must be bit-identical to
   both the uncached estimator and the query-major reference walk on
   every dataset, independent of the worker count, safe to run against
   alternating synopses on the same reused worker arenas, and correct
   in the degenerate case where every query lands in its own cohort.
   The source-text entry point (prepare_texts) must answer exactly as
   the parsed query does, reuse a repeated batch's plan, and keep its
   text index bounded. *)

module Synopsis = Xc_core.Synopsis
module S = Synopsis.Sealed
module Estimate = Xc_core.Estimate
module Plan = Xc_core.Plan
module Build = Xc_core.Build
module Runner = Xc_exp.Runner
module Metrics = Xc_util.Metrics

let check = Alcotest.check
let check0 msg = Alcotest.check (Alcotest.float 0.0) msg
let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let small_synopsis ds =
  Build.run (Build.budget ~bstr_kb:10 ~bval_kb:60 ()) ds.Runner.reference

(* ---- cohort = query-major = uncached, on every dataset ----------------- *)

let cohort_equivalence_on ds =
  let syn = small_synopsis ds in
  let engine = Plan.Batch.create syn in
  let queries = Runner.workload_queries ds in
  let prepared = Plan.Batch.prepare engine queries in
  let cohort = Plan.Batch.run_prepared ~domains:1 engine prepared in
  let reference = Plan.Batch.run_prepared ~domains:1 ~cohort:false engine prepared in
  Array.iteri
    (fun i q ->
      let uncached = Estimate.selectivity syn q in
      check0 "cohort = uncached" uncached cohort.(i);
      check Alcotest.bool "cohort = query-major, bitwise" true
        (bits_equal cohort.(i) reference.(i)))
    queries;
  let cohorts, max_cohort, distinct = Plan.Batch.cohort_stats prepared in
  check Alcotest.bool "has cohorts" true (cohorts >= 1);
  check Alcotest.bool "widest cohort sane" true
    (max_cohort >= 1 && max_cohort <= distinct);
  check Alcotest.bool "distinct bounded by input" true
    (distinct <= Array.length queries);
  check Alcotest.bool "cohorts bounded by distinct" true (cohorts <= distinct)

let test_cohort_imdb () = cohort_equivalence_on (Runner.imdb ~scale:0.02 ~n_queries:45 ())
let test_cohort_xmark () = cohort_equivalence_on (Runner.xmark ~scale:0.02 ~n_queries:45 ())
let test_cohort_dblp () = cohort_equivalence_on (Runner.dblp ~scale:0.02 ~n_queries:45 ())

(* ---- worker-count independence ----------------------------------------- *)

let test_cohort_domains_bitwise () =
  let n = 2 * Xc_util.Par.seq_cutoff in
  let ds = Runner.xmark ~scale:0.02 ~n_queries:n () in
  let syn = small_synopsis ds in
  let engine = Plan.Batch.create syn in
  let prepared = Plan.Batch.prepare engine (Runner.workload_queries ds) in
  let base = Plan.Batch.run_prepared ~domains:1 engine prepared in
  List.iter
    (fun d ->
      let r = Plan.Batch.run_prepared ~domains:d engine prepared in
      check Alcotest.int "same length" (Array.length base) (Array.length r);
      Array.iteri
        (fun i v ->
          check Alcotest.bool
            (Printf.sprintf "cohort bitwise identical at %d domains (query %d)" d i)
            true (bits_equal v base.(i)))
        r)
    [ 2; 4 ]

(* ---- arena reuse across generation swaps -------------------------------- *)

(* The per-worker arenas live in domain-local storage and are never
   zeroed, so serving alternating synopses (a generation swap: new
   synopsis, different node count and slot demand, same workers) must
   not let values written for one synopsis leak into estimates against
   the other. *)
let test_arena_generation_swap () =
  let ds = Runner.imdb ~scale:0.02 ~n_queries:40 () in
  let queries = Runner.workload_queries ds in
  let syn_a = Build.run (Build.budget ~bstr_kb:10 ~bval_kb:60 ()) ds.Runner.reference in
  let syn_b = Build.run (Build.budget ~bstr_kb:4 ~bval_kb:24 ()) ds.Runner.reference in
  let engine_a = Plan.Batch.create syn_a in
  let engine_b = Plan.Batch.create syn_b in
  let prep_a = Plan.Batch.prepare engine_a queries in
  let prep_b = Plan.Batch.prepare engine_b queries in
  let expect_a = Array.map (Estimate.selectivity syn_a) queries in
  let expect_b = Array.map (Estimate.selectivity syn_b) queries in
  (* A, then B, then A again — the second A pass runs on arenas the B
     pass just wrote *)
  List.iter
    (fun (engine, prep, expect, tag) ->
      let got = Plan.Batch.run_prepared ~domains:1 engine prep in
      Array.iteri
        (fun i v -> check0 (Printf.sprintf "pass %s query %d" tag i) expect.(i) v)
        got)
    [ (engine_a, prep_a, expect_a, "A1"); (engine_b, prep_b, expect_b, "B");
      (engine_a, prep_a, expect_a, "A2") ]

(* ---- degenerate cohorts: every query on its own matrix ------------------ *)

let test_singleton_cohorts () =
  let ds = Runner.imdb ~scale:0.02 ~n_queries:40 () in
  let syn = small_synopsis ds in
  let engine = Plan.Batch.create syn in
  (* single-edge queries over distinct root expressions: each groups by
     its own interned expression, so every cohort has size 1 *)
  let queries =
    Array.map Xc_twig.Twig_parse.parse
      [| "//movie"; "//movie/title"; "//movie/year"; "//actor"; "//actor/name";
         "//movie//actor"; "//director"; "//title" |]
  in
  let prepared = Plan.Batch.prepare engine queries in
  let cohorts, max_cohort, distinct = Plan.Batch.cohort_stats prepared in
  check Alcotest.int "one cohort per query" (Array.length queries) cohorts;
  check Alcotest.int "all cohorts singleton" 1 max_cohort;
  check Alcotest.int "no duplicates" (Array.length queries) distinct;
  let got = Plan.Batch.run_prepared ~domains:1 engine prepared in
  Array.iteri
    (fun i q ->
      check0 "singleton cohort = uncached" (Estimate.selectivity syn q) got.(i);
      (* the single-query entry point rides the same path *)
      check0 "Batch.estimate agrees" got.(i) (Plan.Batch.estimate engine q))
    queries

(* ---- dedup: repeated queries evaluate once ------------------------------ *)

let test_dedup () =
  let ds = Runner.imdb ~scale:0.02 ~n_queries:20 () in
  let syn = small_synopsis ds in
  let engine = Plan.Batch.create syn in
  let base = Runner.workload_queries ds in
  let queries = Array.append base base in
  let prepared = Plan.Batch.prepare engine queries in
  let _, _, distinct = Plan.Batch.cohort_stats prepared in
  check Alcotest.bool "duplicates collapse" true (distinct <= Array.length base);
  let got = Plan.Batch.run_prepared ~domains:1 engine prepared in
  Array.iteri
    (fun i q -> check0 "deduped batch = uncached" (Estimate.selectivity syn q) got.(i))
    queries

(* ---- the source-text path ----------------------------------------------- *)

(* workload queries as source text: the pp rendering minus its leading
   ".", kept only when it parses back; distinct and non-empty *)
let texts_of ds =
  let seen = Hashtbl.create 64 in
  Runner.workload_queries ds
  |> Array.to_list
  |> List.filter_map (fun q ->
         let s = Format.asprintf "%a" Xc_twig.Twig_query.pp q in
         let s =
           if String.length s > 0 && s.[0] = '.' then String.sub s 1 (String.length s - 1)
           else s
         in
         match Xc_twig.Twig_parse.parse s with
         | _ when Hashtbl.mem seen s -> None
         | _ ->
           Hashtbl.add seen s ();
           Some s
         | exception _ -> None)
  |> Array.of_list

let oracle syn texts =
  Array.map (fun s -> Estimate.selectivity syn (Xc_twig.Twig_parse.parse s)) texts

let prepare_texts_exn engine texts =
  match Plan.Batch.prepare_texts engine texts with
  | Ok p -> p
  | Error (i, msg) -> Alcotest.failf "text %d rejected: %s" i msg

let check_answers tag expect got =
  check Alcotest.int (tag ^ ": answer count") (Array.length expect) (Array.length got);
  Array.iteri
    (fun i v ->
      check Alcotest.bool (Printf.sprintf "%s: query %d bit-identical" tag i) true
        (bits_equal expect.(i) v))
    got

let run_texts engine texts =
  Plan.Batch.run_prepared ~domains:1 engine (prepare_texts_exn engine texts)

let text_equivalence_on ds =
  let syn = small_synopsis ds in
  let engine = Plan.Batch.create syn in
  let texts = texts_of ds in
  check Alcotest.bool "workload renders to text" true (Array.length texts > 10);
  let expect = oracle syn texts in
  (* cold (every text parsed and compiled), then warm (index hits) *)
  check_answers "cold" expect (run_texts engine texts);
  check_answers "warm" expect (run_texts engine texts)

let test_text_imdb () = text_equivalence_on (Runner.imdb ~scale:0.02 ~n_queries:45 ())
let test_text_xmark () = text_equivalence_on (Runner.xmark ~scale:0.02 ~n_queries:45 ())
let test_text_dblp () = text_equivalence_on (Runner.dblp ~scale:0.02 ~n_queries:45 ())

let text_fixture =
  lazy
    (let ds = Runner.imdb ~scale:0.02 ~n_queries:40 () in
     let texts = texts_of ds in
     if Array.length texts < 8 then Alcotest.fail "too few workload texts";
     (small_synopsis ds, texts))

let test_text_plan_reuse () =
  let syn, texts = Lazy.force text_fixture in
  let engine = Plan.Batch.create syn in
  let expect = oracle syn texts in
  let first = prepare_texts_exn engine texts in
  check_answers "first" expect (Plan.Batch.run_prepared ~domains:1 engine first);
  let again = prepare_texts_exn engine texts in
  check Alcotest.bool "repeated batch reuses its prepared plan" true (again == first);
  check_answers "repeat" expect (Plan.Batch.run_prepared ~domains:1 engine again);
  (* reordered: same compiled queries, different order -> fresh plan,
     answers placed by input index *)
  let rev = Array.of_list (List.rev (Array.to_list texts)) in
  let reordered = prepare_texts_exn engine rev in
  check Alcotest.bool "reordered batch gets a fresh plan" true (reordered != first);
  check_answers "reordered" (oracle syn rev)
    (Plan.Batch.run_prepared ~domains:1 engine reordered);
  (* one query changed *)
  let changed = Array.copy texts in
  changed.(0) <- texts.(1);
  let one_changed = prepare_texts_exn engine changed in
  check Alcotest.bool "changed batch gets a fresh plan" true
    (one_changed != reordered && one_changed != first);
  check_answers "one changed" (oracle syn changed)
    (Plan.Batch.run_prepared ~domains:1 engine one_changed);
  (* and the original batch after both: fresh again, still right *)
  let back = prepare_texts_exn engine texts in
  check Alcotest.bool "original after a change is re-planned" true (back != one_changed);
  check_answers "original again" expect (Plan.Batch.run_prepared ~domains:1 engine back)

let test_text_whitespace_variants () =
  let syn, texts = Lazy.force text_fixture in
  let engine = Plan.Batch.create syn in
  let expect = oracle syn texts in
  let first = prepare_texts_exn engine texts in
  ignore (Plan.Batch.run_prepared ~domains:1 engine first);
  let compiled = Plan.Batch.n_queries engine in
  let variants = Array.map (fun s -> " \t" ^ s ^ "\n ") texts in
  let second = prepare_texts_exn engine variants in
  check Alcotest.int "variants compile nothing new" compiled (Plan.Batch.n_queries engine);
  check Alcotest.int "variants are indexed as texts" (2 * Array.length texts)
    (Plan.Batch.n_texts engine);
  check Alcotest.bool "same compiled queries, same order: plan reused" true (second == first);
  check_answers "variants" expect (Plan.Batch.run_prepared ~domains:1 engine second)

let test_text_parse_error () =
  let syn, texts = Lazy.force text_fixture in
  let engine = Plan.Batch.create syn in
  let bad = Array.copy texts in
  bad.(3) <- "//movie[";
  bad.(5) <- "not a query";
  (match Plan.Batch.prepare_texts engine bad with
  | Error (i, msg) ->
    check Alcotest.int "first bad index reported" 3 i;
    check Alcotest.bool "message from the parser" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "unparsable text prepared");
  (* the failed batch leaves the engine serving *)
  check_answers "after error" (oracle syn texts) (run_texts engine texts)

let test_text_index_bound () =
  let syn, texts = Lazy.force text_fixture in
  let engine = Plan.Batch.create syn in
  let nb = Array.length texts in
  let bound = Plan.Batch.text_index_bound in
  (* bound + 1 distinct texts in one batch: text k is base k mod nb with
     a whitespace pattern unique to k / nb *)
  let flood =
    Array.init (bound + 1) (fun k ->
        let w = k / nb in
        String.make (w land 63) ' ' ^ texts.(k mod nb) ^ String.make (w lsr 6) '\t')
  in
  let expect = oracle syn texts in
  let resets0 = Metrics.counter_value Metrics.global "batch.text_reset" in
  check_answers "flood" (Array.init (bound + 1) (fun k -> expect.(k mod nb)))
    (run_texts engine flood);
  check Alcotest.int "never reset mid-batch" (bound + 1) (Plan.Batch.n_texts engine);
  check Alcotest.int "no reset yet" resets0
    (Metrics.counter_value Metrics.global "batch.text_reset");
  check Alcotest.int "one compiled query per base text" nb (Plan.Batch.n_queries engine);
  (* the next batch finds the index over the bound and starts afresh *)
  check_answers "after reset" expect (run_texts engine texts);
  check Alcotest.int "reset counted" (resets0 + 1)
    (Metrics.counter_value Metrics.global "batch.text_reset");
  check Alcotest.int "index holds only the new batch" nb (Plan.Batch.n_texts engine)

let test_text_hit_counter () =
  let syn, texts = Lazy.force text_fixture in
  let engine = Plan.Batch.create syn in
  let nb = Array.length texts in
  let hits () = Metrics.counter_value Metrics.global "batch.query_hit" in
  let misses () = Metrics.counter_value Metrics.global "batch.query_miss" in
  let h0 = hits () and m0 = misses () in
  ignore (prepare_texts_exn engine texts);
  check Alcotest.int "cold batch: all misses" (m0 + nb) (misses ());
  check Alcotest.int "cold batch: no hits" h0 (hits ());
  ignore (prepare_texts_exn engine texts);
  check Alcotest.int "warm batch: one hit per query" (h0 + nb) (hits ());
  (* the parsed-query entry point counts the same way *)
  ignore (Plan.Batch.prepare engine (Array.map Xc_twig.Twig_parse.parse texts));
  check Alcotest.int "prepare: one hit per query" (h0 + (2 * nb)) (hits ());
  check Alcotest.int "no new misses" (m0 + nb) (misses ())

(* ---- instrumentation ---------------------------------------------------- *)

let test_cohort_counters () =
  let ds = Runner.imdb ~scale:0.02 ~n_queries:30 () in
  let syn = small_synopsis ds in
  let engine = Plan.Batch.create syn in
  let prepared = Plan.Batch.prepare engine (Runner.workload_queries ds) in
  Metrics.reset Metrics.global;
  ignore (Plan.Batch.run_prepared ~domains:1 engine prepared);
  let cohorts, max_cohort, _ = Plan.Batch.cohort_stats prepared in
  check Alcotest.int "batch.cohorts counts the pass" cohorts
    (Metrics.counter_value Metrics.global "batch.cohorts");
  check Alcotest.int "batch.cohort_max is the high-water" max_cohort
    (Metrics.counter_value Metrics.global "batch.cohort_max");
  check Alcotest.bool "arena resets tracked" true
    (Metrics.counter_value Metrics.global "batch.arena_resets" >= 0);
  (* a second pass over the same plan must not grow the arena again *)
  let resets1 = Metrics.counter_value Metrics.global "batch.arena_resets" in
  ignore (Plan.Batch.run_prepared ~domains:1 engine prepared);
  check Alcotest.int "arena reused, not regrown" resets1
    (Metrics.counter_value Metrics.global "batch.arena_resets");
  match Metrics.quantiles Metrics.global "estimate.cohort_us" [ 0.5 ] with
  | Some _ -> ()
  | None -> Alcotest.fail "expected estimate.cohort_us histogram"

let () =
  Alcotest.run "cohort"
    [ ( "equivalence",
        [ Alcotest.test_case "imdb" `Slow test_cohort_imdb;
          Alcotest.test_case "xmark" `Slow test_cohort_xmark;
          Alcotest.test_case "dblp" `Slow test_cohort_dblp ] );
      ( "determinism",
        [ Alcotest.test_case "bitwise across domains" `Slow test_cohort_domains_bitwise ] );
      ( "arena",
        [ Alcotest.test_case "generation swap" `Slow test_arena_generation_swap ] );
      ( "degenerate",
        [ Alcotest.test_case "singleton cohorts" `Quick test_singleton_cohorts;
          Alcotest.test_case "dedup" `Quick test_dedup ] );
      ( "text",
        [ Alcotest.test_case "imdb" `Slow test_text_imdb;
          Alcotest.test_case "xmark" `Slow test_text_xmark;
          Alcotest.test_case "dblp" `Slow test_text_dblp;
          Alcotest.test_case "plan reuse" `Quick test_text_plan_reuse;
          Alcotest.test_case "whitespace variants" `Quick test_text_whitespace_variants;
          Alcotest.test_case "parse error" `Quick test_text_parse_error;
          Alcotest.test_case "index bound" `Quick test_text_index_bound;
          Alcotest.test_case "hit counter" `Quick test_text_hit_counter ] );
      ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_cohort_counters ] ) ]
