(* Tests for the matrix-major cohort path: it must be bit-identical to
   the uncached estimator on every dataset, safe to run against
   alternating synopses, and on two threads at once with one engine
   each, and correct in the degenerate case where every query lands in
   its own cohort.
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

(* ---- cohort = uncached, on every dataset -------------------------------- *)

let cohort_equivalence_on ds =
  let syn = small_synopsis ds in
  let engine = Plan.Batch.create syn in
  let queries = Runner.workload_queries ds in
  let prepared = Plan.Batch.prepare engine queries in
  let cohort = Plan.Batch.run_prepared engine prepared in
  Array.iteri
    (fun i q ->
      check Alcotest.bool (Printf.sprintf "cohort = uncached, bitwise (query %d)" i) true
        (bits_equal (Estimate.selectivity syn q) cohort.(i)))
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

(* ---- arena reuse across generation swaps -------------------------------- *)

(* Each engine owns its arena, never zeroed and reused by every pass
   over it, so serving alternating synopses (a generation swap: new
   synopsis, different node count and slot demand, on one thread) must
   not let values one engine's sweep wrote leak into the other's
   estimates, nor one engine's earlier passes into its later ones. *)
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
  (* A, then B, then A again — the second A pass reuses the arena its
     first pass wrote, right after B swept its own *)
  List.iter
    (fun (engine, prep, expect, tag) ->
      let got = Plan.Batch.run_prepared engine prep in
      Array.iteri
        (fun i v -> check0 (Printf.sprintf "pass %s query %d" tag i) expect.(i) v)
        got)
    [ (engine_a, prep_a, expect_a, "A1"); (engine_b, prep_b, expect_b, "B");
      (engine_a, prep_a, expect_a, "A2") ]

(* ---- two threads, one engine each --------------------------------------- *)

(* Callers serialize calls per engine, and nothing more: two threads
   that each sweep their own engine may switch at any point of a sweep,
   so engines must share no scratch. The two synopses are one IMDB
   document at two budgets: their node numbering and query slots
   overlap, so scratch shared between them corrupts answers within the
   test's second or so (two unrelated datasets overlap far less and
   show it far more rarely). Each thread runs its engine's prepared
   batch [passes] times into its own buffer; every answer must be the
   oracle's bit for bit. *)
let test_two_threads () =
  let passes = 10_000 in
  let ds = Runner.imdb ~scale:0.05 ~n_queries:200 () in
  let queries = Runner.workload_queries ds in
  let side (bstr_kb, bval_kb) =
    let syn = Build.run (Build.budget ~bstr_kb ~bval_kb ()) ds.Runner.reference in
    let engine = Plan.Batch.create syn in
    (engine, Plan.Batch.prepare engine queries, Array.map (Estimate.selectivity syn) queries)
  in
  let sides = [| side (10, 60); side (4, 24) |] in
  let wrong = Array.make (Array.length sides) 0 in
  let sweep k =
    let engine, prepared, expect = sides.(k) in
    let out = Array.make (Array.length expect) 0.0 in
    for _ = 1 to passes do
      Plan.Batch.run_into engine prepared out;
      for i = 0 to Array.length expect - 1 do
        if not (bits_equal expect.(i) out.(i)) then wrong.(k) <- wrong.(k) + 1
      done
    done
  in
  Array.init (Array.length sides) (Thread.create sweep) |> Array.iter Thread.join;
  Array.iteri
    (fun k n -> check Alcotest.int (Printf.sprintf "engine %d: answers off the oracle" k) 0 n)
    wrong

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
  let got = Plan.Batch.run_prepared engine prepared in
  Array.iteri
    (fun i q ->
      let uncached = Estimate.selectivity syn q in
      check0 "singleton cohort = uncached" uncached got.(i);
      (* a one-query batch rides the same path *)
      let single = Plan.Batch.run_prepared engine (Plan.Batch.prepare engine [| q |]) in
      check Alcotest.bool "one-query batch = uncached, bitwise" true
        (bits_equal uncached single.(0)))
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
  let got = Plan.Batch.run_prepared engine prepared in
  Array.iteri
    (fun i q -> check0 "deduped batch = uncached" (Estimate.selectivity syn q) got.(i))
    queries

(* ---- the source-text path ----------------------------------------------- *)

(* workload queries as source text: the pp rendering, kept only when it
   parses back; distinct and non-empty *)
let texts_of ds =
  let seen = Hashtbl.create 64 in
  Runner.workload_queries ds
  |> Array.to_list
  |> List.filter_map (fun q ->
         let s = Format.asprintf "%a" Xc_twig.Twig_query.pp q in
         match Xc_twig.Twig_parse.parse s with
         | _ when Hashtbl.mem seen s -> None
         | _ ->
           Hashtbl.add seen s ();
           Some s
         | exception _ -> None)
  |> Array.of_list

let oracle syn texts =
  Array.map (fun s -> Estimate.selectivity syn (Xc_twig.Twig_parse.parse s)) texts

let prepare_texts engine texts =
  Plan.Batch.prepare_texts engine (Xc_util.Slices.of_strings texts)

let prepare_texts_exn engine texts =
  match prepare_texts engine texts with
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
  Plan.Batch.run_prepared engine (prepare_texts_exn engine texts)

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
  check_answers "first" expect (Plan.Batch.run_prepared engine first);
  let again = prepare_texts_exn engine texts in
  check Alcotest.bool "repeated batch reuses its prepared plan" true (again == first);
  check_answers "repeat" expect (Plan.Batch.run_prepared engine again);
  (* reordered: same compiled queries, different order -> fresh plan,
     answers placed by input index *)
  let rev = Array.of_list (List.rev (Array.to_list texts)) in
  let reordered = prepare_texts_exn engine rev in
  check Alcotest.bool "reordered batch gets a fresh plan" true (reordered != first);
  check_answers "reordered" (oracle syn rev)
    (Plan.Batch.run_prepared engine reordered);
  (* one query changed *)
  let changed = Array.copy texts in
  changed.(0) <- texts.(1);
  let one_changed = prepare_texts_exn engine changed in
  check Alcotest.bool "changed batch gets a fresh plan" true
    (one_changed != reordered && one_changed != first);
  check_answers "one changed" (oracle syn changed)
    (Plan.Batch.run_prepared engine one_changed);
  (* and the original batch after both: fresh again, still right *)
  let back = prepare_texts_exn engine texts in
  check Alcotest.bool "original after a change is re-planned" true (back != one_changed);
  check_answers "original again" expect (Plan.Batch.run_prepared engine back)

let test_text_whitespace_variants () =
  let syn, texts = Lazy.force text_fixture in
  let engine = Plan.Batch.create syn in
  let expect = oracle syn texts in
  let first = prepare_texts_exn engine texts in
  ignore (Plan.Batch.run_prepared engine first);
  let compiled = Plan.Batch.n_queries engine in
  let variants = Array.map (fun s -> " \t" ^ s ^ "\n ") texts in
  let second = prepare_texts_exn engine variants in
  check Alcotest.int "variants compile nothing new" compiled (Plan.Batch.n_queries engine);
  check Alcotest.int "variants are indexed as texts" (2 * Array.length texts)
    (Plan.Batch.n_texts engine);
  check Alcotest.bool "same compiled queries, same order: plan reused" true (second == first);
  check_answers "variants" expect (Plan.Batch.run_prepared engine second)

let test_text_parse_error () =
  let syn, texts = Lazy.force text_fixture in
  let engine = Plan.Batch.create syn in
  let bad = Array.copy texts in
  bad.(3) <- "//movie[";
  bad.(5) <- "not a query";
  (match prepare_texts engine bad with
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

(* distinct queries, not whitespace variants, grow the compiled-query
   cache; batches of new queries until it passes the bound, and the
   next batch clears the whole engine first *)
let test_query_cache_bound () =
  let syn, texts = Lazy.force text_fixture in
  let engine = Plan.Batch.create syn in
  let bound = Plan.Batch.text_index_bound in
  let counter name = Metrics.counter_value Metrics.global name in
  let query_resets0 = counter "batch.query_reset" in
  let text_resets0 = counter "batch.text_reset" in
  let chunk = 1024 in
  let batches = (bound / chunk) + 1 in
  for b = 0 to batches - 1 do
    let batch =
      Array.init chunk (fun k ->
          Printf.sprintf "//movie[year > %d]/title" (1000 + (b * chunk) + k))
    in
    let tag = Printf.sprintf "new queries %d" b in
    check_answers tag (oracle syn batch) (run_texts engine batch);
    check Alcotest.int (tag ^ ": no reset yet") query_resets0
      (counter "batch.query_reset");
    check Alcotest.int (tag ^ ": one compiled query per text") ((b + 1) * chunk)
      (Plan.Batch.n_queries engine)
  done;
  check Alcotest.bool "over the bound" true (Plan.Batch.n_queries engine > bound);
  (* the next batch clears the engine first and is answered afresh *)
  check_answers "after reset" (oracle syn texts) (run_texts engine texts);
  check Alcotest.int "reset counted" (query_resets0 + 1) (counter "batch.query_reset");
  check Alcotest.int "not counted as a text-index reset" text_resets0
    (counter "batch.text_reset");
  check Alcotest.bool "compiled queries back under the bound" true
    (Plan.Batch.n_queries engine <= Array.length texts);
  check Alcotest.int "text index holds only the new batch" (Array.length texts)
    (Plan.Batch.n_texts engine);
  let again = [| "//movie[year > 1000]/title"; "//movie[year > 1990]/title" |] in
  check_answers "a flooded query again" (oracle syn again) (run_texts engine again)

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

(* ---- the daemon's text path, generated ----------------------------------

   Request streams as the daemon reads them: each request is encoded as
   a frame and read back as a view, so its texts are slices of the
   frame, then answered by Engine.estimate_texts_with into one reused
   answer buffer, against one engine per dataset that lives across the
   whole run. A stream mixes batches (duplicates and whitespace
   variants of one query included), repeats of the last batch, single
   Estimate frames between them, batches holding unparsable texts, and
   at times a flood: a batch that fills the text index past its bound,
   so the request after it starts with a reset. Every answer must equal
   Estimate.selectivity bit for bit. *)

module Protocol = Xc_serve.Protocol
module Engine = Xc_serve.Engine
module Slices = Xc_util.Slices
module G = QCheck.Gen

type step =
  | Batch of (int * int) list  (* (pool text, whitespace variant) *)
  | Again  (* the last batch, resent *)
  | Single of int * int
  | Bad of (int * int) list * int * int  (* a batch with two unparsable texts *)
  | Flood

let show_step = function
  | Batch b -> Printf.sprintf "Batch[%d]" (List.length b)
  | Again -> "Again"
  | Single (k, w) -> Printf.sprintf "Single(%d,%d)" k w
  | Bad (b, i, j) -> Printf.sprintf "Bad[%d](%d,%d)" (List.length b) i j
  | Flood -> "Flood"

let variant text = function
  | 0 -> text
  | 1 -> " " ^ text
  | 2 -> text ^ "\t"
  | _ -> "\n " ^ text ^ "  "

let gen_stream npool =
  let pick = G.pair (G.int_bound (npool - 1)) (G.int_bound 3) in
  let batch = G.list_size (G.int_range 2 24) pick in
  let step =
    G.frequency
      [ (5, G.map (fun b -> Batch b) batch);
        (2, G.return Again);
        (3, G.map (fun (k, w) -> Single (k, w)) pick);
        (1, G.map3 (fun b i j -> Bad (b, i, j)) batch G.nat G.nat) ]
  in
  let steps = G.list_size (G.int_range 1 6) step in
  G.map3
    (fun a flood b -> a @ (if flood then [ Flood ] else []) @ b)
    steps (G.frequencyl [ (1, true); (5, false) ]) steps

type served = {
  syn : S.t;
  engine : Plan.Batch.t;
  pool : string array;
  expect : float array;  (* Estimate.selectivity of each pool text *)
  frame : Protocol.Frame.t;
  texts : Slices.t;
  mutable answers : float array;
  mutable floods : int;
}

let served_of ds =
  let syn = small_synopsis ds in
  let pool = texts_of ds in
  { syn;
    engine = Plan.Batch.create syn;
    pool;
    expect = oracle syn pool;
    frame = Protocol.Frame.create ();
    texts = Slices.create ();
    answers = [||];
    floods = 0 }

(* the request [queries] as the daemon serves it *)
let serve sv queries =
  let req =
    match queries with
    | [| query |] -> Protocol.Estimate { synopsis = "s"; query }
    | _ -> Protocol.Estimate_batch { synopsis = "s"; queries; options = Xc_serve.Options.default }
  in
  Protocol.encode_request_into sv.frame req;
  match Protocol.view_request sv.frame sv.texts with
  | Error e -> QCheck.Test.fail_reportf "view: %a" Xc_serve.Error.pp_protocol e
  | Ok (Protocol.Request _) -> QCheck.Test.fail_report "an estimate frame read as a request"
  | Ok (Protocol.Estimates _) ->
    let n = Slices.length sv.texts in
    if n <> Array.length queries then QCheck.Test.fail_report "slice count";
    if Array.length sv.answers < n then sv.answers <- Array.make n 0.0;
    Engine.estimate_texts_with ~into:sv.answers sv.engine sv.syn sv.texts

(* serve [queries] and check the answers against [expect] *)
let answered sv queries expect =
  match serve sv queries with
  | Error e -> QCheck.Test.fail_reportf "served error: %s" (Xc_serve.Error.to_string e)
  | Ok () ->
    Array.iteri
      (fun i v ->
        if not (bits_equal v sv.answers.(i)) then
          QCheck.Test.fail_reportf "query %d (%S): served %h, oracle %h" i queries.(i)
            sv.answers.(i) v)
      expect

let texts sv picks = Array.of_list (List.map (fun (k, w) -> variant sv.pool.(k) w) picks)
let expected sv picks = Array.of_list (List.map (fun (k, _) -> sv.expect.(k)) picks)

let run_step sv last step =
  let resets = Metrics.counter_value Metrics.global "batch.text_reset" in
  let over = Plan.Batch.n_texts sv.engine > Plan.Batch.text_index_bound in
  (match step with
  | Batch b ->
    answered sv (texts sv b) (expected sv b);
    last := b
  | Again -> answered sv (texts sv !last) (expected sv !last)
  | Single (k, w) -> answered sv (texts sv [ (k, w) ]) [| sv.expect.(k) |]
  | Bad (b, i, j) -> (
    let queries = texts sv b in
    let n = Array.length queries in
    let i = i mod n and j = j mod n in
    queries.(i) <- "//movie[";
    queries.(j) <- "not a query ][";
    let first = min i j in
    match serve sv queries with
    | Error (Xc_serve.Error.Query msg)
      when String.starts_with ~prefix:(Printf.sprintf "query %d: " first) msg ->
      ()
    | Error e ->
      QCheck.Test.fail_reportf "bad text %d: got %s" first (Xc_serve.Error.to_string e)
    | Ok () -> QCheck.Test.fail_report "a batch with unparsable texts was answered")
  | Flood ->
    (* bound + 1 texts no earlier request sent: a run of tabs unique to
       this flood, then one of spaces unique within it *)
    sv.floods <- sv.floods + 1;
    let npool = Array.length sv.pool in
    let n = Plan.Batch.text_index_bound + 1 in
    answered sv
      (Array.init n (fun k ->
           String.make sv.floods '\t' ^ String.make (k / npool) ' ' ^ sv.pool.(k mod npool)))
      (Array.init n (fun k -> sv.expect.(k mod npool))));
  (* the index resets before a request exactly when it was over its
     bound, never midway through one *)
  let reset = Metrics.counter_value Metrics.global "batch.text_reset" - resets in
  if reset <> if over then 1 else 0 then
    QCheck.Test.fail_reportf "%s: %d text-index resets, the index was %s its bound"
      (show_step step) reset (if over then "over" else "within")

let prop_served ds_name ds =
  let sv = lazy (served_of (Lazy.force ds)) in
  QCheck.Test.make ~name:(ds_name ^ ": served texts = Estimate.selectivity, bitwise") ~count:30
    (QCheck.make ~print:(fun s -> String.concat "; " (List.map show_step s))
       (G.delay (fun () -> gen_stream (Array.length (Lazy.force sv).pool))))
    (fun steps ->
      let sv = Lazy.force sv in
      let last = ref [ (0, 0); (0, 1) ] in
      List.iter (run_step sv last) steps;
      true)

(* ---- instrumentation ---------------------------------------------------- *)

let test_cohort_counters () =
  let ds = Runner.imdb ~scale:0.02 ~n_queries:30 () in
  let syn = small_synopsis ds in
  let engine = Plan.Batch.create syn in
  let prepared = Plan.Batch.prepare engine (Runner.workload_queries ds) in
  let passes () =
    match List.assoc_opt "estimate.batch" (Metrics.snapshot Metrics.global).Metrics.timers with
    | Some t -> t.Metrics.t_count
    | None -> 0
  in
  Metrics.reset Metrics.global;
  ignore (Plan.Batch.run_prepared engine prepared);
  check Alcotest.int "estimate.batch times the pass" 1 (passes ());
  let cohorts, max_cohort, _ = Plan.Batch.cohort_stats prepared in
  check Alcotest.int "batch.cohorts counts the pass" cohorts
    (Metrics.counter_value Metrics.global "batch.cohorts");
  check Alcotest.int "batch.cohort_max is the high-water" max_cohort
    (Metrics.counter_value Metrics.global "batch.cohort_max");
  check Alcotest.bool "arena resets tracked" true
    (Metrics.counter_value Metrics.global "batch.arena_resets" >= 0);
  (* a second pass over the same plan must not grow the arena again *)
  let resets1 = Metrics.counter_value Metrics.global "batch.arena_resets" in
  ignore (Plan.Batch.run_prepared engine prepared);
  check Alcotest.int "arena reused, not regrown" resets1
    (Metrics.counter_value Metrics.global "batch.arena_resets");
  check Alcotest.int "estimate.batch times each pass" 2 (passes ())

let () =
  Alcotest.run "cohort"
    [ ( "equivalence",
        [ Alcotest.test_case "imdb" `Slow test_cohort_imdb;
          Alcotest.test_case "xmark" `Slow test_cohort_xmark;
          Alcotest.test_case "dblp" `Slow test_cohort_dblp ] );
      ( "arena",
        [ Alcotest.test_case "generation swap" `Slow test_arena_generation_swap;
          Alcotest.test_case "two threads, one engine each" `Slow test_two_threads ] );
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
          Alcotest.test_case "query cache bound" `Quick test_query_cache_bound;
          Alcotest.test_case "hit counter" `Quick test_text_hit_counter ] );
      ( "served",
        List.map QCheck_alcotest.to_alcotest
          [ prop_served "imdb" (lazy (Runner.imdb ~scale:0.02 ~n_queries:45 ()));
            prop_served "xmark" (lazy (Runner.xmark ~scale:0.02 ~n_queries:45 ()));
            prop_served "dblp" (lazy (Runner.dblp ~scale:0.02 ~n_queries:45 ())) ] );
      ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_cohort_counters ] ) ]
