(* Tests for the compiled estimation pipeline: Plan.Cache
   bit-identity with both estimator baselines on all three datasets'
   workloads, freeze-snapshot semantics of the sealed synopsis, and the
   Metrics registry. *)

open Xc_xml
module Synopsis = Xc_core.Synopsis
module B = Synopsis.Builder
module S = Synopsis.Sealed
module Estimate = Xc_core.Estimate
module Plan = Xc_core.Plan
module Build = Xc_core.Build
module Runner = Xc_exp.Runner
module Metrics = Xc_util.Metrics
module Vs = Xc_vsumm.Value_summary

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* exact equality: the refactor's contract is bit-identical floats *)
let check0 msg = Alcotest.check (Alcotest.float 0.0) msg

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- builder / sealed / planned equivalence ---------------------------- *)

(* The property the whole pipeline rests on: for every workload query,
   the hashtable-walking builder estimator, the CSR sealed estimator,
   and the plan-cached estimator produce bit-identical floats. Each
   estimate runs twice so the second pass exercises the warm plan cache
   and reach memo. *)
let equivalence_on ds =
  let builder =
    Build.run_builder (Build.budget ~bstr_kb:10 ~bval_kb:60 ()) ds.Runner.reference
  in
  let syn = Synopsis.freeze builder in
  let cache = Plan.Cache.create syn in
  List.iter
    (fun e ->
      let q = e.Xc_twig.Workload.query in
      let baseline = Estimate.selectivity_builder builder q in
      let uncached = Estimate.selectivity syn q in
      let cold = Plan.Cache.estimate cache q in
      let warm = Plan.Cache.estimate cache q in
      check0 "sealed = builder" baseline uncached;
      check0 "cold = uncached" uncached cold;
      check0 "warm = uncached" uncached warm)
    ds.Runner.workload;
  check Alcotest.bool "plans cached" true (Plan.Cache.n_plans cache > 0);
  check Alcotest.bool "reach memoized" true (Plan.Cache.reach_entries cache > 0)

let test_equivalence_imdb () = equivalence_on (Runner.imdb ~scale:0.02 ~n_queries:45 ())
let test_equivalence_xmark () = equivalence_on (Runner.xmark ~scale:0.02 ~n_queries:45 ())
let test_equivalence_dblp () = equivalence_on (Runner.dblp ~scale:0.02 ~n_queries:45 ())

(* the facade path is the same pipeline *)
let test_facade_estimate () =
  let ds = Runner.imdb ~scale:0.01 ~n_queries:20 () in
  let syn = Xcluster.Build.run ~budget:(Xcluster.Build.budget ~bstr_kb:8 ~bval_kb:40 ()) ds.Runner.doc in
  List.iter
    (fun e ->
      let q = e.Xc_twig.Workload.query in
      check0 "facade = uncached" (Xcluster.Query.estimate_uncached syn q) (Xcluster.Query.estimate syn q))
    ds.Runner.workload

(* ---- freeze snapshot semantics ----------------------------------------- *)

let tiny_builder () =
  let syn = B.create ~doc_height:3 in
  let r = B.add_node syn ~label:(Label.of_string "r") ~vtype:Value.Tnull ~count:1 ~vsumm:Vs.vnone in
  let a = B.add_node syn ~label:(Label.of_string "a") ~vtype:Value.Tnull ~count:4 ~vsumm:Vs.vnone in
  let b = B.add_node syn ~label:(Label.of_string "b") ~vtype:Value.Tnull ~count:8 ~vsumm:Vs.vnone in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid a) 4.0;
  B.set_edge syn ~parent:(B.sid a) ~child:(B.sid b) 2.0;
  (syn, r, a, b)

let test_freeze_snapshots () =
  (* a sealed synopsis is a snapshot: builder mutations after freeze are
     invisible to it, its caches, and its plans — re-freezing is how you
     publish an update, and it carries a fresh uid for cache keying *)
  let syn, _r, a, b = tiny_builder () in
  let sealed = Synopsis.freeze syn in
  let q = Xc_twig.Twig_parse.parse "//a/b" in
  let cache = Plan.Cache.create sealed in
  checkf "tiny twig" 8.0 (Plan.Cache.estimate cache q);
  check Alcotest.bool "memo populated" true (Plan.Cache.reach_entries cache > 0);
  (* double the a->b fanout in the builder *)
  B.set_edge syn ~parent:(B.sid a) ~child:(B.sid b) 4.0;
  checkf "sealed unaffected (cached)" 8.0 (Plan.Cache.estimate cache q);
  checkf "sealed unaffected (uncached)" 8.0 (Estimate.selectivity sealed q);
  let sealed2 = Synopsis.freeze syn in
  check Alcotest.bool "fresh uid per freeze" true (S.uid sealed2 <> S.uid sealed);
  checkf "new snapshot sees doubled fanout" 16.0 (Estimate.selectivity sealed2 q);
  checkf "old snapshot still answers" 8.0 (Plan.Cache.estimate cache q)

let test_plan_reuse () =
  (* a cached plan is a pure function of (sealed, query): repeated
     estimation answers identically, bit for bit the uncached value,
     with no recompilation *)
  let syn, _, _, _ = tiny_builder () in
  let sealed = Synopsis.freeze syn in
  let q = Xc_twig.Twig_parse.parse "//b" in
  let uncached = Estimate.selectivity sealed q in
  checkf "tiny twig" 8.0 uncached;
  let cache = Plan.Cache.create sealed in
  let compiles0 = Metrics.counter_value Metrics.global "plan.compile" in
  List.iter
    (fun tag ->
      check Alcotest.bool (tag ^ " = uncached, bitwise") true
        (Int64.bits_of_float (Plan.Cache.estimate cache q) = Int64.bits_of_float uncached))
    [ "first"; "second" ];
  check Alcotest.int "compiled once" (compiles0 + 1)
    (Metrics.counter_value Metrics.global "plan.compile");
  check Alcotest.int "one plan" 1 (Plan.Cache.n_plans cache)

let test_vsumm_deep_copied_on_freeze () =
  (* freeze deep-copies value summaries, so phase-2 compression of the
     builder (which prunes string PSTs in place) cannot mutate an
     already-published snapshot *)
  let syn = B.create ~doc_height:2 in
  let vs =
    Vs.of_values (List.init 40 (fun i -> Value.Str (Printf.sprintf "value-%04d" i)))
  in
  let u =
    B.add_node syn ~label:(Label.of_string "x") ~vtype:Value.Tstring ~count:40
      ~vsumm:vs
  in
  B.set_root syn (B.sid u);
  let sealed = Synopsis.freeze syn in
  let bytes_before = S.value_bytes sealed in
  (* compress the builder's summary until it shrinks at least once *)
  (match Vs.apply_compression (B.vsumm u) with
  | Some vs' ->
    B.set_vsumm syn u vs';
    check Alcotest.bool "builder shrank" true (B.value_bytes syn < bytes_before);
    check Alcotest.int "sealed bytes unchanged" bytes_before (S.value_bytes sealed)
  | None -> Alcotest.fail "expected a compressible summary")

(* ---- query keys -------------------------------------------------------- *)

let test_query_key_injective () =
  let keys =
    List.map
      (fun s -> Plan.query_key (Xc_twig.Twig_parse.parse s))
      [ "//a/b"; "//a//b"; "/a/b"; "//a/b[c > 1]"; "//a/b[c > 2]";
        "//a/b[c contains(x)]"; "//a[b]/c"; "//a/b/c"; "//*/b" ]
  in
  check Alcotest.int "all distinct" (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let test_cache_hits_counted () =
  let syn, _, _, _ = tiny_builder () in
  let sealed = Synopsis.freeze syn in
  let q = Xc_twig.Twig_parse.parse "//a/b" in
  let cache = Plan.Cache.create sealed in
  let m = Metrics.global in
  let h0 = Metrics.counter_value m "plan.cache_hit" in
  let m0 = Metrics.counter_value m "plan.cache_miss" in
  ignore (Plan.Cache.estimate cache q);
  ignore (Plan.Cache.estimate cache q);
  check Alcotest.int "one miss" (m0 + 1) (Metrics.counter_value m "plan.cache_miss");
  check Alcotest.int "one hit" (h0 + 1) (Metrics.counter_value m "plan.cache_hit");
  check Alcotest.int "one plan" 1 (Plan.Cache.n_plans cache);
  Plan.Cache.clear cache;
  check Alcotest.int "cleared" 0 (Plan.Cache.n_plans cache)

(* a long-lived cache fed ever-new distinct queries: the miss that finds
   more than the bound cached empties the cache first, once, and every
   answer stays bit-identical to the oracle *)
let test_cache_bound () =
  let doc = Xc_data.Imdb.generate ~seed:11 ~n_movies:30 () in
  let syn = Synopsis.freeze (Xc_core.Reference.build ~min_extent:4 doc) in
  let cache = Plan.Cache.create syn in
  let bound = Plan.Batch.text_index_bound in
  let resets () = Metrics.counter_value Metrics.global "plan_cache.reset" in
  let resets0 = resets () in
  for k = 0 to bound + 1 do
    let text = Printf.sprintf "//movie[year > %d]/title" (1000 + k) in
    let q = Xc_twig.Twig_parse.parse text in
    let planned = Plan.Cache.estimate cache q in
    let oracle = Estimate.selectivity syn q in
    if Int64.bits_of_float planned <> Int64.bits_of_float oracle then
      Alcotest.failf "query %d: planned %h differs from the oracle" k planned
  done;
  check Alcotest.int "exactly one reset" (resets0 + 1) (resets ());
  check Alcotest.bool "plans back under the bound" true (Plan.Cache.n_plans cache < bound)

(* ---- metrics registry -------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr ~by:2 m "c";
  check Alcotest.int "counter" 3 (Metrics.counter_value m "c");
  Metrics.observe m "h" 3.0;
  Metrics.observe m "h" 5.0;
  let r = Metrics.time m "t" (fun () -> 42) in
  check Alcotest.int "time passes through" 42 r;
  let s = Metrics.snapshot m in
  check Alcotest.int "counters" 1 (List.length s.Metrics.counters);
  (match s.Metrics.histograms with
  | [ ("h", h) ] ->
    check Alcotest.int "obs" 2 h.Metrics.h_count;
    checkf "min" 3.0 h.Metrics.h_min;
    checkf "max" 5.0 h.Metrics.h_max
  | _ -> Alcotest.fail "expected one histogram");
  (match s.Metrics.timers with
  | [ ("t", t) ] -> check Alcotest.int "calls" 1 t.Metrics.t_count
  | _ -> Alcotest.fail "expected one timer");
  let json = Metrics.to_json s in
  check Alcotest.bool "json mentions counter" true (contains json "\"c\":3");
  Metrics.reset m;
  check Alcotest.int "reset" 0 (Metrics.counter_value m "c")

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.incr m "plan.compile";
  let json = Metrics.to_json (Metrics.snapshot m) in
  check Alcotest.bool "counter in json" true (contains json "\"plan.compile\":1");
  check Alcotest.bool "object shape" true (contains json "\"counters\":{")

let () =
  Alcotest.run "plan"
    [ ( "equivalence",
        [ Alcotest.test_case "imdb" `Slow test_equivalence_imdb;
          Alcotest.test_case "xmark" `Slow test_equivalence_xmark;
          Alcotest.test_case "dblp" `Slow test_equivalence_dblp;
          Alcotest.test_case "facade" `Quick test_facade_estimate ] );
      ( "freeze",
        [ Alcotest.test_case "snapshot semantics" `Quick test_freeze_snapshots;
          Alcotest.test_case "plan reuse" `Quick test_plan_reuse;
          Alcotest.test_case "vsumm deep copy" `Quick test_vsumm_deep_copied_on_freeze ] );
      ( "cache",
        [ Alcotest.test_case "query keys injective" `Quick test_query_key_injective;
          Alcotest.test_case "hit/miss counters" `Quick test_cache_hits_counted;
          Alcotest.test_case "bounded under distinct queries" `Quick test_cache_bound ] );
      ( "metrics",
        [ Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "json" `Quick test_metrics_json ] ) ]
