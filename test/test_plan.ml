(* Tests for the compiled estimation pipeline: one-query Plan.Batch
   estimates bit-identical with both estimator baselines on all three
   datasets' workloads, the engine's reuse, counters and bound,
   freeze-snapshot semantics of the sealed synopsis, and the Metrics
   registry. *)

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

(* a query answered as a one-query batch, the way one-shot callers are *)
let one engine q = (Plan.Batch.run_prepared engine (Plan.Batch.prepare_one engine q)).(0)

(* ---- builder / sealed / compiled equivalence --------------------------- *)

(* The property the whole pipeline rests on: for every workload query,
   the hashtable-walking builder estimator, the CSR sealed estimator,
   and a one-query batch produce bit-identical floats. Each estimate
   runs twice so the second pass exercises the warm compiled query and
   its transition rows. *)
let equivalence_on ds =
  let builder =
    Build.run_builder (Build.budget ~bstr_kb:10 ~bval_kb:60 ()) ds.Runner.reference
  in
  let syn = Synopsis.freeze builder in
  let engine = Plan.Batch.create syn in
  List.iter
    (fun e ->
      let q = e.Xc_twig.Workload.query in
      let baseline = Estimate.selectivity_builder builder q in
      let uncached = Estimate.selectivity syn q in
      let cold = one engine q in
      let warm = one engine q in
      check0 "sealed = builder" baseline uncached;
      check0 "cold = uncached" uncached cold;
      check0 "warm = uncached" uncached warm)
    ds.Runner.workload;
  check Alcotest.bool "queries compiled" true (Plan.Batch.n_queries engine > 0);
  check Alcotest.bool "transition rows built" true (Plan.Batch.rows_built engine > 0)

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
     invisible to it, its engine, and its compiled queries — re-freezing
     is how you publish an update, and it carries a fresh uid for engine
     keying *)
  let syn, _r, a, b = tiny_builder () in
  let sealed = Synopsis.freeze syn in
  let q = Xc_twig.Twig_parse.parse "//a/b" in
  let engine = Plan.Batch.create sealed in
  checkf "tiny twig" 8.0 (one engine q);
  check Alcotest.int "query compiled" 1 (Plan.Batch.n_queries engine);
  (* double the a->b fanout in the builder *)
  B.set_edge syn ~parent:(B.sid a) ~child:(B.sid b) 4.0;
  checkf "sealed unaffected (compiled)" 8.0 (one engine q);
  checkf "sealed unaffected (uncached)" 8.0 (Estimate.selectivity sealed q);
  let sealed2 = Synopsis.freeze syn in
  check Alcotest.bool "fresh uid per freeze" true (S.uid sealed2 <> S.uid sealed);
  checkf "new snapshot sees doubled fanout" 16.0 (Estimate.selectivity sealed2 q);
  checkf "old snapshot still answers" 8.0 (one engine q)

let test_plan_reuse () =
  (* a compiled query is a pure function of (sealed, query): repeated
     estimation answers identically, bit for bit the uncached value,
     with no recompilation and the same memoized one-query batch *)
  let syn, _, _, _ = tiny_builder () in
  let sealed = Synopsis.freeze syn in
  let q = Xc_twig.Twig_parse.parse "//b" in
  let uncached = Estimate.selectivity sealed q in
  checkf "tiny twig" 8.0 uncached;
  let engine = Plan.Batch.create sealed in
  let compiles0 = Metrics.counter_value Metrics.global "batch.query_miss" in
  List.iter
    (fun tag ->
      check Alcotest.bool (tag ^ " = uncached, bitwise") true
        (Int64.bits_of_float (one engine q) = Int64.bits_of_float uncached))
    [ "first"; "second" ];
  check Alcotest.int "compiled once" (compiles0 + 1)
    (Metrics.counter_value Metrics.global "batch.query_miss");
  check Alcotest.int "one compiled query" 1 (Plan.Batch.n_queries engine);
  check Alcotest.bool "one memoized batch" true
    (Plan.Batch.prepare_one engine q == Plan.Batch.prepare_one engine q)

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
  (match Vs.compress_step (B.vsumm u) with
  | Some step ->
    B.set_vsumm syn u (step.Vs.apply ());
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
  let engine = Plan.Batch.create sealed in
  let m = Metrics.global in
  let h0 = Metrics.counter_value m "batch.query_hit" in
  let m0 = Metrics.counter_value m "batch.query_miss" in
  ignore (one engine q);
  ignore (one engine q);
  check Alcotest.int "one miss" (m0 + 1) (Metrics.counter_value m "batch.query_miss");
  check Alcotest.int "one hit" (h0 + 1) (Metrics.counter_value m "batch.query_hit");
  check Alcotest.int "one compiled query" 1 (Plan.Batch.n_queries engine);
  Plan.Batch.clear engine;
  check Alcotest.int "cleared" 0 (Plan.Batch.n_queries engine);
  check Alcotest.int "rows cleared" 0 (Plan.Batch.rows_built engine)

(* a long-lived engine fed ever-new distinct one-query batches: the call
   that finds more than the bound compiled empties the engine first,
   once, and every answer stays bit-identical to the oracle *)
let test_cache_bound () =
  let doc = Xc_data.Imdb.generate ~seed:11 ~n_movies:30 () in
  let syn = Synopsis.freeze (Xc_core.Reference.build ~min_extent:4 doc) in
  let engine = Plan.Batch.create syn in
  let bound = Plan.Batch.text_index_bound in
  let resets () = Metrics.counter_value Metrics.global "batch.query_reset" in
  let resets0 = resets () in
  for k = 0 to bound + 1 do
    let text = Printf.sprintf "//movie[year > %d]/title" (1000 + k) in
    let q = Xc_twig.Twig_parse.parse text in
    let compiled = one engine q in
    let oracle = Estimate.selectivity syn q in
    if Int64.bits_of_float compiled <> Int64.bits_of_float oracle then
      Alcotest.failf "query %d: compiled %h differs from the oracle" k compiled
  done;
  check Alcotest.int "exactly one reset" (resets0 + 1) (resets ());
  check Alcotest.bool "compiled queries back under the bound" true
    (Plan.Batch.n_queries engine < bound)

(* ---- metrics registry -------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter ~registry:m ~doc:"a counter" "c" in
  let hw = Metrics.high_water ~registry:m ~doc:"a high-water mark" "hw" in
  let h = Metrics.histogram ~registry:m ~doc:"a histogram" "h" in
  let tm = Metrics.timer ~registry:m ~doc:"a timer" "t" in
  Metrics.incr c;
  Metrics.add c 2;
  check Alcotest.int "counter" 3 (Metrics.counter_value m "c");
  List.iter (Metrics.record_max hw) [ 4; 9; 2 ];
  check Alcotest.int "high-water" 9 (Metrics.counter_value m "hw");
  Metrics.observe h 3.0;
  Metrics.observe h 5.0;
  let r = Metrics.time tm (fun () -> 42) in
  check Alcotest.int "time passes through" 42 r;
  let s = Metrics.snapshot m in
  check Alcotest.int "counters" 2 (List.length s.Metrics.counters);
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
  (match Metrics.counter ~registry:m ~doc:"again" "c" with
  | _ -> Alcotest.fail "a second registration of one name was accepted"
  | exception Invalid_argument _ -> ());
  (* reset zeroes the handles in place: they stay registered and live *)
  Metrics.reset m;
  check Alcotest.int "reset" 0 (Metrics.counter_value m "c");
  check Alcotest.int "reset high-water" 0 (Metrics.counter_value m "hw");
  let s = Metrics.snapshot m in
  check Alcotest.int "counters stay listed" 2 (List.length s.Metrics.counters);
  check Alcotest.bool "empty histograms and timers are left out" true
    (s.Metrics.histograms = [] && s.Metrics.timers = []);
  check Alcotest.bool "no infinite field" false (contains (Metrics.to_json s) "inf");
  check Alcotest.bool "no quantiles of an empty histogram" true
    (Metrics.quantiles m "h" [ 0.5 ] = None);
  Metrics.incr c;
  Metrics.observe h 7.0;
  check Alcotest.int "the handle counts after a reset" 1 (Metrics.counter_value m "c");
  check Alcotest.int "the histogram samples after a reset" 1
    (List.length (Metrics.snapshot m).Metrics.histograms)

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter ~registry:m ~doc:"compiles" "plan.compile");
  let json = Metrics.to_json (Metrics.snapshot m) in
  check Alcotest.bool "counter in json" true (contains json "\"plan.compile\":1");
  check Alcotest.bool "object shape" true (contains json "\"counters\":{")

(* Counters bumped from several domains at once lose no update. *)
let test_metrics_concurrent () =
  let m = Metrics.create () in
  let c = Metrics.counter ~registry:m ~doc:"bumps" "c" in
  let h = Metrics.histogram ~registry:m ~doc:"samples" "h" in
  let per = 20_000 in
  let worker () =
    Domain.spawn (fun () ->
        for i = 1 to per do
          Metrics.incr c;
          if i mod 10 = 0 then Metrics.observe h 1.0
        done)
  in
  List.iter Domain.join [ worker (); worker () ];
  check Alcotest.int "every bump" (2 * per) (Metrics.counter_value m "c");
  match (Metrics.snapshot m).Metrics.histograms with
  | [ (_, s) ] -> check Alcotest.int "every sample" (2 * per / 10) s.Metrics.h_count
  | _ -> Alcotest.fail "expected one histogram"

(* ---- the metric catalogue ------------------------------------------------

   [Xc_util.Meters] registers every metric the library emits; DESIGN.md
   lists them in one table between two marker comments, one row per
   metric: | `name` | kind | meaning |. The two must agree row for row,
   in both directions. *)

let design_rows () =
  let ic = open_in "../DESIGN.md" in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let rec skip_to_begin = function
    | [] -> Alcotest.fail "DESIGN.md has no metric-catalogue table"
    | l :: rest when String.trim l = "<!-- metric-catalogue:begin -->" -> rest
    | _ :: rest -> skip_to_begin rest
  in
  let rec rows acc = function
    | [] -> Alcotest.fail "DESIGN.md's metric-catalogue table is not closed"
    | l :: _ when String.trim l = "<!-- metric-catalogue:end -->" -> List.rev acc
    | l :: rest -> (
      match List.map String.trim (String.split_on_char '|' l) with
      | [ ""; name; kind; meaning; "" ]
        when String.length name > 2 && name.[0] = '`' && name.[String.length name - 1] = '`' ->
        rows ((String.sub name 1 (String.length name - 2), kind, meaning) :: acc) rest
      | _ -> rows acc rest)
  in
  rows [] (skip_to_begin lines)

let test_metric_catalogue () =
  let code =
    List.map (fun (n, k, d) -> (n, Metrics.kind_name k, d)) (Xc_util.Meters.catalogue ())
  in
  let doc = List.sort compare (design_rows ()) in
  let show (n, k, d) = Printf.sprintf "| `%s` | %s | %s |" n k d in
  let missing = List.filter (fun r -> not (List.mem r doc)) code in
  let extra = List.filter (fun r -> not (List.mem r code)) doc in
  if missing <> [] || extra <> [] then
    Alcotest.failf "DESIGN.md's metric table and Xc_util.Meters differ.\nemitted, not documented:\n%s\ndocumented, not emitted:\n%s"
      (String.concat "\n" (List.map show missing))
      (String.concat "\n" (List.map show extra));
  check Alcotest.int "one row per metric" (List.length code) (List.length doc);
  check Alcotest.bool "the daemon's Stats lists every counter" true
    (let json = Metrics.to_json (Metrics.snapshot Metrics.global) in
     List.for_all
       (fun (n, k, _) -> k <> "counter" || contains json (Printf.sprintf "\"%s\":" n))
       code)

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
          Alcotest.test_case "json" `Quick test_metrics_json;
          Alcotest.test_case "concurrent updates" `Quick test_metrics_concurrent;
          Alcotest.test_case "catalogue matches DESIGN.md" `Quick test_metric_catalogue ] ) ]
