(* Tests for the batched estimation engine: transition matrices must
   store exactly the floats the step-by-step estimator computes,
   Plan.Batch must be bit-identical to Estimate.selectivity on every
   dataset's workload (worker-count independence is test_cohort's), and
   the path-expression intern and histogram quantiles that serve it
   must behave. *)

module Synopsis = Xc_core.Synopsis
module S = Synopsis.Sealed
module Estimate = Xc_core.Estimate
module Plan = Xc_core.Plan
module Transition = Xc_core.Transition
module Build = Xc_core.Build
module Runner = Xc_exp.Runner
module Metrics = Xc_util.Metrics
module Path_expr = Xc_twig.Path_expr

let check = Alcotest.check

(* exact equality: the batch engine's contract is bit-identical floats *)
let check0 msg = Alcotest.check (Alcotest.float 0.0) msg

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

(* every distinct path expression labelling an edge of the workload *)
let workload_exprs ds =
  let tbl = Hashtbl.create 64 in
  let rec walk n =
    List.iter
      (fun (expr, child) ->
        Hashtbl.replace tbl expr ();
        walk child)
      n.Xc_twig.Twig_query.edges
  in
  List.iter (fun e -> walk e.Xc_twig.Workload.query.Xc_twig.Twig_query.root) ds.Runner.workload;
  Hashtbl.fold (fun e () acc -> e :: acc) tbl []

let small_synopsis ds =
  Build.run (Build.budget ~bstr_kb:10 ~bval_kb:60 ()) ds.Runner.reference

(* ---- transition matrices ---------------------------------------------- *)

(* every row of every workload expression's matrix must be bitwise the
   dist Estimate.reach_dist builds from that source — including the
   multi-step compositions and bounded descendant closures — whatever
   order the rows are built in: rows are built on demand and appended,
   so a shuffled order lays them out differently in the buffers *)
let test_matrix_rows () =
  let ds = Runner.imdb ~scale:0.01 ~n_queries:40 () in
  let syn = small_synopsis ds in
  let exprs = workload_exprs ds in
  let rng = Xc_util.Rng.create 7 in
  check Alcotest.bool "workload has expressions" true (List.length exprs > 0);
  List.iter
    (fun expr ->
      let mt = Transition.create syn expr in
      check Alcotest.int "created empty" 0 (Transition.rows_built mt);
      let order = Array.init (S.n_nodes syn) Fun.id in
      for i = Array.length order - 1 downto 1 do
        let j = Xc_util.Rng.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      Array.iter (Transition.ensure mt) order;
      check Alcotest.int "one row per node" (S.n_nodes syn) (Transition.rows_built mt);
      for u = 0 to S.n_nodes syn - 1 do
        let row = Transition.row mt u in
        let ref_d = Estimate.reach_dist syn expr u in
        check Alcotest.(array int) "row targets" ref_d.Estimate.d_idx row.Estimate.d_idx;
        Array.iteri
          (fun i w ->
            check Alcotest.bool "row weight bits" true
              (bits_equal w ref_d.Estimate.d_w.(i)))
          row.Estimate.d_w
      done)
    exprs

let test_matrix_root_row () =
  let ds = Runner.imdb ~scale:0.01 ~n_queries:40 () in
  let syn = small_synopsis ds in
  List.iter
    (fun expr ->
      let r = Transition.root_row syn expr in
      let ref_d = Estimate.root_reach_dist syn expr in
      check Alcotest.(array int) "root targets" ref_d.Estimate.d_idx r.Estimate.d_idx;
      Array.iteri
        (fun i w ->
          check Alcotest.bool "root weight bits" true
            (bits_equal w ref_d.Estimate.d_w.(i)))
        r.Estimate.d_w)
    (workload_exprs ds)

(* ---- batch = uncached, on every dataset -------------------------------- *)

let batch_equivalence_on ds =
  let syn = small_synopsis ds in
  let engine = Plan.Batch.create syn in
  let queries = Runner.workload_queries ds in
  let run () = Plan.Batch.run_prepared ~domains:1 engine (Plan.Batch.prepare engine queries) in
  let cold = run () in
  let warm = run () in
  Array.iteri
    (fun i q ->
      let uncached = Estimate.selectivity syn q in
      check Alcotest.bool (Printf.sprintf "batch cold = uncached, bitwise (query %d)" i) true
        (bits_equal uncached cold.(i));
      check Alcotest.bool (Printf.sprintf "batch warm = uncached, bitwise (query %d)" i) true
        (bits_equal uncached warm.(i)))
    queries;
  check Alcotest.bool "matrices built" true (Plan.Batch.n_matrices engine > 0);
  check Alcotest.bool "queries cached" true (Plan.Batch.n_queries engine > 0);
  Plan.Batch.clear engine;
  check Alcotest.int "cleared" 0 (Plan.Batch.n_matrices engine)

let test_batch_imdb () = batch_equivalence_on (Runner.imdb ~scale:0.02 ~n_queries:45 ())
let test_batch_xmark () = batch_equivalence_on (Runner.xmark ~scale:0.02 ~n_queries:45 ())
let test_batch_dblp () = batch_equivalence_on (Runner.dblp ~scale:0.02 ~n_queries:45 ())

(* a one-query compile builds only the rows its query reaches: on XMark,
   every workload query with an inner edge (a root edge reads no
   matrix), compiled alone on a fresh engine, builds fewer rows than one
   per node per matrix and stores no more entries than its matrices
   built in full — fewer over the workload, since a query rarely reaches
   every non-empty row *)
let test_one_query_rows () =
  let ds = Runner.xmark ~scale:0.02 ~n_queries:40 () in
  let syn = small_synopsis ds in
  let n = S.n_nodes syn in
  let rec exprs n = List.concat_map (fun (e, c) -> e :: exprs c) n.Xc_twig.Twig_query.edges in
  let total = ref 0 and total_full = ref 0 in
  Array.iter
    (fun q ->
      let inner =
        List.concat_map (fun (_, c) -> exprs c) q.Xc_twig.Twig_query.root.Xc_twig.Twig_query.edges
        |> List.map Path_expr.intern |> List.sort_uniq compare
      in
      if inner <> [] then begin
        let engine = Plan.Batch.create syn in
        let got = (Plan.Batch.run_prepared ~domains:1 engine (Plan.Batch.prepare_one engine q)).(0) in
        check Alcotest.bool "= oracle, bitwise" true (bits_equal got (Estimate.selectivity syn q));
        let full_nnz =
          List.fold_left
            (fun acc id ->
              let mt = Transition.create syn (Path_expr.of_id id) in
              for u = 0 to n - 1 do
                Transition.ensure mt u
              done;
              acc + Transition.nnz mt)
            0 inner
        in
        let mats = Plan.Batch.n_matrices engine in
        check Alcotest.int "one matrix per inner expression" (List.length inner) mats;
        check Alcotest.bool "fewer rows than nodes x matrices" true
          (Plan.Batch.rows_built engine < n * mats);
        check Alcotest.bool "no more entries than the full matrices" true
          (Plan.Batch.nnz engine <= full_nnz);
        total := !total + Plan.Batch.nnz engine;
        total_full := !total_full + full_nnz
      end)
    (Runner.workload_queries ds);
  check Alcotest.bool "the workload has inner edges" true (!total_full > 0);
  check Alcotest.bool
    (Printf.sprintf "%d entries stored over the workload, fewer than %d" !total !total_full)
    true (!total < !total_full)

(* On random documents and random twigs (every predicate kind, empty
   edge expressions and root predicates included), a fresh engine asked
   one query, an engine asked all of them as one batch, and the oracle
   agree bit for bit. *)
let one_vs_batch_vs_oracle =
  QCheck.Test.make ~name:"one query = batch = oracle, bitwise" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xc_util.Rng.create seed in
      let doc = Random_doc.generate ~values:true rng in
      let syn = Synopsis.freeze (Xc_core.Reference.build ~min_extent:1 doc) in
      let queries = Array.init 8 (fun _ -> Random_doc.twig rng) in
      let batch =
        let engine = Plan.Batch.create syn in
        Plan.Batch.run_prepared ~domains:1 engine (Plan.Batch.prepare engine queries)
      in
      Array.iteri
        (fun i q ->
          let engine = Plan.Batch.create syn in
          let one =
            (Plan.Batch.run_prepared ~domains:1 engine (Plan.Batch.prepare_one engine q)).(0)
          in
          let oracle = Estimate.selectivity syn q in
          if not (bits_equal one oracle && bits_equal batch.(i) oracle) then
            QCheck.Test.fail_reportf "%a: one query %h, batch %h, oracle %h" Xc_twig.Twig_query.pp
              q one batch.(i) oracle)
        queries;
      true)

let test_facade_batch () =
  let ds = Runner.imdb ~scale:0.01 ~n_queries:30 () in
  let syn = small_synopsis ds in
  let queries = Runner.workload_queries ds in
  let options = Xcluster.Serve.options ~domains:1 () in
  let res =
    match Xcluster.Serve.estimate_batch ~options syn queries with
    | Ok res -> res
    | Error e -> Alcotest.failf "estimate_batch: %s" (Xcluster.Serve.Error.to_string e)
  in
  Array.iteri
    (fun i q -> check0 "facade batch = estimate" (Xcluster.Query.estimate syn q) res.(i))
    queries;
  check Alcotest.bool "engine reachable" true
    (Plan.Batch.n_matrices (Xcluster.Serve.batch_engine syn) > 0)

(* ---- path-expression interning ----------------------------------------- *)

let test_intern_roundtrip () =
  let parse s =
    (* reuse the twig parser: a single-edge query's root edge is the expr *)
    match (Xc_twig.Twig_parse.parse s).Xc_twig.Twig_query.root.Xc_twig.Twig_query.edges with
    | [ (expr, _) ] -> expr
    | _ -> Alcotest.fail "expected one root edge"
  in
  let exprs =
    List.map parse [ "//a/b"; "//a//b"; "/a/b"; "//a/*"; "//b"; "/a//b/c" ]
  in
  let ids = List.map Path_expr.intern exprs in
  check Alcotest.int "distinct expressions, distinct ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter2
    (fun e id ->
      check Alcotest.int "idempotent" id (Path_expr.intern e);
      check Alcotest.bool "of_id round-trips" true (Path_expr.equal e (Path_expr.of_id id)))
    exprs ids;
  check Alcotest.bool "count covers them" true
    (Path_expr.interned_count () >= List.length exprs);
  Alcotest.check_raises "unknown id rejected"
    (Invalid_argument (Printf.sprintf "Path_expr.of_id: unknown id %d" max_int))
    (fun () -> ignore (Path_expr.of_id max_int))

(* ---- histogram quantiles ----------------------------------------------- *)

let test_quantiles () =
  let m = Metrics.create () in
  let lat = Metrics.histogram ~registry:m ~doc:"samples" "lat" in
  for i = 1 to 1000 do
    Metrics.observe lat (float_of_int i)
  done;
  (match Metrics.quantiles m "lat" [ 0.5; 0.95; 0.99 ] with
  | Some [ (_, p50); (_, p95); (_, p99) ] ->
    check Alcotest.bool "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
    check Alcotest.bool "p50 in range" true (1.0 <= p50 && p50 <= 1000.0);
    (* eighth-octave buckets: within ~9% of the true quantile *)
    check Alcotest.bool "p50 accuracy" true (450.0 <= p50 && p50 <= 550.0);
    check Alcotest.bool "p99 accuracy" true (900.0 <= p99 && p99 <= 1000.0)
  | _ -> Alcotest.fail "expected three quantiles");
  check Alcotest.bool "missing histogram" true (Metrics.quantiles m "nope" [ 0.5 ] = None);
  (* single observation: every quantile collapses to it via clamping *)
  Metrics.observe (Metrics.histogram ~registry:m ~doc:"one sample" "one") 7.0;
  (match Metrics.quantiles m "one" [ 0.0; 0.5; 1.0 ] with
  | Some qs -> List.iter (fun (_, v) -> check0 "clamped to the sample" 7.0 v) qs
  | None -> Alcotest.fail "expected quantiles");
  (* empty stat: nan *)
  let empty =
    { Metrics.h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
      h_buckets = [] }
  in
  check Alcotest.bool "empty is nan" true (Float.is_nan (Metrics.quantile_of_stat empty 0.5))

(* Regression: a skewed latency sample whose p95 and p99 live in the
   same power-of-two octave. Whole-octave buckets lumped all three
   clusters into (512, 1024], reporting a p95 ~25% above the true
   value and indistinguishable from p99; eighth-octave buckets
   resolve the clusters. *)
let test_quantile_resolution () =
  let m = Metrics.create () in
  let lat = Metrics.histogram ~registry:m ~doc:"samples" "lat" in
  for _ = 1 to 940 do Metrics.observe lat 560.0 done;
  for _ = 1 to 50 do Metrics.observe lat 800.0 done;
  for _ = 1 to 10 do Metrics.observe lat 1010.0 done;
  match Metrics.quantiles m "lat" [ 0.95; 0.99 ] with
  | Some [ (_, p95); (_, p99) ] ->
    (* the true p95 is 800 (samples 941..990); demand < 10% error *)
    check Alcotest.bool "p95 resolves the mid cluster" true
      (Float.abs (p95 -. 800.0) /. 800.0 < 0.10);
    (* p99 (true value 800..1010 boundary) must not collapse into p95 *)
    check Alcotest.bool "p99 distinct from p95" true (p99 > p95 *. 1.05)
  | _ -> Alcotest.fail "expected two quantiles"

let () =
  Alcotest.run "batch"
    [ ( "transition",
        [ Alcotest.test_case "matrix rows = reach_dist" `Slow test_matrix_rows;
          Alcotest.test_case "root rows" `Quick test_matrix_root_row;
          Alcotest.test_case "one query builds few rows" `Quick test_one_query_rows;
          QCheck_alcotest.to_alcotest one_vs_batch_vs_oracle ] );
      ( "equivalence",
        [ Alcotest.test_case "imdb" `Slow test_batch_imdb;
          Alcotest.test_case "xmark" `Slow test_batch_xmark;
          Alcotest.test_case "dblp" `Slow test_batch_dblp;
          Alcotest.test_case "facade" `Quick test_facade_batch ] );
      ( "intern",
        [ Alcotest.test_case "round-trip" `Quick test_intern_roundtrip ] );
      ( "quantiles",
        [ Alcotest.test_case "histogram quantiles" `Quick test_quantiles;
          Alcotest.test_case "same-octave percentiles resolve" `Quick
            test_quantile_resolution ] ) ]
