(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 6) plus the DESIGN.md ablations, and runs Bechamel
   micro-benchmarks of the core operations.

   Usage:  dune exec bench/main.exe [-- TARGET...]
   Targets: table1 table2 fig8a fig8b fig8c fig9 negative ablation-delta
            ablation-text ablation-numeric auto-split seal build serve
            cold fault chaos update micro (default: all of them, in that
            order)

   Every run ends with a JSON metrics block (batch compiles and hits,
   transition rows built, pool candidate evaluations, expansion depths,
   sweep latency) accumulated across the targets that ran.

   Environment (a value that does not parse exits 2, naming the
   variable):
     XC_SCALE    document scale factor (default 1.0 = paper scale)
     XC_QUERIES  workload size (default 400)
     XC_PASSES   repeated-workload passes for the seal/serve targets
                 (default 5), and batches per concurrent client in the
                 chaos target (default 3)
     XC_DOMAINS  worker count for the build target's parallel leg
                 (default 4) and the serve target's query sharding
                 (default 1; also the library-wide Par default).
                 Honored exactly — oversubscription warns loudly, and
                 both targets fail if the pool observably engaged a
                 different width than requested.
     XC_BUILD_REPS  repetitions per leg of the build target (default 3)
     XC_FAULTS   fault-injection spec for the fault target (see
                 Xc_util.Fault); when unset the target installs its own
                 all-kinds storm
     XC_UPDATES  auction events in the update target's mutation stream
                 (default 64, half opens / half closes)
     XC_CHAOS_SEED  offset added to every storm seed of the chaos
                 target, so a CI matrix replays distinct reproducible
                 storms over the same fault sites (default 0). *)

let env_value name parse ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match parse s with
    | Some v -> v
    | None ->
      Printf.eprintf "bench: %s=%S is not a valid value\n%!" name s;
      exit 2)

let env_int name ~default = env_value name int_of_string_opt ~default
let env_float name ~default = env_value name float_of_string_opt ~default
let scale = env_float "XC_SCALE" ~default:1.0
let n_queries = env_int "XC_QUERIES" ~default:400

let ppf = Format.std_formatter

let append_row file json =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Format.fprintf ppf "  appended to %s@." file

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Format.fprintf ppf "[%s: %.1fs]@." name (Unix.gettimeofday () -. t0);
  r

let imdb = lazy (timed "setup imdb" (fun () -> Xc_exp.Runner.imdb ~scale ~n_queries ()))
let xmark = lazy (timed "setup xmark" (fun () -> Xc_exp.Runner.xmark ~scale ~n_queries ()))
let dblp = lazy (timed "setup dblp" (fun () -> Xc_exp.Runner.dblp ~scale ~n_queries ()))
let datasets () = [ Lazy.force imdb; Lazy.force xmark ]

let run_table1 () =
  Xc_exp.Report.table1 ppf (List.map Xc_exp.Runner.table1 (datasets ()))

let run_table2 () =
  Xc_exp.Report.table2 ppf (List.map Xc_exp.Runner.table2 (datasets ()))

let run_fig8 ds =
  let points = timed ("fig8 " ^ ds.Xc_exp.Runner.name) (fun () -> Xc_exp.Runner.fig8 ds) in
  Xc_exp.Report.fig8 ppf ~name:ds.Xc_exp.Runner.name points

let run_fig9 () =
  let rows =
    List.map
      (fun ds ->
        ( ds.Xc_exp.Runner.name,
          timed ("fig9 " ^ ds.Xc_exp.Runner.name) (fun () -> Xc_exp.Runner.fig9 ds) ))
      (datasets ())
  in
  Xc_exp.Report.fig9 ppf rows

let run_negative () =
  let rows =
    List.map
      (fun ds ->
        ( ds.Xc_exp.Runner.name,
          timed ("negative " ^ ds.Xc_exp.Runner.name) (fun () ->
              Xc_exp.Runner.negative_check ds) ))
      (datasets ())
  in
  Xc_exp.Report.negative ppf rows

let run_ablation_delta () =
  List.iter
    (fun ds ->
      let rows =
        timed ("ablation-delta " ^ ds.Xc_exp.Runner.name) (fun () ->
            Xc_exp.Runner.ablation_delta ds)
      in
      Xc_exp.Report.ablation_delta ppf ~name:ds.Xc_exp.Runner.name rows)
    (datasets ())

let run_ablation_numeric () =
  List.iter
    (fun ds ->
      let rows =
        timed ("ablation-numeric " ^ ds.Xc_exp.Runner.name) (fun () ->
            Xc_exp.Runner.ablation_numeric ds)
      in
      Xc_exp.Report.ablation_numeric ppf ~name:ds.Xc_exp.Runner.name rows)
    (datasets ())

let run_auto_split () =
  List.iter
    (fun ds ->
      let rows =
        timed ("auto-split " ^ ds.Xc_exp.Runner.name) (fun () ->
            Xc_exp.Runner.auto_split_demo ds)
      in
      Xc_exp.Report.auto_split ppf ~name:ds.Xc_exp.Runner.name rows)
    (datasets ())

let run_ablation_text () =
  let ds = Lazy.force imdb in
  let rows =
    timed ("ablation-text " ^ ds.Xc_exp.Runner.name) (fun () ->
        Xc_exp.Runner.ablation_text ds)
  in
  Xc_exp.Report.ablation_text ppf ~name:ds.Xc_exp.Runner.name rows

(* A query answered the way a one-shot caller is answered: a one-query
   batch on [engine], without the serving layer's fallback, so a fault
   in the engine fails the gate instead of being answered by the
   oracle. *)
let one_query engine q =
  let module B = Xc_core.Plan.Batch in
  (B.run_prepared ~domains:1 engine (B.prepare_one engine q)).(0)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---- frozen-vs-builder estimation (the Builder/Sealed split) -----------
   The same XMark workload estimated through the hashtable-walking
   builder estimator, the CSR sealed estimator, and one-query batches
   on one engine, at the paper's default 20KB/150KB budgets. The three
   must agree bit for bit (the target exits non-zero otherwise); the
   speedup columns are what the freeze step and the compiled engine buy
   on repeated estimation. Each run appends a JSON line to
   BENCH_seal.json so the speedups are tracked across PRs. *)

let run_seal () =
  let passes = env_int "XC_PASSES" ~default:5 in
  let ds = Lazy.force xmark in
  let builder =
    timed "seal: xclusterbuild" (fun () ->
        Xc_core.Build.run_builder (Xc_core.Build.budget ()) ds.Xc_exp.Runner.reference)
  in
  let syn = Xc_core.Synopsis.freeze builder in
  let queries = List.map (fun e -> e.Xc_twig.Workload.query) ds.Xc_exp.Runner.workload in
  let time estimate =
    let t0 = Unix.gettimeofday () in
    let sum = ref 0.0 in
    for _ = 1 to passes do
      List.iter (fun q -> sum := !sum +. estimate q) queries
    done;
    (Unix.gettimeofday () -. t0, !sum)
  in
  let t_builder, sum_builder = time (Xc_core.Estimate.selectivity_builder builder) in
  let t_sealed, sum_sealed = time (Xc_core.Estimate.selectivity syn) in
  let engine = Xc_core.Plan.Batch.create syn in
  let t_one, sum_one = time (one_query engine) in
  let max_diff, bitwise =
    List.fold_left
      (fun (acc, bitwise) q ->
        let b = Xc_core.Estimate.selectivity_builder builder q in
        let s = Xc_core.Estimate.selectivity syn q in
        let p = one_query engine q in
        ( Float.max acc (Float.max (Float.abs (b -. s)) (Float.abs (b -. p))),
          bitwise && same_bits b s && same_bits b p ))
      (0.0, true) queries
  in
  let per t = 1e6 *. t /. float_of_int (passes * List.length queries) in
  let speedup_sealed = t_builder /. Float.max t_sealed 1e-9 in
  let speedup_one = t_builder /. Float.max t_one 1e-9 in
  Format.fprintf ppf "@.Frozen-vs-builder estimation (%s: %d queries x %d passes)@."
    ds.Xc_exp.Runner.name (List.length queries) passes;
  Format.fprintf ppf "  builder:  %7.3f s  (%.1f us/estimate)@." t_builder (per t_builder);
  Format.fprintf ppf "  sealed:   %7.3f s  (%.1f us/estimate)  %.1fx@." t_sealed
    (per t_sealed) speedup_sealed;
  Format.fprintf ppf "  one-query batch:  %7.3f s  (%.1f us/estimate)  %.1fx@." t_one
    (per t_one) speedup_one;
  Format.fprintf ppf
    "  max |diff| across the three paths = %g  bitwise: %b  (sums %g %g %g)@."
    max_diff bitwise sum_builder sum_sealed sum_one;
  let json =
    Printf.sprintf
      "{\"ts\":%.0f,\"dataset\":%S,\"queries\":%d,\"passes\":%d,\"t_builder_s\":%.4f,\"t_sealed_s\":%.4f,\"t_one_s\":%.4f,\"speedup_sealed\":%.2f,\"speedup_one\":%.2f,\"max_diff\":%g,\"bitwise\":%b}"
      (Unix.gettimeofday ()) ds.Xc_exp.Runner.name (List.length queries) passes
      t_builder t_sealed t_one speedup_sealed speedup_one max_diff bitwise
  in
  append_row "BENCH_seal.json" json;
  if not bitwise then begin
    Format.fprintf ppf "  ERROR: estimation paths diverged (max diff %g)@." max_diff;
    exit 1
  end

(* ---- construction speedup ---------------------------------------------
   XCLUSTERBUILD timed three ways at the paper's default budgets:
   sequential (pre-index baseline: full node-table scans for candidate
   groups, one scoring worker), incremental (Builder group index, one
   worker), and parallel (group index + XC_DOMAINS scoring workers).
   The three sealed outputs must be identical — the candidate total
   order makes the greedy sequence independent of evaluation strategy —
   so the speedup columns are pure construction-cost wins. Each run
   appends a JSON line to BENCH_build.json. *)

let sealed_mismatches a b =
  let module S = Xc_core.Synopsis.Sealed in
  if S.n_nodes a <> S.n_nodes b || S.n_edges a <> S.n_edges b then
    max (abs (S.n_nodes a - S.n_nodes b)) (abs (S.n_edges a - S.n_edges b))
  else begin
    let mism = ref 0 in
    if S.root_sid a <> S.root_sid b then incr mism;
    if S.value_bytes a <> S.value_bytes b then incr mism;
    for i = 0 to S.n_nodes a - 1 do
      if S.sid_of_index a i <> S.sid_of_index b i then incr mism;
      if (S.label a i :> int) <> (S.label b i :> int) then incr mism;
      if S.count a i <> S.count b i then incr mism
    done;
    let ia = S.child_idx a and ib = S.child_idx b in
    let wa = S.child_avg a and wb = S.child_avg b in
    for e = 0 to S.n_edges a - 1 do
      if ia.(e) <> ib.(e) then incr mism;
      if wa.(e) <> wb.(e) then incr mism
    done;
    !mism
  end

let run_build () =
  let par_domains = max 1 (env_int "XC_DOMAINS" ~default:4) in
  (* An explicitly requested worker count is honored exactly — a
     silent min() against the core count once turned "domains":4 into a
     single-worker run that still reported itself as parallel. We warn
     loudly about oversubscription instead, and after the parallel leg
     we verify against what the pool *observably* did. *)
  let cores = Domain.recommended_domain_count () in
  if par_domains > cores then
    Format.fprintf ppf
      "WARNING: XC_DOMAINS=%d oversubscribes this host (%d cores); expect \
       scheduling overhead, not speedup@."
      par_domains cores;
  let reps = max 1 (env_int "XC_BUILD_REPS" ~default:3) in
  let bench_ds ds =
    let reference = ds.Xc_exp.Runner.reference in
    (* paper budgets (20KB/150KB) scaled with the document so the merge
       loop runs — and the pool is exercised — at every XC_SCALE *)
    let bstr_kb = max 1 (int_of_float (Float.round (20.0 *. scale))) in
    let bval_kb = max 4 (int_of_float (Float.round (150.0 *. scale))) in
    let timer_total name =
      match
        List.assoc_opt name Xc_util.Metrics.((snapshot global).timers)
      with
      | Some t -> t.Xc_util.Metrics.t_total
      | None -> 0.0
    in
    (* min over [reps] runs — construction is deterministic, so the
       spread is scheduler noise and the minimum is the honest figure *)
    let construct pool =
      let best = ref None in
      let evals_once = ref 0 in
      let sealed_once = ref None in
      for rep = 1 to reps do
        let evals0 = Xc_util.Metrics.(counter_value global "pool.cand_evals") in
        let p1_0 = timer_total "build.phase1" and p2_0 = timer_total "build.phase2" in
        let t0 = Unix.gettimeofday () in
        let sealed =
          Xc_core.Build.run (Xc_core.Build.budget ~pool ~bstr_kb ~bval_kb ()) reference
        in
        let dt = Unix.gettimeofday () -. t0 in
        if rep = 1 then begin
          evals_once :=
            Xc_util.Metrics.(counter_value global "pool.cand_evals") - evals0;
          sealed_once := Some sealed
        end;
        let p1 = timer_total "build.phase1" -. p1_0 in
        let p2 = timer_total "build.phase2" -. p2_0 in
        match !best with
        | Some (dt', _, _) when dt' <= dt -> ()
        | _ -> best := Some (dt, p1, p2)
      done;
      let dt, p1, p2 = Option.get !best in
      (dt, !evals_once, Option.get !sealed_once, p1, p2)
    in
    let base = Xc_core.Pool.default_config in
    let t_seq, evals_seq, s_seq, p1_seq, p2_seq =
      construct { base with full_scan = true; domains = 1 }
    in
    let t_inc, evals_inc, s_inc, p1_inc, p2_inc =
      construct { base with domains = 1 }
    in
    Xc_util.Par.reset_usage ();
    let t_par, _, s_par, p1_par, p2_par =
      construct { base with domains = par_domains }
    in
    (* what the pool observably did during the parallel leg, not what
       the config asked for *)
    let domains_used = Xc_util.Par.max_used () in
    let widest_batch = Xc_util.Par.max_batch () in
    let expected_used =
      if par_domains > 1 && widest_batch >= Xc_util.Par.seq_cutoff then
        min par_domains widest_batch
      else 1
    in
    let max_diff =
      max (sealed_mismatches s_seq s_inc) (sealed_mismatches s_seq s_par)
    in
    let speedup_inc = t_seq /. Float.max t_inc 1e-9 in
    let speedup_par = t_seq /. Float.max t_par 1e-9 in
    Format.fprintf ppf "@.Synopsis construction (%s, %d reference nodes)@."
      ds.Xc_exp.Runner.name
      (Xc_core.Synopsis.Builder.n_nodes reference);
    Format.fprintf ppf
      "  sequential (full scan): %7.3f s  [p1 %.3f p2 %.3f]  (%d cand evals)@." t_seq
      p1_seq p2_seq evals_seq;
    Format.fprintf ppf
      "  incremental (group index): %7.3f s  [p1 %.3f p2 %.3f]  (%d cand evals)  %.1fx@."
      t_inc p1_inc p2_inc evals_inc speedup_inc;
    Format.fprintf ppf
      "  parallel (%d domains requested, %d observed, widest batch %d):  %7.3f s  [p1 %.3f p2 %.3f]  %.1fx@."
      par_domains domains_used widest_batch t_par p1_par p2_par speedup_par;
    Format.fprintf ppf "  max node/edge diff across the three = %d@." max_diff;
    let json =
      Printf.sprintf
        "{\"ts\":%.0f,\"dataset\":%S,\"scale\":%.3f,\"domains\":%d,\"domains_used\":%d,\"cores\":%d,\"t_seq_s\":%.4f,\"t_inc_s\":%.4f,\"t_par_s\":%.4f,\"speedup_inc\":%.2f,\"speedup_par\":%.2f,\"evals_seq\":%d,\"evals_inc\":%d,\"max_diff\":%d}"
        (Unix.gettimeofday ()) ds.Xc_exp.Runner.name scale par_domains domains_used
        cores t_seq t_inc t_par speedup_inc speedup_par evals_seq evals_inc max_diff
    in
    append_row "BENCH_build.json" json;
    if max_diff <> 0 then begin
      Format.fprintf ppf "  ERROR: construction paths diverged (diff %d)@." max_diff;
      exit 1
    end;
    if domains_used <> expected_used then begin
      Format.fprintf ppf
        "  ERROR: requested %d scoring workers but the pool engaged %d (widest \
         batch %d, seq cutoff %d) — parallel leg did not run at the requested \
         width@."
        par_domains domains_used widest_batch Xc_util.Par.seq_cutoff;
      exit 1
    end
  in
  List.iter bench_ds [ Lazy.force xmark; Lazy.force imdb ]

(* ---- batched serving --------------------------------------------------
   The serving benchmark behind BENCH_serve.json: the XMark workload
   estimated through the oracle (Estimate.selectivity, one pass:
   t_oracle_cold_s — it keeps no state, so every pass is cold) and
   through Plan.Batch's cohort sweep (interned transition matrices +
   XC_DOMAINS-way sharding), whose cold side is query compilation
   (prepare_s). The timed loop then runs [passes] warm sweeps.
   Correctness gates (any failure exits non-zero): sweep estimates must
   be bit-identical to the oracle and across worker counts 1/2/4. *)

let run_serve () =
  let passes = env_int "XC_PASSES" ~default:5 in
  let requested = Xc_util.Par.env_domains () in
  let ds = Lazy.force xmark in
  let syn =
    timed "serve: xclusterbuild" (fun () ->
        Xcluster.Build.compress
          (Xcluster.Build.budget ~bstr_kb:20 ~bval_kb:150 ())
          ds.Xc_exp.Runner.reference)
  in
  let queries = Xc_exp.Runner.workload_queries ds in
  let nq = Array.length queries in
  let t0 = Unix.gettimeofday () in
  let oracle = Array.map (Xc_core.Estimate.selectivity syn) queries in
  let t_oracle_cold = Unix.gettimeofday () -. t0 in
  let engine = Xc_core.Plan.Batch.create syn in
  let t0 = Unix.gettimeofday () in
  let prepared = Xc_core.Plan.Batch.prepare engine queries in
  let prepare_s = Unix.gettimeofday () -. t0 in
  (* warm-up: one sweep before the metrics reset, so first-touch work
     (cohort-plan build, arena allocation, page faults on the matrix
     buffers) is paid — and reported — here instead of in the timed
     loop *)
  let t0 = Unix.gettimeofday () in
  ignore (Xc_core.Plan.Batch.run_prepared engine prepared);
  let warmup_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  Xcluster.Metrics.reset ();
  Xc_util.Par.reset_usage ();
  (* every timed loop runs before the first ~domains:2 call: spawned
     worker domains, even parked ones, turn every minor collection into
     a multi-domain stop-the-world rendezvous *)
  let cohort_res = ref [||] in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to passes do
    cohort_res := Xc_core.Plan.Batch.run_prepared engine prepared
  done;
  let t_cohort = Unix.gettimeofday () -. t0 in
  let cohort_res = !cohort_res in
  let domains_used = Xc_util.Par.max_used () in
  let n_cohorts, _, n_distinct = Xc_core.Plan.Batch.cohort_stats prepared in
  let cohort_sharing = float_of_int n_distinct /. float_of_int (max 1 n_cohorts) in
  let max_diff_cohort =
    let d = ref 0.0 in
    Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. oracle.(i)))) cohort_res;
    !d
  in
  let bitwise_oracle = Array.for_all2 same_bits cohort_res oracle in
  (* bitwise determinism across worker counts: the sharding must never
     change a float *)
  let deterministic =
    List.for_all
      (fun d ->
        let r = Xc_core.Plan.Batch.run_prepared ~domains:d engine prepared in
        let ok = ref true in
        Array.iteri
          (fun i v ->
            if Int64.bits_of_float v <> Int64.bits_of_float cohort_res.(i) then ok := false)
          r;
        !ok)
      [ 1; 2; 4 ]
  in
  (* cold start: an eager decode vs a lazy mapped load of the same v3
     artifact, min over repeats (the artifact is page-cached, so this
     isolates decode work, which is what the lazy path removes) *)
  let v3_path = Filename.temp_file "xc_bench_serve" ".syn" in
  (match Xc_core.Codec.save v3_path syn with
  | Ok () -> ()
  | Error e -> failwith (Xc_core.Codec.error_to_string e));
  let time_load ~eager =
    let best = ref infinity in
    for _ = 1 to 20 do
      let t0 = Unix.gettimeofday () in
      (match Xc_core.Codec.load ~eager v3_path with
      | Ok s -> ignore (Xcluster.Query.n_nodes s)
      | Error e -> failwith (Xc_core.Codec.error_to_string e));
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    1000.0 *. !best
  in
  let startup_ms_eager = time_load ~eager:true in
  let startup_ms_lazy = time_load ~eager:false in
  let startup_speedup = startup_ms_eager /. Float.max startup_ms_lazy 1e-9 in
  (* first answer off the cold lazy map: deferred verification runs
     here, and the answer must still be bit-identical *)
  let lazy_syn =
    match Xc_core.Codec.load v3_path with
    | Ok s -> s
    | Error e -> failwith (Xc_core.Codec.error_to_string e)
  in
  let lazy_before =
    Xc_util.Metrics.counter_value Xc_util.Metrics.global "codec.lazy_verify"
  in
  let t0 = Unix.gettimeofday () in
  let first_answer = Xc_core.Estimate.selectivity lazy_syn queries.(0) in
  let first_answer_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let lazy_sections_verified =
    Xc_util.Metrics.counter_value Xc_util.Metrics.global "codec.lazy_verify"
    - lazy_before
  in
  let first_answer_identical = same_bits first_answer oracle.(0) in
  Sys.remove v3_path;
  let per t = 1e6 *. t /. float_of_int (passes * nq) in
  let qps_oracle = float_of_int nq /. Float.max t_oracle_cold 1e-9 in
  let qps_cohort = float_of_int (passes * nq) /. Float.max t_cohort 1e-9 in
  let cohort_ge_oracle = qps_cohort >= qps_oracle in
  Format.fprintf ppf "@.Batched serving (%s: %d queries x %d passes, %d domains)@."
    ds.Xc_exp.Runner.name nq passes requested;
  Format.fprintf ppf
    "  cold:     oracle pass %.4f s (%.0f estimates/s)   batch prepare %.4f s  [%d matrices, %d rows]@."
    t_oracle_cold qps_oracle prepare_s
    (Xc_core.Plan.Batch.n_matrices engine)
    (Xc_core.Plan.Batch.rows_built engine);
  Format.fprintf ppf
    "  cohort:   %7.3f s  (%.1f us/estimate)  %.0f estimates/s  (%.2fx oracle)   [%d cohorts, %.1f queries/cohort, warm-up %.1f ms]@."
    t_cohort (per t_cohort) qps_cohort
    (qps_cohort /. Float.max qps_oracle 1e-9)
    n_cohorts cohort_sharing warmup_ms;
  Format.fprintf ppf
    "  max |cohort - oracle| = %g   bitwise: %b   deterministic across 1/2/4 domains: %b@."
    max_diff_cohort bitwise_oracle deterministic;
  Format.fprintf ppf
    "  cold start: v3 eager %.3f ms   v3 lazy %.3f ms   (%.0fx)@."
    startup_ms_eager startup_ms_lazy startup_speedup;
  Format.fprintf ppf
    "  first answer off the map: %.3f ms, %d sections lazily verified, bit-identical: %b@."
    first_answer_ms lazy_sections_verified first_answer_identical;
  let json =
    Printf.sprintf
      "{\"ts\":%.0f,\"dataset\":%S,\"scale\":%.3f,\"queries\":%d,\"passes\":%d,\"domains\":%d,\"domains_used\":%d,\"qps_oracle\":%.0f,\"qps_cohort\":%.0f,\"t_cohort_s\":%.4f,\"cohorts\":%d,\"cohort_sharing\":%.2f,\"cohort_ge_oracle\":%b,\"warmup_ms\":%.2f,\"t_oracle_cold_s\":%.4f,\"prepare_s\":%.4f,\"n_matrices\":%d,\"rows_built\":%d,\"max_diff_cohort\":%g,\"bitwise_oracle\":%b,\"deterministic\":%b,\"startup_ms_eager\":%.4f,\"startup_ms_lazy\":%.4f,\"startup_speedup\":%.1f,\"first_answer_ms\":%.4f,\"lazy_sections_verified\":%d}"
      (Unix.gettimeofday ()) ds.Xc_exp.Runner.name scale nq passes requested
      domains_used qps_oracle qps_cohort t_cohort n_cohorts cohort_sharing
      cohort_ge_oracle warmup_ms t_oracle_cold prepare_s
      (Xc_core.Plan.Batch.n_matrices engine)
      (Xc_core.Plan.Batch.rows_built engine)
      max_diff_cohort bitwise_oracle deterministic startup_ms_eager
      startup_ms_lazy startup_speedup first_answer_ms lazy_sections_verified
  in
  append_row "BENCH_serve.json" json;
  if not bitwise_oracle then begin
    Format.fprintf ppf
      "  ERROR: cohort estimates diverged from the oracle (max diff %g)@."
      max_diff_cohort;
    exit 1
  end;
  if not deterministic then begin
    Format.fprintf ppf
      "  ERROR: batch estimates depend on the worker count@.";
    exit 1
  end;
  if not first_answer_identical then begin
    Format.fprintf ppf "  ERROR: lazily mapped synopsis answered differently@.";
    exit 1
  end;
  if startup_speedup < 10.0 then begin
    Format.fprintf ppf
      "  ERROR: a lazy v3 load is only %.1fx faster than an eager v3 decode \
       (gate: 10x)@."
      startup_speedup;
    exit 1
  end

(* ---- cold vs warm -------------------------------------------------------
   What a fresh engine costs, behind BENCH_cold.json. Per dataset (XMark,
   IMDB, DBLP at XC_SCALE with XC_QUERIES queries), compressed to the
   paper's 20KB/150KB budgets, on one domain, [cold_reps] repetitions of:
   - cold: Plan.Batch.prepare plus one sweep on a fresh engine;
   - warm: a second sweep of that prepared batch;
   - one query: the workload's first query on a fresh engine.
   Each figure is the median of the repetitions, with its interquartile
   range. Every answer must equal Estimate.selectivity bit for bit (the
   target exits 1 otherwise). The row counts show what building rows on
   demand saves: rows built against one row per synopsis node per
   matrix. *)

let cold_reps = 5

(* linear interpolation between closest ranks *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  let h = q *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = Int.min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let run_cold () =
  let module B = Xc_core.Plan.Batch in
  let ms f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, 1000.0 *. (Unix.gettimeofday () -. t0))
  in
  let bench_ds ds =
    let name = ds.Xc_exp.Runner.name in
    let bitwise = ref true in
    let syn =
      timed ("cold: xclusterbuild " ^ name) (fun () ->
          Xcluster.Build.compress
            (Xcluster.Build.budget ~bstr_kb:20 ~bval_kb:150 ())
            ds.Xc_exp.Runner.reference)
    in
    let queries = Xc_exp.Runner.workload_queries ds in
    let oracle = Array.map (Xc_core.Estimate.selectivity syn) queries in
    let cold = Array.make cold_reps 0.0
    and warm = Array.make cold_reps 0.0
    and one = Array.make cold_reps 0.0 in
    let rows = ref (0, 0, 0) in
    for r = 0 to cold_reps - 1 do
      let engine = B.create syn in
      let (prepared, cold_res), t_cold =
        ms (fun () ->
            let p = B.prepare engine queries in
            (p, B.run_prepared ~domains:1 engine p))
      in
      let warm_res, t_warm = ms (fun () -> B.run_prepared ~domains:1 engine prepared) in
      let one_engine = B.create syn in
      let one_res, t_one = ms (fun () -> one_query one_engine queries.(0)) in
      cold.(r) <- t_cold;
      warm.(r) <- t_warm;
      one.(r) <- t_one;
      rows :=
        ( B.rows_built engine,
          Xc_core.Synopsis.Sealed.n_nodes syn * B.n_matrices engine,
          B.rows_built one_engine );
      if
        not
          (Array.for_all2 same_bits cold_res oracle
          && Array.for_all2 same_bits warm_res oracle
          && same_bits one_res oracle.(0))
      then bitwise := false
    done;
    let med a = quantile a 0.5 and iqr a = quantile a 0.75 -. quantile a 0.25 in
    let rows_built, rows_full, one_rows = !rows in
    Format.fprintf ppf
      "  %-6s (%d nodes): cold %.2f ms (IQR %.2f)   warm %.4f ms (IQR %.4f)   one query \
       %.3f ms (IQR %.3f)   rows %d of %d, one query %d@."
      name
      (Xc_core.Synopsis.Sealed.n_nodes syn)
      (med cold) (iqr cold) (med warm) (iqr warm) (med one) (iqr one) rows_built rows_full
      one_rows;
    append_row "BENCH_cold.json"
      (Printf.sprintf
         "{\"ts\":%.0f,\"dataset\":%S,\"scale\":%.3f,\"queries\":%d,\"nodes\":%d,\"reps\":%d,\"cold_ms\":%.3f,\"cold_iqr_ms\":%.3f,\"warm_ms\":%.4f,\"warm_iqr_ms\":%.4f,\"one_ms\":%.4f,\"one_iqr_ms\":%.4f,\"rows_built\":%d,\"rows_full\":%d,\"one_rows\":%d,\"bitwise\":%b}"
         (Unix.gettimeofday ()) name scale (Array.length queries)
         (Xc_core.Synopsis.Sealed.n_nodes syn)
         cold_reps (med cold) (iqr cold) (med warm) (iqr warm) (med one) (iqr one) rows_built
         rows_full one_rows !bitwise);
    !bitwise
  in
  Format.fprintf ppf "@.Cold vs warm (one domain, median of %d)@." cold_reps;
  let bitwise = List.map bench_ds [ Lazy.force xmark; Lazy.force imdb; Lazy.force dblp ] in
  if List.mem false bitwise then begin
    Format.fprintf ppf "  ERROR: an answer differs from the oracle@.";
    exit 1
  end

(* ---- fault-injection smoke ---------------------------------------------
   The robustness gate behind BENCH_fault.json: a bounded fuzz over the
   codec (every mutated input must decode to Ok or a typed Error) plus a
   save/load storm through the Fault injection sites. Honors an
   XC_FAULTS environment configuration when one is set (the CI matrix
   sets several); otherwise installs an all-kinds storm. Any uncaught
   exception, or any corruption of the save target, exits non-zero. *)

let run_fault () =
  let module Fault = Xc_util.Fault in
  let module Codec = Xc_core.Codec in
  let fuzz_per_dataset = 500 in
  let storm_cycles = 200 in
  let syn =
    timed "fault: setup" (fun () ->
        let doc = Xc_data.Imdb.generate ~seed:91 ~n_movies:120 () in
        let reference = Xc_core.Reference.build ~min_extent:8 doc in
        Xc_core.Build.run (Xc_core.Build.params ~bstr_kb:6 ~bval_kb:40 ()) reference)
  in
  let good = Codec.to_string syn in
  let rng = Xc_util.Rng.create 91 in
  let fuzz_errors = ref 0 in
  let violations = ref 0 in
  timed "fault: fuzz" (fun () ->
      for _ = 1 to fuzz_per_dataset do
        let n = String.length good in
        let corrupt =
          match Xc_util.Rng.int rng 3 with
          | 0 -> String.sub good 0 (Xc_util.Rng.int rng (n + 1))
          | 1 ->
            let b = Bytes.of_string good in
            let i = Xc_util.Rng.int rng n in
            Bytes.set b i
              (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Xc_util.Rng.int rng 8)));
            Bytes.unsafe_to_string b
          | _ ->
            let b = Bytes.of_string good in
            let len = 1 + Xc_util.Rng.int rng (min 32 n) in
            let src = Xc_util.Rng.int rng (n - len + 1) in
            let dst = Xc_util.Rng.int rng (n - len + 1) in
            Bytes.blit_string good src b dst len;
            Bytes.unsafe_to_string b
        in
        match Codec.of_string corrupt with
        | Ok _ -> ()
        | Error _ -> incr fuzz_errors
        | exception exn ->
          incr violations;
          Format.fprintf ppf "  VIOLATION: decode raised %s@." (Printexc.to_string exn)
      done);
  (* the save/load storm: faults from XC_FAULTS when set, else all kinds *)
  let from_env = Sys.getenv_opt "XC_FAULTS" <> None in
  if not from_env then
    Fault.configure
      (Some { Fault.seed = 91; prob = 0.3; kinds = [ Fault.Truncate; Fault.Bit_flip; Fault.Short_write; Fault.Enospc; Fault.Eio ]; sites = [] });
  let cfg = Fault.current () in
  let dir = Filename.temp_file "xc_bench_fault" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "synopsis.syn" in
  (match Fault.configure None; Codec.save path syn with
  | Ok () -> ()
  | Error e ->
    Format.fprintf ppf "  ERROR: clean save failed: %s@." (Codec.error_to_string e);
    incr violations);
  Fault.configure cfg;
  let saves_ok = ref 0 and saves_err = ref 0 in
  let loads_ok = ref 0 and loads_err = ref 0 in
  let lazy_failures = ref 0 in
  let probe = Xc_twig.Twig_parse.parse "//movie/title" in
  timed "fault: save/load storm" (fun () ->
      for _ = 1 to storm_cycles do
        (match Codec.save path syn with
        | Ok () -> incr saves_ok
        | Error _ -> incr saves_err
        | exception exn ->
          incr violations;
          Format.fprintf ppf "  VIOLATION: save raised %s@." (Printexc.to_string exn));
        match Codec.load path with
        | Ok loaded -> (
          incr loads_ok;
          (* drive the deferred verification on the lazily mapped
             path: an estimate either answers or raises the typed
             Lazy_failure at the damaged section — nothing else *)
          match Xc_core.Estimate.selectivity loaded probe with
          | (_ : float) -> ()
          | exception Codec.Lazy_failure _ -> incr lazy_failures
          | exception exn ->
            incr violations;
            Format.fprintf ppf "  VIOLATION: estimate raised %s@."
              (Printexc.to_string exn))
        | Error _ -> incr loads_err
        | exception exn ->
          incr violations;
          Format.fprintf ppf "  VIOLATION: load raised %s@." (Printexc.to_string exn)
      done);
  (* with injection off, the target must still hold a pristine encoding:
     failed saves never touch it *)
  Fault.configure None;
  (match Codec.load path with
  | Ok decoded ->
    if not (String.equal (Codec.to_string decoded) good) then begin
      Format.fprintf ppf "  ERROR: surviving file decodes to a different synopsis@.";
      incr violations
    end
  | Error e ->
    Format.fprintf ppf "  ERROR: surviving file is corrupt: %s@."
      (Codec.error_to_string e);
    incr violations);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  let injected = Fault.injections () in
  Format.fprintf ppf
    "@.Fault smoke (%s)@.  fuzz: %d/%d mutations detected, %d violations@.  storm: saves %d ok / %d failed, loads %d ok / %d failed, %d deferred lazy failures, %d faults injected@."
    (if from_env then "XC_FAULTS from environment" else "built-in storm")
    !fuzz_errors fuzz_per_dataset !violations !saves_ok !saves_err !loads_ok
    !loads_err !lazy_failures injected;
  let json =
    Printf.sprintf
      "{\"ts\":%.0f,\"fuzz\":%d,\"fuzz_detected\":%d,\"storm_cycles\":%d,\"saves_ok\":%d,\"saves_err\":%d,\"loads_ok\":%d,\"loads_err\":%d,\"lazy_failures\":%d,\"injected\":%d,\"violations\":%d,\"env_faults\":%b}"
      (Unix.gettimeofday ()) fuzz_per_dataset !fuzz_errors storm_cycles !saves_ok
      !saves_err !loads_ok !loads_err !lazy_failures injected !violations from_env
  in
  append_row "BENCH_fault.json" json;
  if !violations > 0 then begin
    Format.fprintf ppf "  ERROR: %d fault-contract violations@." !violations;
    exit 1
  end

(* ---- serving-plane chaos ------------------------------------------------
   The robustness gate behind BENCH_chaos.json: forked daemons under a
   stalled peer, a full pending queue, and seeded fault storms over the
   serving plane's injection sites (serve.accept, serve.send,
   serve.deadline, client.connect). Hard gates (any failure exits
   non-zero):
   - a stalled slow-loris peer costs one worker, not the daemon:
     concurrent-client p99 under one stalled peer stays within 2x the
     unstalled baseline (plus 1 ms of scheduling slack);
   - the stalled peer is evicted, with a typed Timeout frame, within
     the configured read deadline plus slack;
   - with the single worker stalled and the pending queue full, new
     connections are shed with typed Overloaded frames, and
     Client.with_retry recovers once the stall clears;
   - every storm daemon survives its storm, answers bit-identical batch
     estimates through it, and acknowledges a clean shutdown after it;
   - batch answers are bit-identical across worker-pool sizes (1 and 4);
   - a graceful drain completes within the configured drain deadline. *)

let run_chaos () =
  let module Serve = Xcluster.Serve in
  let module Fault = Xc_util.Fault in
  let passes = env_int "XC_PASSES" ~default:3 in
  (* XC_CHAOS_SEED offsets every storm's RNG stream, so a CI matrix
     replays distinct but reproducible storms over the same sites *)
  let chaos_seed = env_int "XC_CHAOS_SEED" ~default:0 in
  let dir = Filename.temp_file "xc_chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let syn_path = Filename.concat dir "chaos.syn" in
  let sock name = Filename.concat dir (name ^ ".sock") in
  let ep name = Serve.Protocol.Unix_sock (sock name) in
  let ds = Lazy.force imdb in
  let syn =
    timed "chaos: build" (fun () ->
        Xcluster.Build.compress
          (Xcluster.Build.budget ~bstr_kb:16 ~bval_kb:120 ())
          ds.Xc_exp.Runner.reference)
  in
  (match Xcluster.Store.save syn_path syn with
  | Ok () -> ()
  | Error e ->
    Format.fprintf ppf "  ERROR: save: %s@." (Xc_core.Codec.error_to_string e);
    exit 1);
  let loaded =
    match Xcluster.Store.load syn_path with
    | Ok s -> s
    | Error e ->
      Format.fprintf ppf "  ERROR: load: %s@." (Xc_core.Codec.error_to_string e);
      exit 1
  in
  let sources =
    let all =
      Array.map (Format.asprintf "%a" Xc_twig.Twig_query.pp) (Xc_exp.Runner.workload_queries ds)
    in
    Array.sub all 0 (Int.min 60 (Array.length all))
  in
  let nq = Array.length sources in
  let reference =
    Array.map
      (fun src -> Xcluster.Query.estimate_uncached loaded (Xcluster.Query.parse src))
      sources
  in
  let ref_bits = Array.map Int64.bits_of_float reference in
  let bitwise r =
    Array.length r = nq
    &&
    let ok = ref true in
    Array.iteri (fun i v -> if Int64.bits_of_float v <> ref_bits.(i) then ok := false) r;
    !ok
  in
  let violations = ref 0 in
  let gate ok msg =
    if not ok then begin
      Format.fprintf ppf "  ERROR: %s@." msg;
      incr violations
    end
  in
  (* every fork happens before the first Domain.spawn: the OCaml 5
     runtime refuses Unix.fork once any other domain exists. Children
     inherit the parent's fault state at fork time, which is how each
     storm daemon gets its own armed sites. *)
  let ambient = Fault.current () in
  Fault.configure None;
  let fork_daemon endpoint tune =
    Format.pp_print_flush ppf ();
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try
         let registry = Serve.Registry.create ~max_engines:4 () in
         Serve.Registry.add_source registry ~name:"chaos" ~path:syn_path;
         let config =
           tune
             { Serve.Daemon.default_config with
               Serve.Daemon.endpoint;
               max_engines = 4;
               options = Serve.default_options }
         in
         Serve.Daemon.run ~config registry
       with _ -> Unix._exit 1);
      Unix._exit 0
    | pid -> pid
  in
  let recv_timeout_s = 2.0 in
  let drain_timeout_s = 5.0 in
  let main_pid =
    fork_daemon (ep "main") (fun c ->
        { c with
          Serve.Daemon.workers = 4;
          max_pending = 32;
          recv_timeout_s;
          request_budget_s = recv_timeout_s +. 0.5;
          drain_timeout_s;
          retry_after_ms = 25 })
  in
  let overload_pid =
    fork_daemon (ep "overload") (fun c ->
        { c with
          Serve.Daemon.workers = 1;
          max_pending = 1;
          recv_timeout_s = 3.0;
          request_budget_s = 3.5;
          retry_after_ms = 25 })
  in
  let storm_specs =
    [ ("serve.accept", 0.4, 71 + chaos_seed);
      ("serve.send", 0.3, 72 + chaos_seed);
      ("serve.deadline", 0.2, 73 + chaos_seed) ]
  in
  let storm_daemons =
    List.map
      (fun (site, prob, seed) ->
        Fault.configure
          (Some { Fault.seed; prob; kinds = [ Fault.Eio ]; sites = [ site ] });
        let pid =
          fork_daemon
            (ep (String.map (function '.' -> '_' | c -> c) site))
            (fun c ->
              { c with
                Serve.Daemon.workers = 3;
                max_pending = 16;
                recv_timeout_s = 0.5;
                request_budget_s = 1.0;
                retry_after_ms = 10 })
        in
        Fault.configure None;
        (site, pid))
      storm_specs
  in
  let wait_ready endpoint =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec loop () =
      match Serve.Client.connect endpoint with
      | Ok c -> Serve.Client.close c
      | Error _ when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        loop ()
      | Error e ->
        Format.fprintf ppf "  ERROR: daemon not accepting: %s@."
          (Serve.Error.to_string e);
        exit 1
    in
    loop ()
  in
  let raw_connect endpoint =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match endpoint with
    | Serve.Protocol.Unix_sock p -> Unix.connect fd (Unix.ADDR_UNIX p)
    | Serve.Protocol.Tcp _ -> assert false);
    fd
  in
  let raw_close fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> () in
  (* a slow loris: half a frame header (its version byte), then silence *)
  let loris endpoint =
    let fd = raw_connect endpoint in
    ignore (Unix.write_substring fd (String.make 1 (Char.chr Serve.Protocol.version)) 0 1);
    fd
  in
  (* block until the daemon evicts the peer (EOF); returns seconds from
     [t0], or None if the read timed out before any eviction *)
  let eviction_elapsed fd t0 =
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO (recv_timeout_s +. 8.0);
    let chunk = Bytes.create 256 in
    let rec drain () =
      match Unix.read fd chunk 0 256 with
      | 0 -> Some (Unix.gettimeofday () -. t0)
      | _ -> drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        None
      | exception Unix.Unix_error (_, _, _) ->
        Some (Unix.gettimeofday () -. t0)
    in
    drain ()
  in
  Format.fprintf ppf "@.Serving-plane chaos (%s: %d queries x %d passes per client)@."
    ds.Xc_exp.Runner.name nq passes;
  wait_ready (ep "main");
  (* measured phase: 2 concurrent clients streaming whole-workload
     batches; every answer must be bit-identical to estimate_uncached *)
  let measure endpoint =
    let worker () =
      Domain.spawn (fun () ->
          match Serve.Client.connect ~timeout_s:10.0 endpoint with
          | Error e -> Error (Serve.Error.to_string e)
          | Ok c ->
            let lats = ref [] in
            let rec go i =
              if i = 0 then Ok ()
              else begin
                let t0 = Unix.gettimeofday () in
                match Serve.Client.estimate_batch c ~synopsis:"chaos" sources with
                | Ok r ->
                  lats := (1e6 *. (Unix.gettimeofday () -. t0)) :: !lats;
                  if bitwise r then go (i - 1)
                  else Error "batch answer not bit-identical"
                | Error e -> Error (Serve.Error.to_string e)
              end
            in
            let r = go passes in
            Serve.Client.close c;
            match r with Ok () -> Ok !lats | Error e -> Error e)
    in
    let domains = List.init 2 (fun _ -> worker ()) in
    let results = List.map Domain.join domains in
    let m = Xc_util.Metrics.create () in
    let req_us = Xc_util.Metrics.histogram ~registry:m ~doc:"measured request latency, us" "req_us" in
    let ok = ref true in
    List.iter
      (fun r ->
        match r with
        | Error e ->
          Format.fprintf ppf "  ERROR: measured client failed: %s@." e;
          ok := false
        | Ok lats ->
          List.iter (fun l -> Xc_util.Metrics.observe req_us l) lats)
      results;
    let p99 =
      match Xc_util.Metrics.quantiles m "req_us" [ 0.99 ] with
      | Some [ (_, v) ] -> v
      | _ -> 0.0
    in
    (!ok, p99)
  in
  (* warm the engine cache first: the baseline must measure serving,
     not the one-time lazy engine build *)
  (match
     Serve.Client.with_retry ~attempts:10 ~timeout_s:10.0 (ep "main") (fun c ->
         Serve.Client.estimate_batch c ~synopsis:"chaos" sources)
   with
  | Ok r -> gate (bitwise r) "warmup batch not bit-identical"
  | Error e ->
    Format.fprintf ppf "  ERROR: warmup: %s@." (Serve.Error.to_string e);
    incr violations);
  let base_ok, baseline_p99 = measure (ep "main") in
  gate base_ok "baseline clients failed or answered inexactly";
  (* eviction latency, unloaded: a lone loris against 4 free workers *)
  let t0 = Unix.gettimeofday () in
  let lone = loris (ep "main") in
  let evict_s =
    match eviction_elapsed lone t0 with
    | Some s -> s
    | None ->
      gate false "stalled peer was not evicted";
      Float.nan
  in
  raw_close lone;
  let evict_bound_s = recv_timeout_s +. 1.5 in
  gate
    (Float.is_nan evict_s || evict_s <= evict_bound_s)
    (Printf.sprintf "eviction took %.2fs (deadline %.2fs + 1.5s slack)" evict_s
       recv_timeout_s);
  (* stalled-peer isolation: one loris holds a worker while 2 clients
     measure; their p99 must stay within 2x baseline + 1 ms *)
  let stalled = loris (ep "main") in
  let stall_ok, stalled_p99 = measure (ep "main") in
  ignore (eviction_elapsed stalled (Unix.gettimeofday ()));
  raw_close stalled;
  gate stall_ok "clients under a stalled peer failed or answered inexactly";
  let stall_bound = (2.0 *. baseline_p99) +. 1000.0 in
  gate
    (stalled_p99 <= stall_bound)
    (Printf.sprintf
       "stalled-peer p99 %.0f us exceeds 2x baseline %.0f us (+1 ms slack)"
       stalled_p99 baseline_p99);
  Format.fprintf ppf
    "  stalled peer: baseline p99 %.0f us, stalled p99 %.0f us (bound %.0f us), evicted in %.2fs@."
    baseline_p99 stalled_p99 stall_bound evict_s;
  (* overload: single worker stalled, pending queue full — connections
     are shed with typed Overloaded frames, and with_retry recovers *)
  wait_ready (ep "overload");
  let shed_attempts = 8 in
  (* one round of induced overload: a loris checks out the single
     worker, a filler takes the one queue slot, and every further
     connection must bounce with Overloaded. Closing the bad peers at
     the end clears the stall instantly (their reads turn into EOF). *)
  let overload_round () =
    let ol_loris = loris (ep "overload") in
    ignore (Unix.select [] [] [] 0.15);
    let ol_filler = raw_connect (ep "overload") in
    ignore (Unix.select [] [] [] 0.15);
    let sheds = ref 0 in
    for _ = 1 to shed_attempts do
      match Serve.Client.connect ~timeout_s:5.0 (ep "overload") with
      | Error _ -> ()
      | Ok c ->
        (match Serve.Client.estimate c ~synopsis:"chaos" ~query:sources.(0) with
        | Error (Serve.Error.Overloaded _) -> incr sheds
        | _ -> ());
        Serve.Client.close c
    done;
    raw_close ol_loris;
    raw_close ol_filler;
    !sheds
  in
  let sheds =
    (* scheduling can miss the shed window (the worker not yet stalled
       when the filler arrived): one more round before judging *)
    match overload_round () with 0 -> overload_round () | n -> n
  in
  gate (sheds > 0) "full queue never shed a typed Overloaded frame";
  let retry_recovered =
    match
      Serve.Client.with_retry ~attempts:20 ~base_delay_s:0.05 ~max_delay_s:0.2
        ~timeout_s:5.0 (ep "overload") (fun c ->
          Serve.Client.estimate c ~synopsis:"chaos" ~query:sources.(0))
    with
    | Ok _ -> true
    | Error e ->
      Format.fprintf ppf "  ERROR: with_retry never recovered: %s@."
        (Serve.Error.to_string e);
      false
  in
  gate retry_recovered "with_retry did not outlast the overload";
  Format.fprintf ppf
    "  overload: %d/%d connections shed (typed Overloaded), with_retry recovered: %b@."
    sheds shed_attempts retry_recovered;
  (* bit-identity across worker-pool sizes: the overload daemon runs 1
     worker, the main daemon 4 — both must answer the reference bits *)
  let bitwise_workers =
    match
      Serve.Client.with_retry ~attempts:10 ~timeout_s:10.0 (ep "overload")
        (fun c -> Serve.Client.estimate_batch c ~synopsis:"chaos" sources)
    with
    | Ok r -> bitwise r
    | Error e ->
      Format.fprintf ppf "  ERROR: 1-worker batch: %s@." (Serve.Error.to_string e);
      false
  in
  gate bitwise_workers "batch answers differ across worker-pool sizes";
  (* storm phases: each storm daemon was forked with one site armed.
     Faults delay accepts, kill sends, or force deadlines — they never
     corrupt — so every answer that does arrive must be bit-exact. *)
  let storm_ops = 40 in
  let run_storm (site, pid) =
    let endpoint = ep (String.map (function '.' -> '_' | c -> c) site) in
    wait_ready endpoint;
    let ok = ref 0 and err = ref 0 in
    for i = 1 to storm_ops do
      let r =
        Serve.Client.with_retry ~attempts:8 ~base_delay_s:0.005
          ~max_delay_s:0.05 ~seed:(i + chaos_seed) ~timeout_s:5.0 endpoint
          (fun c ->
            if i mod 4 = 0 then
              match Serve.Client.ping c with
              | Ok _ -> Ok ()
              | Error e -> Error e
            else
              match
                Serve.Client.estimate c ~synopsis:"chaos"
                  ~query:sources.(i mod nq)
              with
              | Ok _ -> Ok ()
              | Error e -> Error e)
      in
      match r with Ok () -> incr ok | Error _ -> incr err
    done;
    let storm_bitwise =
      match
        Serve.Client.with_retry ~attempts:10 ~timeout_s:10.0 endpoint (fun c ->
            Serve.Client.estimate_batch c ~synopsis:"chaos" sources)
      with
      | Ok r -> bitwise r
      | Error _ -> false
    in
    let survived =
      match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false
    in
    let clean_shutdown =
      survived
      &&
      (* ask until the daemon is observed to exit 0: under a send storm
         the Done acknowledgment itself may be killed even though the
         shutdown was applied, so the ack frame proves nothing *)
      let deadline = Unix.gettimeofday () +. 20.0 in
      let rec go () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | p, Unix.WEXITED 0 when p = pid -> true
        | p, _ when p = pid -> false
        | _ ->
          if Unix.gettimeofday () > deadline then false
          else begin
            (match Serve.Client.connect ~timeout_s:5.0 endpoint with
            | Error _ -> ()
            | Ok c ->
              ignore (Serve.Client.shutdown c);
              Serve.Client.close c);
            ignore (Unix.select [] [] [] 0.02);
            go ()
          end
      in
      go ()
    in
    if not clean_shutdown then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid) with Unix.Unix_error _ -> ())
    end;
    gate survived (Printf.sprintf "daemon died under the %s storm" site);
    gate (!ok > 0) (Printf.sprintf "no operation survived the %s storm" site);
    gate storm_bitwise
      (Printf.sprintf "batch through the %s storm was not bit-identical" site);
    gate clean_shutdown
      (Printf.sprintf "no clean shutdown after the %s storm" site);
    Format.fprintf ppf
      "  storm %-14s: %d ops (%d ok, %d typed errors), survived %b, bitwise %b, clean shutdown %b@."
      site storm_ops !ok !err survived storm_bitwise clean_shutdown;
    Printf.sprintf
      "{\"site\":%S,\"ops\":%d,\"ok\":%d,\"err\":%d,\"survived\":%b,\"bitwise\":%b,\"clean_shutdown\":%b}"
      site storm_ops !ok !err survived storm_bitwise clean_shutdown
  in
  let storm_json = List.map run_storm storm_daemons in
  (* client.connect storm: armed in this process, against the main
     daemon; with_retry must push operations through it *)
  Fault.configure
    (Some
       { Fault.seed = 74 + chaos_seed; prob = 0.4; kinds = [ Fault.Eio ];
         sites = [ "client.connect" ] });
  let conn_ok = ref 0 and conn_err = ref 0 in
  for i = 1 to storm_ops do
    match
      Serve.Client.with_retry ~attempts:8 ~base_delay_s:0.005 ~max_delay_s:0.05
        ~seed:(100 + i) ~timeout_s:5.0 (ep "main") (fun c ->
          Serve.Client.estimate c ~synopsis:"chaos" ~query:sources.(i mod nq))
    with
    | Ok _ -> incr conn_ok
    | Error _ -> incr conn_err
  done;
  Fault.configure None;
  gate (!conn_ok > 0) "no operation survived the client.connect storm";
  let post_storm_ping =
    match
      Serve.Client.with_retry ~attempts:10 ~timeout_s:5.0 (ep "main")
        Serve.Client.ping
    with
    | Ok h -> h.Serve.Protocol.h_synopses = 1 && not h.Serve.Protocol.h_draining
    | Error _ -> false
  in
  gate post_storm_ping "main daemon unhealthy after the storms";
  Format.fprintf ppf
    "  storm client.connect: %d ops (%d ok, %d typed errors), post-storm ping ok %b@."
    storm_ops !conn_ok !conn_err post_storm_ping;
  (* graceful drain, timed: shutdown the main daemon and gate its wall
     time against the configured drain deadline *)
  let drain_ms =
    let t0 = Unix.gettimeofday () in
    let acked =
      match Serve.Client.connect ~timeout_s:5.0 (ep "main") with
      | Error _ -> false
      | Ok c ->
        let r = Serve.Client.shutdown c = Ok () in
        Serve.Client.close c;
        r
    in
    let exited =
      match Unix.waitpid [] main_pid with _, Unix.WEXITED 0 -> true | _ -> false
    in
    gate (acked && exited) "main daemon did not drain cleanly";
    1000.0 *. (Unix.gettimeofday () -. t0)
  in
  let drain_bound_ms = 1000.0 *. (drain_timeout_s +. 2.0) in
  gate
    (drain_ms <= drain_bound_ms)
    (Printf.sprintf "drain took %.0f ms (bound %.0f ms)" drain_ms drain_bound_ms);
  Format.fprintf ppf "  drain: %.0f ms (bound %.0f ms)@." drain_ms drain_bound_ms;
  (* the overload daemon drains untimed — its stalled peers are gone *)
  (let rec shut n =
     if n = 0 then gate false "overload daemon refused shutdown"
     else
       match Serve.Client.connect ~timeout_s:5.0 (ep "overload") with
       | Error _ -> shut (n - 1)
       | Ok c ->
         let r = Serve.Client.shutdown c in
         Serve.Client.close c;
         (match r with Ok () -> () | Error _ -> shut (n - 1))
   in
   shut 200);
  (match Unix.waitpid [] overload_pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> gate false "overload daemon exited uncleanly");
  Fault.configure ambient;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let json =
    Printf.sprintf
      "{\"ts\":%.0f,\"dataset\":%S,\"scale\":%.3f,\"queries\":%d,\"passes\":%d,\"baseline_p99_us\":%.2f,\"stalled_p99_us\":%.2f,\"evict_ms\":%.0f,\"evict_bound_ms\":%.0f,\"shed\":%d,\"shed_attempts\":%d,\"retry_recovered\":%b,\"bitwise_workers\":%b,\"storms\":[%s],\"connect_ok\":%d,\"connect_err\":%d,\"post_storm_ping\":%b,\"drain_ms\":%.0f,\"drain_bound_ms\":%.0f,\"violations\":%d}"
      (Unix.gettimeofday ()) ds.Xc_exp.Runner.name scale nq passes baseline_p99
      stalled_p99
      (if Float.is_nan evict_s then -1.0 else 1000.0 *. evict_s)
      (1000.0 *. evict_bound_s) sheds shed_attempts retry_recovered
      bitwise_workers
      (String.concat "," storm_json)
      !conn_ok !conn_err post_storm_ping drain_ms drain_bound_ms !violations
  in
  append_row "BENCH_chaos.json" json;
  if !violations > 0 then begin
    Format.fprintf ppf "  ERROR: %d chaos violations@." !violations;
    exit 1
  end

(* ---- incremental maintenance -------------------------------------------
   The update benchmark behind BENCH_update.json: an XMark auction
   open/close stream applied to a live builder (Build.update_and_seal:
   delta application + localized repair + freeze) versus a from-scratch
   rebuild (reference construction + XCLUSTERBUILD) of the mutated
   document. Gates (any failure exits non-zero): the incremental path
   must be at least 10x faster than the rebuild, and its workload error
   on the mutated document must be within 1 percentage point of the
   fresh build's. A swap phase then drives the repaired generation
   through Registry.swap/swap_from — including a corrupt-artifact
   attempt that must keep the previous good generation serving.

   Environment: XC_UPDATES sizes the stream (default 64 auction events,
   half opens / half closes). *)

let run_update () =
  let module Registry = Xcluster.Serve.Registry in
  let n_updates = max 2 (env_int "XC_UPDATES" ~default:64) in
  let ds = Lazy.force xmark in
  let doc = ds.Xc_exp.Runner.doc in
  let min_extent = ds.Xc_exp.Runner.min_extent in
  (* paper budgets scaled with the document so the repair runs under
     real merge pressure at every XC_SCALE — but floored well above the
     build target's floor: the all-merged extreme is the worst-accuracy
     regime, where the update approximations (deletions keep their value
     summaries, deltas resolve per label) are amplified far past what
     any serving deployment would run *)
  let budget =
    Xcluster.Build.budget
      ~bstr_kb:(max 4 (int_of_float (Float.round (20.0 *. scale))))
      ~bval_kb:(max 30 (int_of_float (Float.round (150.0 *. scale))))
      ()
  in
  let live =
    timed "update: xclusterbuild" (fun () ->
        Xcluster.Build.compress_builder budget
          (Xc_core.Reference.build ~min_extent doc))
  in
  let updates =
    Xc_data.Xmark.update_stream ~seed:7 ~n_open:(n_updates / 2)
      ~n_close:(n_updates - (n_updates / 2))
      doc
  in
  let site_l = Xc_xml.Label.of_string "site" in
  let open_l = Xc_xml.Label.of_string "open_auctions" in
  let closed_l = Xc_xml.Label.of_string "closed_auctions" in
  let muts =
    List.concat_map
      (function
        | Xc_data.Xmark.Open subtree ->
          [ Xcluster.Build.Insert { parent = [ site_l; open_l ]; subtree } ]
        | Xc_data.Xmark.Close { opened; closed } ->
          [ Xcluster.Build.Delete { parent = [ site_l; open_l ]; subtree = opened };
            Xcluster.Build.Insert { parent = [ site_l; closed_l ]; subtree = closed } ])
      updates
  in
  let mutated = Xc_data.Xmark.apply_stream doc updates in
  (* rebuild: the path the incremental lifecycle replaces *)
  let t0 = Unix.gettimeofday () in
  let fresh = Xcluster.Build.run ~min_extent ~budget mutated in
  let t_rebuild = Unix.gettimeofday () -. t0 in
  (* incremental: apply + localized repair + freeze *)
  let t0 = Unix.gettimeofday () in
  let stats, incr_syn =
    match Xcluster.Build.update_and_seal ~budget live muts with
    | Ok r -> r
    | Error e ->
      Format.fprintf ppf "  ERROR: update rejected: %s@." e;
      exit 1
  in
  let t_update = Unix.gettimeofday () -. t0 in
  let speedup = t_rebuild /. Float.max t_update 1e-9 in
  (* estimation error on the mutated document, both paths *)
  let spec = { Xc_twig.Workload.default_spec with n_queries = min n_queries 200 } in
  let wl = timed "update: workload" (fun () -> Xc_twig.Workload.generate ~spec mutated) in
  let sanity = Xc_twig.Workload.sanity_bound wl in
  let err syn =
    Xc_exp.Error_metric.overall_relative ~sanity
      (Xc_exp.Error_metric.score (Xc_core.Estimate.selectivity syn) wl)
  in
  let err_fresh = err fresh and err_update = err incr_syn in
  let added_error = err_update -. err_fresh in
  Format.fprintf ppf "@.Incremental maintenance (%s: %d auction events -> %d mutations)@."
    ds.Xc_exp.Runner.name (List.length updates) (List.length muts);
  Format.fprintf ppf "  rebuild:     %7.3f s  (reference + XCLUSTERBUILD)@." t_rebuild;
  Format.fprintf ppf
    "  incremental: %7.3f s  (apply + localized repair + freeze)  %.1fx@." t_update
    speedup;
  Format.fprintf ppf
    "  repair: dirty %d, merges %d, created %d, removed %d, skipped branches %d@."
    stats.Xcluster.Build.dirty stats.Xcluster.Build.repair_merges
    stats.Xcluster.Build.created stats.Xcluster.Build.removed
    stats.Xcluster.Build.skipped;
  Format.fprintf ppf
    "  workload error on the mutated doc: fresh %.4f, incremental %.4f (added %.4f)@."
    err_fresh err_update added_error;
  (* swap phase: the repaired generation through the registry. An
     ambient XC_FAULTS storm may fail the save or the verify-load; the
     contract is then exactly the corrupt-artifact one — the previous
     good generation keeps serving and the counter does not move. *)
  let swap_violations = ref 0 in
  let dir = Filename.temp_file "xc_bench_update" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let reg = Registry.create () in
  let gen1 = Registry.swap reg ~name:"xmark" fresh in
  let path = Filename.concat dir "g2.syn" in
  let swap_ok, generation =
    match Xcluster.Store.save path incr_syn with
    | Error e ->
      Format.fprintf ppf "  swap: save failed (%s)@."
        (Xc_core.Codec.error_to_string e);
      (false, Registry.generation reg "xmark")
    | Ok () -> (
      match Registry.swap_from reg ~name:"xmark" ~path with
      | Ok gen -> (true, gen)
      | Error e ->
        Format.fprintf ppf "  swap: skipped (%s)@."
          (Xcluster.Serve.Error.to_string e);
        (false, Registry.generation reg "xmark"))
  in
  if swap_ok && generation <> gen1 + 1 then begin
    Format.fprintf ppf "  ERROR: swap committed but generation went %d -> %d@." gen1
      generation;
    incr swap_violations
  end;
  if (not swap_ok) && generation <> gen1 then begin
    Format.fprintf ppf "  ERROR: failed swap moved the generation %d -> %d@." gen1
      generation;
    incr swap_violations
  end;
  if Registry.find reg "xmark" = None then begin
    Format.fprintf ppf "  ERROR: name stopped serving across the swap@.";
    incr swap_violations
  end;
  (* a corrupt artifact must be rejected with the generation pinned *)
  let bad = Filename.concat dir "bad.syn" in
  let oc = open_out bad in
  output_string oc "not a synopsis";
  close_out oc;
  let gen_before = Registry.generation reg "xmark" in
  (match Registry.swap_from reg ~name:"xmark" ~path:bad with
  | Ok _ ->
    Format.fprintf ppf "  ERROR: corrupt artifact admitted@.";
    incr swap_violations
  | Error _ -> ());
  if Registry.generation reg "xmark" <> gen_before then begin
    Format.fprintf ppf "  ERROR: corrupt swap moved the generation@.";
    incr swap_violations
  end;
  Format.fprintf ppf "  swap: committed %b, generation %d, corrupt artifact rejected@."
    swap_ok generation;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let json =
    Printf.sprintf
      "{\"ts\":%.0f,\"dataset\":%S,\"scale\":%.3f,\"updates\":%d,\"mutations\":%d,\"t_rebuild_s\":%.4f,\"t_update_s\":%.4f,\"speedup\":%.2f,\"err_fresh\":%.5f,\"err_update\":%.5f,\"added_error\":%.5f,\"dirty\":%d,\"repair_merges\":%d,\"created\":%d,\"removed\":%d,\"swap_committed\":%b,\"generation\":%d}"
      (Unix.gettimeofday ()) ds.Xc_exp.Runner.name scale (List.length updates)
      (List.length muts) t_rebuild t_update speedup err_fresh err_update added_error
      stats.Xcluster.Build.dirty stats.Xcluster.Build.repair_merges
      stats.Xcluster.Build.created stats.Xcluster.Build.removed swap_ok generation
  in
  append_row "BENCH_update.json" json;
  if !swap_violations > 0 then begin
    Format.fprintf ppf "  ERROR: %d swap-protocol violations@." !swap_violations;
    exit 1
  end;
  if speedup < 10.0 then begin
    Format.fprintf ppf
      "  ERROR: incremental update is only %.1fx faster than a rebuild (gate: 10x)@."
      speedup;
    exit 1
  end;
  if added_error >= 0.01 then begin
    Format.fprintf ppf
      "  ERROR: incremental update added %.4f estimation error (gate: < 0.01)@."
      added_error;
    exit 1
  end

(* ---- Bechamel micro-benchmarks ---------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let doc = Xc_data.Imdb.generate ~seed:31 ~n_movies:400 () in
  let reference = Xc_core.Reference.build ~min_extent:8 doc in
  let spec = { Xc_twig.Workload.default_spec with n_queries = 20 } in
  let workload = Xc_twig.Workload.generate ~spec doc in
  let query = (List.hd workload).Xc_twig.Workload.query in
  let syn =
    Xc_core.Build.run (Xc_core.Build.params ~bstr_kb:8 ~bval_kb:60 ()) reference
  in
  let strings =
    List.init 200 (fun i -> Printf.sprintf "benchmark string %d" (i * 37 mod 100))
  in
  let terms =
    List.init 400 (fun i ->
        [| Xc_xml.Dictionary.of_string (Printf.sprintf "t%d" (i mod 80)) |])
  in
  let values = Array.init 5000 (fun i -> i * i mod 1000) in
  (* the request frames of perfbench's batch-hot and point-skew workloads *)
  let frame_batch = String.init 22_658 (fun i -> Char.chr ((i * 131) land 0xFF)) in
  let frame_point = String.sub frame_batch 0 58 in
  (* the metric handles' hot-path costs, on a private registry *)
  let registry = Xc_util.Metrics.create () in
  let bump = Xc_util.Metrics.counter ~registry ~doc:"micro" "micro.counter" in
  let hist = Xc_util.Metrics.histogram ~registry ~doc:"micro" "micro.histogram" in
  (* a point-skew request frame (51 bytes), written to one end of a
     socketpair and read off the other into a warm buffer *)
  let point =
    Xcluster.Serve.Protocol.encode_request
      (Xcluster.Serve.Protocol.Estimate { synopsis = "imdb"; query = "//movie[year>190]" })
  in
  let tx, rx = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rframe = Xcluster.Serve.Protocol.Frame.create () in
  [ Test.make ~name:"reference-build(10k-element doc)" (Staged.stage (fun () ->
        ignore (Xc_core.Reference.build ~min_extent:8 doc)));
    Test.make ~name:"xclusterbuild(8KB+60KB)" (Staged.stage (fun () ->
        ignore
          (Xc_core.Build.run (Xc_core.Build.params ~bstr_kb:8 ~bval_kb:60 ()) reference)));
    Test.make ~name:"estimate(twig)" (Staged.stage (fun () ->
        ignore (Xc_core.Estimate.selectivity syn query)));
    Test.make ~name:"exact-eval(twig)" (Staged.stage (fun () ->
        ignore (Xc_twig.Twig_eval.selectivity doc query)));
    Test.make ~name:"pst-build(200 strings)" (Staged.stage (fun () ->
        ignore (Xc_vsumm.Pst.build ~max_nodes:512 strings)));
    Test.make ~name:"term-hist-build(400 docs)" (Staged.stage (fun () ->
        ignore (Xc_vsumm.Term_hist.build terms)));
    Test.make ~name:"histogram-build(5k values)" (Staged.stage (fun () ->
        ignore (Xc_vsumm.Histogram.build values)));
    Test.make ~name:"codec-roundtrip" (Staged.stage (fun () ->
        ignore (Xc_core.Codec.of_string (Xc_core.Codec.to_string syn))));
    Test.make ~name:"crc32(22.6 KB)" (Staged.stage (fun () ->
        ignore (Xc_util.Crc32.digest frame_batch)));
    Test.make ~name:"crc32(58 B)" (Staged.stage (fun () ->
        ignore (Xc_util.Crc32.digest frame_point)));
    Test.make ~name:"metrics counter bump" (Staged.stage (fun () -> Xc_util.Metrics.incr bump));
    Test.make ~name:"metrics histogram observe" (Staged.stage (fun () ->
        Xc_util.Metrics.observe hist 12.5));
    Test.make ~name:(Printf.sprintf "write + read_frame(%d B)" (String.length point))
      (Staged.stage (fun () ->
           ignore (Unix.write_substring tx point 0 (String.length point));
           match Xcluster.Serve.Protocol.read_frame ~site:"serve.recv" rframe rx with
           | Ok true -> ()
           | Ok false | Error _ -> failwith "micro: read_frame failed")) ]

let run_micro () =
  let open Bechamel in
  Format.fprintf ppf "@.Micro-benchmarks (OLS estimate per run)@.%s@."
    (String.make 56 '-');
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
            if est >= 1e9 then Format.fprintf ppf "%-36s %10.2f s@." name (est /. 1e9)
            else if est >= 1e6 then
              Format.fprintf ppf "%-36s %10.2f ms@." name (est /. 1e6)
            else if est >= 1e3 then
              Format.fprintf ppf "%-36s %10.2f us@." name (est /. 1e3)
            else if est >= 100.0 then Format.fprintf ppf "%-36s %10.0f ns@." name est
            else Format.fprintf ppf "%-36s %10.1f ns@." name est
          | Some [] | None -> Format.fprintf ppf "%-36s (no estimate)@." name)
        analyzed)
    (micro_tests ());
  Format.fprintf ppf "%s@." (String.make 56 '-')

(* ---- driver ------------------------------------------------------------ *)

let targets =
  [ ("table1", run_table1);
    ("table2", run_table2);
    ("fig8a", fun () -> run_fig8 (Lazy.force imdb));
    ("fig8b", fun () -> run_fig8 (Lazy.force xmark));
    ("fig8c", fun () -> run_fig8 (Lazy.force dblp));
    ("fig9", run_fig9);
    ("negative", run_negative);
    ("ablation-delta", run_ablation_delta);
    ("ablation-text", run_ablation_text);
    ("ablation-numeric", run_ablation_numeric);
    ("auto-split", run_auto_split);
    ("seal", run_seal);
    ("build", run_build);
    ("serve", run_serve);
    ("cold", run_cold);
    ("fault", run_fault);
    ("chaos", run_chaos);
    ("update", run_update);
    ("micro", run_micro) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) when not (List.mem "all" args) -> args
    | _ -> List.map fst targets
  in
  Format.fprintf ppf "XCluster benchmark harness (scale=%.2f, queries=%d)@." scale
    n_queries;
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
        Format.fprintf ppf "unknown target %S; known: %s@." name
          (String.concat ", " (List.map fst targets));
        exit 1)
    requested;
  (* pipeline metrics accumulated across every target above *)
  Format.fprintf ppf "@.metrics: %s@." (Xcluster.Metrics.json ());
  Format.pp_print_flush ppf ()
