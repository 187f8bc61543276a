(* Every metric the benchmark reports, in reporting order, with its
   unit. BENCHMARK.json lists the same names; run.py refuses a result
   whose metric names differ from it. README.md explains each one. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("slow_ms", "ms");
    ("rss_mb", "MB");
  ]

let per_layer =
  [
    ("protocol.encode_request_us", "us");
    ("protocol.decode_request_us", "us");
    ("protocol.encode_response_us", "us");
    ("protocol.decode_response_us", "us");
    ("protocol.request_bytes", "bytes");
    ("protocol.response_bytes", "bytes");
    ("client.reconnects", "count");
    ("client.retries", "count");
    ("twig_parse.parse_us", "us");
    ("twig_parse.queries", "count");
    ("twig_parse.roundtrip_rejected", "count");
    ("registry.engine_us", "us");
    ("registry.engine_hit_ratio", "ratio");
    ("registry.engine_evicts", "count");
    ("registry.swap_from_us", "us");
    ("engine.fallbacks", "count");
    ("plan.prepare_us", "us");
    ("plan.compile_hit_ratio", "ratio");
    ("transition.matrices_built", "count");
    ("transition.build_us", "us");
    ("plan.cohort_plan_us", "us");
    ("plan.sweep_us", "us");
    ("plan.cohorts", "count");
    ("plan.cohort_sharing", "ratio");
    ("plan.minor_words_per_batch", "words");
    ("plan_cache.estimate_us", "us");
    ("plan_cache.plans", "count");
    ("daemon.residual_us", "us");
    ("daemon.queue_depth", "count");
    ("daemon.inflight", "count");
    ("daemon.shed", "count");
    ("daemon.timeouts", "count");
    ("daemon.request_error", "count");
    ("update.apply_us", "us");
    ("update.dirty", "count");
    ("update.repair_merges", "count");
    ("update.widened", "count");
    ("synopsis.freeze_us", "us");
    ("codec.save_us", "us");
    ("codec.bytes", "bytes");
    ("codec.load_us", "us");
    ("reference.build_s", "s");
    ("reference.nodes", "count");
    ("build.phase1_s", "s");
    ("build.phase2_s", "s");
    ("pool.evals", "count");
    ("pool.rescored", "count");
    ("workload.generate_s", "s");
    ("error_metric.score_s", "s");
    ("error_share", "ratio");
    ("swap.update_apply_ms", "ms");
    ("swap.swap_ms", "ms");
    ("swap.post_swap_first_ms", "ms");
    ("error_metric.est_error", "ratio");
    ("serve.cold_ms", "ms");
    ("trace.client_p50_us", "us");
    ("trace.coverage", "ratio");
    ("trace.overhead_pct", "%");
  ]

(* The traced run's metric list in catalogue order. Where [figures]
   names a metric twice, the first figure wins. A layer the workload does
   not exercise reads 0; a name outside the catalogue is a bug. *)
let collect ~workload figures =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        Printf.ksprintf failwith "%s: per-layer metric %s is not in the catalogue" workload name)
    figures;
  List.map
    (fun (name, unit_) ->
      let v = match List.assoc_opt name figures with Some v when Float.is_finite v -> v | _ -> 0.0 in
      Measure.metric name unit_ v)
    per_layer
