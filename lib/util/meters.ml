(* Every metric the library emits, registered here into
   [Metrics.global] and nowhere else: one list of name, kind and
   meaning. Handles live in this one module, not in the modules that
   update them, so that the catalogue is whole whenever any handle is
   linked — a library module nothing references is not linked, and
   handles registered in its initializer would go missing. DESIGN.md's
   metric table lists the same entries; test_plan checks the two
   against each other in both directions. *)

open Metrics

module Fault = struct
  let injected = counter "fault.injected" ~doc:"faults fired at an Xc_util.Fault injection site"
end

module Codec = struct
  let decode_error = counter "codec.decode_error" ~doc:"artifact decodes that ended in a typed error"

  let crc_mismatch =
    counter "codec.crc_mismatch" ~doc:"section checksum mismatches, eager or deferred"

  let save_error = counter "codec.save_error" ~doc:"Codec.save calls whose atomic write failed"

  let lazy_verify =
    counter "codec.lazy_verify" ~doc:"deferred section checks run on a mapped artifact"

  let mmap_load = counter "codec.mmap_load" ~doc:"artifacts loaded lazily through a memory map"
end

module Reach = struct
  let expansion_depth =
    histogram "reach.expansion_depth" ~doc:"breadth-first levels of one descendant expansion"
end

module Batch = struct
  let queries = counter "batch.queries" ~doc:"queries answered by Plan.Batch sweeps"
  let query_hit = counter "batch.query_hit" ~doc:"batch queries whose compiled form was cached"
  let query_miss = counter "batch.query_miss" ~doc:"batch queries compiled on first sight"

  let query_reset =
    counter "batch.query_reset" ~doc:"Plan.Batch clears past the compiled-query bound"

  let text_reset =
    counter "batch.text_reset" ~doc:"text-index clears past the bound (whitespace variants)"

  let cohorts = counter "batch.cohorts" ~doc:"query cohorts swept"
  let cohort_max = high_water "batch.cohort_max" ~doc:"widest cohort any batch collapsed to"

  let arena_resets =
    counter "batch.arena_resets" ~doc:"engine sweep arenas reallocated to a larger size"

  let minor_words =
    counter "batch.minor_words" ~doc:"minor-heap words allocated during sweeps"

  let error = counter "batch.error" ~doc:"batches the engine raised on (the batch degrades)"
  let mat_rows = counter "batch.mat_rows" ~doc:"transition rows built on demand by compilation"
  let mat_build = timer "batch.mat_build" ~doc:"one empty transition matrix created"
  let compile = timer "batch.compile" ~doc:"one batch query compiled"
  let cohort_plan = timer "batch.cohort_plan" ~doc:"one batch's cohort plan built"
  let sweep = timer "estimate.batch" ~doc:"one cohort sweep over a prepared batch"
end

module Update = struct
  let mutations = counter "update.mutations" ~doc:"mutations applied to a live synopsis"
  let created = counter "update.created" ~doc:"synopsis nodes an update created"
  let removed = counter "update.removed" ~doc:"synopsis nodes an update removed"

  let skipped_branches =
    counter "update.skipped_branches" ~doc:"deleted branches that resolved to no live cluster"

  let repair_widened =
    counter "update.repair_widened" ~doc:"repairs that ended above the structural budget"

  let compress_widened =
    counter "update.compress_widened" ~doc:"repairs that ended above the value budget"

  let apply = timer "update.apply" ~doc:"one Update.apply, repair included"
  let repair = timer "update.repair" ~doc:"one localized repair after an update"
end

module Pool = struct
  let builds = counter "pool.builds" ~doc:"candidate pools built"
  let frontier_builds = counter "pool.frontier_builds" ~doc:"candidate pools built over a frontier"
  let pushes = counter "pool.pushes" ~doc:"neighbour pushes after a merge"
  let cand_evals = counter "pool.cand_evals" ~doc:"merge candidates scored"
  let evals_build = counter "pool.evals_build" ~doc:"candidates scored while building a pool"
  let evals_push = counter "pool.evals_push" ~doc:"candidates scored by neighbour pushes"
  let scanned = counter "pool.scanned" ~doc:"group members scanned by neighbour pushes"
  let stale_dropped = counter "pool.stale_dropped" ~doc:"popped candidates whose nodes were gone"
  let rescored = counter "pool.rescored" ~doc:"popped candidates rescored because stale"
  let score = timer "pool.score" ~doc:"one candidate-scoring pass"
  let build_inc = timer "pool.build_inc" ~doc:"one pool build, incremental collection"
  let select_inc = timer "pool.select_inc" ~doc:"one neighbour selection, incremental"
  let build_frontier = timer "pool.build_frontier" ~doc:"one frontier pool build"
end

module Build = struct
  let compression_steps =
    counter "build.compression_steps" ~doc:"value-summary compression steps taken"

  let phase1 = timer "build.phase1" ~doc:"structural merge phase of one build"
  let phase2 = timer "build.phase2" ~doc:"value compression phase of one build"
end

module Reference = struct
  let refine = timer "reference.refine" ~doc:"partition refinement of one reference build"
  let vsumm = timer "reference.vsumm" ~doc:"value summaries of one reference build"
end

module Serve = struct
  let load_ok = counter "serve.load_ok" ~doc:"artifacts admitted to the registry"
  let load_error = counter "serve.load_error" ~doc:"artifacts refused at load (skipped, counted)"
  let swap = counter "serve.swap" ~doc:"generation swaps committed"
  let swap_skipped = counter "serve.swap_skipped" ~doc:"swaps refused on a corrupt artifact"
  let engine_hit = counter "serve.engine_hit" ~doc:"registry engine lookups served from the LRU"
  let engine_admit = counter "serve.engine_admit" ~doc:"batch engines created and admitted"
  let engine_evict = counter "serve.engine_evict" ~doc:"batch engines evicted from the LRU"

  let fallback =
    counter "serve.fallback" ~doc:"single estimates answered by the oracle after a failure"

  let batch_fallback =
    counter "serve.batch_fallback" ~doc:"batches answered by the oracle after a failure"

  let swap_us = histogram "serve.swap_us" ~doc:"latency of one Update request's swap, us"
end

module Daemon = struct
  let conns = counter "daemon.conns" ~doc:"connections accepted"
  let requests = counter "daemon.requests" ~doc:"requests dispatched"
  let request_error = counter "daemon.request_error" ~doc:"error frames sent"
  let proto_error = counter "daemon.proto_error" ~doc:"connections dropped on a bad frame"
  let timeouts = counter "daemon.timeouts" ~doc:"reads or writes past their deadline"
  let evicted = counter "daemon.evicted" ~doc:"connections closed by the daemon"
  let shed = counter "daemon.shed" ~doc:"connections refused with Overloaded (queue full)"
  let accept_error = counter "daemon.accept_error" ~doc:"accept calls that failed"

  let request_us =
    histogram "daemon.request_us" ~doc:"one request's dispatch, lock wait included, us"

  let drain_ms = histogram "daemon.drain_ms" ~doc:"one graceful drain, ms"
end

module Client = struct
  let connect_error = counter "client.connect_error" ~doc:"client connects that failed"
  let reconnect = counter "client.reconnect" ~doc:"idempotent requests retried on a new connection"
  let retry = counter "client.retry" ~doc:"with_retry attempts after a transient error"
end

module Protocol = struct
  let read_calls = counter "protocol.read_calls" ~doc:"read() calls made by Protocol.read_frame"
end

let catalogue () = Metrics.catalogue Metrics.global
