(** The catalogue of every metric the library emits: one handle per
    metric, registered into {!Metrics.global} when this module is
    initialized, each with its name, kind and one-line meaning (see
    {!catalogue} and DESIGN.md's metric table, which must agree). *)


module Fault : sig
  val injected : Metrics.counter
end

module Codec : sig
  val decode_error : Metrics.counter
  val crc_mismatch : Metrics.counter
  val save_error : Metrics.counter
  val lazy_verify : Metrics.counter
  val mmap_load : Metrics.counter
end

module Reach : sig
  val expansion_depth : Metrics.histogram
end

module Batch : sig
  val queries : Metrics.counter
  val query_hit : Metrics.counter
  val query_miss : Metrics.counter
  val query_reset : Metrics.counter
  val text_reset : Metrics.counter
  val cohorts : Metrics.counter
  val cohort_max : Metrics.counter
  val arena_resets : Metrics.counter
  val minor_words : Metrics.counter
  val error : Metrics.counter
  val mat_rows : Metrics.counter
  val mat_build : Metrics.timer
  val compile : Metrics.timer
  val cohort_plan : Metrics.timer
  val sweep : Metrics.timer
  val cohort_us : Metrics.histogram
end

module Update : sig
  val mutations : Metrics.counter
  val created : Metrics.counter
  val removed : Metrics.counter
  val skipped_branches : Metrics.counter
  val vsumm_kept : Metrics.counter
  val repair_widened : Metrics.counter
  val compress_widened : Metrics.counter
  val apply : Metrics.timer
  val repair : Metrics.timer
end

module Pool : sig
  val builds : Metrics.counter
  val frontier_builds : Metrics.counter
  val pushes : Metrics.counter
  val cand_evals : Metrics.counter
  val evals_build : Metrics.counter
  val evals_push : Metrics.counter
  val scanned : Metrics.counter
  val stale_dropped : Metrics.counter
  val rescored : Metrics.counter
  val score : Metrics.timer
  val build_inc : Metrics.timer
  val build_full : Metrics.timer
  val select_inc : Metrics.timer
  val select_full : Metrics.timer
  val build_frontier : Metrics.timer
end

module Build : sig
  val compression_steps : Metrics.counter
  val phase1 : Metrics.timer
  val phase2 : Metrics.timer
end

module Serve : sig
  val load_ok : Metrics.counter
  val load_error : Metrics.counter
  val swap : Metrics.counter
  val swap_skipped : Metrics.counter
  val engine_hit : Metrics.counter
  val engine_admit : Metrics.counter
  val engine_evict : Metrics.counter
  val fallback : Metrics.counter
  val batch_fallback : Metrics.counter
  val swap_us : Metrics.histogram
end

module Daemon : sig
  val conns : Metrics.counter
  val requests : Metrics.counter
  val request_error : Metrics.counter
  val proto_error : Metrics.counter
  val timeouts : Metrics.counter
  val evicted : Metrics.counter
  val shed : Metrics.counter
  val accept_error : Metrics.counter
  val request_us : Metrics.histogram
  val drain_ms : Metrics.histogram
end

module Client : sig
  val connect_error : Metrics.counter
  val reconnect : Metrics.counter
  val retry : Metrics.counter
end

module Protocol : sig
  val read_calls : Metrics.counter
end

val catalogue : unit -> (string * Metrics.kind * string) list
(** {!Metrics.catalogue} of {!Metrics.global}: every handle above. *)
