(** Compiled estimation (the query-time pipeline).

    {!Estimate.selectivity} re-enumerates query embeddings and re-runs
    the capped breadth-first descendant expansion from scratch on every
    call. This module holds the two compiled engines beside it, each
    for one access pattern:
    - {!Cache}, the cold and one-shot path: it compiles a
      {!Xc_twig.Twig_query.t} against a sealed synopsis {e once} —
      pre-binding each predicate's value type, fixing the edge-join
      order, and routing every path-expression expansion through a
      per-synopsis memo table keyed by
      [source index × path expression] — so repeated estimates reuse
      both the plan and the expansion work of {e every} earlier
      estimate against the same synopsis, and a first estimate expands
      only the synopsis nodes it reaches;
    - {!Batch}, the warm serving path: transition matrices built over
      every synopsis node, paid back only over repeated batches.

    Memoized reach distributions are stored verbatim (the same
    {!Estimate.dist} arrays a fresh run would build), and the compiled
    estimator performs the same float operations in the same order as
    {!Estimate.selectivity}, so planned estimates are {b bit-identical}
    to uncached ones.

    A {!Synopsis.Sealed.t} never mutates, so memo entries never go
    stale — the generation-invalidation machinery the builder-based
    pipeline needed is gone.

    Instrumentation goes to {!Xc_util.Metrics.global}: counters
    [plan.compile], [plan.cache_hit]/[plan.cache_miss] (query → plan
    lookups), [plan_cache.reset], [reach.memo_hit]/[reach.memo_miss],
    [plan.error];
    histograms [reach.expansion_depth], [estimate.plan_us]; timer
    [estimate.plan]. *)

val query_key : Xc_twig.Twig_query.t -> string
(** Injective serialization of a query's structure and predicates; the
    plan-cache key. *)

(** Per-synopsis plan cache: maps queries to compiled plans and shares
    one reach memo across all of them, so distinct queries reuse each
    other's expansion work (workload queries overlap heavily in their
    path fragments). *)
module Cache : sig
  type t

  val create : Synopsis.Sealed.t -> t

  val estimate : t -> Xc_twig.Twig_query.t -> float
  (** Estimated number of binding tuples — bit-identical to
      [Estimate.selectivity syn q] for the synopsis the cache was
      created on. The query's plan is compiled on first sight of its
      {!query_key} and reused after. A miss that finds more than
      {!Batch.text_index_bound} plans cached first empties the cache
      ({!clear}, bumping [plan_cache.reset]), so a long-lived cache
      stays bounded however many distinct queries it sees. *)

  val estimate_result : t -> Xc_twig.Twig_query.t -> (float, string) result
  (** {!estimate} with the serving failure contract: any exception out
      of compilation or evaluation (a synopsis that decoded but is
      broken in a way {!Synopsis.Sealed.validate} does not model, a
      query the compiler cannot place) becomes [Error] and bumps the
      [plan.error] counter, so a server can fall back to the uncached
      estimator instead of dying. *)

  val n_plans : t -> int
  (** Compiled plans currently cached. *)

  val reach_entries : t -> int
  (** Memoized reach distributions currently live. *)

  val clear : t -> unit
  (** Drop all plans and memo entries (e.g. to bound memory). *)
end

(** Batched estimation serving over precomputed transition matrices.

    Where {!Cache} still pays per estimate for a query-key render,
    structural path-expression hashing in the reach memo, and a fresh
    per-call hashtable, the batch engine moves all lookup work to
    prepare time: every distinct path expression is interned
    ({!Xc_twig.Path_expr.intern}) and materialized as a
    {!Transition} matrix once per synopsis, per-node predicate
    selectivities are precomputed over each query node's support set,
    and each query compiles to a flat postorder program — plain CSR
    row dot products, no hashing or allocation on the serving path.
    Building a matrix visits every synopsis node, so a cold pass costs
    more here than through {!Cache}; the engine pays off on repeated
    batches.

    Evaluation is {b matrix-major}: a prepared batch is deduplicated
    (identical queries evaluate once) and its distinct queries are
    grouped into {e cohorts} by the first transition matrix each
    evaluation streams, laid out cohort-major so one matrix's CSR
    slices are walked back-to-back for the whole cohort. The programs
    run against a reusable per-worker arena — one flat float64
    Bigarray of per-slot planes, high-water sized, never zeroed between
    queries — so per-query bookkeeping (timestamps, scratch
    allocation, histogram updates) is amortized over whole cohorts.

    Results are {b bit-identical} to {!Estimate.selectivity} (matrix
    rows are built by the estimator's own step code and the evaluation
    replicates its float-operation order exactly, short-circuits
    included), and {b independent of the worker count}: cohorts shard
    across {!Xc_util.Par} domains in contiguous chunks with results
    placed by input index, and no query's evaluation reads state
    another query wrote.

    Instrumentation (all recorded by the coordinating domain only):
    counters [batch.queries], [batch.query_hit]/[batch.query_miss]
    (hits bumped once per batch), [batch.text_reset],
    [batch.query_reset],
    [batch.cohorts], [batch.cohort_max] (high-water),
    [batch.arena_resets] (arena (re)allocations), [batch.minor_words]
    (coordinator minor-heap words allocated during cohort passes);
    timers [batch.mat_build], [batch.compile], [batch.cohort_plan],
    [estimate.batch]; histogram [estimate.cohort_us] (per-cohort
    latency, sampled on every 8th cohort — and on at most 8 cohorts
    per pass — so the sub-microsecond hot loop is not charged for its
    own timestamping). *)
module Batch : sig
  type t
  (** A batch engine bound to one sealed synopsis: its matrix registry
      (keyed by interned path-expression id), compiled queries (keyed
      by {!query_key}), a bounded index from raw query text to compiled
      query, and the last batch {!prepare_texts} returned. Not
      thread-safe: callers serialize access (the daemon's dispatch
      lock does). *)

  type prepared
  (** A workload compiled for serving; reusable across runs. Carries
      its lazily built cohort plan, so repeated passes over the same
      prepared batch pay the grouping cost once. *)

  val create : Synopsis.Sealed.t -> t

  val prepare : t -> Xc_twig.Twig_query.t array -> prepared
  (** Compile the workload, building each distinct path expression's
      transition matrix on first sight and caching compiled queries by
      key, so repeated and overlapping workloads amortize to lookups.
      Once more than {!text_index_bound} compiled queries are cached,
      the next call (here or in {!prepare_texts}) first drops them
      with {!clear}, bumping [batch.query_reset]; a [prepared] made
      before stays runnable. *)

  val prepare_texts : t -> Xc_util.Slices.t -> (prepared, int * string) result
  (** {!prepare} from query source text, for serving repeated
      workloads; text [i] is slice [i] ({!Xc_util.Slices.of_strings}
      makes slices of strings). A text seen before is one probe of the
      text index on its bytes, in place — no string is built, nothing
      is parsed or re-keyed; a new text is copied out, parsed, compiled
      as in {!prepare} and indexed, so texts that differ only in
      whitespace share one compiled query.

      A warm call builds nothing proportional to its size. A one-text
      call returns the compiled query's own memoized one-query
      [prepared]. A longer one is checked against the previous longer
      call as it resolves: when every text resolves to the same
      compiled query as there, in the same order, the previous
      [prepared] is returned with its cohort plan already built; an
      array is built only from the first difference on. One-text calls
      never replace that previous batch.

      [Error (i, msg)] reports the first text that does not parse.
      Once the text index holds more than {!text_index_bound} entries,
      the next call empties it first (bumping [batch.text_reset]); a
      batch never sees it reset midway. The compiled-query bound of
      {!prepare} applies here too, and its reset empties the text
      index with everything else. Exceptions out of compilation
      propagate. *)

  val text_index_bound : int
  (** Text-index size above which {!prepare_texts} resets the index,
      and compiled-query count above which {!prepare} and
      {!prepare_texts} {!clear} the engine; {!Cache} bounds its plans
      by the same constant. *)

  val run_into : ?domains:int -> t -> prepared -> float array -> unit
  (** [run_into t p out] runs the matrix-major sweep and writes the
      answer to query [i] into [out.(i)]; [out] may be longer than the
      batch. With a warm cohort plan and a reused [out], a pass
      allocates nothing that grows with the batch. [domains] as in
      {!Xc_util.Par.map} ([<= 0] means [XC_DOMAINS]).
      @raise Invalid_argument when [out] is shorter than the batch. *)

  val run_prepared :
    ?domains:int -> ?cohort:bool -> t -> prepared -> float array
  (** {!run_into} a fresh array; [result.(i)] answers query [i].
      [cohort] is ignored: it survives only so that the benchmark
      program, which passes [~cohort:true], keeps compiling until the
      benchmark change that traces served requests from inside the
      daemon (ROADMAP item 1) drops it. *)

  val cohort_stats : prepared -> int * int * int
  (** [(cohorts, max_cohort, distinct)] for the batch's cohort plan
      (building it if needed): number of cohorts, widest cohort, and
      distinct queries after dedup. [distinct /. cohorts] is the
      matrix-sharing factor the bench reports as [cohort_sharing]. *)

  val n_matrices : t -> int
  (** Distinct transition matrices built so far. *)

  val n_queries : t -> int
  (** Compiled queries currently cached. *)

  val n_texts : t -> int
  (** Source texts currently in the text index. *)

  val clear : t -> unit
  (** Drop matrices, compiled queries and the text index (to bound
      memory). *)
end
