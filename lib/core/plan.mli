(** Compiled estimation (the query-time pipeline): the one fast path
    beside the oracle.

    {!Estimate.selectivity} re-enumerates query embeddings and re-runs
    the capped breadth-first descendant expansion from scratch on every
    call; it stays the paper-faithful oracle. {!Batch} is the one
    compiled engine beside it, for one query and for whole batches
    alike: it compiles a query once per synopsis into a flat program
    over {!Transition} matrices whose rows are built on demand — only
    the rows of the synopsis nodes the query reaches — and then answers
    it with a read-only sweep. A cold one-query estimate therefore pays
    for the nodes it touches, and a warm batch for nothing but array
    traversals. Answers are {b bit-identical} to the oracle.

    A {!Synopsis.Sealed.t} never mutates, so compiled queries and
    matrix rows never go stale. *)

val query_key : Xc_twig.Twig_query.t -> string
(** Injective serialization of a query's structure and predicates; the
    compiled-query key. *)

(** Batched estimation serving over precomputed transition matrices.

    The engine moves all lookup work to prepare time: every distinct
    path expression is interned ({!Xc_twig.Path_expr.intern}) and gets
    one {!Transition} matrix per synopsis, created empty; compiling a
    query builds the rows of the synopsis nodes in each edge's support
    and no others, precomputes per-node predicate selectivities over
    each query node's support set, and emits a flat postorder program
    — plain CSR row dot products, no hashing or allocation on the
    serving path. Compilation is the only writer: every row a prepared
    batch reads exists before its sweep starts, so the sweep, on any
    number of domains, only reads.

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
    [batch.mat_rows] (transition rows built on demand);
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

  val prepare_one : t -> Xc_twig.Twig_query.t -> prepared
  (** {!prepare} of a one-query batch, without building one: the
      compiled query's own memoized one-query [prepared], cohort plan
      included, so a warm call allocates nothing. The bound of
      {!prepare} applies. *)

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
      and compiled-query count above which {!prepare},
      {!prepare_one} and {!prepare_texts} {!clear} the engine. *)

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
      [cohort] is ignored: kept only so the benchmark compiles;
      ROADMAP item 2's benchmark PR deletes it. *)

  val cohort_stats : prepared -> int * int * int
  (** [(cohorts, max_cohort, distinct)] for the batch's cohort plan
      (building it if needed): number of cohorts, widest cohort, and
      distinct queries after dedup. [distinct /. cohorts] is the
      matrix-sharing factor the bench reports as [cohort_sharing]. *)

  val n_matrices : t -> int
  (** Distinct transition matrices created so far. *)

  val rows_built : t -> int
  (** Transition rows built so far, summed over the matrices. *)

  val nnz : t -> int
  (** Stored entries of those rows ({!Transition.nnz}, summed). *)

  val n_queries : t -> int
  (** Compiled queries currently cached. *)

  val n_texts : t -> int
  (** Source texts currently in the text index. *)

  val clear : t -> unit
  (** Drop matrices, compiled queries and the text index (to bound
      memory). *)
end

(** Kept only so the benchmark compiles; ROADMAP item 2's benchmark PR
    deletes it. No other caller may use it. *)
module Cache : sig
  type t = Batch.t

  val n_plans : t -> int
  (** {!Batch.n_queries}. *)
end
