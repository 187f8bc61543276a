(** In-process serving: cached per-synopsis estimation engines with the
    graceful-degradation contract.

    This is the logic behind the {!Xcluster} facade's estimation entry
    points (moved here so the daemon and the library share one
    implementation): per-synopsis {!Xc_core.Plan.Cache} and
    {!Xc_core.Plan.Batch} instances keyed by the synopsis's
    process-unique uid in bounded tables, and serving paths that
    {b degrade instead of raising} — a fast-path failure falls back to
    slower but bit-identical estimation and bumps a counter
    ([serve.fallback] / [serve.batch_fallback]), unless the
    {!Options.Strict} policy asks for a typed error instead.

    The tables are bounded ({!max_cached} synopses) because synopses
    are long-lived in any serving scenario, but a workload churning
    through thousands of short-lived synopses (budget sweeps) must not
    accumulate dead caches. *)

type synopsis = Xc_core.Synopsis.Sealed.t
type query = Xc_twig.Twig_query.t

val max_cached : int
(** Bound on each per-uid table; on overflow the table resets. *)

val cache_for : synopsis -> Xc_core.Plan.Cache.t
(** The synopsis's plan cache, created on first use. *)

val batch_for : synopsis -> Xc_core.Plan.Batch.t
(** The synopsis's batch engine, created on first use. *)

val drop : synopsis -> unit
(** Evict the synopsis's cached plan cache and batch engine, if any.
    Caches key on the sealed uid so a stale generation can never be
    {e reused} for a new one — [drop] additionally frees the memory
    promptly when a generation is retired ({!Registry.swap}). *)

val estimate_uncached : synopsis -> query -> float
(** {!Xc_core.Estimate.selectivity} — the baseline every cached path is
    validated against, and the last rung of the degradation ladder. *)

val estimate : synopsis -> query -> float
(** Through the compiled plan cache; on any failure, degrades to
    {!estimate_uncached} (bit-identical, slower) and bumps
    [serve.fallback]. Never raises on a per-synopsis failure. *)

val estimate_result :
  ?options:Options.t -> synopsis -> query -> (float, Error.t) result
(** {!estimate} under a policy: [Degrade] always returns [Ok];
    [Strict] returns [Error (Unavailable _)] when the compiled path
    failed. *)

val estimate_batch :
  ?options:Options.t -> synopsis -> query array -> (float array, Error.t) result
(** Batched serving through the cached batch engine,
    [options.domains]-way sharded ([None] defers to [XC_DOMAINS]).
    [result.(i)] answers query [i], bit-identical to {!estimate} and
    {!estimate_uncached}. Under [Degrade] a batch-engine failure falls
    back to per-query estimation (bumping [serve.batch_fallback]) and
    the call still returns [Ok]; under [Strict] it returns
    [Error (Unavailable _)]. *)

val estimate_texts_with :
  ?options:Options.t ->
  Xc_core.Plan.Batch.t ->
  synopsis ->
  string array ->
  (float array, Error.t) result
(** {!estimate_batch} from query source text, through a caller-supplied
    engine (the daemon's registry holds engines under its own LRU
    admission policy) — the daemon's [Estimate_batch] path. Texts go
    through {!Xc_core.Plan.Batch.prepare_texts}, so a warm batch is
    neither re-parsed, re-keyed nor re-planned. A text that does not
    parse is [Error (Query "query i: ...")] for the first such [i].
    On an engine failure the texts are parsed (a bad text still yields
    [Query]) and the [Degrade]/[Strict] policy applies as in
    {!estimate_batch}. Callers serialize calls on one engine. *)

val estimate_batch_exn :
  ?options:Options.t -> synopsis -> query array -> float array
(** {!estimate_batch}, raising [Failure] on a strict-mode error. Under
    the default [Degrade] policy it never raises. *)
