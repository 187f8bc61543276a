(** In-process serving: estimation engines with the graceful-degradation
    contract.

    The daemon answers both request kinds, [Estimate] and
    [Estimate_batch], through {!estimate_texts_with} on the engine its
    {!Registry} holds, so the registry's LRU is the only engine cache
    it fills. The {!Xcluster} facade's entry points, single queries
    and batches alike, use the one per-synopsis {!Xc_core.Plan.Batch}
    engine below ({!batch_for}), keyed by the synopsis's process-unique
    uid in a bounded table.

    Every serving path {b degrades instead of raising}: a fast-path
    failure is answered by {!Xc_core.Estimate.selectivity} directly —
    bit-identical, slower — and bumps exactly one counter
    ([serve.fallback] for a single query, [serve.batch_fallback] once
    for a whole batch), unless the {!Options.Strict} policy asks for a
    typed error instead. If the oracle trips as well (a lazily loaded
    synopsis whose deferred section verification fails), the answer is
    [Error (Unavailable _)].

    The table is bounded ({!max_cached} synopses) because synopses
    are long-lived in any serving scenario, but a workload churning
    through thousands of short-lived synopses (budget sweeps) must not
    accumulate dead engines. *)

type synopsis = Xc_core.Synopsis.Sealed.t
type query = Xc_twig.Twig_query.t

val max_cached : int
(** Bound on the per-uid table; on overflow the table resets. *)

val batch_for : synopsis -> Xc_core.Plan.Batch.t
(** The synopsis's batch engine, created on first use. *)

val cache_for : synopsis -> Xc_core.Plan.Cache.t
(** {!batch_for}. Kept only so the benchmark compiles; ROADMAP item 2's
    benchmark PR deletes it. No other caller may use it. *)

val estimate_uncached : synopsis -> query -> float
(** {!Xc_core.Estimate.selectivity} — the oracle the batch engine is
    validated against, and the last rung of the degradation ladder. *)

val estimate_result :
  ?options:Options.t -> synopsis -> query -> (float, Error.t) result
(** A one-query batch on {!batch_for}'s engine
    ({!Xc_core.Plan.Batch.prepare_one}: a warm query is neither
    re-compiled nor re-planned). On any failure it bumps [batch.error]
    and the policy applies. [Degrade] answers from {!estimate_uncached}
    (bit-identical, slower) and bumps [serve.fallback], returning
    [Error (Unavailable _)] only if the oracle raises too; [Strict]
    returns [Error (Unavailable _)] when the engine failed. *)

val estimate : synopsis -> query -> float
(** {!estimate_result} under the default [Degrade] policy.
    @raise Failure with {!Error.to_string}'s message when the oracle
    fails too (a lazily loaded synopsis whose deferred section
    verification fails). *)

val estimate_batch :
  ?options:Options.t -> synopsis -> query array -> (float array, Error.t) result
(** Batched serving through the cached batch engine,
    [options.domains]-way sharded ([None] defers to [XC_DOMAINS]).
    [result.(i)] answers query [i], bit-identical to {!estimate} and
    {!estimate_uncached}. Under [Degrade] a batch-engine failure
    answers every query through {!estimate_uncached} and bumps
    [serve.batch_fallback] once (never [serve.fallback]); under
    [Strict] it returns [Error (Unavailable _)]. *)

val estimate_texts_with :
  ?options:Options.t ->
  into:float array ->
  Xc_core.Plan.Batch.t ->
  synopsis ->
  Xc_util.Slices.t ->
  (unit, Error.t) result
(** {!estimate_batch} from query source text, through a caller-supplied
    engine (the daemon's registry holds engines under its own LRU
    admission policy) — the daemon's path for both [Estimate] (a
    one-text batch) and [Estimate_batch] frames. Text [i] is slice [i]
    (the daemon's slices point into the read frame), and on [Ok] its
    answer is in [into.(i)]; [into] may be longer than the batch. Texts
    go through {!Xc_core.Plan.Batch.prepare_texts}, so a warm batch is
    neither re-parsed, re-keyed nor re-planned, and with a reused
    [into] it allocates nothing that grows with its size. A text that
    does not parse is [Error (Query "query i: ...")] for the first
    such [i]. On an engine failure the texts are parsed (a bad text
    still yields [Query]) and the [Degrade]/[Strict] policy applies as
    in {!estimate_batch}. Callers serialize calls on one engine.
    @raise Invalid_argument when [into] is shorter than the batch. *)

val estimate_batch_exn :
  ?options:Options.t -> synopsis -> query array -> float array
(** {!estimate_batch}, raising [Failure] on a strict-mode error. Under
    the default [Degrade] policy it never raises. *)
