(** The stable XCluster API.

    This facade is the supported surface for applications, organized by
    lifecycle stage:

    - {!Build} — parse or generate a document, construct and compress a
      budgeted synopsis;
    - {!Query} — parse twigs and estimate selectivities through the
      compiled pipeline;
    - {!Store} — crash-safe persistence with typed, result-first
      errors;
    - {!Serve} — the serving layer: batched estimation, and the
      multi-synopsis daemon (registry/daemon/client);
    - {!Metrics} — the global instrumentation registry.

    Everything underneath ([Xc_core], [Xc_twig], [Xc_serve], …) remains
    reachable for experiments and internal tooling.

    {b Results first.} Operations that can fail for reasons outside the
    program's control — I/O, decoding, serving — return
    [(_, error) result] with a typed error; the raising forms are the
    [_exn]-suffixed variants for callers that have already verified
    their input.

    A synopsis has two lives. During construction it is a mutable
    {!builder} ({!Xc_core.Synopsis.Builder.t}): {!Build.reference}
    produces one, and the build algorithms merge and compress it in
    place. Every finished synopsis is a frozen {!synopsis}
    ({!Xc_core.Synopsis.Sealed.t}): {!Build.compress}/{!Build.run}
    freeze on the way out, {!Build.seal} freezes a builder directly,
    and estimation, explanation, and persistence accept only the sealed
    form. Sealed synopses never mutate, so the per-synopsis estimation
    engines need no invalidation machinery.

    {b Incremental maintenance.} A live builder can absorb document
    mutations without a rebuild: {!Build.update} applies a batch of
    subtree insert/delete deltas and repairs the budgets locally
    ({!Xc_core.Update}); {!Build.update_and_seal} freezes the repaired
    generation, which a serving registry swaps in atomically
    ({!Serve.Registry.swap}). Each freeze carries a fresh uid, so every
    engine cache naturally drops the stale generation. *)

type document = Xc_xml.Document.t
type query = Xc_twig.Twig_query.t

type builder = Xc_core.Synopsis.Builder.t
(** A synopsis under construction — mutable, not estimable. *)

type synopsis = Xc_core.Synopsis.Sealed.t
(** A finished synopsis — frozen, estimable, persistable. *)

type budget = Xc_core.Build.budget = {
  bstr : int;  (** structural budget, bytes *)
  bval : int;  (** value budget, bytes *)
  pool : Xc_core.Pool.config;
}

(** Synopsis construction: document → reference synopsis → budgeted
    compression → sealed synopsis. *)
module Build : sig
  val budget :
    ?pool:Xc_core.Pool.config -> ?bstr_kb:int -> ?bval_kb:int -> unit -> budget
  (** See {!Xc_core.Build.budget} (defaults 20 KB / 150 KB). *)

  val reference :
    ?detail:Xc_core.Reference.detail ->
    ?min_extent:int ->
    ?value_min_extent:int ->
    ?value_paths:Xc_xml.Label.t list list ->
    document ->
    builder
  (** The detailed reference synopsis construction
      ({!Xc_core.Reference.build}). *)

  val seal : builder -> synopsis
  (** Freeze a builder into the read-optimized sealed form
      ({!Xc_core.Synopsis.freeze}). The builder is unchanged and may
      keep mutating; the sealed value never will. *)

  val compress : budget -> builder -> synopsis
  (** XCLUSTERBUILD: compress a reference synopsis to the budget (on a
      private copy; the argument is unchanged) and seal the result. *)

  val compress_builder : budget -> builder -> builder
  (** {!compress} without the freeze ({!Xc_core.Build.run_builder}):
      the budgeted synopsis still in mutable form, the starting point
      of an incremental-update loop ({!update} keeps repairing it in
      place; {!seal} cuts each served generation). *)

  val run :
    ?budget:budget ->
    ?min_extent:int ->
    ?value_min_extent:int ->
    ?value_paths:Xc_xml.Label.t list list ->
    document ->
    synopsis
  (** [reference] followed by [compress] — document to budgeted
      synopsis in one call. *)

  type mutation = Xc_core.Update.mutation =
    | Insert of { parent : Xc_xml.Label.t list; subtree : Xc_xml.Node.t }
    | Delete of { parent : Xc_xml.Label.t list; subtree : Xc_xml.Node.t }
        (** A subtree insert/delete under the element named by the
            root-inclusive label path [parent] — see
            {!Xc_core.Update.mutation}. *)

  type update_stats = Xc_core.Update.stats = {
    applied : int;
    skipped : int;
    dirty : int;
    created : int;
    removed : int;
    repair_merges : int;
  }

  val update :
    ?budget:budget -> builder -> mutation list -> (update_stats, string) result
  (** Apply a mutation batch to a live builder in place and repair it
      back under the budget with localized phase-1/phase-2 passes
      ({!Xc_core.Update.apply}). [Error] on a batch whose parent path
      does not resolve — the builder is then untouched. *)

  val update_and_seal :
    ?budget:budget -> builder -> mutation list ->
    (update_stats * synopsis, string) result
  (** {!update} followed by {!seal}: the repaired generation ready for
      {!Serve.Registry.swap}; the builder stays live for the next
      batch. *)

  val auto_split :
    ?ratios:float list ->
    total_kb:int ->
    sample:(synopsis -> float) ->
    builder ->
    budget * synopsis
  (** Automated structural/value budget-split search
      ({!Xc_core.Build.auto_split}). *)

  val builder_stats : Format.formatter -> builder -> unit
  (** Size/shape summary of an unsealed builder (the CLI prints this
      for the reference synopsis before compressing). *)

  val validate_builder : builder -> (unit, string) result
  (** Structural invariants of a builder
      ({!Xc_core.Synopsis.Builder.validate}). *)
end

(** Query parsing, selectivity estimation, and synopsis inspection. *)
module Query : sig
  val parse : string -> query
  (** Parse a twig query, e.g.
      ["//movie[year > 1990]/title[contains(War)]"].
      @raise Xc_twig.Twig_parse.Parse_error on syntax errors. *)

  val estimate : synopsis -> query -> float
  (** Estimated number of binding tuples, through the compiled
      pipeline: a one-query batch on the synopsis's
      {!Xc_core.Plan.Batch} engine, the same one {!Serve.estimate_batch}
      uses. The engine is keyed on the synopsis's
      {!Xc_core.Synopsis.Sealed.uid} and created on first use; sealed
      synopses never mutate, so compiled queries and transition rows
      stay valid forever.

      Serving degrades instead of raising: if compilation or evaluation
      fails for this synopsis, the call falls back to the bit-identical
      uncached estimator and bumps the [batch.error] and
      [serve.fallback] counters in {!Xc_util.Metrics.global}.
      @raise Failure when the uncached estimator fails too (a lazily
      loaded synopsis whose deferred section verification fails). *)

  val estimate_uncached : synopsis -> query -> float
  (** The direct embedding enumeration
      ({!Xc_core.Estimate.selectivity}), bypassing the compiled engine
      — the oracle the pipeline is validated against. *)

  val explain : synopsis -> query -> Xc_core.Estimate.explanation list
  (** Per query variable, the clusters it binds to
      ({!Xc_core.Estimate.explain}). *)

  (* ---- synopsis inspection ------------------------------------------- *)

  val validate : synopsis -> (unit, string) result
  val pp_stats : Format.formatter -> synopsis -> unit
  val n_nodes : synopsis -> int
  val n_edges : synopsis -> int

  val size_bytes : synopsis -> int
  (** Structural + value bytes. *)

  val succ : synopsis -> int -> (int * float) list
  (** Outgoing edges of a cluster as [(child sid, avg count)],
      ascending by child sid. *)

  val pred : synopsis -> int -> int list
  (** Parent sids of a cluster, ascending. *)
end

(** Crash-safe persistence, result-first. *)
module Store : sig
  type error = Xc_core.Codec.error

  val save : string -> synopsis -> (unit, error) result
  (** Atomic write (temp file → fsync → rename) of the checksummed,
      mmap-friendly v3 format via {!Xc_core.Codec.save}; on [Error _]
      a pre-existing file at the path is untouched. *)

  val load : string -> (synopsis, error) result
  (** Read and decode; [load] itself never raises. Only the v3 format
      loads: a v1 or v2 file is refused with [Unsupported_version], and
      is rebuilt from its document. On a little-endian host the file
      memory-maps in near-constant time, deferring the CSR sections'
      checks and value-summary decoding to first touch; a deferred failure raises {!Xc_core.Codec.Lazy_failure} at
      the access point (the serve layer catches it and degrades). The
      checks are the decoder's own, so the mapped synopsis fails
      exactly where {!Xc_core.Codec.of_string} would have refused the
      file. Failures additionally bump [serve.load_error] — a server
      that keeps a directory of synopses uses this to skip (and count)
      corrupt artifacts instead of dying on the first one. *)

  val save_exn : string -> synopsis -> unit
  (** @raise Failure on I/O failure (the previous file, if any, is
      intact). *)

  val load_exn : string -> synopsis
  (** {!load}. @raise Failure on read or decode failure. *)

  val verify : string -> (Xc_core.Codec.info, error) result
  (** Integrity check: the full decode {!Xc_core.Codec.of_string} runs
      (every per-section CRC-32, every structural check) —
      {!Xc_core.Codec.verify}. Refuses exactly what a decode refuses,
      an older-format (v1, v2) file included. *)

  val sections : string -> (Xc_core.Codec.section_status list, error) result
  (** Per-section CRC report ({!Xc_core.Codec.sections}): localizes
      damage instead of stopping at the first bad checksum. *)
end

(** The serving layer: batched estimation, and the multi-synopsis
    daemon. *)
module Serve : sig
  module Error = Xc_serve.Error
  (** The serving layer's single error variant: codec, protocol,
      admission, query, availability, and I/O failures in one type. *)

  type error = Error.t

  val estimate_batch :
    ?domains:int -> synopsis -> query array -> (float array, error) result
  (** Batched serving through {!Xc_core.Plan.Batch}: answers
      [result.(i)] for query [i], bit-identical to {!Query.estimate} /
      {!Query.estimate_uncached} and independent of the worker count
      ([domains] as in {!Xc_core.Plan.Batch.run_into}; omitted, the
      [XC_DOMAINS] default). The per-synopsis engine — interned
      path-expression transition matrices plus compiled queries — is
      cached by synopsis uid and shared with {!Query.estimate}, so
      repeated workloads amortize to array walks.

      An engine failure falls back to the uncached estimator for the
      whole batch and bumps [serve.batch_fallback] once; the call
      returns [Ok] unless the uncached estimator fails too. *)

  val batch_engine : synopsis -> Xc_core.Plan.Batch.t
  (** The cached batch engine behind {!estimate_batch} (created on
      first use), for callers that want
      {!Xc_core.Plan.Batch.prepare}/[run_prepared] control or its size
      accessors. *)

  module Protocol = Xc_serve.Protocol
  (** Frame layout and message types of the daemon's wire protocol. *)

  module Registry = Xc_serve.Registry
  (** Named synopsis registry with verifying admission and a bounded
      engine LRU. *)

  module Daemon = Xc_serve.Daemon
  (** The [xcluster serve] daemon loop. *)

  module Client = Xc_serve.Client
  (** Result-first client for the daemon. *)
end

(** The global metrics registry the pipeline instruments (plan
    compiles, cache hits/misses, expansion depths, estimate and daemon
    latency). *)
module Metrics : sig
  val snapshot : unit -> Xc_util.Metrics.snapshot
  val json : unit -> string
  (** {!snapshot} rendered as a single-line JSON object. *)

  val reset : unit -> unit
end
