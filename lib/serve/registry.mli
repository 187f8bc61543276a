(** The daemon's named synopsis registry.

    A registry maps tenant-facing names to sealed synopses loaded from
    disk artifacts. Admission is {b verifying}: every artifact goes
    through the crash-safe codec's total decoder, and one that fails —
    corrupt, truncated, foreign — is {b skipped and counted}
    ([serve.load_error] in {!Xc_util.Metrics.global}) instead of
    killing the process; a multi-tenant daemon keeps serving its other
    synopses. On {!load} (a reload), a name whose artifact has gone bad
    {e keeps its previously admitted synopsis} — serving continuity
    beats freshness for an artifact that no longer verifies.

    Each admitted synopsis gets a {!Xc_core.Plan.Batch} engine on
    first use, held in a bounded {!Lru}: engines carry transition
    matrices and compiled queries, so the engine table — not the
    synopsis table — is the memory-bounded resource. Eviction only
    drops cached compilation work; the next request rebuilds it.

    {b Generations.} Every admission of {e new content} for a name
    (a different sealed uid) bumps that name's generation counter.
    {!swap} is the incremental-maintenance commit: it replaces the
    named synopsis with its repaired generation in a single table
    write, so a reader resolving the name observes either the old
    complete generation or the new one, never a half-repaired mixture;
    in-flight batches hold the [Sealed.t] they resolved and finish on
    the generation they started with. Retiring a generation also drops
    its registry engine — a stale engine is freed, never reused. The
    LRU is the only engine cache the daemon fills: it answers both
    [Estimate] and [Estimate_batch] frames through {!engine}.

    Counters: [serve.load_ok], [serve.load_error], [serve.engine_admit],
    [serve.engine_evict], [serve.engine_hit], [serve.swap],
    [serve.swap_skipped]. *)

type t

val create : ?max_engines:int -> unit -> t
(** [max_engines] bounds the batch-engine LRU (default 8, min 1). *)

(* ---- sources ----------------------------------------------------------- *)

val add_source : t -> name:string -> path:string -> unit
(** Register an artifact under [name] (replacing any previous source of
    that name). Takes effect on the next {!load}. *)

val add_dir : t -> string -> (unit, Error.t) result
(** Register every [*.syn] file in a directory, named by basename
    without the extension. An unreadable directory is an [Error]; the
    files themselves are only probed at {!load} time. *)

val sources : t -> (string * string) list
(** [(name, path)], sorted by name. *)

(* ---- admission --------------------------------------------------------- *)

type load_report = { loaded : int; skipped : int }

val load : t -> load_report
(** (Re)load every source through {!Xc_core.Codec.load}: a verified
    artifact is admitted (replacing the previous synopsis of that name,
    and dropping its cached engine if the content changed). A failing
    artifact is {b skipped and counted} ([serve.load_error]), and the
    name {e keeps serving its previously admitted generation} — a
    reload can never downgrade a tenant from a good synopsis to
    nothing. Only the report's [skipped] field and the counter reveal
    the failure. *)

(* ---- generation swap ---------------------------------------------------- *)

val swap : t -> name:string -> Xc_core.Synopsis.Sealed.t -> int
(** Atomically replace the named synopsis with a repaired generation
    (see {e Generations} above) and return the new generation number.
    Also counts [serve.swap]. The synopsis is already in memory, so
    this never fails; first use of a name admits generation 1. *)

val swap_from : t -> name:string -> path:string -> (int, Error.t) result
(** {!swap} from a disk artifact: verify-load [path], then swap it in
    and remember [path] as the name's source. On a corrupt artifact
    the previous good generation keeps serving — nothing is replaced,
    [serve.load_error] and [serve.swap_skipped] are counted, and the
    codec error is returned. This is the daemon's [update] verb. *)

val generation : t -> string -> int
(** How many distinct generations of content this name has admitted;
    0 for a name never admitted. *)

val generations_total : t -> int
(** Sum of {!generation} over every known name — the daemon's [Health]
    frame reports it so probes can watch content churn without walking
    the name list. *)

(* ---- lookup ------------------------------------------------------------ *)

val find : t -> string -> Xc_core.Synopsis.Sealed.t option
val names : t -> string list
(** Admitted names, sorted. *)

val n_admitted : t -> int

val engine :
  t -> string -> (Xc_core.Synopsis.Sealed.t * Xc_core.Plan.Batch.t, Error.t) result
(** The named synopsis and its batch engine, admitting the engine into
    the LRU (possibly evicting another) on first use. [Error
    (Admission _)] for a name the registry does not hold. *)

val engine_names : t -> string list
(** Engines currently resident, most recently used first (the LRU
    order tests assert). *)

val max_engines : t -> int
