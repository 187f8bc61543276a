(** Minimal fork/join parallelism over stdlib domains (OCaml 5), for
    embarrassingly parallel batch work such as merge-candidate scoring.

    No dependencies beyond the standard library: a call splits its input
    into one contiguous chunk per worker and hands [d - 1] chunks to a
    persistent pool of domains (the caller computes the first chunk),
    then waits for all of them before returning — no job outlives the
    call. Workers are spawned lazily on first use and parked on a
    condition variable between calls, so a construction run pays the
    domain-spawn cost once, not per scoring batch.

    Calls must not overlap (one coordinating domain at a time); the
    library calls it only from the build loop's candidate scoring,
    which satisfies this. Estimation never runs on the pool: a batch
    is swept on the thread that asks for it.

    Determinism contract: [map f arr] returns exactly
    [Array.map f arr] — results are placed by input index, never by
    completion order — so parallel callers observe bit-identical output
    for pure [f] regardless of the worker count. *)

val env_domains : unit -> int
(** The worker count requested via the [XC_DOMAINS] environment
    variable, clamped to [\[1, 64\]]; 1 (sequential) when unset or
    unparsable. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f arr] is [Array.map f arr], computed by [domains]
    workers in contiguous chunks. [domains <= 0] (the default) means
    "use {!env_domains}". Runs sequentially when only one worker is
    requested or the array is small. [f] must not mutate shared state.
    An exception out of [f] is re-raised in the caller only after every
    worker finished its chunk; when several chunks raise, the one
    covering the lowest indices wins. *)

(* ---- usage observation ------------------------------------------------ *)

val seq_cutoff : int
(** Arrays smaller than this run sequentially regardless of the
    requested worker count (dispatch overhead would dominate). *)

val reset_usage : unit -> unit
(** Reset the usage high-water marks below. *)

val max_used : unit -> int
(** Widest fan-out (workers actually engaged, caller included) any
    [map] call executed since {!reset_usage}; 0 when no call ran.
    The bench harness checks this against the requested
    worker count and fails loudly on silent degradation — unlike a
    configured value, this is observed from the pool itself. *)

val max_batch : unit -> int
(** Largest input array any call processed since {!reset_usage} —
    distinguishes "batches were below {!seq_cutoff}" (sequential by
    policy) from "a large batch ran under-parallelized" (a bug). *)
