(** Lightweight process-local metrics: counters, wall-clock timers and
    value histograms behind a [snapshot]/[reset] API.

    The estimation pipeline (plan compilation, reach-memo hits/misses,
    descendant-expansion depth, estimate latency) reports into the
    {!global} registry; the bench harness and the [xcluster estimate
    --stats] CLI flag render a snapshot as JSON. Registries are cheap
    hash tables — a counter bump is one lookup and one integer add — so
    instrumentation can stay on in hot paths. Thread-safe: every
    operation takes the registry's internal mutex, so worker threads
    and domains may report into one registry concurrently (the serving
    daemon does). The critical sections are a table lookup and a few
    scalar updates — contention, not the lock itself, is the only cost
    that can show up in a profile. *)

type t
(** A metrics registry. *)

val global : t
(** The registry the library instruments by default. *)

val create : unit -> t

(* ---- recording ------------------------------------------------------- *)

val incr : ?by:int -> t -> string -> unit
(** Bump a counter, creating it at 0 on first use. *)

val record_max : t -> string -> int -> unit
(** High-water counter: keep the largest value recorded since the last
    reset (e.g. [batch.cohort_max], the widest query cohort any batch
    collapsed to). Renders like any other counter. *)

val observe : t -> string -> float -> unit
(** Record a sample into a histogram (count/sum/min/max plus
    eighth-octave magnitude buckets — 8 sub-buckets per power of two),
    creating it on first use. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk and record its wall-clock duration, in seconds, under
    the name as a timer (count/total/max). Exceptions propagate without
    recording. *)

val add_time : t -> string -> float -> unit
(** Record an externally measured duration (seconds) under a timer. *)

(* ---- reading --------------------------------------------------------- *)

type timer_stat = {
  t_count : int;
  t_total : float;  (** seconds *)
  t_max : float;    (** seconds *)
}

type hist_stat = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
      (** (upper bound, samples ≤ bound) per non-empty eighth-octave
          magnitude bucket (edges a factor [2^(1/8)] apart), ascending *)
}

type snapshot = {
  counters : (string * int) list;        (** sorted by name *)
  timers : (string * timer_stat) list;   (** sorted by name *)
  histograms : (string * hist_stat) list;(** sorted by name *)
}

val snapshot : t -> snapshot
val reset : t -> unit

val counter_value : t -> string -> int
(** Current value of a counter; 0 when it was never bumped. *)

val quantile_of_stat : hist_stat -> float -> float
(** Quantile [q ∈ \[0, 1\]] of a histogram, interpolated linearly
    inside its eighth-octave magnitude bucket and clamped to the
    observed [min, max]; [nan] on an empty histogram. Exact at bucket
    boundaries, within a ~9% band elsewhere — fine enough that
    adjacent latency percentiles (p95 vs p99) resolve to distinct
    values instead of collapsing into one power-of-two class. *)

val quantiles_of_stat : hist_stat -> float list -> (float * float) list
(** [(q, value)] per requested quantile. *)

val quantiles : t -> string -> float list -> (float * float) list option
(** Quantiles of a live histogram by name; [None] when it does not
    exist. [quantiles m "estimate.plan_us" \[0.5; 0.95; 0.99\]] is the
    p50/p95/p99 read the CLI and bench surface. *)

val to_json : snapshot -> string
(** Single-line JSON object:
    [{"counters":{...},"timers":{...},"histograms":{...}}]. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable multi-line rendering. *)
