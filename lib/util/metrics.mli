(** Lightweight process-local metrics: counters, wall-clock timers and
    value histograms behind a [snapshot]/[reset] API.

    A metric is a {b handle}, registered once under its name and kind
    ({!counter}, {!high_water}, {!timer}, {!histogram}) and then updated
    through the handle alone: no name is hashed and no table is looked
    up on the hot path. The library's handles are all registered in
    {!Meters} into the {!global} registry, which is that module's one
    list of every metric it emits; the bench harness and the
    [xcluster estimate --stats] flag render a snapshot as JSON, and the
    daemon returns one for [Stats].

    Thread-safe without a registry-wide lock on the write path: a
    counter is an [int Atomic.t], so a bump is one atomic add and a
    high-water update one compare-and-set loop; a timer or histogram
    holds a mutex of its own, taken only around its few scalar updates.
    The registry's own mutex guards registration and the read side
    ({!snapshot}, {!reset}, {!counter_value}, {!quantiles}), never an
    update. Worker threads and domains may therefore update one handle
    concurrently (the serving daemon does). *)

type t
(** A metrics registry. *)

val global : t
(** The registry the library instruments ({!Meters}). *)

val create : unit -> t

(* ---- handles --------------------------------------------------------- *)

type kind =
  | Counter  (** a monotone count since the last reset *)
  | High_water  (** the largest value recorded since the last reset *)
  | Timer  (** wall-clock durations: count / total / max *)
  | Histogram  (** sampled values: count / sum / min / max + buckets *)

val kind_name : kind -> string
(** ["counter"], ["high-water"], ["timer"], ["histogram"]. *)

type counter
type timer
type histogram

val counter : ?registry:t -> doc:string -> string -> counter
(** Register a counter under a name (default registry {!global}).
    [doc] is its one-line meaning, listed by {!catalogue}.
    @raise Invalid_argument when the registry already holds the name. *)

val high_water : ?registry:t -> doc:string -> string -> counter
(** A counter updated with {!record_max} (e.g. [batch.cohort_max], the
    widest query cohort any batch collapsed to). Renders like any
    other counter. *)

val timer : ?registry:t -> doc:string -> string -> timer
val histogram : ?registry:t -> doc:string -> string -> histogram

val catalogue : t -> (string * kind * string) list
(** Every handle registered in the registry: name, kind and one-line
    meaning, sorted by name. *)

(* ---- recording ------------------------------------------------------- *)

val incr : counter -> unit
(** Add 1: one atomic add, no lock. *)

val add : counter -> int -> unit

val record_max : counter -> int -> unit
(** Keep the largest value recorded since the last reset. *)

val observe : histogram -> float -> unit
(** Record a sample (count/sum/min/max plus eighth-octave magnitude
    buckets — 8 sub-buckets per power of two). *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk and record its wall-clock duration, in seconds.
    Exceptions propagate without recording. *)

val add_time : timer -> float -> unit
(** Record an externally measured duration (seconds). *)

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
  counters : (string * int) list;        (** every counter, sorted by name *)
  timers : (string * timer_stat) list;   (** with samples, sorted by name *)
  histograms : (string * hist_stat) list;(** with samples, sorted by name *)
}
(** Timers and histograms without a sample since the last reset are
    left out, so no rendered field is ever infinite. *)

val snapshot : t -> snapshot

val reset : t -> unit
(** Zero every handle in place; the handles stay registered and valid. *)

val counter_value : t -> string -> int
(** Current value of a counter by name; 0 when no such counter is
    registered. *)

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
(** Quantiles of a histogram by name; [None] when it does not exist or
    has no sample. [quantiles m "estimate.cohort_us" \[0.5; 0.95; 0.99\]]
    reads a histogram's p50/p95/p99. *)

val to_json : snapshot -> string
(** Single-line JSON object:
    [{"counters":{...},"timers":{...},"histograms":{...}}]. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable multi-line rendering. *)
