(** End-biased term histograms — the paper's novel second-level summary
    for TEXT centroids (Sec. 3).

    The histogram retains (1) the top-few term frequencies of the
    centroid exactly, and (2) a {e uniform bucket}: a lossless RLE
    encoding of the binary support of the remaining non-zero terms plus
    their average frequency. Lookup first tries the exact terms, then
    the bucket (average frequency if the bit is set, 0 otherwise) — so,
    unlike conventional range-bucket histograms, non-existent terms
    estimate to exactly 0. *)

type t

val of_centroid : ?top_k:int -> Term_vector.t -> t
(** Summarize a centroid, indexing the [top_k] (default 4096) highest
    frequencies exactly and pushing the rest to the uniform bucket. *)

val build : ?top_k:int -> Xc_xml.Dictionary.term array list -> t
(** [of_centroid (Term_vector.of_documents docs)]. *)

val n_documents : t -> float
val n_top : t -> int
(** Number of exactly-indexed terms. *)

val bucket_size : t -> int
(** Number of terms inside the uniform bucket. *)

val support_size : t -> int
(** [n_top + bucket_size]. *)

val frequency : t -> int -> float
(** Estimated fractional frequency of a term id. *)

val selectivity : t -> Xc_xml.Dictionary.term list -> float
(** Conjunctive [ftcontains] selectivity: product of per-term estimated
    frequencies (term-independence within the cluster). *)

val fuse : t -> t -> t
(** Weighted mixture of the two summaries (Sec. 4.1): the union of
    exactly-indexed terms stays exactly indexed (using each side's
    estimates), everything else goes to the combined uniform bucket. *)

val compress_once : t -> (float * int * t) option
(** One [tv_cmprs] step: demote the lowest-frequency indexed term into
    the uniform bucket and update the average. Returns
    [(Σ_p (σ_p − σ′_p)², bytes_saved, compressed)], or [None] when no
    indexed term remains. [bytes_saved] can in principle be ≤ 0 if the
    demoted bit fragments the RLE encoding.

    Since a demotion never changes the frequency of a surviving indexed
    term, the demotion order of a summary is fixed up front; the
    returned summary is a lazily-materialized cursor over that order, so
    a chain of [compress_once] steps — the inner loop of XCLUSTERBUILD
    phase 2 — costs O(log k) per step instead of O(k) array rebuilds.
    Accessors force materialization transparently (memoized). *)

val dot_products : t -> t -> float * float * float
(** [(Σσu², Σσv², Σσuσv)] over the union of the two supports. *)

val size_bytes : t -> int
(** 8 per indexed term, 4 per RLE run, plus an 8-byte header. *)

val pp : Format.formatter -> t -> unit

val of_parts : n:float -> top:(int * float) list -> bucket:int list ->
  bucket_avg:float -> t
(** Rebuilds a summary from serialized parts: exactly-indexed
    (term, frequency) pairs, the uniform bucket's term ids, and its
    average frequency. Order-insensitive; the two term sets must be
    disjoint. *)

val parts : t -> (int * float) list * int list * float
(** [(top, bucket, bucket_avg)], for serialization. *)
