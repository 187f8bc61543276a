(** The unified value-summary layer: one [vsumm] per XCluster node.

    Dispatches to {!Histogram} (NUMERIC), {!Pst} (STRING) or
    {!Term_hist} (TEXT), and exposes exactly the operations the
    construction algorithm needs: size accounting, fusion during node
    merges, the closed-form dot products of the Δ metric, and the three
    value-compression operators of Sec. 4.2 ([hist_cmprs], [st_cmprs],
    [tv_cmprs]). *)

type t =
  | Vnone                 (** no summary (Null type, or undesignated path) *)
  | Vnum of Histogram.t
  | Vstr of Pst.t
  | Vtext of Term_hist.t

val vnone : t

val of_values : ?hist_buckets:int -> ?pst_depth:int -> ?pst_nodes:int ->
  ?top_terms:int -> Xc_xml.Value.t list -> t
(** Builds a detailed (reference-grade) summary from a homogeneous value
    collection; [Vnone] on an empty or all-null collection. The optional
    caps bound the reference detail (DESIGN.md). *)

val fits : Xc_xml.Value.vtype -> t -> bool
(** Whether a node of this value type may carry the summary: Sec. 3
    fixes a summary's form by its node's type, so it is [Vnone] or the
    type's kind (NUMERIC histogram, STRING PST, TEXT term histogram). *)

val size_bytes : t -> int

val fuse : t -> t -> t
(** Merge-time fusion (Sec. 4.1). Both arguments must have the same
    constructor; fusing [Vnone] with [Vnone] is [Vnone].
    @raise Invalid_argument on a constructor mismatch. *)

val pred_dots : t -> t -> float * float * float
(** [(Σ_p σ_u(p)², Σ_p σ_v(p)², Σ_p σ_u(p)σ_v(p))] over the union of the
    atomic predicates of both summaries (Sec. 4.1). For [Vnone] the
    predicate set is the single trivial predicate with σ = 1. *)

val self_dots : t -> float
(** [Σ_p σ(p)²] over the summary's own atomic predicates (1.0 for
    [Vnone]); the [pred_dots] diagonal, used for single-node Δ terms. *)

type step = {
  err : float;  (** Σ_p (σ_p − σ′_p)² of the step *)
  saved : int;  (** bytes saved by the step *)
  apply : unit -> t;
      (** the compressed summary; carries the preview's product, so
          applying costs nothing beyond the preview itself. Valid only
          while the summary is unchanged since {!compress_step} (for
          [Vstr] it prunes the shared tree in place). *)
}

val compress_step : t -> step option
(** Previews the next compression step on this summary and returns it
    together with an [apply] thunk that finalizes it without redoing
    the preview's work. [None] when the summary cannot be compressed
    further. *)

val numeric_selectivity : t -> lo:int -> hi:int -> float
(** σ of a range predicate [\[lo, hi\]] (inclusive). [Vnone] → 0.0:
    a typed cluster without a summary is an undesignated path, and
    treating it as all-pass would make generalized steps ([//tag]) pull
    in whole unsummarized extents.
    @raise Invalid_argument on other constructors. *)

val substring_selectivity : t -> string -> float
(** σ of [contains(qs)]. [Vnone] → 0.0. *)

val text_selectivity : t -> Xc_xml.Dictionary.term list -> float
(** σ of [ftcontains(t1,...,tk)]. [Vnone] → 0.0. *)

val type_name : t -> string
val pp : Format.formatter -> t -> unit

val copy : t -> t
(** Deep copy safe to compress independently of the original. *)

val term_frequency : t -> Xc_xml.Dictionary.term -> float
(** Estimated fractional frequency of a single term ([Vtext] only;
    [Vnone] → 0.0). Used to compose Boolean-model predicates beyond
    conjunction (disjunction, negation). *)
