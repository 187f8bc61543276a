(** The paper's evaluation metric (Sec. 6.1).

    Accuracy is the average absolute relative error
    [|c − e| / max(c, s)] over a workload, where [s] is a {e sanity
    bound} — the 10-percentile of true counts — that stops very-low-count
    queries from dominating the average. *)

val relative_error : sanity:float -> truth:float -> est:float -> float
(** [|truth − est| / max(truth, sanity)]. *)

val mean : float list -> float
(** 0 on the empty list. *)

type scored = {
  entry : Xc_twig.Workload.entry;
  est : float;
}

val score : (Xc_twig.Twig_query.t -> float) -> Xc_twig.Workload.entry list ->
  scored list
(** Runs the estimator over a workload. *)

val overall_relative : sanity:float -> scored list -> float

val per_class_relative : sanity:float -> scored list ->
  (Xc_twig.Twig_query.query_class * float) list
(** Average relative error per query class, classes in report order. *)

val low_count_absolute : sanity:float -> scored list ->
  (Xc_twig.Twig_query.query_class * float * float) list
(** For queries with true count below the sanity bound: per class,
    (average absolute error, average true count) — Figure 9. *)
