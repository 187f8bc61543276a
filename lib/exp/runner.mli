(** Experiment driver reproducing the paper's evaluation (Sec. 6).

    A {!dataset} bundles a generated document, its reference synopsis,
    and a positive workload; the experiment functions then regenerate
    each table/figure of the paper:

    - {!table1}: data set characteristics,
    - {!table2}: workload characteristics,
    - {!fig8}: average relative error vs structural budget
      (series Overall / Numeric / String / Text / Struct),
    - {!fig9}: average absolute error of low-count queries,
    - {!negative_check}: the paper's negative-workload remark,
    - {!ablation_delta} / {!ablation_text}: DESIGN.md A1 and A2.

    [scale] shrinks the default document populations for quick runs
    (1.0 reproduces the paper's ≈200k-element scale). *)

type dataset = {
  name : string;
  doc : Xc_xml.Document.t;
  reference : Xc_core.Synopsis.Builder.t;
      (** still mutable: sweeps and ablations re-compress it under
          different budgets ({!Xc_core.Build} copies before mutating) *)
  workload : Xc_twig.Workload.entry list;
  sanity : float;
  value_paths : Xc_xml.Label.t list list;
      (** the designated summary paths (7 for IMDB, 9 groups for XMark) *)
  min_extent : int;
  value_min_extent : int;
}

val imdb : ?scale:float -> ?n_queries:int -> unit -> dataset
val xmark : ?scale:float -> ?n_queries:int -> unit -> dataset

val dblp : ?scale:float -> ?n_queries:int -> unit -> dataset
(** A third data set beyond the paper's two: the bibliographic domain of
    the paper's running example (Figure 1 / the intro query). Used by
    the extra [fig8c] bench target. *)

type table1_row = {
  ds : string;
  file_mb : float;
  n_elements : int;
  ref_kb : float;
  value_nodes : int;
  total_nodes : int;
}

val table1 : dataset -> table1_row

type table2_row = {
  ds2 : string;
  avg_struct : float;  (** avg true result size, structural queries *)
  avg_pred : float;    (** avg true result size, predicate queries *)
}

val table2 : dataset -> table2_row

type sweep_point = {
  bstr_kb : int;
  total_kb : int;      (** bstr + bval, the paper's x axis *)
  overall_err : float;
  class_errs : (Xc_twig.Twig_query.query_class * float) list;
}

val fig8 : ?budgets_kb:int list -> ?bval_kb:int -> dataset -> sweep_point list
(** Default budgets 0,5,...,50 KB structural with 150KB value budget
    (the paper's sweep). Synopses share the greedy merge prefix. *)

val fig9 : ?bstr_kb:int -> ?bval_kb:int -> dataset ->
  (Xc_twig.Twig_query.query_class * float * float) list
(** Low-count absolute errors at the paper's 200KB point
    (per class: avg absolute error, avg true count). *)

val negative_check : ?bstr_kb:int -> ?bval_kb:int -> ?n:int -> dataset -> float
(** Average estimate over a zero-selectivity workload (the paper reports
    "close to zero for all budgets"). *)

val ablation_delta : ?budgets_kb:int list -> ?bval_kb:int -> dataset ->
  (int * float * float) list
(** Per structural budget: structural-query error with the full
    structure-value Δ vs with the structure-only (TREESKETCH-style) Δ. *)

val ablation_text : ?top_ks:int list -> dataset ->
  (int * float * float) list
(** Per reference [top_k]: TEXT-query error with end-biased term
    histograms vs a naive all-in-one-bucket summary (top_k = 0),
    at a fixed budget. Returns (top_k, end-biased error, naive error
    baseline repeated). *)

val estimator : Xc_core.Synopsis.Sealed.t -> Xc_twig.Twig_query.t -> float
(** The compiled estimation pipeline: partial application
    [estimator syn] allocates a {!Xc_core.Plan.Cache} for the synopsis,
    and the returned closure estimates through it, sharing plans and
    memoized reach expansions across queries. Floats are identical to
    {!Xc_core.Estimate.selectivity}. *)

val workload_queries : dataset -> Xc_twig.Twig_query.t array
(** The positive workload as a query array (workload order) — the shape
    {!Xc_core.Plan.Batch} serves. *)

val ablation_numeric : ?budget_bytes:int -> ?n_queries:int -> dataset ->
  (string * float) list
(** DESIGN.md A4: equi-depth vs MaxDiff vs equi-width histograms vs Haar
    wavelets, each given the same byte budget (default 256B), scored by
    average relative error on random range queries over the dataset's
    numeric values. Standalone summary comparison (the synopsis pipeline
    itself uses equi-depth, like the paper's prototype). *)

val auto_split_demo : ?total_kb:int -> dataset -> (int * int * float) list
(** The Sec. 4.3 future-work experiment: for each candidate Bstr/Bval
    split of a unified budget (default 200KB total), the workload error —
    with the winner found by {!Xc_core.Build.auto_split} listed by its
    actual budgets. Rows are (bstr_kb, bval_kb, overall error). *)
