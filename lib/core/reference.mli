(** Reference-synopsis construction (Sec. 4.3).

    The reference synopsis is the detailed starting point of
    XCLUSTERBUILD: a refinement of the lossless count-stable summary in
    which every cluster (a) groups elements with the same label path
    from the root — "exactly one incoming path", capturing path-to-value
    correlations — (b) is count-stable: all elements of a cluster have
    the same number of children in every other cluster, and (c) carries
    a detailed value summary of its extent's values.

    Construction is a partition-refinement fixpoint: start from the
    (label-path × value-type) partition and split clusters by their
    per-child-cluster count signatures until stable. *)

type detail = {
  hist_buckets : int;  (** reference histogram buckets (default 64) *)
  pst_depth : int;     (** max indexed substring length (default 8) *)
  pst_nodes : int;     (** reference PST node cap (default 1024) *)
  top_terms : int;     (** reference exactly-indexed terms (default 4096) *)
}

val default_detail : detail

val build : ?detail:detail -> ?min_extent:int -> ?value_min_extent:int ->
  ?value_paths:Xc_xml.Label.t list list -> Xc_xml.Document.t -> Synopsis.Builder.t
(** Builds the reference synopsis. [value_paths] designates the label
    paths that receive value summaries (the paper hand-picks 7 for IMDB
    and 9 for XMark); default: every value-bearing path. [min_extent]
    (default 48) pools signature fragments smaller than that many
    elements into a residual cluster, keeping reference clusters heavy
    enough that their value summaries carry statistical weight; 1
    recovers the exact count-stable refinement. [value_min_extent]
    (default = [min_extent]) is the same bound for value-bearing
    elements: setting it higher makes value summaries split only along
    heavyweight structural classes, so a fixed value budget is not
    shredded across hundreds of tiny summaries. *)

val tag_only : ?detail:detail -> ?value_paths:Xc_xml.Label.t list list ->
  Xc_xml.Document.t -> Synopsis.Builder.t
(** The smallest possible structural summary: clusters elements solely
    by (tag, value type) — the paper's 0KB structural-budget point. *)
