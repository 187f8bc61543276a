(** Pruned Suffix Trees (PSTs) — the STRING value summaries.

    A PST is a trie over the substrings of a string collection. Each trie
    node represents one substring and records a {e presence count}: the
    number of strings in the collection that contain the substring at
    least once (this is the quantity substring selectivity needs). The
    tree is bounded in depth at construction and can be pruned leaf by
    leaf to meet a space budget; estimates for pruned substrings fall
    back on the Markovian assumption of Jagadish–Ng–Srivastava (PODS'99):
    [P(s1..sn) = P(s1..sk) * P(s2..sn) / P(s2..sk)].

    Following the paper's modification of the original PST proposal, the
    tree always keeps at least one node per symbol occurring in the
    distribution (depth-1 nodes are never pruned), which prevents large
    errors on negative substring queries. *)

type t

val build : ?max_depth:int -> ?max_nodes:int -> string list -> t
(** Builds the PST of the collection: all substrings of length at most
    [max_depth] (default 8) with presence counts, then pruned down to
    [max_nodes] (default 4096) by the minimal-pruning-error scheme. *)

val n_strings : t -> float
(** Number of strings summarized (float: merges create mixtures). *)

val n_nodes : t -> int
(** Current number of trie nodes (root excluded). *)

val count : t -> string -> float option
(** Exact presence count if the substring is retained, [None] if pruned
    or absent. The empty string maps to [n_strings]. *)

val selectivity : t -> string -> float
(** Estimated fraction of strings containing the substring, in [0,1];
    exact for retained substrings, Markov-estimated otherwise. *)

val merge : t -> t -> t
(** Fusion per Sec. 4.1: union of the tries with counts summed. *)

val prune_once : t -> (float * int) option
(** Prunes the prunable leaf with minimal pruning error. Returns
    [(err, bytes_saved)] where [err] is the squared difference between
    the retained and post-prune estimates of the leaf's substring, or
    [None] if nothing can be pruned (only depth-1 nodes remain). *)

val peek_prune : t -> float option
(** Pruning error the next {!prune_once} would incur, without pruning. *)

val prune_to : t -> int -> unit
(** Prunes until [n_nodes] is at most the argument (or no leaf is
    prunable). *)

val iter_substrings : (string -> float -> unit) -> t -> unit
(** Applies the callback to every retained substring with its count,
    in depth-first order. The atomic predicates of the Δ metric. *)

val dot_products : t -> t -> float * float * float
(** [(Σσu², Σσv², Σσuσv)] over the union of retained substrings of the
    two trees, where σx is the exact fraction in tree x and 0 when the
    substring is not retained there (see DESIGN.md for the
    approximation). Used by the Δ metric in closed form. *)

val size_bytes : t -> int
(** 9 bytes per node (symbol + count + structure). *)

val pp : Format.formatter -> t -> unit
(** Prints node and string counts only. *)

val copy : t -> t
(** Deep structural copy (fresh nodes, fresh pruning queue). Needed
    because pruning mutates in place while budget sweeps keep several
    snapshots of the same synopsis alive. *)

val of_substrings : ?total_len:float -> n:float -> max_depth:int ->
  (string * float) list -> t
(** Rebuilds a PST from retained (substring, presence count) pairs, as
    produced by {!iter_substrings}. Every proper prefix of a listed
    substring must also be listed (true for any PST, whose retained set
    is prefix-closed). *)

val max_depth : t -> int
(** The depth bound the tree was built with. *)

val total_len : t -> float
(** Summed length of the summarized strings (drives the adjacency-aware
    Markov fallback; see {!selectivity}). *)
