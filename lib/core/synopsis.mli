(** The XCluster graph-synopsis data structure (Sec. 3), split into the
    two representations its lifecycle actually has:

    - {!Builder} — the mutable hashtable graph the construction
      algorithms ({!Reference}, {!Merge}, {!Pool}, {!Build}, {!Delta})
      work on. Nodes are structure-value clusters of document elements;
      each stores its element count, per-edge average child counts (the
      structural centroid), and a value summary.
    - {!Sealed} — the frozen, read-optimized form produced by {!freeze}:
      contiguous node arrays plus sorted CSR child/parent adjacency with
      a dense sid→index remap. A sealed synopsis never mutates, so the
      estimation pipeline ({!Plan}, {!Estimate}, {!Codec}, the
      [Xcluster] facade) accepts only this form and caches keyed on its
      {!Sealed.uid} need no invalidation machinery.

    Both types are abstract: all graph access goes through the accessor
    functions below — no raw adjacency [Hashtbl] escapes this module. *)

(** The mutable construction-time graph. *)
module Builder : sig
  type t
  type node
  (** A structure-value cluster. Handles stay valid until the node is
      removed (e.g. merged away); read them through the accessors. *)

  val create : doc_height:int -> t
  (** [doc_height] caps descendant-axis expansion at estimation time
      (carried into the sealed form by {!freeze}). *)

  val uid : t -> int
  (** Process-unique id of this builder value; {!copy} allocates a
      fresh one. *)

  val doc_height : t -> int

  val root : t -> int
  (** Sid of the root cluster; [-1] until {!set_root}. *)

  val set_root : t -> int -> unit
  val root_node : t -> node

  val add_node :
    t -> label:Xc_xml.Label.t -> vtype:Xc_xml.Value.vtype -> count:int ->
    vsumm:Xc_vsumm.Value_summary.t -> node
  (** Allocates a node with a fresh [sid] and registers it. *)

  val remove_node : t -> int -> unit
  (** Unregisters; does not patch edges (callers do). *)

  val find : t -> int -> node
  (** @raise Not_found when the node does not exist (e.g. was merged
      away). *)

  val mem : t -> int -> bool

  val sid : node -> int
  val label : node -> Xc_xml.Label.t
  val vtype : node -> Xc_xml.Value.vtype
  val count : node -> int  (** |extent| *)

  val vsumm : node -> Xc_vsumm.Value_summary.t

  val set_edge : t -> parent:int -> child:int -> float -> unit
  (** Sets the average child count of an edge, creating it if absent and
      deleting it when the count is 0. Maintains the reverse index. *)

  val edge_count : t -> parent:int -> child:int -> float
  (** 0 if the edge is absent. *)

  val set_vsumm : t -> node -> Xc_vsumm.Value_summary.t -> unit
  val set_count : t -> node -> int -> unit
  val n_nodes : t -> int
  val n_edges : t -> int
  val iter : (node -> unit) -> t -> unit
  val fold : ('a -> node -> 'a) -> 'a -> t -> 'a

  val succ : t -> node -> (int -> float -> unit) -> unit
  (** Iterate the node's outgoing edges as [f child_sid avg_count];
      unspecified order. *)

  val pred : t -> node -> (int -> unit) -> unit
  (** Iterate the node's parent sids; unspecified order. *)

  val child_avg : node -> int -> float
  (** Average count of the edge to the given child sid; 0 if absent. *)

  val has_parent : node -> int -> bool
  val out_degree : node -> int

  val group_key : node -> int * int * int
  (** The merge-compatibility class of a node: (label, value type,
      value-summary kind). Two nodes are candidates for a merge exactly
      when their keys are equal ({!Merge.compatible} restated as a
      hashable key). *)

  val group_keys : t -> (int * int * int) list
  (** Keys of every non-empty group, unspecified order. The group index
      is maintained incrementally by node add/remove and summary-kind
      changes — reading it never scans the node table. *)

  val group_size : t -> int * int * int -> int
  (** Number of nodes currently in a group; 0 for unknown keys. O(1). *)

  val iter_group : t -> int * int * int -> (node -> unit) -> unit
  (** Iterate the members of one group in ascending (count, sid) order.
      Cost is the group size, not the node count — this is what lets the
      merge pool find a new node's peers without a full scan. *)

  val group_members : t -> int * int * int -> node array * int
  (** [(arr, len)]: the group's backing array — the first [len] entries
      are the members in ascending (count, sid) order. Read-only view,
      valid until the group next changes; entries past [len] are
      garbage. Lets the merge pool binary-search a count and expand
      outward instead of scanning the whole group. *)

  val structural_bytes : t -> int
  (** {!Size.node_bytes} per node + {!Size.edge_bytes} per edge. *)

  val value_bytes : t -> int
  (** Total size of all value summaries. *)

  val n_value_nodes : t -> int
  (** Nodes carrying a non-trivial value summary (Table 1's "Value"
      node count). *)

  val copy : t -> t
  (** Deep copy: private edge tables, value summaries safe to compress
      independently. *)

  val validate : t -> (unit, string) result
  (** Structural invariants: edge tables mutually consistent, counts
      positive, root present, group index exactly mirroring the node
      table. Used by tests and assertions. *)

  val pp_stats : Format.formatter -> t -> unit
end

(** Node levels for the bottom-up pool heuristic (Sec. 4.3): the
    shortest outgoing path to a leaf descendant, computed once per pool
    replenish and updated in place as merges create nodes. Replaces the
    former raw [(int, int) Hashtbl.t] accessor. *)
module Levels : sig
  type t

  val compute : Builder.t -> t
  (** Level of every node: leaves are level 0; nodes trapped in cycles
      with no leaf-bound path get [1 + the maximum finite level]. *)

  val level : t -> int -> int option
  (** Level of a sid, if it was present at {!compute} time or {!set}
      since. *)

  val get : t -> default:int -> int -> int
  val set : t -> int -> int -> unit
  (** Record the level of a node created after {!compute} (the merge
      loop assigns new nodes [min] of their sources' levels). *)

  val max_level : t -> int
  (** Largest recorded level; 0 when empty. O(1). *)
end

(** The frozen read-path representation: nodes in ascending-sid index
    order ([index i] holds the i-th smallest sid), child and parent
    adjacency in CSR form sorted by target index within each row. All
    estimation folds run in this canonical index order. *)
module Sealed : sig
  type t

  type ba_f = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** The numeric backing store is flat and unboxed: the estimation hot
      loops read CSR rows straight out of [Bigarray.Array1] buffers, and
      the mmap-backed codec v3 load path can alias file-backed slices
      into the same fields zero-copy. *)

  type ba_i = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  val uid : t -> int
  (** Process-unique id; every {!freeze} allocates a fresh one. Plan
      caches key on it — a sealed synopsis never mutates, so the key
      never goes stale. *)

  val doc_height : t -> int
  val n_nodes : t -> int
  val n_edges : t -> int

  val root : t -> int
  (** Index of the root cluster. *)

  val root_sid : t -> int

  val sid_of_index : t -> int -> int
  (** The node's original builder sid (ascending in the index). *)

  val index_of_sid : t -> int -> int option

  val label : t -> int -> Xc_xml.Label.t
  (** Accessors below are all by node index, [0 .. n_nodes - 1]. *)

  val vtype : t -> int -> Xc_xml.Value.vtype
  val count : t -> int -> int

  val vsumm : t -> int -> Xc_vsumm.Value_summary.t
  (** Value summary of a node. Under a lazy codec v3 load the summary is
      decoded (and its section CRC-verified) on first access and
      memoized; a deferred verification failure surfaces here as the
      codec's exception. Synopses from {!freeze} are fully materialized
      and never raise. *)

  val labels : t -> Xc_xml.Label.t array
  (** The physical node arrays ([labels], [counts]) stay boxed OCaml
      arrays — cold paths index them directly. Treat as read-only. *)

  val counts : t -> int array

  val fcounts : t -> ba_f
  (** [float_of_int] of {!counts}, precomputed for the document-node
      estimation kernel. Like all [_ba] views below, reading it runs any
      deferred codec verification hook first. *)

  val child_off_ba : t -> ba_i
  (** The unboxed CSR adjacency, the estimation hot-path view: node
      [i]'s children are [child_idx.(child_off.(i)) ..
      child_idx.(child_off.(i+1)-1)], sorted ascending by target index,
      with matching [child_avg] weights; parents analogous. Offsets have
      length [n_nodes + 1]. Treat as read-only — a sealed synopsis is
      frozen, and under codec v3 the buffer may alias a read-only file
      mapping. *)

  val child_idx_ba : t -> ba_i
  val child_avg_ba : t -> ba_f
  val parent_off_ba : t -> ba_i
  val parent_idx_ba : t -> ba_i

  val of_flat :
    doc_height:int -> root:int -> sids:int array ->
    labels:Xc_xml.Label.t array -> vtypes:Xc_xml.Value.vtype array ->
    counts:int array -> child_off:ba_i -> child_idx:ba_i ->
    child_avg:ba_f -> parent_off:ba_i -> parent_idx:ba_i ->
    vsumms:Xc_vsumm.Value_summary.t option array ->
    vsumm_decode:(int -> Xc_vsumm.Value_summary.t) option ->
    on_first_touch:(t -> unit) option -> t
  (** Direct construction from decoded parts — the codec's load path,
      which bypasses the Builder round trip. A fresh {!uid} is
      allocated and [fcounts] derived from [counts]. [vsumm_decode]
      fills [None] cells of [vsumms] on demand; [on_first_touch] runs
      once, on the synopsis itself, before the first numeric-buffer
      access (deferred verification: section CRCs, then
      {!invariants}). If it raises, the synopsis remembers the
      exception and re-raises that same exception at every later
      numeric access, without running the hook again. The caller owns the structural invariants;
      {!validate} checks them (forcing the touch hook, not the value
      summaries). *)

  val edge_count : t -> parent:int -> child:int -> float
  (** By sid, mirroring {!Builder.edge_count}: binary search over the
      sorted CSR row; 0 if either sid is absent or the edge is. *)

  val succ : t -> int -> (int * float) list
  (** Outgoing edges of a cluster (by sid) as [(child sid, avg count)],
      ascending by child sid. *)

  val pred : t -> int -> int list
  (** Parent sids of a cluster (by sid), ascending. *)

  val out_degree : t -> int -> int
  val structural_bytes : t -> int
  val value_bytes : t -> int
  val n_value_nodes : t -> int

  val validate : t -> (unit, string) result
  (** CSR invariants: offsets monotone and bounded, rows sorted and
      duplicate-free, child/parent rows mutually consistent, counts
      positive, sids ascending, root in range. Runs the first-touch
      hook first, so on a lazily loaded synopsis a deferred failure
      raises the codec's exception. *)

  val invariants : t -> (unit, string) result
  (** The checks of {!validate} over the raw buffers, without running
      the first-touch hook — what that hook itself runs, so a mapped
      synopsis is held to exactly the rules a decoded one is. *)

  val pp_stats : Format.formatter -> t -> unit
end

val freeze : Builder.t -> Sealed.t
(** Snapshot the builder into the read-optimized sealed form. The
    builder is unchanged and may keep mutating — value summaries are
    deep-copied, so later in-place compression cannot reach the sealed
    value. @raise Invalid_argument if the builder has no valid root. *)
