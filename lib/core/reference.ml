open Xc_xml

type detail = {
  hist_buckets : int;
  pst_depth : int;
  pst_nodes : int;
  top_terms : int;
}

let default_detail =
  { hist_buckets = 64; pst_depth = 8; pst_nodes = 1024; top_terms = 4096 }

(* ---- partition refinement to count-stability ------------------------ *)

(* An element's refinement signature: its cluster, its parent's cluster,
   then its (child cluster, count) runs in child-cluster order. Two
   elements stay together exactly when their signatures are equal. *)
module Sig_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  let hash (a : t) =
    let h = ref (Array.length a) in
    Array.iter (fun x -> h := (!h * 31) + x) a;
    !h land max_int
end)

(* Refinement with a minimum extent: a full count-stable split can
   fragment clusters into extents of a handful of elements each, which
   starves the value budget (thousands of near-empty summaries). Within
   each cluster, signature fragments smaller than [min_extent] are
   pooled into a single residual sub-cluster; large fragments split off
   exactly. The result is approximately count-stable, trading bounded
   cluster impurity for summaries with enough mass to matter — the same
   engineering latitude the paper exercises (its reference-synopsis
   details are deferred to the unpublished full version). *)
let refine ?(min_extent = 1) ?value_min_extent doc initial =
  let value_min_extent = Option.value ~default:min_extent value_min_extent in
  let nodes = doc.Document.nodes in
  let parents = doc.Document.parents in
  let n = Array.length nodes in
  (* per-element pooling threshold: value-bearing elements use the larger
     bound so that value summaries only split along heavyweight
     structural classes and the value budget is not shredded across
     hundreds of near-empty summaries *)
  let threshold i =
    match Value.vtype nodes.(i).Node.value with
    | Value.Tnull -> min_extent
    | Value.Tnumeric | Value.Tstring | Value.Ttext -> max min_extent value_min_extent
  in
  let cluster = Array.copy initial in
  let changed = ref true in
  let rounds = ref 0 in
  let max_rounds = (2 * doc.Document.height) + 4 in
  let fresh = Sig_table.create 1024 in
  let max_children =
    Array.fold_left (fun m node -> max m (Array.length node.Node.children)) 0 nodes
  in
  let buf = Array.make (2 + (2 * max_children)) 0 in
  while !changed && !rounds < max_rounds do
    incr rounds;
    Sig_table.clear fresh;
    let next = ref 0 in
    let renamed = Array.make n (-1) in
    for i = 0 to n - 1 do
      buf.(0) <- cluster.(i);
      (* backward stability: "exactly one incoming path" requires all
         elements of a cluster to have parents in a single cluster, so
         the parent's cluster joins the signature *)
      buf.(1) <- (if parents.(i) < 0 then -1 else cluster.(parents.(i)));
      (* per-child-cluster counts, order-insensitive: (child cluster,
         count) runs kept sorted by insertion, since child lists are
         short and span few clusters *)
      let len = ref 2 in
      Array.iter
        (fun c ->
          let cc = cluster.(c.Node.id) in
          let j = ref (!len - 2) in
          while !j >= 2 && buf.(!j) > cc do
            j := !j - 2
          done;
          if !j >= 2 && buf.(!j) = cc then buf.(!j + 1) <- buf.(!j + 1) + 1
          else begin
            let at = !j + 2 in
            Array.blit buf at buf (at + 2) (!len - at);
            buf.(at) <- cc;
            buf.(at + 1) <- 1;
            len := !len + 2
          end)
        nodes.(i).Node.children;
      let key = Array.sub buf 0 !len in
      let id =
        match Sig_table.find_opt fresh key with
        | Some id -> id
        | None ->
          let id = !next in
          incr next;
          Sig_table.add fresh key id;
          id
      in
      renamed.(i) <- id
    done;
    (* pool small fragments back into one residual fragment per parent
       cluster *)
    (if min_extent > 1 || value_min_extent > 1 then begin
       let frag_size = Array.make !next 0 in
       for i = 0 to n - 1 do
         frag_size.(renamed.(i)) <- frag_size.(renamed.(i)) + 1
       done;
       (* residual id per (old cluster): reuse the first small fragment *)
       let residual = Hashtbl.create 64 in
       for i = 0 to n - 1 do
         if frag_size.(renamed.(i)) < threshold i then begin
           let old = cluster.(i) in
           match Hashtbl.find_opt residual old with
           | Some r -> renamed.(i) <- r
           | None -> Hashtbl.add residual old renamed.(i)
         end
       done;
       (* compact ids *)
       let compact = Hashtbl.create 1024 in
       let next' = ref 0 in
       for i = 0 to n - 1 do
         match Hashtbl.find_opt compact renamed.(i) with
         | Some id -> renamed.(i) <- id
         | None ->
           Hashtbl.add compact renamed.(i) !next';
           renamed.(i) <- !next';
           incr next'
       done;
       next := !next'
     end);
    let n_old = Array.fold_left max 0 cluster + 1 in
    changed := !next <> n_old;
    Array.blit renamed 0 cluster 0 n
  done;
  cluster

(* ---- synopsis assembly ---------------------------------------------- *)

let vtype_tag = function
  | Value.Tnull -> 0
  | Value.Tnumeric -> 1
  | Value.Tstring -> 2
  | Value.Ttext -> 3

let assemble ~detail ~value_paths doc cluster =
  let nodes = doc.Document.nodes in
  let path_of = doc.Document.summary.path_of in
  let n = Array.length nodes in
  let syn = Synopsis.Builder.create ~doc_height:doc.Document.height in
  let n_clusters = Array.fold_left max 0 cluster + 1 in
  (* per-cluster aggregates *)
  let counts = Array.make n_clusters 0 in
  let member = Array.make n_clusters (-1) in
  for i = 0 to n - 1 do
    let c = cluster.(i) in
    counts.(c) <- counts.(c) + 1;
    if member.(c) < 0 then member.(c) <- i
  done;
  let designated = Document.designated doc value_paths in
  (* per-cluster value collections (only where designated) *)
  let values = Array.make n_clusters [] in
  for i = n - 1 downto 0 do
    let c = cluster.(i) in
    match nodes.(i).Node.value with
    | Value.Null -> ()
    | v -> if designated.(path_of.(i)) then values.(c) <- v :: values.(c)
  done;
  let vsumms =
    Xc_util.Metrics.time Xc_util.Meters.Reference.vsumm (fun () ->
        Array.map
          (function
            | [] -> Xc_vsumm.Value_summary.vnone
            | vs ->
              Xc_vsumm.Value_summary.of_values ~hist_buckets:detail.hist_buckets
                ~pst_depth:detail.pst_depth ~pst_nodes:detail.pst_nodes
                ~top_terms:detail.top_terms vs)
          values)
  in
  (* allocate synopsis nodes *)
  let sid_of = Array.make n_clusters (-1) in
  for c = 0 to n_clusters - 1 do
    if counts.(c) > 0 then begin
      let repr = nodes.(member.(c)) in
      let snode =
        Synopsis.Builder.add_node syn ~label:repr.Node.label
          ~vtype:(Value.vtype repr.Node.value) ~count:counts.(c) ~vsumm:vsumms.(c)
      in
      sid_of.(c) <- Synopsis.Builder.sid snode
    end
  done;
  (* edges: total children per (parent cluster, child cluster) *)
  let edge_totals = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    let pc = cluster.(i) in
    Array.iter
      (fun child ->
        let key = (pc, cluster.(child.Node.id)) in
        Hashtbl.replace edge_totals key
          (1 + Option.value ~default:0 (Hashtbl.find_opt edge_totals key)))
      nodes.(i).Node.children
  done;
  Hashtbl.iter
    (fun (pc, cc) total ->
      Synopsis.Builder.set_edge syn ~parent:sid_of.(pc) ~child:sid_of.(cc)
        (float_of_int total /. float_of_int counts.(pc)))
    edge_totals;
  Synopsis.Builder.set_root syn sid_of.(cluster.(0));
  syn

let build ?(detail = default_detail) ?(min_extent = 48) ?value_min_extent
    ?value_paths doc =
  let path_of = doc.Document.summary.path_of in
  let n = Document.n_elements doc in
  (* initial partition = (label path, value type) *)
  let fresh = Hashtbl.create 256 in
  let next = ref 0 in
  let initial =
    Array.init n (fun i ->
        let key =
          (path_of.(i), vtype_tag (Value.vtype doc.Document.nodes.(i).Node.value))
        in
        match Hashtbl.find_opt fresh key with
        | Some id -> id
        | None ->
          let id = !next in
          incr next;
          Hashtbl.add fresh key id;
          id)
  in
  let cluster =
    Xc_util.Metrics.time Xc_util.Meters.Reference.refine (fun () ->
        refine ~min_extent ?value_min_extent doc initial)
  in
  assemble ~detail ~value_paths doc cluster

let tag_only ?(detail = default_detail) ?value_paths doc =
  let n = Document.n_elements doc in
  let fresh = Hashtbl.create 256 in
  let next = ref 0 in
  let cluster =
    Array.init n (fun i ->
        let node = doc.Document.nodes.(i) in
        let key = (node.Node.label, vtype_tag (Value.vtype node.Node.value)) in
        match Hashtbl.find_opt fresh key with
        | Some id -> id
        | None ->
          let id = !next in
          incr next;
          Hashtbl.add fresh key id;
          id)
  in
  assemble ~detail ~value_paths doc cluster
