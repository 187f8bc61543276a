let next_uid = ref 0

let fresh_uid () =
  let u = !next_uid in
  incr next_uid;
  u

module Builder = struct
  type node = {
    sid : int;
    label : Xc_xml.Label.t;
    vtype : Xc_xml.Value.vtype;
    mutable count : int;
    mutable vsumm : Xc_vsumm.Value_summary.t;
    children : (int, float) Hashtbl.t;
    parents : (int, unit) Hashtbl.t;
  }

  (* group members as a dynamic array kept sorted by (count, sid): a
     node's count never changes while it is grouped (merges create new
     nodes), so membership updates are pure insert/remove — and the
     merge pool can binary-search a node's count and expand outward to
     find its nearest peers instead of scanning the whole group *)
  type members = {
    mutable marr : node array;
    mutable mlen : int;
  }

  type t = {
    nodes : (int, node) Hashtbl.t;
    groups : (int * int * int, members) Hashtbl.t;
    (* group_key -> member set, maintained incrementally so the merge
       pool never has to rescan all nodes to find a node's peers *)
    mutable root : int;
    mutable next_sid : int;
    doc_height : int;
    uid : int;
  }

  let create ~doc_height =
    { nodes = Hashtbl.create 256; groups = Hashtbl.create 64; root = -1;
      next_sid = 0; doc_height; uid = fresh_uid () }

  let vsumm_kind = function
    | Xc_vsumm.Value_summary.Vnone -> 0
    | Xc_vsumm.Value_summary.Vnum _ -> 1
    | Xc_vsumm.Value_summary.Vstr _ -> 2
    | Xc_vsumm.Value_summary.Vtext _ -> 3

  let vtype_tag = function
    | Xc_xml.Value.Tnull -> 0
    | Xc_xml.Value.Tnumeric -> 1
    | Xc_xml.Value.Tstring -> 2
    | Xc_xml.Value.Ttext -> 3

  let group_key node =
    ((node.label :> int), vtype_tag node.vtype, vsumm_kind node.vsumm)

  let member_before a b = a.count < b.count || (a.count = b.count && a.sid < b.sid)

  (* leftmost index whose member is not before [node] — the insertion
     point, and the node's own slot when present ((count, sid) is
     unique within a group) *)
  let member_pos m node =
    let lo = ref 0 and hi = ref m.mlen in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if member_before m.marr.(mid) node then lo := mid + 1 else hi := mid
    done;
    !lo

  let group_add t node =
    let key = group_key node in
    let m =
      match Hashtbl.find_opt t.groups key with
      | Some m -> m
      | None ->
        let m = { marr = Array.make 8 node; mlen = 0 } in
        Hashtbl.add t.groups key m;
        m
    in
    if m.mlen = Array.length m.marr then begin
      let bigger = Array.make (2 * m.mlen) node in
      Array.blit m.marr 0 bigger 0 m.mlen;
      m.marr <- bigger
    end;
    let pos = member_pos m node in
    Array.blit m.marr pos m.marr (pos + 1) (m.mlen - pos);
    m.marr.(pos) <- node;
    m.mlen <- m.mlen + 1

  let group_delete t node =
    let key = group_key node in
    match Hashtbl.find_opt t.groups key with
    | None -> ()
    | Some m ->
      let pos = member_pos m node in
      if pos < m.mlen && m.marr.(pos).sid = node.sid then begin
        Array.blit m.marr (pos + 1) m.marr pos (m.mlen - pos - 1);
        m.mlen <- m.mlen - 1;
        if m.mlen = 0 then Hashtbl.remove t.groups key
        else m.marr.(m.mlen) <- m.marr.(0) (* drop the dangling reference *)
      end

  let uid t = t.uid
  let doc_height t = t.doc_height
  let root t = t.root
  let set_root t sid = t.root <- sid

  let make_node ~sid ~label ~vtype ~count ~vsumm =
    { sid; label; vtype; count; vsumm;
      children = Hashtbl.create 4;
      parents = Hashtbl.create 4 }

  let check_fits vtype vsumm =
    if not (Xc_vsumm.Value_summary.fits vtype vsumm) then
      invalid_arg "Synopsis.Builder: value summary does not fit the node's type"

  let add_node t ~label ~vtype ~count ~vsumm =
    check_fits vtype vsumm;
    let sid = t.next_sid in
    t.next_sid <- sid + 1;
    let node = make_node ~sid ~label ~vtype ~count ~vsumm in
    Hashtbl.replace t.nodes sid node;
    group_add t node;
    node

  let remove_node t sid =
    (match Hashtbl.find_opt t.nodes sid with
    | Some node -> group_delete t node
    | None -> ());
    Hashtbl.remove t.nodes sid
  let find t sid = Hashtbl.find t.nodes sid
  let mem t sid = Hashtbl.mem t.nodes sid
  let root_node t = find t t.root
  let sid node = node.sid
  let label node = node.label
  let vtype node = node.vtype
  let count node = node.count
  let vsumm node = node.vsumm

  let set_edge t ~parent ~child avg =
    let p = find t parent and c = find t child in
    if avg <= 0.0 then begin
      Hashtbl.remove p.children child;
      Hashtbl.remove c.parents parent
    end
    else begin
      Hashtbl.replace p.children child avg;
      Hashtbl.replace c.parents parent ()
    end

  let edge_count t ~parent ~child =
    match Hashtbl.find_opt (find t parent).children child with
    | Some avg -> avg
    | None -> 0.0

  let set_vsumm t node vsumm =
    check_fits node.vtype vsumm;
    (* the summary kind is part of the group key; compression keeps the
       kind in practice, but a kind change must re-home the node *)
    if vsumm_kind node.vsumm = vsumm_kind vsumm then
      node.vsumm <- vsumm
    else begin
      group_delete t node;
      node.vsumm <- vsumm;
      group_add t node
    end

  let set_count t node count =
    (* the group index is sorted by count — re-home the node *)
    group_delete t node;
    node.count <- count;
    group_add t node
  let n_nodes t = Hashtbl.length t.nodes
  let iter f t = Hashtbl.iter (fun _ node -> f node) t.nodes
  let fold f init t = Hashtbl.fold (fun _ node acc -> f acc node) t.nodes init
  let n_edges t = fold (fun acc node -> acc + Hashtbl.length node.children) 0 t

  let succ _t node f = Hashtbl.iter f node.children
  let pred _t node f = Hashtbl.iter (fun sid () -> f sid) node.parents

  let child_avg node child =
    Option.value ~default:0.0 (Hashtbl.find_opt node.children child)

  let has_parent node parent = Hashtbl.mem node.parents parent
  let out_degree node = Hashtbl.length node.children

  let group_keys t = Hashtbl.fold (fun key _ acc -> key :: acc) t.groups []

  let group_size t key =
    match Hashtbl.find_opt t.groups key with
    | Some m -> m.mlen
    | None -> 0

  let iter_group t key f =
    match Hashtbl.find_opt t.groups key with
    | Some m ->
      for i = 0 to m.mlen - 1 do
        f m.marr.(i)
      done
    | None -> ()

  let group_members t key =
    match Hashtbl.find_opt t.groups key with
    | Some m -> (m.marr, m.mlen)
    | None -> ([||], 0)

  let structural_bytes t =
    fold
      (fun acc node ->
        acc + Size.node_bytes + (Size.edge_bytes * Hashtbl.length node.children))
      0 t

  let value_bytes t =
    fold (fun acc node -> acc + Xc_vsumm.Value_summary.size_bytes node.vsumm) 0 t

  let n_value_nodes t =
    fold
      (fun acc node ->
        match node.vsumm with
        | Xc_vsumm.Value_summary.Vnone -> acc
        | Xc_vsumm.Value_summary.Vnum _ | Vstr _ | Vtext _ -> acc + 1)
      0 t

  let copy t =
    let fresh = Hashtbl.create (Hashtbl.length t.nodes) in
    Hashtbl.iter
      (fun sid node ->
        Hashtbl.replace fresh sid
          { node with
            vsumm = Xc_vsumm.Value_summary.copy node.vsumm;
            children = Hashtbl.copy node.children;
            parents = Hashtbl.copy node.parents })
      t.nodes;
    let t' =
      { nodes = fresh; groups = Hashtbl.create (Hashtbl.length t.groups);
        root = t.root; next_sid = t.next_sid; doc_height = t.doc_height;
        uid = fresh_uid () }
    in
    Hashtbl.iter (fun _ node -> group_add t' node) fresh;
    t'

  let validate t =
    let problems = ref [] in
    let bad fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
    if not (mem t t.root) then bad "root %d missing" t.root;
    iter
      (fun node ->
        if node.count <= 0 then bad "node %d has count %d" node.sid node.count;
        Hashtbl.iter
          (fun child avg ->
            if avg <= 0.0 then bad "edge %d->%d has avg %f" node.sid child avg;
            match Hashtbl.find_opt t.nodes child with
            | None -> bad "edge %d->%d dangles" node.sid child
            | Some c ->
              if not (Hashtbl.mem c.parents node.sid) then
                bad "edge %d->%d missing reverse index" node.sid child)
          node.children;
        Hashtbl.iter
          (fun parent () ->
            match Hashtbl.find_opt t.nodes parent with
            | None -> bad "parent %d of %d dangles" parent node.sid
            | Some p ->
              if not (Hashtbl.mem p.children node.sid) then
                bad "parent edge %d->%d missing forward index" parent node.sid)
          node.parents;
        (match Hashtbl.find_opt t.groups (group_key node) with
        | Some m ->
          let pos = member_pos m node in
          if not (pos < m.mlen && m.marr.(pos) == node) then
            bad "node %d missing from its group" node.sid
        | None -> bad "node %d missing from its group" node.sid))
      t;
    Hashtbl.iter
      (fun key m ->
        for i = 0 to m.mlen - 1 do
          let member = m.marr.(i) in
          (match Hashtbl.find_opt t.nodes member.sid with
          | Some node when node == member && group_key node = key -> ()
          | Some _ | None -> bad "stale group entry %d" member.sid);
          if i > 0 && not (member_before m.marr.(i - 1) member) then
            bad "group of %d unsorted at %d" member.sid i
        done)
      t.groups;
    match !problems with
    | [] -> Ok ()
    | ps -> Error (String.concat "; " ps)

  let pp_stats ppf t =
    Format.fprintf ppf "synopsis(nodes=%d, edges=%d, str=%a, val=%a)" (n_nodes t)
      (n_edges t) Size.pp_bytes (structural_bytes t) Size.pp_bytes (value_bytes t)
end

module Levels = struct
  type t = {
    tbl : (int, int) Hashtbl.t;
    mutable lmax : int;
  }

  let set t sid level =
    Hashtbl.replace t.tbl sid level;
    if level > t.lmax then t.lmax <- level

  let compute syn =
    let t = { tbl = Hashtbl.create (Builder.n_nodes syn); lmax = 0 } in
    let queue = Queue.create () in
    Builder.iter
      (fun node ->
        if Builder.out_degree node = 0 then begin
          Hashtbl.replace t.tbl (Builder.sid node) 0;
          Queue.add (Builder.sid node) queue
        end)
      syn;
    (* multi-source BFS on reversed edges: shortest distance to a leaf *)
    let max_finite = ref 0 in
    while not (Queue.is_empty queue) do
      let sid = Queue.pop queue in
      let level = Hashtbl.find t.tbl sid in
      if level > !max_finite then max_finite := level;
      let node = Builder.find syn sid in
      Builder.pred syn node (fun parent ->
          if not (Hashtbl.mem t.tbl parent) then begin
            Hashtbl.replace t.tbl parent (level + 1);
            Queue.add parent queue
          end)
    done;
    Builder.iter
      (fun node ->
        if not (Hashtbl.mem t.tbl (Builder.sid node)) then
          Hashtbl.replace t.tbl (Builder.sid node) (!max_finite + 1))
      syn;
    t.lmax <- Hashtbl.fold (fun _ l acc -> max l acc) t.tbl 0;
    t

  let level t sid = Hashtbl.find_opt t.tbl sid
  let get t ~default sid = Option.value ~default (Hashtbl.find_opt t.tbl sid)
  let max_level t = t.lmax
end

module Sealed = struct
  module BA1 = Bigarray.Array1

  type ba_f = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
  type ba_i = (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t

  (* The numeric backing store is flat and unboxed: CSR offsets/targets
     and edge averages live in Bigarrays so the estimation kernels run
     over contiguous untagged words — and so a mmap-backed codec can
     hand us file-backed slices without copying. Value summaries are
     lazy cells: a codec that defers per-node decoding supplies
     [vsumm_decode], and [on_first_touch] lets it defer integrity
     verification of the numeric sections until the first structural
     access. A synopsis built by {!freeze} has everything materialized
     and both hooks absent. *)
  type t = {
    uid : int;
    doc_height : int;
    root : int;  (* index *)
    sids : int array;  (* ascending; index -> sid *)
    labels : Xc_xml.Label.t array;
    vtypes : Xc_xml.Value.vtype array;
    counts : int array;
    fcounts : ba_f;  (* float_of_int counts, for the docnode kernel *)
    vsumms : Xc_vsumm.Value_summary.t option array;
    vsumm_decode : (int -> Xc_vsumm.Value_summary.t) option;
    child_off : ba_i;  (* length n+1 *)
    child_idx : ba_i;  (* sorted ascending within each row *)
    child_avg : ba_f;
    parent_off : ba_i;
    parent_idx : ba_i;
    mutable on_first_touch : (t -> unit) option;
  }

  let ba_i_of_array (a : int array) : ba_i =
    let b = BA1.create Bigarray.int Bigarray.c_layout (Array.length a) in
    Array.iteri (fun i v -> BA1.unsafe_set b i v) a;
    b

  let ba_f_of_array (a : float array) : ba_f =
    let b = BA1.create Bigarray.float64 Bigarray.c_layout (Array.length a) in
    Array.iteri (fun i v -> BA1.unsafe_set b i v) a;
    b

  (* Run the deferred-verification hook exactly once, before the first
     access to the numeric backing store. The hook is handed [t] and
     reads its raw fields ({!invariants}), never an accessor, so it
     cannot re-enter [touch]. On failure the hook stays armed (see
     [remember_failure]) so every later access re-raises instead of
     silently serving unverified data. *)
  let touch t =
    match t.on_first_touch with
    | None -> ()
    | Some f ->
      f t;
      t.on_first_touch <- None

  (* [hook], but a failure is remembered: every later call re-raises
     the same exception at once instead of re-running the checks *)
  let remember_failure hook =
    let failed = ref None in
    fun t ->
      match !failed with
      | Some exn -> raise exn
      | None -> (
        try hook t
        with exn ->
          failed := Some exn;
          raise exn)

  let uid t = t.uid
  let doc_height t = t.doc_height
  let n_nodes t = Array.length t.sids
  let n_edges t = BA1.dim t.child_idx
  let root t = t.root
  let root_sid t = t.sids.(t.root)
  let sid_of_index t i = t.sids.(i)

  let index_of_sid t sid =
    let lo = ref 0 and hi = ref (Array.length t.sids - 1) in
    let found = ref None in
    while !found = None && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let s = t.sids.(mid) in
      if s = sid then found := Some mid
      else if s < sid then lo := mid + 1
      else hi := mid - 1
    done;
    !found

  let label t i = t.labels.(i)
  let vtype t i = t.vtypes.(i)
  let count t i = t.counts.(i)

  let vsumm t i =
    match t.vsumms.(i) with
    | Some v -> v
    | None -> (
      match t.vsumm_decode with
      | None ->
        (* the freeze path fills every cell; only a lazy codec load
           leaves holes, and it always supplies the decoder *)
        invalid_arg "Synopsis.Sealed.vsumm: missing summary without a decoder"
      | Some decode ->
        let v = decode i in
        t.vsumms.(i) <- Some v;
        v)

  let labels t = t.labels
  let counts t = t.counts

  (* The unboxed hot-path views. Touching any of them runs the codec's
     deferred verification hook first (a cleared-pointer test once
     verification has passed). *)
  let fcounts t = touch t; t.fcounts
  let child_off_ba t = touch t; t.child_off
  let child_idx_ba t = touch t; t.child_idx
  let child_avg_ba t = touch t; t.child_avg
  let parent_off_ba t = touch t; t.parent_off
  let parent_idx_ba t = touch t; t.parent_idx

  (* binary search for [target] in [arr.(lo..hi-1)] (a sorted CSR row) *)
  let row_find (arr : ba_i) lo hi target =
    let lo = ref lo and hi = ref (hi - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let v = BA1.get arr mid in
      if v = target then found := mid
      else if v < target then lo := mid + 1
      else hi := mid - 1
    done;
    !found

  let edge_count t ~parent ~child =
    match index_of_sid t parent, index_of_sid t child with
    | Some p, Some c ->
      touch t;
      let e = row_find t.child_idx (BA1.get t.child_off p) (BA1.get t.child_off (p + 1)) c in
      if e < 0 then 0.0 else BA1.get t.child_avg e
    | _ -> 0.0

  let succ t sid =
    match index_of_sid t sid with
    | None -> []
    | Some i ->
      touch t;
      List.init
        (BA1.get t.child_off (i + 1) - BA1.get t.child_off i)
        (fun k ->
          let e = BA1.get t.child_off i + k in
          (t.sids.(BA1.get t.child_idx e), BA1.get t.child_avg e))

  let pred t sid =
    match index_of_sid t sid with
    | None -> []
    | Some i ->
      touch t;
      List.init
        (BA1.get t.parent_off (i + 1) - BA1.get t.parent_off i)
        (fun k -> t.sids.(BA1.get t.parent_idx (BA1.get t.parent_off i + k)))

  let out_degree t i = touch t; BA1.get t.child_off (i + 1) - BA1.get t.child_off i

  let structural_bytes t =
    (Size.node_bytes * n_nodes t) + (Size.edge_bytes * n_edges t)

  let value_bytes t =
    let acc = ref 0 in
    for i = 0 to n_nodes t - 1 do
      acc := !acc + Xc_vsumm.Value_summary.size_bytes (vsumm t i)
    done;
    !acc

  let n_value_nodes t =
    let acc = ref 0 in
    for i = 0 to n_nodes t - 1 do
      match vsumm t i with
      | Xc_vsumm.Value_summary.Vnone -> ()
      | Xc_vsumm.Value_summary.Vnum _ | Vstr _ | Vtext _ -> incr acc
    done;
    !acc

  let invariants t =
    let problems = ref [] in
    let bad fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
    let n = n_nodes t in
    if n = 0 then bad "empty synopsis";
    if t.root < 0 || t.root >= n then bad "root index %d out of range" t.root;
    for i = 0 to n - 2 do
      if t.sids.(i) >= t.sids.(i + 1) then bad "sids not strictly ascending at %d" i
    done;
    let check_csr name (off : ba_i) (idx : ba_i) =
      if BA1.dim off <> n + 1 then bad "%s_off length %d" name (BA1.dim off)
      else begin
        if BA1.get off 0 <> 0 || BA1.get off n <> BA1.dim idx then bad "%s_off bounds" name;
        for i = 0 to n - 1 do
          if BA1.get off i > BA1.get off (i + 1) then bad "%s_off not monotone at %d" name i;
          (* clamped: a negative offset is reported, never indexed with *)
          let lo = max 0 (BA1.get off i) in
          for e = lo to min (BA1.dim idx) (BA1.get off (i + 1)) - 1 do
            if BA1.get idx e < 0 || BA1.get idx e >= n then
              bad "%s target out of range at %d" name e;
            if e > lo && BA1.get idx (e - 1) >= BA1.get idx e then
              bad "%s row %d not strictly ascending" name i
          done
        done
      end
    in
    check_csr "child" t.child_off t.child_idx;
    check_csr "parent" t.parent_off t.parent_idx;
    if
      BA1.dim t.child_off = n + 1
      && BA1.dim t.parent_off = n + 1
      && BA1.get t.child_off n = BA1.dim t.child_idx
      && BA1.get t.parent_off n = BA1.dim t.parent_idx
      && BA1.dim t.child_avg = BA1.dim t.child_idx
      && !problems = []
    then
      for i = 0 to n - 1 do
        if t.counts.(i) <= 0 then bad "node %d has count %d" t.sids.(i) t.counts.(i);
        if BA1.get t.fcounts i <> float_of_int t.counts.(i) then
          bad "node %d float count out of sync" t.sids.(i);
        for e = BA1.get t.child_off i to BA1.get t.child_off (i + 1) - 1 do
          if BA1.get t.child_avg e <= 0.0 then
            bad "edge %d->%d has avg %f" t.sids.(i)
              t.sids.(BA1.get t.child_idx e)
              (BA1.get t.child_avg e);
          let c = BA1.get t.child_idx e in
          if row_find t.parent_idx (BA1.get t.parent_off c) (BA1.get t.parent_off (c + 1)) i < 0
          then bad "edge %d->%d missing reverse index" t.sids.(i) t.sids.(c)
        done;
        for e = BA1.get t.parent_off i to BA1.get t.parent_off (i + 1) - 1 do
          let p = BA1.get t.parent_idx e in
          if row_find t.child_idx (BA1.get t.child_off p) (BA1.get t.child_off (p + 1)) i < 0
          then bad "parent edge %d->%d missing forward index" t.sids.(p) t.sids.(i)
        done
      done
    else if BA1.dim t.child_avg <> BA1.dim t.child_idx then
      bad "child_avg length %d != child_idx length %d" (BA1.dim t.child_avg)
        (BA1.dim t.child_idx);
    match !problems with
    | [] -> Ok ()
    | ps -> Error (String.concat "; " ps)

  let validate t =
    touch t;
    invariants t

  (* Direct construction from decoded parts — the codec's zero-copy
     load path, which bypasses the Builder round trip entirely. The
     caller owns the invariants ({!validate} is available; the lazy
     load path defers its CRCs and {!invariants} to [on_first_touch]). *)
  let of_flat ~doc_height ~root ~sids ~labels ~vtypes ~counts ~child_off
      ~child_idx ~child_avg ~parent_off ~parent_idx ~vsumms ~vsumm_decode
      ~on_first_touch =
    let n = Array.length sids in
    let fcounts = BA1.create Bigarray.float64 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      BA1.unsafe_set fcounts i (float_of_int counts.(i))
    done;
    { uid = fresh_uid ();
      doc_height; root; sids; labels; vtypes; counts; fcounts;
      vsumms; vsumm_decode;
      child_off; child_idx; child_avg; parent_off; parent_idx;
      on_first_touch = Option.map remember_failure on_first_touch }

  let pp_stats ppf t =
    Format.fprintf ppf "synopsis(nodes=%d, edges=%d, str=%a, val=%a)" (n_nodes t)
      (n_edges t) Size.pp_bytes (structural_bytes t) Size.pp_bytes (value_bytes t)
end

let freeze (b : Builder.t) : Sealed.t =
  if not (Builder.mem b b.Builder.root) then
    invalid_arg "Synopsis.freeze: builder has no valid root";
  let n = Builder.n_nodes b in
  let sids = Array.make n 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun sid _ ->
      sids.(!i) <- sid;
      incr i)
    b.Builder.nodes;
  Array.sort Int.compare sids;
  let index_of = Hashtbl.create n in
  Array.iteri (fun i sid -> Hashtbl.replace index_of sid i) sids;
  let node i = Hashtbl.find b.Builder.nodes sids.(i) in
  let labels = Array.init n (fun i -> (node i).Builder.label) in
  let vtypes = Array.init n (fun i -> (node i).Builder.vtype) in
  let counts = Array.init n (fun i -> (node i).Builder.count) in
  let vsumms =
    Array.init n (fun i -> Xc_vsumm.Value_summary.copy (node i).Builder.vsumm)
  in
  let row_of tbl key_index =
    (* one adjacency row as index-sorted arrays *)
    let m = Hashtbl.length tbl in
    let idx = Array.make m 0 and w = Array.make m 0.0 in
    let j = ref 0 in
    Hashtbl.iter
      (fun sid v ->
        idx.(!j) <- Hashtbl.find index_of sid;
        w.(!j) <- key_index v;
        incr j)
      tbl;
    (* sort both arrays by idx: build permutation *)
    let perm = Array.init m (fun k -> k) in
    Array.sort (fun a b -> Int.compare idx.(a) idx.(b)) perm;
    (Array.map (fun k -> idx.(k)) perm, Array.map (fun k -> w.(k)) perm)
  in
  let child_rows = Array.init n (fun i -> row_of (node i).Builder.children Fun.id) in
  let parent_rows =
    Array.init n (fun i -> row_of (node i).Builder.parents (fun () -> 0.0))
  in
  let csr rows =
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i) + Array.length (fst rows.(i))
    done;
    let total = off.(n) in
    let idx = Array.make total 0 and w = Array.make total 0.0 in
    for i = 0 to n - 1 do
      let ri, rw = rows.(i) in
      Array.blit ri 0 idx off.(i) (Array.length ri);
      Array.blit rw 0 w off.(i) (Array.length rw)
    done;
    (off, idx, w)
  in
  let child_off, child_idx, child_avg = csr child_rows in
  let parent_off, parent_idx, _ = csr parent_rows in
  let fcounts =
    Sealed.ba_f_of_array (Array.map float_of_int counts)
  in
  { Sealed.uid = fresh_uid ();
    doc_height = b.Builder.doc_height;
    root = Hashtbl.find index_of b.Builder.root;
    sids; labels; vtypes; counts; fcounts;
    vsumms = Array.map Option.some vsumms;
    vsumm_decode = None;
    child_off = Sealed.ba_i_of_array child_off;
    child_idx = Sealed.ba_i_of_array child_idx;
    child_avg = Sealed.ba_f_of_array child_avg;
    parent_off = Sealed.ba_i_of_array parent_off;
    parent_idx = Sealed.ba_i_of_array parent_idx;
    on_first_touch = None }
