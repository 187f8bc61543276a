(* The list-walking PST, kept as the reference the indexed one
   (Xc_vsumm.Pst) is checked against bit for bit: every walk starts at
   the root and scans sibling lists, and every sub-walk copies its
   substring with String.sub. test_vsumm's oracle property builds,
   copies, merges and round-trips both and compares their substrings,
   node counts, selectivities and prune sequences. *)

module Heap = Xc_util.Heap

type node = {
  mutable count : float;
  mutable children : (char * node) list;
  mutable last_seen : int; (* build-time per-string dedupe *)
}

type entry = {
  parent : node;
  sym : char;
  child : node;
  path : string; (* full substring the leaf represents *)
}

type t = {
  root : node;
  mutable n : float;
  mutable n_nodes : int;
  mutable total_len : float; (* summed string lengths: adjacency model *)
  max_depth : int;
  heap : entry Heap.t;
  mutable heap_ready : bool;
}

let new_node () = { count = 0.0; children = []; last_seen = -1 }

let find_child node c =
  let rec find = function
    | [] -> None
    | (c', child) :: rest -> if Char.equal c c' then Some child else find rest
  in
  find node.children

let n_nodes t = t.n_nodes

let empty ?(max_depth = 8) () =
  { root = new_node ();
    n = 0.0;
    n_nodes = 0;
    total_len = 0.0;
    max_depth;
    heap = Heap.create ();
    heap_ready = false }

(* average string length, used by the adjacency-aware Markov fallback *)
let avg_len t = if t.n > 0.0 then Float.max 2.0 (t.total_len /. t.n) else 8.0

(* Insert every substring of [s] (up to [max_depth]) with presence
   semantics: each distinct substring bumps its count once per string,
   which is what the [sid] dedupe marker implements. *)
let insert_string t sid s =
  if t.heap_ready then begin
    Heap.clear t.heap;
    t.heap_ready <- false
  end;
  t.n <- t.n +. 1.0;
  t.total_len <- t.total_len +. float_of_int (String.length s);
  let len = String.length s in
  let insert_from start =
    let stop = min len (start + t.max_depth) in
    let rec walk node i =
      if i < stop then begin
        let c = s.[i] in
        let child =
          match find_child node c with
          | Some child -> child
          | None ->
            let child = new_node () in
            node.children <- (c, child) :: node.children;
            t.n_nodes <- t.n_nodes + 1;
            child
        in
        if child.last_seen <> sid then begin
          child.last_seen <- sid;
          child.count <- child.count +. 1.0
        end;
        walk child (i + 1)
      end
    in
    walk t.root start
  in
  for start = 0 to len - 1 do
    insert_from start
  done

(* Longest prefix of s.[from..] matched in the trie: returns (matched
   length, count at the deepest matched node). *)
let walk_prefix t s =
  let len = String.length s in
  let rec walk node i =
    if i >= len then (i, node.count)
    else
      match find_child node s.[i] with
      | Some child -> walk child (i + 1)
      | None -> (i, node.count)
  in
  let k, count = walk t.root 0 in
  (k, if k = 0 then t.n else count)

let rec estimate t s =
  let len = String.length s in
  if len = 0 then 1.0
  else if t.n <= 0.0 then 0.0
  else begin
    let k, c = walk_prefix t s in
    if k = len then c /. t.n
    else if k = 0 then 0.0
    else begin
      (* Markov: P(s) = P(s[0..k)) * P(s[1..]) / P(s[1..k)).
         When only a single character of the prefix is retained (k = 1)
         the overlap term degenerates to P(empty) = 1 and the product
         would treat mere *presence* of adjacent characters as
         *adjacency* — a large systematic overestimate (e.g. a space is
         present in almost every multi-word string). In that case the
         continuation is discounted by the expected number of positions,
         1/avg_len: the chance that the specific position after an
         occurrence actually holds the next character. *)
      let p_prefix = c /. t.n in
      let num = estimate t (String.sub s 1 (len - 1)) in
      if k = 1 then Float.min p_prefix (p_prefix *. num /. avg_len t)
      else begin
        let den = estimate t (String.sub s 1 (k - 1)) in
        if den <= 1e-12 then 0.0 else Float.min p_prefix (p_prefix *. num /. den)
      end
    end
  end

let selectivity t s = Float.max 0.0 (Float.min 1.0 (estimate t s))

let merge a b =
  let n_nodes = ref 0 in
  let rec union na nb =
    (* na, nb : node option; at least one is Some *)
    let count =
      (match na with Some x -> x.count | None -> 0.0)
      +. (match nb with Some x -> x.count | None -> 0.0)
    in
    let keys = Hashtbl.create 8 in
    let note side n =
      Option.iter
        (fun n ->
          List.iter
            (fun (c, child) ->
              let l, r = try Hashtbl.find keys c with Not_found -> (None, None) in
              let entry = if side = `L then (Some child, r) else (l, Some child) in
              Hashtbl.replace keys c entry)
            n.children)
        n
    in
    note `L na;
    note `R nb;
    let children =
      Hashtbl.fold
        (fun c (l, r) acc ->
          incr n_nodes;
          (c, union l r) :: acc)
        keys []
    in
    { count; children; last_seen = -1 }
  in
  let root = union (Some a.root) (Some b.root) in
  let root = { root with count = 0.0 } in
  { root;
    n = a.n +. b.n;
    n_nodes = !n_nodes;
    total_len = a.total_len +. b.total_len;
    max_depth = max a.max_depth b.max_depth;
    heap = Heap.create ();
    heap_ready = false }

let prune_error t path =
  (* Error of answering [path] after its leaf is removed: the walk then
     matches only the parent prefix and chains through Markov. *)
  let len = String.length path in
  let exact = estimate t path in
  let parent_frac =
    if len = 1 then 1.0
    else begin
      let k, c = walk_prefix t (String.sub path 0 (len - 1)) in
      if k = len - 1 then c /. t.n else 0.0
    end
  in
  let after =
    if len = 1 then 0.0
    else begin
      let num = estimate t (String.sub path 1 (len - 1)) in
      let den = estimate t (String.sub path 1 (len - 2)) in
      if den <= 1e-12 then 0.0 else Float.min parent_frac (parent_frac *. num /. den)
    end
  in
  let d = exact -. after in
  d *. d

let push_leaf t parent sym child path =
  Heap.push t.heap (prune_error t path) { parent; sym; child; path }

let ensure_heap t =
  if not t.heap_ready then begin
    t.heap_ready <- true;
    let buf = Buffer.create 16 in
    let rec scan depth node =
      List.iter
        (fun (c, child) ->
          Buffer.add_char buf c;
          (match child.children with
          | [] when depth + 1 >= 2 -> push_leaf t node c child (Buffer.contents buf)
          | [] -> ()
          | _ :: _ -> scan (depth + 1) child);
          Buffer.truncate buf (Buffer.length buf - 1))
        node.children
    in
    scan 0 t.root
  end

let entry_valid e =
  e.child.children = []
  &&
  match find_child e.parent e.sym with
  | Some c -> c == e.child
  | None -> false

let rec next_valid t =
  match Heap.pop t.heap with
  | None -> None
  | Some (err, e) -> if entry_valid e then Some (err, e) else next_valid t

let node_bytes = 9

let prune_once t =
  ensure_heap t;
  match next_valid t with
  | None -> None
  | Some (err, e) ->
    e.parent.children <- List.filter (fun (_, c) -> not (c == e.child)) e.parent.children;
    t.n_nodes <- t.n_nodes - 1;
    (* the parent may have just become a prunable leaf *)
    (if e.parent.children = [] && String.length e.path >= 3 then
       let ppath = String.sub e.path 0 (String.length e.path - 1) in
       let gpath = String.sub e.path 0 (String.length e.path - 2) in
       let k, _ = walk_prefix t gpath in
       if k = String.length gpath then begin
         (* find the grandparent node to register the entry *)
         let rec descend node i =
           if i = String.length gpath then Some node
           else
             match find_child node gpath.[i] with
             | Some child -> descend child (i + 1)
             | None -> None
         in
         match descend t.root 0 with
         | Some gp -> (
           match find_child gp ppath.[String.length ppath - 1] with
           | Some parent_node when parent_node == e.parent ->
             push_leaf t gp ppath.[String.length ppath - 1] e.parent ppath
           | Some _ | None -> ())
         | None -> ()
       end);
    Some (err, node_bytes)

let peek_prune t =
  ensure_heap t;
  let rec peek () =
    match Heap.peek t.heap with
    | None -> None
    | Some (err, e) ->
      if entry_valid e then Some err
      else begin
        ignore (Heap.pop t.heap);
        peek ()
      end
  in
  peek ()

let prune_to t target =
  let rec loop () =
    if t.n_nodes > target then
      match prune_once t with
      | Some _ -> loop ()
      | None -> ()
  in
  loop ()

let iter_substrings f t =
  let buf = Buffer.create 16 in
  let rec scan node =
    List.iter
      (fun (c, child) ->
        Buffer.add_char buf c;
        f (Buffer.contents buf) child.count;
        scan child;
        Buffer.truncate buf (Buffer.length buf - 1))
      node.children
  in
  scan t.root

let build ?max_depth ?(max_nodes = 4096) strings =
  let t = empty ?max_depth () in
  (* cap memory while building: prune down whenever the trie overshoots
     the target by 3x (mid-build pruning errors are approximations, but
     keep peak memory bounded across thousands of per-cluster PSTs) *)
  List.iteri
    (fun sid s ->
      insert_string t sid s;
      if t.n_nodes > 3 * max_nodes then prune_to t max_nodes)
    strings;
  prune_to t max_nodes;
  t

let copy t =
  let rec copy_node node =
    { count = node.count;
      children = List.map (fun (c, child) -> (c, copy_node child)) node.children;
      last_seen = -1 }
  in
  { root = copy_node t.root;
    n = t.n;
    n_nodes = t.n_nodes;
    total_len = t.total_len;
    max_depth = t.max_depth;
    heap = Heap.create ();
    heap_ready = false }

let of_substrings ?total_len ~n ~max_depth entries =
  let t = empty ~max_depth () in
  t.total_len <- (match total_len with Some l -> l | None -> 8.0 *. n);
  List.iter
    (fun (s, count) ->
      let len = String.length s in
      if len = 0 then invalid_arg "Pst.of_substrings: empty substring";
      let rec walk node i =
        if i = len - 1 then begin
          let child =
            match find_child node s.[i] with
            | Some child -> child
            | None ->
              let child = new_node () in
              node.children <- (s.[i], child) :: node.children;
              t.n_nodes <- t.n_nodes + 1;
              child
          in
          child.count <- count
        end
        else
          match find_child node s.[i] with
          | Some child -> walk child (i + 1)
          | None ->
            (* prefix missing: create it with a zero count; a later entry
               for the prefix will overwrite it *)
            let child = new_node () in
            node.children <- (s.[i], child) :: node.children;
            t.n_nodes <- t.n_nodes + 1;
            walk child (i + 1)
      in
      walk t.root 0)
    entries;
  (* children were prepended, so each sibling list is in reverse
     insertion order; restore it so [iter_substrings] replays the input
     order and an encode/decode round trip is byte-identical *)
  let rec restore node =
    node.children <- List.rev node.children;
    List.iter (fun (_, child) -> restore child) node.children
  in
  restore t.root;
  t.n <- n;
  t
