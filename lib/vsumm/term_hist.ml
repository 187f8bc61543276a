module IntSet = Set.Make (Int)

type mat = {
  n : float;
  top_terms : int array;  (* sorted by term id *)
  top_freqs : float array;
  bucket : Rle_bitmap.t;
  bucket_avg : float;
  mutable flat : (int array * float array) option;
      (* memoized flat support (terms ascending, estimated freqs);
         summaries are immutable so the cache never invalidates *)
}

(* A chain of demotions pending over a materialized ancestor. Because a
   demotion never changes the frequency of a surviving indexed term, the
   whole demotion order of [base] is fixed up front ([order]); advancing
   the cursor is O(log pos) instead of the O(top) array rebuild of a
   materialized step — the repeated-compression path of XCLUSTERBUILD
   phase 2 walks a summary from thousands of indexed terms down to a
   handful, which would otherwise cost O(top²) per node. *)
type cursor = {
  base : mat;
  order : int array;  (* base top indices in demotion order, shared by the chain *)
  pos : int;  (* order.(0 .. pos-1) are demoted *)
  runs : int;  (* RLE run count of base.bucket ∪ demoted ids *)
  bn : float;  (* bucket cardinality, as the same float chain a
                  materialized step would compute *)
  bavg : float;  (* bucket average, same float chain *)
  demoted : IntSet.t;
  mutable forced : mat option;  (* memoized materialization *)
}

type t =
  | Mat of mat
  | Cur of cursor

(* demotion order: ascending frequency, ties by array index — exactly
   the pick order of a repeated first-minimum scan *)
let order_of m =
  let k = Array.length m.top_terms in
  let idx = Array.init k Fun.id in
  Array.sort
    (fun i j ->
      let c = Float.compare m.top_freqs.(i) m.top_freqs.(j) in
      if c <> 0 then c else Int.compare i j)
    idx;
  idx

let force = function
  | Mat m -> m
  | Cur c ->
    (match c.forced with
    | Some m -> m
    | None ->
      let k = Array.length c.base.top_terms in
      let live = Array.make k true in
      for i = 0 to c.pos - 1 do
        live.(c.order.(i)) <- false
      done;
      let k' = k - c.pos in
      let terms = Array.make k' 0 and freqs = Array.make k' 0.0 in
      let j = ref 0 in
      for i = 0 to k - 1 do
        if live.(i) then begin
          terms.(!j) <- c.base.top_terms.(i);
          freqs.(!j) <- c.base.top_freqs.(i);
          incr j
        end
      done;
      let bits =
        List.merge Int.compare
          (List.of_seq (Rle_bitmap.to_seq c.base.bucket))
          (IntSet.elements c.demoted)
      in
      let m =
        { n = c.base.n;
          top_terms = terms;
          top_freqs = freqs;
          bucket = Rle_bitmap.of_sorted_list bits;
          bucket_avg = c.bavg;
          flat = None }
      in
      c.forced <- Some m;
      m)

let n_documents = function
  | Mat m -> m.n
  | Cur c -> c.base.n

let n_top = function
  | Mat m -> Array.length m.top_terms
  | Cur c -> Array.length c.base.top_terms - c.pos

(* top and bucket term sets are disjoint, and every demotion moves
   exactly one indexed term into the bucket *)
let bucket_size = function
  | Mat m -> Rle_bitmap.cardinality m.bucket
  | Cur c -> Rle_bitmap.cardinality c.base.bucket + c.pos

let support_size t = n_top t + bucket_size t

let of_entries ~n ~top_k entries =
  (* entries: (term, freq) list with freq > 0, any order *)
  let by_freq = List.sort (fun (_, a) (_, b) -> Float.compare b a) entries in
  let rec split i acc rest =
    match rest with
    | [] -> (List.rev acc, [])
    | _ when i >= top_k -> (List.rev acc, rest)
    | e :: tl -> split (i + 1) (e :: acc) tl
  in
  let top, bucket = split 0 [] by_freq in
  let top = List.sort (fun (a, _) (b, _) -> Int.compare a b) top in
  let bucket = List.sort (fun (a, _) (b, _) -> Int.compare a b) bucket in
  let bucket_bits = List.map fst bucket in
  let bucket_sum = List.fold_left (fun s (_, f) -> s +. f) 0.0 bucket in
  let bucket_n = List.length bucket in
  Mat
    { n;
      top_terms = Array.of_list (List.map fst top);
      top_freqs = Array.of_list (List.map snd top);
      bucket = Rle_bitmap.of_list bucket_bits;
      bucket_avg = (if bucket_n = 0 then 0.0 else bucket_sum /. float_of_int bucket_n);
      flat = None }

let of_centroid ?(top_k = 4096) centroid =
  of_entries
    ~n:(Term_vector.n_documents centroid)
    ~top_k
    (Array.to_list (Term_vector.entries centroid))

let build ?top_k docs = of_centroid ?top_k (Term_vector.of_documents docs)

let top_lookup m id =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      if m.top_terms.(mid) = id then Some m.top_freqs.(mid)
      else if m.top_terms.(mid) < id then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length m.top_terms)

let frequency t id =
  let m = force t in
  match top_lookup m id with
  | Some f -> f
  | None -> if Rle_bitmap.mem m.bucket id then m.bucket_avg else 0.0

let selectivity t terms =
  List.fold_left
    (fun acc term -> acc *. frequency t (term : Xc_xml.Dictionary.term :> int))
    1.0 terms

let support_seq t =
  let m = force t in
  let top =
    Seq.init (Array.length m.top_terms) (fun i -> (m.top_terms.(i), m.top_freqs.(i)))
  in
  let bucket = Seq.map (fun id -> (id, m.bucket_avg)) (Rle_bitmap.to_seq m.bucket) in
  let rec merge sa sb () =
    match sa (), sb () with
    | Seq.Nil, rest -> rest
    | rest, Seq.Nil -> rest
    | Seq.Cons ((xa, _) as a, sa'), Seq.Cons ((xb, _) as b, sb') ->
      (* supports are disjoint by construction *)
      if xa < xb then Seq.Cons (a, merge sa' sb) else Seq.Cons (b, merge sa sb')
  in
  merge top bucket

let fuse a b =
  let am = force a and bm = force b in
  let total = am.n +. bm.n in
  let wa = am.n /. total and wb = bm.n /. total in
  (* Union of exactly-indexed term sets stays indexed; each side's
     contribution for a term uses that side's estimate. *)
  let exact = Hashtbl.create 64 in
  Array.iter (fun id -> Hashtbl.replace exact id ()) am.top_terms;
  Array.iter (fun id -> Hashtbl.replace exact id ()) bm.top_terms;
  let top = ref [] and rest = ref [] in
  let add (id, _) =
    let f = (wa *. frequency a id) +. (wb *. frequency b id) in
    if f > 0.0 then
      if Hashtbl.mem exact id then top := (id, f) :: !top else rest := (id, f) :: !rest
  in
  (* iterate the union of the two supports *)
  let rec union sa sb =
    match sa (), sb () with
    | Seq.Nil, rest' -> Seq.iter add (fun () -> rest')
    | rest', Seq.Nil -> Seq.iter add (fun () -> rest')
    | Seq.Cons ((xa, _) as ea, sa'), Seq.Cons ((xb, _) as eb, sb') ->
      if xa < xb then begin
        add ea;
        union sa' sb
      end
      else if xb < xa then begin
        add eb;
        union sa sb'
      end
      else begin
        add ea;
        union sa' sb'
      end
  in
  union (support_seq a) (support_seq b);
  let bucket_bits = List.map fst !rest in
  let bucket_sum = List.fold_left (fun s (_, f) -> s +. f) 0.0 !rest in
  let bucket_n = List.length !rest in
  let top = List.sort (fun (x, _) (y, _) -> Int.compare x y) !top in
  Mat
    { n = total;
      top_terms = Array.of_list (List.map fst top);
      top_freqs = Array.of_list (List.map snd top);
      bucket = Rle_bitmap.of_list bucket_bits;
      bucket_avg = (if bucket_n = 0 then 0.0 else bucket_sum /. float_of_int bucket_n);
      flat = None }

let header_bytes = 8

let size_bytes = function
  | Mat m -> header_bytes + (8 * Array.length m.top_terms) + Rle_bitmap.size_bytes m.bucket
  | Cur c -> header_bytes + (8 * n_top (Cur c)) + (4 * c.runs)

let cursor_of = function
  | Cur c -> c
  | Mat m ->
    { base = m;
      order = order_of m;
      pos = 0;
      runs = Rle_bitmap.n_runs m.bucket;
      bn = float_of_int (Rle_bitmap.cardinality m.bucket);
      bavg = m.bucket_avg;
      demoted = IntSet.empty;
      forced = None }

let compress_once t =
  let c = cursor_of t in
  let k_total = Array.length c.base.top_terms in
  if c.pos >= k_total then None
  else begin
    (* the next demotion in the precomputed order: the lowest-frequency
       surviving indexed term *)
    let i = c.order.(c.pos) in
    let demoted_id = c.base.top_terms.(i) and demoted_f = c.base.top_freqs.(i) in
    let old_n = c.bn in
    let old_avg = c.bavg in
    let new_avg = ((old_avg *. old_n) +. demoted_f) /. (old_n +. 1.0) in
    (* run count of the bucket after inserting [demoted_id]: joins,
       extends or starts a run depending on which neighbors are set *)
    let mem b = Rle_bitmap.mem c.base.bucket b || IntSet.mem b c.demoted in
    let runs' =
      c.runs + 1
      - (if mem (demoted_id - 1) then 1 else 0)
      - (if mem (demoted_id + 1) then 1 else 0)
    in
    (* Δ in predicate space: the demoted term moves from its exact
       frequency to the new average; every old bucket term moves from the
       old average to the new one. *)
    let d1 = demoted_f -. new_avg in
    let d2 = old_avg -. new_avg in
    let err = (d1 *. d1) +. (old_n *. d2 *. d2) in
    (* one indexed slot (8 bytes) freed, run-count delta on the bucket *)
    let saved = 8 + (4 * (c.runs - runs')) in
    let c' =
      { c with
        pos = c.pos + 1;
        runs = runs';
        bn = old_n +. 1.0;
        bavg = new_avg;
        demoted = IntSet.add demoted_id c.demoted;
        forced = None }
    in
    Some (err, saved, Cur c')
  end

(* flat support, memoized: the Δ metric evaluates dot products for
   hundreds of thousands of candidate merges, so this path is hot *)
let flat t =
  let m = force t in
  match m.flat with
  | Some f -> f
  | None ->
    let n = support_size t in
    let terms = Array.make n 0 and freqs = Array.make n 0.0 in
    let i = ref 0 in
    Seq.iter
      (fun (id, f) ->
        terms.(!i) <- id;
        freqs.(!i) <- f;
        incr i)
      (support_seq t);
    let f = (terms, freqs) in
    m.flat <- Some f;
    f

let dot_products a b =
  (* hot path: one call per candidate merge of TEXT clusters; unsafe
     accesses are in-bounds by the loop guards *)
  let ta, fa = flat a and tb, fb = flat b in
  let na = Array.length ta and nb = Array.length tb in
  let suu = ref 0.0 and svv = ref 0.0 and suv = ref 0.0 in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let xa = Array.unsafe_get ta !i and xb = Array.unsafe_get tb !j in
    if xa < xb then begin
      let v = Array.unsafe_get fa !i in
      suu := !suu +. (v *. v);
      incr i
    end
    else if xb < xa then begin
      let v = Array.unsafe_get fb !j in
      svv := !svv +. (v *. v);
      incr j
    end
    else begin
      let va = Array.unsafe_get fa !i and vb = Array.unsafe_get fb !j in
      suu := !suu +. (va *. va);
      svv := !svv +. (vb *. vb);
      suv := !suv +. (va *. vb);
      incr i;
      incr j
    end
  done;
  while !i < na do
    let v = Array.unsafe_get fa !i in
    suu := !suu +. (v *. v);
    incr i
  done;
  while !j < nb do
    let v = Array.unsafe_get fb !j in
    svv := !svv +. (v *. v);
    incr j
  done;
  (!suu, !svv, !suv)

let pp ppf t =
  let m = force t in
  Format.fprintf ppf "termhist(n=%.0f, top=%d, bucket=%d@%.4f)" m.n (n_top t)
    (bucket_size t) m.bucket_avg

let of_parts ~n ~top ~bucket ~bucket_avg =
  let top = List.sort (fun (a, _) (b, _) -> Int.compare a b) top in
  Mat
    { n;
      top_terms = Array.of_list (List.map fst top);
      top_freqs = Array.of_list (List.map snd top);
      bucket = Rle_bitmap.of_list bucket;
      bucket_avg;
      flat = None }

let parts t =
  let m = force t in
  ( Array.to_list (Array.mapi (fun i id -> (id, m.top_freqs.(i))) m.top_terms),
    List.of_seq (Rle_bitmap.to_seq m.bucket),
    m.bucket_avg )
