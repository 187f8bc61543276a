(* Tests for incremental construction: the Builder's group index (vs a
   from-scratch regrouping, across random merge sequences and full
   builds), the neighbour selection of push_neighbors (the nearest
   members by count, as a plain sort picks them, and the member-scan
   bounds that keep it off the node table), pop-time candidate
   revalidation, builds on two threads at once, and the pinned digests
   of seeded builds in golden/builds.txt. *)

open Xc_xml
module Synopsis = Xc_core.Synopsis
module B = Synopsis.Builder
module Levels = Synopsis.Levels
module Pool = Xc_core.Pool
module Merge = Xc_core.Merge
module Build = Xc_core.Build
module Reference = Xc_core.Reference
module Codec = Xc_core.Codec
module Metrics = Xc_util.Metrics
module Vs = Xc_vsumm.Value_summary

let check = Alcotest.check

let add syn label count =
  B.add_node syn ~label:(Label.of_string label) ~vtype:Value.Tnull ~count
    ~vsumm:Vs.vnone

(* ---- group index vs from-scratch regrouping ------------------------------- *)

(* the ground truth the index must match: group every live node by key,
   straight off the node table *)
let scratch_grouping syn =
  let tbl = Hashtbl.create 64 in
  B.iter
    (fun node ->
      let key = B.group_key node in
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (B.sid node :: cur))
    syn;
  Hashtbl.fold (fun key sids acc -> (key, List.sort Int.compare sids) :: acc) tbl []
  |> List.sort compare

let index_grouping syn =
  List.map
    (fun key ->
      let ms = ref [] in
      B.iter_group syn key (fun node -> ms := B.sid node :: !ms);
      (key, List.sort Int.compare !ms))
    (B.group_keys syn)
  |> List.sort compare

let check_groupings_equal msg syn =
  let pp_group ppf ((l, t, k), sids) =
    Format.fprintf ppf "(%d,%d,%d)->[%s]" l t k
      (String.concat ";" (List.map string_of_int sids))
  in
  let grouping = Alcotest.(list (testable pp_group ( = ))) in
  check grouping msg (scratch_grouping syn) (index_grouping syn)

let test_group_index_random_merges () =
  let doc = Xc_data.Imdb.generate ~seed:7 ~n_movies:60 () in
  let syn = Reference.build ~min_extent:2 doc in
  check_groupings_equal "fresh reference" syn;
  let rng = Random.State.make [| 42 |] in
  let merges = ref 0 in
  (* randomized merge sequence: pick any group with >= 2 members, merge
     two random members, re-check the index every few steps *)
  let continue = ref true in
  while !continue && !merges < 60 do
    let groups =
      List.filter (fun (_, sids) -> List.length sids >= 2) (index_grouping syn)
    in
    match groups with
    | [] -> continue := false
    | groups ->
      let _, sids = List.nth groups (Random.State.int rng (List.length groups)) in
      let arr = Array.of_list sids in
      let i = Random.State.int rng (Array.length arr) in
      let j = (i + 1 + Random.State.int rng (Array.length arr - 1))
              mod Array.length arr in
      ignore (Merge.apply syn arr.(i) arr.(j));
      incr merges;
      if !merges mod 7 = 0 then check_groupings_equal "mid-sequence" syn
  done;
  check Alcotest.bool "performed merges" true (!merges > 10);
  check_groupings_equal "after random merges" syn;
  check Alcotest.bool "builder valid" true (B.validate syn = Ok ())

let test_group_index_after_full_build () =
  (* a full XCLUSTERBUILD exercises merges AND phase-2 set_vsumm *)
  let doc = Xc_data.Xmark.generate ~seed:3 ~scale:0.01 () in
  let reference = Reference.build ~min_extent:2 doc in
  let built = Build.run_builder (Build.budget ~bstr_kb:2 ~bval_kb:16 ()) reference in
  check_groupings_equal "after full build" built;
  check Alcotest.bool "builder valid" true (B.validate built = Ok ())

(* ---- push_neighbors does bounded work -------------------------------------- *)

let test_push_neighbors_bounded () =
  let syn = B.create ~doc_height:2 in
  let root = add syn "r" 1 in
  B.set_root syn (B.sid root);
  let group_size = 12 in
  let mergeable =
    List.init group_size (fun i ->
        let n = add syn "a" (10 + i) in
        B.set_edge syn ~parent:(B.sid root) ~child:(B.sid n) 1.0;
        n)
  in
  (* a large population the neighbor lookup must never touch *)
  for _ = 1 to 3000 do
    let n = add syn "z" 5 in
    B.set_edge syn ~parent:(B.sid root) ~child:(B.sid n) 1.0
  done;
  let levels = Levels.compute syn in
  let node = List.hd mergeable in
  let counter name = Metrics.counter_value Metrics.global name in
  (* indexed path: work bounded by the group, not the node table *)
  let evals0 = counter "pool.cand_evals" and scanned0 = counter "pool.scanned" in
  let heap = Xc_util.Heap.create () in
  Pool.push_neighbors Pool.default_config syn heap ~levels ~level:99 node;
  let evals = counter "pool.cand_evals" - evals0 in
  let scanned = counter "pool.scanned" - scanned0 in
  check Alcotest.bool "pushed some candidates" true (Xc_util.Heap.length heap > 0);
  check Alcotest.bool "cand evals bounded by neighbor_k" true
    (evals <= Pool.default_config.Pool.neighbor_k);
  (* the group is smaller than neighbor_k, so the count-window walk
     visits every member — but never leaves the group *)
  check Alcotest.int "scans only the group, not all nodes" group_size scanned;
  (* on a group much larger than neighbor_k, the sorted count window
     stops early instead of scanning all members *)
  let big = 200 in
  let bigs =
    List.init big (fun i ->
        let n = add syn "b" (100 + i) in
        B.set_edge syn ~parent:(B.sid root) ~child:(B.sid n) 1.0;
        n)
  in
  let levels = Levels.compute syn in
  let mid = List.nth bigs (big / 2) in
  let scanned0 = counter "pool.scanned" in
  let heap = Xc_util.Heap.create () in
  Pool.push_neighbors Pool.default_config syn heap ~levels ~level:99 mid;
  let scanned_big = counter "pool.scanned" - scanned0 in
  let k = Pool.default_config.Pool.neighbor_k in
  check Alcotest.bool "count window stops early on large groups" true
    (scanned_big < big && scanned_big <= (2 * (k + 1)) + 1)

(* push_neighbors pairs [node] with exactly the [neighbor_k] eligible
   members of its group nearest by (|count difference|, sid) — here
   computed with a plain sort over the whole group. Counts come from a
   narrow range so ties are common, levels make only some members
   eligible, and groups range from a single member to far above
   [neighbor_k]; a second label's nodes must never be chosen. *)
let nearest_property =
  QCheck.Test.make ~name:"push_neighbors picks the nearest by (count, sid)" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let module R = Xc_util.Rng in
      let rng = R.create seed in
      let syn = B.create ~doc_height:2 in
      let root = add syn "r" 1 in
      B.set_root syn (B.sid root);
      let k = R.int_range rng 1 24 in
      let g = 1 + R.int rng (if R.bool rng then 20 else 300) in
      let spread = 1 + R.int rng 40 in
      let member label =
        let n = add syn label (1 + R.int rng spread) in
        B.set_edge syn ~parent:(B.sid root) ~child:(B.sid n) 1.0;
        n
      in
      (* interleave the two labels so sids of group and noise mix *)
      let group = ref [] in
      for _ = 1 to g do
        group := member "a" :: !group;
        if R.bool rng then ignore (member "z")
      done;
      let group = Array.of_list !group in
      let levels = Levels.compute syn in
      let max_level = 3 in
      Array.iter (fun n -> Levels.set levels (B.sid n) (R.int rng (max_level + 1))) group;
      let level = R.int rng (max_level + 1) in
      let node = R.pick rng group in
      let expected =
        let dist n = abs (B.count n - B.count node) in
        let eligible =
          List.filter
            (fun n ->
              B.sid n <> B.sid node
              && Levels.get levels ~default:max_int (B.sid n) <= level)
            (Array.to_list group)
        in
        List.sort
          (fun a b ->
            let c = Int.compare (dist a) (dist b) in
            if c <> 0 then c else Int.compare (B.sid a) (B.sid b))
          eligible
        |> List.filteri (fun i _ -> i < k)
        |> List.map B.sid |> List.sort Int.compare
      in
      let heap = Xc_util.Heap.create () in
      let config = { Pool.default_config with Pool.neighbor_k = k } in
      Pool.push_neighbors config syn heap ~levels ~level node;
      let rec drain acc =
        match Xc_util.Heap.pop heap with
        | None -> acc
        | Some (_, c) ->
          if c.Pool.u <> B.sid node then
            QCheck.Test.fail_reportf "candidate (%d, %d) does not start at node %d" c.Pool.u
              c.Pool.v (B.sid node);
          drain (c.Pool.v :: acc)
      in
      let actual = List.sort Int.compare (drain []) in
      if actual <> expected then
        QCheck.Test.fail_reportf
          "k=%d g=%d level=%d node %d (count %d):\n  expected [%s]\n  actual   [%s]" k g level
          (B.sid node) (B.count node)
          (String.concat ";" (List.map string_of_int expected))
          (String.concat ";" (List.map string_of_int actual));
      true)

(* ---- pop-time revalidation -------------------------------------------------- *)

let test_pop_valid_revalidates () =
  let syn = B.create ~doc_height:3 in
  let r = add syn "r" 1 in
  B.set_root syn (B.sid r);
  let u = add syn "a" 8 and v = add syn "a" 12 in
  let x = add syn "c" 4 and y = add syn "c" 4 in
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid u) 1.0;
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid v) 1.0;
  B.set_edge syn ~parent:(B.sid u) ~child:(B.sid x) 1.0;
  B.set_edge syn ~parent:(B.sid u) ~child:(B.sid y) 1.0;
  B.set_edge syn ~parent:(B.sid v) ~child:(B.sid x) 1.0;
  B.set_edge syn ~parent:(B.sid v) ~child:(B.sid y) 1.0;
  (* merging x and y will collapse {x, y} to {w} under BOTH u and v:
     the (u, v) entry's saved drops from node + 3 edges (4 child edges
     deduplicating to 2, one shared parent) to node + 2 edges *)
  let levels = Levels.compute syn in
  let cfg = Pool.default_config in
  let pool = Pool.build cfg syn ~levels ~level:99 in
  (* merge x and y behind the pool's back: u/v both survive, but their
     child edges change, so the pooled (u, v) entry's saved is stale *)
  ignore (Merge.apply syn (B.sid x) (B.sid y));
  let rescored0 = Metrics.counter_value Metrics.global "pool.rescored" in
  let rec drain () =
    match Pool.pop_valid cfg syn pool with
    | None -> ()
    | Some c ->
      let cu = B.find syn c.Pool.u and cv = B.find syn c.Pool.v in
      check Alcotest.int "popped saved matches current graph"
        (Merge.saved_bytes syn cu cv) c.Pool.saved;
      drain ()
  in
  drain ();
  let rescored = Metrics.counter_value Metrics.global "pool.rescored" - rescored0 in
  check Alcotest.bool "stale entry was rescored" true (rescored > 0)

(* ---- two threads, one build each ------------------------------------------ *)

(* Builds share nothing but the reference they copy from: two
   systhreads that build at once may switch at any point of a scoring
   batch, so the child-edge gather scratch must belong to the scoring
   call, never to the domain. One IMDB reference at two structural
   budgets: the two builds' node numbering and child sets overlap, so a
   shared scratch mixes one build's gather into the other's Δ and steers
   the greedy choices. The value budget is loose enough that the builds
   spend their time scoring merge candidates. Each thread builds its
   budget again and again for about a second and a half; every build
   must encode byte for byte as the single-threaded build at that
   budget does. *)
let test_two_thread_builds () =
  let doc = Xc_data.Imdb.generate ~seed:9 ~n_movies:120 () in
  let reference = Reference.build ~min_extent:2 doc in
  let budgets = [| (4, 500); (5, 500) |] in
  let digest (bstr_kb, bval_kb) =
    Digest.string
      (Codec.to_string (Build.run (Build.budget ~bstr_kb ~bval_kb ()) reference))
  in
  let expect = Array.map digest budgets in
  check Alcotest.bool "the two budgets build different synopses" false
    (Digest.equal expect.(0) expect.(1));
  let deadline = Unix.gettimeofday () +. 1.5 in
  let builds = Array.make 2 0 and wrong = Array.make 2 0 in
  let raised = Array.make 2 "" in
  (* an exception would end the thread silently: count it as a wrong
     build and report it *)
  let worker k =
    while builds.(k) < 3 || Unix.gettimeofday () < deadline do
      (match digest budgets.(k) with
       | d -> if not (Digest.equal d expect.(k)) then wrong.(k) <- wrong.(k) + 1
       | exception e ->
         wrong.(k) <- wrong.(k) + 1;
         raised.(k) <- Printexc.to_string e);
      builds.(k) <- builds.(k) + 1
    done
  in
  Array.init 2 (Thread.create worker) |> Array.iter Thread.join;
  Array.iteri
    (fun k n ->
      check Alcotest.int
        (Printf.sprintf "budget %d: builds off the single-threaded digest (of %d)%s" k
           builds.(k)
           (if raised.(k) = "" then "" else "; last raised " ^ raised.(k)))
        0 n)
    wrong

(* ---- pinned build output ------------------------------------------------------ *)

(* One line per seeded build (Golden.builds, Golden.build_line): the
   case and the MD5 of the sealed synopsis's encoding. A change to
   construction that moves any build byte fails here; regenerating golden/builds.txt from builds.actual is
   right only when a change is meant to alter the synopses built. This
   runs first in the executable: label and term ids are interned per
   process, and term order can steer the greedy choices. *)
let test_builds_pinned () =
  List.map Golden.build_line (Golden.builds ())
  |> Golden.check ~golden:"golden/builds.txt" ~actual_file:"builds.actual"

let () =
  Alcotest.run "xc_pool"
    [ ( "golden",
        [ Alcotest.test_case "seeded builds" `Quick test_builds_pinned ] );
      ( "group-index",
        [ Alcotest.test_case "random merges" `Quick test_group_index_random_merges;
          Alcotest.test_case "full build" `Quick test_group_index_after_full_build ] );
      ( "bounded-work",
        [ Alcotest.test_case "push_neighbors" `Quick test_push_neighbors_bounded;
          QCheck_alcotest.to_alcotest nearest_property ] );
      ( "revalidation",
        [ Alcotest.test_case "pop rescored" `Quick test_pop_valid_revalidates ] );
      ( "threads",
        [ Alcotest.test_case "two threads, one build each" `Quick test_two_thread_builds ] ) ]
