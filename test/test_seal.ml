(* Focused tests for the Builder/Sealed split: Merge.apply self-edge
   remapping in every direction, saved_bytes agreement with the actual
   structural-byte delta, the budget_split rounding clamp, and CSR
   well-formedness of frozen synopses. *)

open Xc_xml
module Synopsis = Xc_core.Synopsis
module B = Synopsis.Builder
module S = Synopsis.Sealed
module Merge = Xc_core.Merge
module Build = Xc_core.Build
module Reference = Xc_core.Reference
module Size = Xc_core.Size
module Vs = Xc_vsumm.Value_summary

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let add syn label count =
  B.add_node syn ~label:(Label.of_string label) ~vtype:Value.Tnull ~count
    ~vsumm:Vs.vnone

(* ---- Merge.apply self-edge remapping ------------------------------------- *)

(* u is a parent of v: merging must turn the u->v edge into a w->w
   self-loop carrying u's share of the child mass *)
let test_merge_u_parent_of_v () =
  let syn = B.create ~doc_height:3 in
  let r = add syn "r" 1 and u = add syn "a" 2 and v = add syn "a" 6 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid u) 2.0;
  B.set_edge syn ~parent:(B.sid u) ~child:(B.sid v) 3.0;
  let w = Merge.apply syn (B.sid u) (B.sid v) in
  check Alcotest.bool "valid" true (B.validate syn = Ok ());
  check Alcotest.int "count adds" 8 (B.count w);
  (* count(w,w) = (2*3 + 6*0) / 8 *)
  checkf "self loop" 0.75 (B.edge_count syn ~parent:(B.sid w) ~child:(B.sid w));
  checkf "incoming kept" 2.0 (B.edge_count syn ~parent:(B.sid r) ~child:(B.sid w))

(* v is a parent of u: the same remap must work when the merge argument
   order is reversed relative to the edge direction *)
let test_merge_v_parent_of_u () =
  let syn = B.create ~doc_height:3 in
  let r = add syn "r" 1 and u = add syn "a" 6 and v = add syn "a" 2 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid v) 2.0;
  B.set_edge syn ~parent:(B.sid v) ~child:(B.sid u) 3.0;
  let w = Merge.apply syn (B.sid u) (B.sid v) in
  check Alcotest.bool "valid" true (B.validate syn = Ok ());
  check Alcotest.int "count adds" 8 (B.count w);
  (* count(w,w) = (6*0 + 2*3) / 8 *)
  checkf "self loop" 0.75 (B.edge_count syn ~parent:(B.sid w) ~child:(B.sid w));
  checkf "incoming kept" 2.0 (B.edge_count syn ~parent:(B.sid r) ~child:(B.sid w))

(* u already carries a self-loop: it must fold into w's self-loop
   together with the cross edges *)
let test_merge_with_existing_self_loop () =
  let syn = B.create ~doc_height:4 in
  let r = add syn "r" 1 and u = add syn "a" 4 and v = add syn "a" 4 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid u) 4.0;
  B.set_edge syn ~parent:(B.sid u) ~child:(B.sid u) 0.5;
  B.set_edge syn ~parent:(B.sid u) ~child:(B.sid v) 1.0;
  let w = Merge.apply syn (B.sid u) (B.sid v) in
  check Alcotest.bool "valid" true (B.validate syn = Ok ());
  (* count(w,w) = (4*(0.5+1.0) + 4*0) / 8 *)
  checkf "folded self loop" 0.75
    (B.edge_count syn ~parent:(B.sid w) ~child:(B.sid w));
  (* one node and one self-edge remain below the root *)
  check Alcotest.int "n_nodes" 2 (B.n_nodes syn);
  check Alcotest.int "n_edges" 2 (B.n_edges syn)

(* ---- saved_bytes vs the actual structural delta --------------------------- *)

let saved_bytes_matches syn u v =
  let predicted = Merge.saved_bytes syn u v in
  let before = B.structural_bytes syn in
  ignore (Merge.apply syn (B.sid u) (B.sid v));
  check Alcotest.int "saved_bytes exact" (before - predicted)
    (B.structural_bytes syn)

let test_saved_bytes_self_edges () =
  (* parent-child merge: the u->v edge disappears into the self-loop *)
  let syn = B.create ~doc_height:3 in
  let r = add syn "r" 1 and u = add syn "a" 2 and v = add syn "a" 6 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid u) 2.0;
  B.set_edge syn ~parent:(B.sid u) ~child:(B.sid v) 3.0;
  saved_bytes_matches syn u v

let test_saved_bytes_shared_neighbors () =
  (* u and v share a parent and a child; both pairs of duplicate edges
     must be counted once each in the prediction *)
  let syn = B.create ~doc_height:3 in
  let r = add syn "r" 1 and u = add syn "a" 2 and v = add syn "a" 6 in
  let c = add syn "c" 10 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid u) 2.0;
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid v) 6.0;
  B.set_edge syn ~parent:(B.sid u) ~child:(B.sid c) 1.0;
  B.set_edge syn ~parent:(B.sid v) ~child:(B.sid c) 1.5;
  saved_bytes_matches syn u v

let test_saved_bytes_disjoint_neighbors () =
  (* no shared neighbors: only the node record is saved *)
  let syn = B.create ~doc_height:3 in
  let r = add syn "r" 1 and u = add syn "a" 2 and v = add syn "a" 6 in
  let c = add syn "c" 10 and d = add syn "d" 12 in
  B.set_root syn (B.sid r);
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid u) 2.0;
  B.set_edge syn ~parent:(B.sid r) ~child:(B.sid v) 6.0;
  B.set_edge syn ~parent:(B.sid u) ~child:(B.sid c) 1.0;
  B.set_edge syn ~parent:(B.sid v) ~child:(B.sid d) 1.5;
  (* shared parent r merges two edges into one; c and d edges survive *)
  saved_bytes_matches syn u v

(* ---- budget_split clamp ---------------------------------------------------- *)

let test_budget_split_ratio_one () =
  (* ratio 1.0 with a small budget must not round bstr above the total
     and drive bval negative *)
  List.iter
    (fun total_kb ->
      let b = Build.budget_split ~total_kb ~ratio:1.0 () in
      check Alcotest.bool "bstr within total" true (b.Build.bstr <= Size.kb total_kb);
      check Alcotest.bool "bval nonnegative" true (b.Build.bval >= 0);
      check Alcotest.int "split covers total" (Size.kb total_kb)
        (b.Build.bstr + b.Build.bval))
    [ 1; 3; 7; 200 ]

let test_budget_split_extremes_and_interior () =
  let b0 = Build.budget_split ~total_kb:10 ~ratio:0.0 () in
  check Alcotest.int "all value" 0 b0.Build.bstr;
  check Alcotest.int "bval full" (Size.kb 10) b0.Build.bval;
  let bi = Build.budget_split ~total_kb:10 ~ratio:0.35 () in
  check Alcotest.bool "interior bstr" true (bi.Build.bstr > 0 && bi.Build.bstr < Size.kb 10);
  check Alcotest.int "interior covers" (Size.kb 10) (bi.Build.bstr + bi.Build.bval);
  (* out-of-range inputs are rejected outright *)
  Alcotest.check_raises "ratio beyond 1"
    (Invalid_argument "Build.budget_split: ratio outside [0,1]") (fun () ->
      ignore (Build.budget_split ~total_kb:5 ~ratio:1.4 ()));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Build.budget_split: non-positive budget") (fun () ->
      ignore (Build.budget_split ~total_kb:0 ~ratio:0.5 ()))

(* ---- CSR well-formedness of frozen synopses -------------------------------- *)

let test_freeze_csr_well_formed () =
  List.iter
    (fun seed ->
      let doc = Xc_data.Imdb.generate ~seed ~n_movies:80 () in
      let builder = Reference.build ~min_extent:2 doc in
      let sealed = Synopsis.freeze builder in
      (match S.validate sealed with
      | Ok () -> ()
      | Error e -> Alcotest.failf "sealed reference invalid: %s" e);
      (* sealed mirrors the builder it came from *)
      check Alcotest.int "nodes" (B.n_nodes builder) (S.n_nodes sealed);
      check Alcotest.int "edges" (B.n_edges builder) (S.n_edges sealed);
      check Alcotest.int "value bytes" (B.value_bytes builder) (S.value_bytes sealed);
      (* every builder edge is present with the same average *)
      B.iter
        (fun n ->
          B.succ builder n (fun child avg ->
              checkf "edge avg" avg
                (S.edge_count sealed ~parent:(B.sid n) ~child)))
        builder;
      (* adjacency rows are sorted strictly ascending *)
      let ok = ref true in
      let last = ref (-1) in
      for i = 0 to S.n_nodes sealed - 1 do
        last := -1;
        List.iter
          (fun (child, _) ->
            if child <= !last then ok := false;
            last := child)
          (S.succ sealed (S.sid_of_index sealed i))
      done;
      check Alcotest.bool "rows sorted" true !ok)
    [ 1; 2; 3 ]

let test_freeze_after_build_csr () =
  let doc = Xc_data.Xmark.generate ~seed:5 ~scale:0.01 () in
  let reference = Reference.build ~min_extent:2 doc in
  let sealed = Build.run (Build.budget ~bstr_kb:2 ~bval_kb:16 ()) reference in
  check Alcotest.bool "compressed sealed valid" true (S.validate sealed = Ok ())

let () =
  Alcotest.run "xc_seal"
    [ ( "merge-self-edges",
        [ Alcotest.test_case "u parent of v" `Quick test_merge_u_parent_of_v;
          Alcotest.test_case "v parent of u" `Quick test_merge_v_parent_of_u;
          Alcotest.test_case "existing self loop" `Quick test_merge_with_existing_self_loop ] );
      ( "saved-bytes",
        [ Alcotest.test_case "self edges" `Quick test_saved_bytes_self_edges;
          Alcotest.test_case "shared neighbors" `Quick test_saved_bytes_shared_neighbors;
          Alcotest.test_case "disjoint neighbors" `Quick test_saved_bytes_disjoint_neighbors ] );
      ( "budget-split",
        [ Alcotest.test_case "ratio one clamps" `Quick test_budget_split_ratio_one;
          Alcotest.test_case "extremes and interior" `Quick
            test_budget_split_extremes_and_interior ] );
      ( "csr",
        [ Alcotest.test_case "frozen references" `Quick test_freeze_csr_well_formed;
          Alcotest.test_case "frozen build output" `Quick test_freeze_after_build_csr ] ) ]
