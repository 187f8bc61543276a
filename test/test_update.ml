(* Incremental synopsis maintenance (Xc_core.Update): the
   update → localized repair → re-freeze lifecycle.

   The headline property: applying a mutation batch to a live builder
   and re-freezing must estimate the mutated document about as well as
   a from-scratch XCLUSTERBUILD on that document, across
   imdb/xmark/dblp, and a second repair from the same snapshot must be
   bitwise the first. *)

open Xc_xml
module Synopsis = Xc_core.Synopsis
module B = Synopsis.Builder
module S = Synopsis.Sealed
module Reference = Xc_core.Reference
module Build = Xc_core.Build
module Update = Xc_core.Update
module Estimate = Xc_core.Estimate

let check = Alcotest.check
let l = Label.of_string
let exact doc q = Xc_twig.Twig_eval.selectivity doc (Xc_twig.Twig_parse.parse q)
let est syn q = Estimate.selectivity syn (Xc_twig.Twig_parse.parse q)

let rec copy_subtree (n : Node.t) =
  { n with Node.children = Array.map copy_subtree n.Node.children; id = -1 }

(* ---- unit behaviour ----------------------------------------------------- *)

(* On an unmerged reference with room to spare, an update must be exact:
   the repaired synopsis answers like the mutated document itself. *)
let test_insert_exact () =
  let paper year =
    Node.make "paper"
      ~children:[ Node.leaf "year" (Value.Numeric year); Node.make "cites" ]
  in
  let doc =
    Document.create (Node.make "db" ~children:[ paper 2000; paper 2001 ])
  in
  let live = Reference.build ~min_extent:1 doc in
  let budget = Build.budget ~bstr_kb:64 ~bval_kb:64 () in
  let muts =
    [ Update.Insert { parent = [ l "db" ]; subtree = paper 2002 };
      Update.Insert { parent = [ l "db" ]; subtree = paper 2003 } ]
  in
  match Update.apply_and_seal ~budget live muts with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok (stats, syn) ->
    check Alcotest.int "applied" 2 stats.Update.applied;
    check Alcotest.int "skipped" 0 stats.Update.skipped;
    let mutated =
      Document.create
        (Node.make "db" ~children:[ paper 2000; paper 2001; paper 2002; paper 2003 ])
    in
    List.iter
      (fun q ->
        check (Alcotest.float 1e-6) q (exact mutated q) (est syn q))
      [ "//paper"; "//paper/cites"; "/db/paper/year"; "//paper[year > 2001]" ]

let test_delete_to_zero_removes () =
  let doc =
    Document.create
      (Node.make "db"
         ~children:[ Node.make "paper"; Node.make "rare" ~children:[ Node.make "gem" ] ])
  in
  let live = Reference.build ~min_extent:1 doc in
  let budget = Build.budget ~bstr_kb:64 ~bval_kb:64 () in
  let muts =
    [ Update.Delete
        { parent = [ l "db" ]; subtree = Node.make "rare" ~children:[ Node.make "gem" ] } ]
  in
  match Update.apply_and_seal ~budget live muts with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok (stats, syn) ->
    check Alcotest.bool "clusters removed" true (stats.Update.removed >= 2);
    check (Alcotest.float 1e-9) "//rare gone" 0.0 (est syn "//rare");
    check (Alcotest.float 1e-9) "//gem gone" 0.0 (est syn "//gem");
    check (Alcotest.float 1e-6) "//paper intact" 1.0 (est syn "//paper")

(* A batch whose parent path resolves nowhere is rejected before
   anything is written. *)
let test_unresolvable_rejected () =
  let doc = Document.create (Node.make "db" ~children:[ Node.make "paper" ]) in
  let live = Reference.build ~min_extent:1 doc in
  let nodes0 = B.n_nodes live and edges0 = B.n_edges live in
  let budget = Build.budget () in
  let muts =
    [ Update.Insert { parent = [ l "db" ]; subtree = Node.make "paper" };
      Update.Insert { parent = [ l "db"; l "nowhere" ]; subtree = Node.make "x" } ]
  in
  (match Update.apply ~budget live muts with
  | Ok _ -> Alcotest.fail "bogus parent path accepted"
  | Error _ -> ());
  check Alcotest.int "nodes untouched" nodes0 (B.n_nodes live);
  check Alcotest.int "edges untouched" edges0 (B.n_edges live)

(* Deleting a subtree branch that is absent from the document is
   clamped and counted, not applied blindly. *)
let test_delete_clamps () =
  let doc =
    Document.create
      (Node.make "db" ~children:[ Node.make "paper" ~children:[ Node.make "cites" ] ])
  in
  let live = Reference.build ~min_extent:1 doc in
  let budget = Build.budget ~bstr_kb:64 ~bval_kb:64 () in
  let muts =
    [ Update.Delete
        { parent = [ l "db" ];
          subtree =
            Node.make "paper"
              ~children:[ Node.make "cites"; Node.make "phantom" ] } ]
  in
  match Update.apply_and_seal ~budget live muts with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok (stats, syn) ->
    check Alcotest.bool "phantom branch skipped" true (stats.Update.skipped >= 1);
    check (Alcotest.float 1e-9) "//paper gone" 0.0 (est syn "//paper")

(* Clusters are typed (Sec. 3): an inserted element joins a cluster of
   its own label and value type, so every value summary stays of its
   node's kind and the updated synopsis saves and loads back. *)
let test_insert_keeps_types () =
  let roundtrips live muts =
    match Update.apply_and_seal ~budget:(Build.budget ()) live muts with
    | Error e -> Alcotest.failf "rejected: %s" e
    | Ok (_, syn) ->
      B.iter
        (fun n ->
          check Alcotest.bool "summary fits type" true
            (Xc_vsumm.Value_summary.fits (B.vtype n) (B.vsumm n)))
        live;
      (match Xc_core.Codec.of_string (Xc_core.Codec.to_string syn) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "reload: %s" (Xc_core.Codec.error_to_string e));
      syn
  in
  let x v = Node.leaf "x" v in
  let ins v = Update.Insert { parent = [ l "db" ]; subtree = x v } in
  (* one batch makes a fresh [x] from a null and a number *)
  let live = Reference.build ~min_extent:1 (Document.create (Node.make "db")) in
  let syn = roundtrips live [ ins Value.Null; ins (Value.Numeric 12) ] in
  check (Alcotest.float 1e-9) "//x" 2.0 (est syn "//x");
  (* a number next to a larger null sibling of the same label *)
  let doc =
    Document.create
      (Node.make "db"
         ~children:[ x Value.Null; x Value.Null; x Value.Null; x (Value.Numeric 3) ])
  in
  let live = Reference.build ~min_extent:1 doc in
  ignore (roundtrips live [ ins (Value.Numeric 12) ]);
  B.iter
    (fun n ->
      if B.vtype n = Value.Tnumeric then
        check Alcotest.int "numeric x absorbs the number" 2 (B.count n))
    live

(* ---- the headline property ---------------------------------------------- *)

(* Mutation stream for documents without a bespoke generator: delete
   every [k]-th root child, re-insert copies of some survivors. *)
let generic_case ~k doc =
  let root = doc.Document.root in
  let rl = root.Node.label in
  let kept = ref [] and deleted = ref [] and inserted = ref [] in
  Array.iteri
    (fun i c ->
      if i mod k = 0 then deleted := c :: !deleted else kept := c :: !kept;
      if i mod (3 * k) = 1 then inserted := c :: !inserted)
    root.Node.children;
  let muts =
    List.map (fun c -> Update.Delete { parent = [ rl ]; subtree = c }) !deleted
    @ List.map
        (fun c -> Update.Insert { parent = [ rl ]; subtree = copy_subtree c })
        !inserted
  in
  let children' =
    Array.of_list (List.rev_map copy_subtree !kept @ List.rev_map copy_subtree !inserted)
  in
  let mutated = Document.create { root with Node.children = children'; id = -1 } in
  (muts, mutated)

(* XMark auction open/close stream, converted caller-side to mutations
   (Open → insert under site/open_auctions; Close → delete there plus
   insert under site/closed_auctions). *)
let xmark_case doc =
  let updates = Xc_data.Xmark.update_stream ~seed:11 ~n_open:12 ~n_close:8 doc in
  let muts =
    List.concat_map
      (function
        | Xc_data.Xmark.Open subtree ->
          [ Update.Insert { parent = [ l "site"; l "open_auctions" ]; subtree } ]
        | Xc_data.Xmark.Close { opened; closed } ->
          [ Update.Delete { parent = [ l "site"; l "open_auctions" ]; subtree = opened };
            Update.Insert { parent = [ l "site"; l "closed_auctions" ]; subtree = closed } ])
      updates
  in
  (muts, Xc_data.Xmark.apply_stream doc updates)

(* Tolerated estimation-error gap between the incrementally maintained
   synopsis and a fresh build of the mutated document. *)
let added_error_bound = 0.03

let run_property ~name doc (muts, mutated) =
  let budget = Build.budget ~bstr_kb:12 ~bval_kb:60 () in
  let reference = Reference.build ~min_extent:4 doc in
  let live = Build.run_builder budget reference in
  let snapshot = B.copy live in
  let pre_val = B.value_bytes live in
  match Update.apply_and_seal ~budget live muts with
  | Error e -> Alcotest.failf "%s: rejected: %s" name e
  | Ok (stats, incr_syn) ->
    check Alcotest.int (name ^ ": applied") (List.length muts) stats.Update.applied;
    check Alcotest.bool (name ^ ": frontier non-empty") true (stats.Update.dirty > 0);
    let fresh = Build.run budget (Reference.build ~min_extent:4 mutated) in
    (* repair re-established the construction budgets — or, where a
       budget sits below the compression floor (greedy compression runs
       dry over budget, exactly as in a fresh build; deletions keep
       their value summaries, so the incremental floor is the
       pre-update floor), at least did not regress past it *)
    check Alcotest.bool (name ^ ": structural budget") true
      (S.structural_bytes incr_syn
      <= max budget.Build.bstr (S.structural_bytes fresh + (S.structural_bytes fresh / 10)));
    check Alcotest.bool (name ^ ": value budget") true
      (S.value_bytes incr_syn <= max budget.Build.bval (pre_val + (pre_val / 10)));
    (* estimation error vs the from-scratch build *)
    let spec = { Xc_twig.Workload.default_spec with Xc_twig.Workload.n_queries = 40 } in
    let wl = Xc_twig.Workload.generate ~spec mutated in
    let sanity = Xc_twig.Workload.sanity_bound wl in
    let err syn =
      Xc_exp.Error_metric.overall_relative ~sanity
        (Xc_exp.Error_metric.score (Estimate.selectivity syn) wl)
    in
    let e_incr = err incr_syn and e_fresh = err fresh in
    check Alcotest.bool
      (Printf.sprintf "%s: added error (incr %.4f, fresh %.4f)" name e_incr e_fresh)
      true
      (e_incr -. e_fresh < added_error_bound);
    (* repair is a function of the snapshot and the mutations: a second
       repair from the same snapshot is bitwise the first *)
    let resealed =
      match Update.apply_and_seal ~budget (B.copy snapshot) muts with
      | Error e -> Alcotest.failf "%s (reseal): rejected: %s" name e
      | Ok (_, syn) -> syn
    in
    check Alcotest.int (name ^ ": n_nodes resealed") (S.n_nodes incr_syn)
      (S.n_nodes resealed);
    check Alcotest.int (name ^ ": n_edges resealed") (S.n_edges incr_syn)
      (S.n_edges resealed);
    List.iter
      (fun q ->
        check Alcotest.bool
          (Printf.sprintf "%s: %s bitwise resealed" name q)
          true
          (Int64.equal
             (Int64.bits_of_float (est incr_syn q))
             (Int64.bits_of_float (est resealed q))))
      [ "//item"; "//paper"; "//author"; "//open_auction"; "//year" ]

let test_property_imdb () =
  let doc = Xc_data.Imdb.generate ~seed:31 ~n_movies:260 () in
  run_property ~name:"imdb" doc (generic_case ~k:6 doc)

let test_property_dblp () =
  let doc = Xc_data.Dblp.generate ~seed:32 ~n_authors:220 () in
  run_property ~name:"dblp" doc (generic_case ~k:5 doc)

let test_property_xmark () =
  let doc = Xc_data.Xmark.generate ~seed:33 ~scale:0.03 () in
  run_property ~name:"xmark" doc (xmark_case doc)

(* Repeated batches against one live builder: the lifecycle the serving
   layer runs (apply → freeze → swap, builder stays live). *)
let test_repeated_batches () =
  let doc = Xc_data.Xmark.generate ~seed:34 ~scale:0.02 () in
  let budget = Build.budget ~bstr_kb:10 ~bval_kb:50 () in
  let live = Build.run_builder budget (Reference.build ~min_extent:4 doc) in
  let uids = ref [] in
  let current = ref doc in
  for round = 1 to 3 do
    let muts, mutated = xmark_case !current in
    (match Update.apply_and_seal ~budget live muts with
    | Error e -> Alcotest.failf "round %d rejected: %s" round e
    | Ok (_, syn) ->
      check Alcotest.bool
        (Printf.sprintf "round %d structural budget" round)
        true
        (S.structural_bytes syn <= budget.Build.bstr);
      uids := S.uid syn :: !uids);
    current := mutated
  done;
  check Alcotest.int "three distinct generations" 3
    (List.length (List.sort_uniq Int.compare !uids))

let () =
  Alcotest.run "xc_update"
    [ ( "unit",
        [ Alcotest.test_case "insert is exact on reference" `Quick test_insert_exact;
          Alcotest.test_case "delete to zero removes clusters" `Quick
            test_delete_to_zero_removes;
          Alcotest.test_case "unresolvable batch rejected untouched" `Quick
            test_unresolvable_rejected;
          Alcotest.test_case "delete clamps missing branches" `Quick test_delete_clamps;
          Alcotest.test_case "inserts keep cluster types" `Quick test_insert_keeps_types ] );
      ( "property",
        [ Alcotest.test_case "imdb: update ~ fresh build" `Slow test_property_imdb;
          Alcotest.test_case "dblp: update ~ fresh build" `Slow test_property_dblp;
          Alcotest.test_case "xmark: update ~ fresh build" `Slow test_property_xmark;
          Alcotest.test_case "repeated batches stay sealed" `Slow test_repeated_batches ] ) ]
