(* Pins the oracle: the bits of Estimate.selectivity for every seeded
   workload query (positive and negative) over each seeded build that
   golden/builds.txt pins. Any change to the estimator's float
   operations or their order moves a bit here. The test runs first in
   its own executable because build output and ftcontains term order
   follow the process's label/term interning history. *)

module Estimate = Xc_core.Estimate
module Workload = Xc_twig.Workload
module Twig_query = Xc_twig.Twig_query

let test_pinned () =
  let builds = Golden.builds () in
  List.map Golden.build_line builds
  |> Golden.check ~golden:"golden/builds.txt" ~actual_file:"estimate_builds.actual";
  let workloads = Hashtbl.create 3 in
  let queries (b : Golden.build) =
    match Hashtbl.find_opt workloads b.dataset with
    | Some qs -> qs
    | None ->
      let spec = { Workload.default_spec with n_queries = 48; seed = 11 } in
      let qs =
        List.map
          (fun e -> e.Workload.query)
          (Workload.generate ~spec b.doc @ Workload.negative ~n:24 ~seed:13 b.doc)
      in
      Hashtbl.add workloads b.dataset qs;
      qs
  in
  List.concat_map
    (fun (b : Golden.build) ->
      List.mapi
        (fun k q ->
          (* the query printed on its own: at a deep column Format would
             break the line before the query's box *)
          Printf.sprintf "%s q%d %h %s" b.case k (Estimate.selectivity b.sealed q)
            (Format.asprintf "%a" Twig_query.pp q))
        (queries b))
    builds
  |> Golden.check ~golden:"golden/estimates.txt" ~actual_file:"estimates.actual"

let () =
  Alcotest.run "xc_estimate_golden"
    [ ("estimate golden", [ Alcotest.test_case "seeded oracle bits" `Quick test_pinned ]) ]
