(* Pins the seeded workloads: the printed query and exact count of every
   entry that Workload.generate and Workload.negative produce on small
   XMark, IMDB and DBLP documents. The query pools and their exact counts
   feed every accuracy figure and the serving benchmark's pools, so a
   change to the generator or to the exact evaluator that moves any of
   them fails here. The test has its own executable because label and
   term ids are interned per process, and the order of ftcontains terms
   follows those ids. *)

module Workload = Xc_twig.Workload
module Twig_query = Xc_twig.Twig_query

let golden = "golden/workloads.txt"

let lines () =
  let datasets =
    [ ("xmark", fun () -> Xc_data.Xmark.generate ~seed:7 ~scale:0.02 ());
      ("imdb", fun () -> Xc_data.Imdb.generate ~seed:7 ~n_movies:150 ());
      ("dblp", fun () -> Xc_data.Dblp.generate ~seed:7 ~n_authors:120 ()) ]
  in
  List.concat_map
    (fun (name, make) ->
      let doc = make () in
      let spec = { Workload.default_spec with n_queries = 48; seed = 11 } in
      let line kind e =
        Format.asprintf "%s %s %s %.17g %a" name kind
          (Twig_query.class_name e.Workload.cls)
          e.Workload.true_count Twig_query.pp e.Workload.query
      in
      List.map (line "pos") (Workload.generate ~spec doc)
      @ List.map (line "neg") (Workload.negative ~n:24 ~seed:13 doc))
    datasets

let test_pinned () =
  let actual = lines () in
  Golden.check ~golden ~actual_file:"workloads.actual" actual;
  Alcotest.(check bool) "every dataset pinned" true
    (List.for_all
       (fun d -> List.exists (fun l -> String.starts_with ~prefix:(d ^ " ") l) actual)
       [ "xmark"; "imdb"; "dblp" ])

let () =
  Alcotest.run "xc_workload_golden"
    [ ("workload golden", [ Alcotest.test_case "seeded pools and counts" `Quick test_pinned ]) ]
