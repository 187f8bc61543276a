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

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_pinned () =
  let actual = lines () in
  let expected = read_lines golden in
  if actual <> expected then begin
    (* leave the actual lines beside the build's copy for a diff *)
    Out_channel.with_open_text "workloads.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first i = function
      | e :: es, a :: as_ -> if e = a then first (i + 1) (es, as_) else (i, e, a)
      | e :: _, [] -> (i, e, "<missing>")
      | [], a :: _ -> (i, "<missing>", a)
      | [], [] -> (i, "", "")
    in
    let i, e, a = first 1 (expected, actual) in
    Alcotest.failf "line %d differs (actual lines in workloads.actual):\n  expected %s\n  actual   %s"
      i e a
  end;
  Alcotest.(check bool) "every dataset pinned" true
    (List.for_all
       (fun d -> List.exists (fun l -> String.starts_with ~prefix:(d ^ " ") l) actual)
       [ "xmark"; "imdb"; "dblp" ])

let () =
  Alcotest.run "xc_workload_golden"
    [ ("workload golden", [ Alcotest.test_case "seeded pools and counts" `Quick test_pinned ]) ]
