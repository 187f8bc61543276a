(* Pins the reference synopsis at benchmark scale: the MD5 of the
   encoding of the frozen Reference.build for one seeded IMDB document
   (1600 movies) and one seeded XMark document (scale 0.25), each with
   its dataset's designated value paths and pooling bounds. At this
   size the value summaries are large enough that the PST's mid-build
   prune fires, which golden/builds.txt's small documents never reach,
   so the digests cover refinement, PST pruning and the codec together.
   Label and term ids are interned per process and the encoding follows
   them, so this check runs first in its own executable. *)

module Reference = Xc_core.Reference

let path tags = List.map Xc_xml.Label.of_string tags

let imdb_paths () =
  [ path [ "imdb"; "movie"; "title" ];
    path [ "imdb"; "movie"; "year" ];
    path [ "imdb"; "movie"; "genre" ];
    path [ "imdb"; "movie"; "plot" ];
    path [ "imdb"; "movie"; "cast"; "actor"; "name" ];
    path [ "imdb"; "movie"; "cast"; "actor"; "year" ];
    path [ "imdb"; "movie"; "director"; "name" ] ]

let xmark_paths () =
  let regions = [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ] in
  let per_region leaf =
    List.map (fun r -> path ([ "site"; "regions"; r; "item" ] @ leaf)) regions
  in
  per_region [ "location" ] @ per_region [ "quantity" ]
  @ per_region [ "description"; "text" ]
  @ [ path [ "site"; "people"; "person"; "name" ];
      path [ "site"; "people"; "person"; "profile"; "age" ];
      path [ "site"; "open_auctions"; "open_auction"; "initial" ];
      path [ "site"; "open_auctions"; "open_auction"; "annotation" ];
      path [ "site"; "closed_auctions"; "closed_auction"; "price" ];
      path [ "site"; "closed_auctions"; "closed_auction"; "annotation" ] ]

(* (case, document, min_extent, value_min_extent, value paths), built in
   this order *)
let cases () =
  [ ( "imdb seed=1 n_movies=1600",
      (fun () -> Xc_data.Imdb.generate ~seed:1 ~n_movies:1600 ()),
      4, 400, imdb_paths );
    ( "xmark seed=2 scale=0.25",
      (fun () -> Xc_data.Xmark.generate ~seed:2 ~scale:0.25 ()),
      6, 300, xmark_paths ) ]

let reference_line (case, doc, min_extent, value_min_extent, paths) =
  let doc = doc () in
  let syn =
    Reference.build ~min_extent ~value_min_extent ~value_paths:(paths ()) doc
  in
  let bytes = Xc_core.Codec.to_string (Xc_core.Synopsis.freeze syn) in
  Printf.sprintf "%s min_extent=%d value_min_extent=%d %s" case min_extent
    value_min_extent (Digest.to_hex (Digest.string bytes))

let test_reference_digests () =
  Golden.check ~golden:"golden/references.txt" ~actual_file:"references.actual"
    (List.map reference_line (cases ()))

let () =
  Alcotest.run "reference_golden"
    [ ( "golden",
        [ Alcotest.test_case "reference synopses at benchmark scale" `Quick
            test_reference_digests ] ) ]
