(* Shared by the golden-file tests: the seeded builds that
   golden/builds.txt pins, and the line-by-line comparison with a
   golden file. Label and term ids are interned per process and build
   output follows them, so an executable that needs these builds makes
   them first, before anything else interns a label or a term. *)

module Build = Xc_core.Build
module Pool = Xc_core.Pool
module Reference = Xc_core.Reference

type build = {
  dataset : string;  (* "imdb", "xmark" or "dblp" *)
  doc : Xc_xml.Document.t;
  case : string;  (* the golden line's leading fields *)
  sealed : Xc_core.Synopsis.Sealed.t;
}

(* two budgets per dataset plus one structure-only build; documents and
   reference synopses are made on first use, in this order *)
let builds () =
  let datasets =
    [ ("imdb", "n_movies=60", lazy (Xc_data.Imdb.generate ~seed:3 ~n_movies:60 ()));
      ("xmark", "scale=0.005", lazy (Xc_data.Xmark.generate ~seed:4 ~scale:0.005 ()));
      ("dblp", "n_authors=70", lazy (Xc_data.Dblp.generate ~seed:5 ~n_authors:70 ())) ]
  in
  let cases =
    List.concat_map
      (fun (name, _, _) -> [ (name, false, 3, 24); (name, false, 4, 64) ])
      datasets
    @ [ ("imdb", true, 3, 24) ]
  in
  let references =
    List.map
      (fun (name, size, doc) ->
        (name, (size, doc, lazy (Reference.build ~min_extent:2 (Lazy.force doc)))))
      datasets
  in
  List.map
    (fun (name, structural_only, bstr_kb, bval_kb) ->
      let size, doc, reference = List.assoc name references in
      let pool = { Pool.default_config with Pool.structural_only } in
      let sealed =
        Build.run (Build.budget ~pool ~bstr_kb ~bval_kb ()) (Lazy.force reference)
      in
      { dataset = name;
        doc = Lazy.force doc;
        case =
          Printf.sprintf "%s %s bstr=%dKB bval=%dKB%s" name size bstr_kb bval_kb
            (if structural_only then " structural_only" else "");
        sealed })
    cases

(* a build's golden/builds.txt line: its case and the MD5 of its
   encoding, which covers every array of the sealed form *)
let build_line b =
  b.case ^ " " ^ Digest.to_hex (Digest.string (Xc_core.Codec.to_string b.sealed))

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Fail naming the first line that differs from [golden]; the whole
   actual list is left in [actual_file] beside the test executable, to
   diff against or to regenerate the golden file from when a change is
   meant to move it. *)
let check ~golden ~actual_file actual =
  let expected = read_lines golden in
  if actual <> expected then begin
    Out_channel.with_open_text actual_file (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first i = function
      | e :: es, a :: as_ -> if e = a then first (i + 1) (es, as_) else (i, e, a)
      | e :: _, [] -> (i, e, "<missing>")
      | [], a :: _ -> (i, "<missing>", a)
      | [], [] -> (i, "", "")
    in
    let i, e, a = first 1 (expected, actual) in
    Alcotest.failf "line %d differs (actual lines in %s):\n  expected %s\n  actual   %s" i
      actual_file e a
  end
