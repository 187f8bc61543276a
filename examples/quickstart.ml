(* Quickstart: summarize a small bibliographic database and estimate the
   selectivity of the paper's introductory query.

   Run with: dune exec examples/quickstart.exe *)

let bibliography_xml =
  {|<dblp>
      <paper><year>2000</year><title>Counting Twig Matches in a Tree</title>
        <abstract>Counting twig matches efficiently using summary structures
        for selectivity estimation in xml databases</abstract></paper>
      <paper><year>2002</year><title>Holistic Twig Joins</title>
        <abstract>Optimal xml pattern matching with holistic join algorithms
        over tree structured data</abstract></paper>
      <paper><year>2004</year><title>Approximate XML Query Answers</title>
        <abstract>A synopsis model for approximate answers of complex xml
        queries using tree synopses</abstract></paper>
      <paper><year>2005</year><title>XCluster Tree Synopses</title>
        <abstract>A unified synopsis framework for xml structure and
        heterogeneous values enabling selectivity estimation</abstract></paper>
      <book><year>1999</year><title>Modern Information Retrieval</title></book>
      <book><year>2003</year><title>Database System Concepts</title></book>
    </dblp>|}

let () =
  (* 1. Parse the XML; the typing table declares which tags hold which
        value types (NUMERIC years, STRING titles, TEXT abstracts). *)
  let typing =
    Xc_xml.Parser.typing_of_assoc
      [ ("year", Xc_xml.Value.Tnumeric);
        ("title", Xc_xml.Value.Tstring);
        ("abstract", Xc_xml.Value.Ttext) ]
  in
  let doc = Xc_xml.Parser.parse_string ~typing bibliography_xml in
  Format.printf "document: %d elements, height %d@."
    (Xc_xml.Document.n_elements doc) doc.Xc_xml.Document.height;

  (* 2. Build the detailed reference synopsis, then compress it into an
        XCluster within a byte budget (structural + value). *)
  let reference = Xcluster.Build.reference doc in
  Format.printf "reference synopsis: %a@." Xcluster.Build.builder_stats reference;
  let synopsis = Xcluster.Build.compress (Xcluster.Build.budget ~bstr_kb:1 ~bval_kb:2 ()) reference in
  Format.printf "budgeted XCluster:  %a@." Xcluster.Query.pp_stats synopsis;

  (* 3. Ask the paper's introductory query: papers after 2000 whose
        abstract mentions "synopsis" and "xml", projecting titles that
        contain the substring "Tree". *)
  let query =
    Xcluster.Query.parse
      "//paper[year > 2000][abstract ftcontains(synopsis, xml)]/title[contains(Tree)]"
  in
  Format.printf "@.query: %a@." Xc_twig.Twig_query.pp query;
  let exact = Xc_twig.Twig_eval.selectivity doc query in
  let estimate = Xcluster.Query.estimate synopsis query in
  Format.printf "exact selectivity:     %.0f binding tuples@." exact;
  Format.printf "estimated selectivity: %.2f binding tuples@." estimate;

  (* 4. A few more predicate flavours. *)
  List.iter
    (fun q ->
      let query = Xcluster.Query.parse q in
      Format.printf "%-58s exact=%-4.0f est=%.2f@." q
        (Xc_twig.Twig_eval.selectivity doc query)
        (Xcluster.Query.estimate synopsis query))
    [ "//paper"; "//paper[year in 2000..2003]"; "//book/title[contains(base)]";
      "//paper[abstract ftcontains(twig)]"; "//*[year < 2000]" ];

  (* 5. Estimation ran through the compiled pipeline: the per-synopsis
        batch engine's compiles and transition rows show up in the
        metrics snapshot. *)
  Format.printf "@.pipeline metrics: %s@." (Xcluster.Metrics.json ())
