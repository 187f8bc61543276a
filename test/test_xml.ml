(* Tests for Xc_xml: labels, values, tokenizer, nodes, documents,
   parser, writer, stats. *)

open Xc_xml

let check = Alcotest.check

(* ---- Label ----------------------------------------------------------- *)

let test_label_interning () =
  let a = Label.of_string "movie" and b = Label.of_string "movie" in
  check Alcotest.bool "equal" true (Label.equal a b);
  check Alcotest.string "round trip" "movie" (Label.to_string a);
  let c = Label.of_string "actor" in
  check Alcotest.bool "distinct" false (Label.equal a c)

let test_label_many () =
  let labels = List.init 500 (fun i -> Label.of_string (Printf.sprintf "tag%d" i)) in
  List.iteri
    (fun i l -> check Alcotest.string "name" (Printf.sprintf "tag%d" i) (Label.to_string l))
    labels

(* ---- Value ----------------------------------------------------------- *)

let test_value_types () =
  check Alcotest.bool "null" true (Value.vtype Value.Null = Value.Tnull);
  check Alcotest.bool "num" true (Value.vtype (Value.Numeric 3) = Value.Tnumeric);
  check Alcotest.bool "str" true (Value.vtype (Value.Str "x") = Value.Tstring);
  check Alcotest.bool "text" true
    (Value.vtype (Value.text_of_terms []) = Value.Ttext)

let test_text_of_terms_sorts_dedupes () =
  let t1 = Dictionary.of_string "alpha" and t2 = Dictionary.of_string "beta" in
  match Value.text_of_terms [ t2; t1; t2; t1 ] with
  | Value.Text arr ->
    check Alcotest.int "deduped" 2 (Array.length arr);
    check Alcotest.bool "sorted" true (Dictionary.compare arr.(0) arr.(1) < 0)
  | _ -> Alcotest.fail "expected Text"

let test_text_contains () =
  let a = Dictionary.of_string "xml" and b = Dictionary.of_string "synopsis" in
  let missing = Dictionary.of_string "absent-term" in
  let v = Value.text_of_terms [ a; b ] in
  check Alcotest.bool "has xml" true (Value.text_contains v a);
  check Alcotest.bool "has synopsis" true (Value.text_contains v b);
  check Alcotest.bool "no absent" false (Value.text_contains v missing);
  check Alcotest.bool "non-text" false (Value.text_contains (Value.Numeric 4) a)

let test_value_equal () =
  check Alcotest.bool "num eq" true (Value.equal (Value.Numeric 5) (Value.Numeric 5));
  check Alcotest.bool "num neq" false (Value.equal (Value.Numeric 5) (Value.Numeric 6));
  check Alcotest.bool "str eq" true (Value.equal (Value.Str "a") (Value.Str "a"));
  check Alcotest.bool "cross" false (Value.equal (Value.Str "5") (Value.Numeric 5));
  let t = Dictionary.of_string "term" in
  check Alcotest.bool "text eq" true
    (Value.equal (Value.text_of_terms [ t ]) (Value.text_of_terms [ t ]))

(* ---- Tokenizer ------------------------------------------------------- *)

let test_tokenizer_basic () =
  let terms = Tokenizer.tokenize "Hello, XML world! XML rules." in
  let words = List.map Dictionary.to_string terms |> List.sort String.compare in
  check (Alcotest.list Alcotest.string) "lowercased, deduped"
    [ "hello"; "rules"; "world"; "xml" ] words

let test_tokenizer_stopwords () =
  let terms = Tokenizer.tokenize "the cat and the hat" in
  let words = List.map Dictionary.to_string terms |> List.sort String.compare in
  check (Alcotest.list Alcotest.string) "stopwords removed" [ "cat"; "hat" ] words

let test_tokenizer_short_tokens () =
  let terms = Tokenizer.tokenize "a b c xy" in
  let words = List.map Dictionary.to_string terms in
  check (Alcotest.list Alcotest.string) "1-char dropped" [ "xy" ] words

let test_tokenizer_empty () =
  check Alcotest.int "empty" 0 (List.length (Tokenizer.tokenize ""));
  check Alcotest.int "punct only" 0 (List.length (Tokenizer.tokenize "!!! ... ???"))

(* ---- Node / Document -------------------------------------------------- *)

let sample_tree () =
  Node.make "root"
    ~children:
      [ Node.make "a"
          ~children:[ Node.leaf "x" (Value.Numeric 1); Node.leaf "y" (Value.Str "s") ];
        Node.make "b" ~children:[ Node.make "a" ] ]

let test_node_size_height () =
  let root = sample_tree () in
  check Alcotest.int "size" 6 (Node.size root);
  check Alcotest.int "height" 3 (Node.height root)

let test_node_iter_preorder () =
  let root = sample_tree () in
  let labels = ref [] in
  Node.iter (fun n -> labels := Label.to_string n.Node.label :: !labels) root;
  check (Alcotest.list Alcotest.string) "preorder"
    [ "root"; "a"; "x"; "y"; "b"; "a" ] (List.rev !labels)

let test_node_add_child () =
  let root = Node.make "root" in
  Node.add_child root (Node.make "kid");
  Node.add_child root (Node.make "kid2");
  check Alcotest.int "two kids" 2 (Array.length root.Node.children)

let test_document_ids_preorder () =
  let doc = Document.create (sample_tree ()) in
  check Alcotest.int "n" 6 (Document.n_elements doc);
  Array.iteri (fun i n -> check Alcotest.int "dense ids" i n.Node.id) doc.Document.nodes;
  (* preorder: parents before children *)
  let parents = doc.Document.parents in
  Array.iteri
    (fun i p -> if i > 0 && p >= i then Alcotest.failf "parent %d not before %d" p i)
    parents;
  check Alcotest.int "root parent" (-1) parents.(0)

let test_document_label_path () =
  let doc = Document.create (sample_tree ()) in
  let x_node = doc.Document.nodes.(2) in
  check (Alcotest.list Alcotest.string) "path to x" [ "root"; "a"; "x" ]
    (List.map Label.to_string (Document.label_path doc x_node))

(* The path summary over random documents whose tags recur at every
   depth: each element's path node spells the label path read off the
   tree, the path nodes' element lists partition the elements in
   preorder (and path_rank inverts them), and the summary's parent
   links follow the elements'. *)
let summary_matches_document =
  QCheck.Test.make ~name:"path summary = label paths, partitioned in preorder" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xc_util.Rng.create seed in
      let doc =
        if seed land 1 = 0 then Random_doc.generate rng else Random_doc.generate_nested rng
      in
      let s = doc.Document.summary in
      let n = Document.n_elements doc in
      let fail fmt = QCheck.Test.fail_reportf ("seed %d: " ^^ fmt) seed in
      let seen = Array.make n 0 in
      Array.iteri
        (fun p ids ->
          Array.iteri
            (fun j e ->
              seen.(e) <- seen.(e) + 1;
              if s.path_of.(e) <> p then fail "element %d listed under path node %d" e p;
              if s.path_rank.(e) <> j then
                fail "element %d ranked %d, listed %d" e s.path_rank.(e) j;
              if j > 0 && e <= ids.(j - 1) then fail "path node %d out of preorder" p)
            ids)
        s.elements;
      if Array.exists (fun c -> c <> 1) seen then
        fail "element lists do not partition the elements";
      Array.iter
        (fun node ->
          let e = node.Node.id in
          let rec walk e acc =
            if e < 0 then acc
            else
              walk doc.Document.parents.(e)
                (Label.to_string doc.Document.nodes.(e).Node.label :: acc)
          in
          let labels = walk e [] in
          if List.map Label.to_string (Document.label_path doc node) <> labels then
            fail "element %d: path node does not spell %s" e (String.concat "/" labels);
          let up = doc.Document.parents.(e) in
          if up >= 0 && s.parent.(s.path_of.(e)) <> s.path_of.(up) then
            fail "element %d: path node's parent is not its parent's path node" e)
        doc.Document.nodes;
      Array.iteri
        (fun p kids ->
          Array.iter
            (fun c -> if s.parent.(c) <> p then fail "child %d of path node %d" c p)
            kids;
          let labels = Array.map (fun c -> Label.to_string s.label.(c)) kids in
          if List.length (List.sort_uniq compare (Array.to_list labels)) <> Array.length kids then
            fail "path node %d has two children with one label" p)
        s.children;
      (* numbered by first encounter in preorder *)
      Array.iteri
        (fun p ids ->
          if p > 0 && ids.(0) <= s.elements.(p - 1).(0) then
            fail "path node %d numbered out of order" p)
        s.elements;
      Array.iteri
        (fun p up ->
          if up >= p then fail "path node %d's parent %d is not earlier" p up;
          if up >= 0 && not (Array.mem p s.children.(up)) then fail "path node %d not a child" p)
        s.parent;
      true)

let test_document_value_counts () =
  let doc = Document.create (sample_tree ()) in
  let counts = Document.value_counts doc in
  let get vt = Option.value ~default:0 (List.assoc_opt vt counts) in
  check Alcotest.int "numeric" 1 (get Value.Tnumeric);
  check Alcotest.int "string" 1 (get Value.Tstring);
  check Alcotest.int "null" 4 (get Value.Tnull)

let test_deep_tree_no_overflow () =
  (* 200k-deep chain: traversals must not blow the stack *)
  let deep = ref (Node.make "leaf") in
  for _ = 1 to 200_000 do
    deep := Node.make "n" ~children:[ !deep ]
  done;
  check Alcotest.int "size" 200_001 (Node.size !deep);
  check Alcotest.int "height" 200_001 (Node.height !deep)

(* ---- Parser ------------------------------------------------------------ *)

let test_parse_simple () =
  let doc = Parser.parse_string "<r><a>5</a><b>hello</b></r>" in
  check Alcotest.int "elements" 3 (Document.n_elements doc);
  let a = doc.Document.nodes.(1) and b = doc.Document.nodes.(2) in
  check Alcotest.bool "a numeric" true (Value.equal a.Node.value (Value.Numeric 5));
  check Alcotest.bool "b string" true (Value.equal b.Node.value (Value.Str "hello"))

let test_parse_attributes_discarded () =
  let doc = Parser.parse_string {|<r id="1" kind='x'><a href="y"/></r>|} in
  check Alcotest.int "elements" 2 (Document.n_elements doc)

let test_parse_entities () =
  let doc = Parser.parse_string "<r><s>a &amp; b &lt;c&gt; &#65;</s></r>" in
  match doc.Document.nodes.(1).Node.value with
  | Value.Str s -> check Alcotest.string "decoded" "a & b <c> A" s
  | _ -> Alcotest.fail "expected string"

let test_parse_cdata_comments () =
  let doc =
    Parser.parse_string
      "<?xml version=\"1.0\"?><!-- c --><r><s><![CDATA[x<y]]></s><!-- inner --></r>"
  in
  match doc.Document.nodes.(1).Node.value with
  | Value.Str s -> check Alcotest.string "cdata" "x<y" s
  | _ -> Alcotest.fail "expected string"

let test_parse_mixed_content_ignored () =
  let doc = Parser.parse_string "<r>junk<a>1</a>more</r>" in
  check Alcotest.int "elements" 2 (Document.n_elements doc);
  check Alcotest.bool "r has no value" true
    (Value.equal doc.Document.nodes.(0).Node.value Value.Null)

let test_parse_default_typing () =
  let doc =
    Parser.parse_string
      "<r><n>42</n><s>short text</s><t>one two three four five six seven eight \
       nine ten</t><e>  </e></r>"
  in
  let vt i = Value.vtype doc.Document.nodes.(i).Node.value in
  check Alcotest.bool "numeric" true (vt 1 = Value.Tnumeric);
  check Alcotest.bool "string" true (vt 2 = Value.Tstring);
  check Alcotest.bool "text" true (vt 3 = Value.Ttext);
  check Alcotest.bool "whitespace -> null" true (vt 4 = Value.Tnull)

let test_parse_assoc_typing () =
  let typing =
    Parser.typing_of_assoc
      [ ("year", Value.Tnumeric); ("title", Value.Tstring); ("abs", Value.Ttext) ]
  in
  let doc =
    Parser.parse_string ~typing
      "<r><year>1999</year><title>99 Ways</title><abs>xml synopsis</abs><other>dropped</other></r>"
  in
  let v i = doc.Document.nodes.(i).Node.value in
  check Alcotest.bool "year" true (Value.equal (v 1) (Value.Numeric 1999));
  check Alcotest.bool "title stays string" true (Value.equal (v 2) (Value.Str "99 Ways"));
  check Alcotest.bool "abs text" true (Value.vtype (v 3) = Value.Ttext);
  check Alcotest.bool "other dropped" true (Value.equal (v 4) Value.Null)

let test_parse_errors () =
  let malformed s =
    match Parser.parse_string s with
    | exception Parser.Malformed _ -> ()
    | _ -> Alcotest.failf "expected Malformed for %s" s
  in
  malformed "<r>";
  malformed "<r></s>";
  malformed "<r><a></r></a>";
  malformed "no xml";
  malformed "<r/><r2/>";
  malformed "<r>&unknown;</r>"

let test_parse_doctype () =
  let doc = Parser.parse_string "<!DOCTYPE r [<!ELEMENT r ANY>]><r/>" in
  check Alcotest.int "elements" 1 (Document.n_elements doc)

(* ---- Writer ------------------------------------------------------------ *)

let test_writer_roundtrip () =
  let root =
    Node.make "db"
      ~children:
        [ Node.leaf "n" (Value.Numeric 7);
          Node.leaf "s" (Value.Str "a & b <tag>");
          Node.make "empty" ]
  in
  let doc = Document.create root in
  let text = Writer.to_string doc in
  let typing =
    Parser.typing_of_assoc [ ("n", Value.Tnumeric); ("s", Value.Tstring) ]
  in
  let doc2 = Parser.parse_string ~typing text in
  check Alcotest.int "same elements" (Document.n_elements doc) (Document.n_elements doc2);
  check Alcotest.bool "n" true
    (Value.equal doc2.Document.nodes.(1).Node.value (Value.Numeric 7));
  check Alcotest.bool "s" true
    (Value.equal doc2.Document.nodes.(2).Node.value (Value.Str "a & b <tag>"))

let test_writer_size () =
  let doc = Document.create (Node.make "r") in
  check Alcotest.int "size = string length" (String.length (Writer.to_string doc))
    (Writer.serialized_size doc)

let test_escape () =
  check Alcotest.string "escape" "a&amp;b&lt;c&gt;d&quot;" (Writer.escape "a&b<c>d\"");
  check Alcotest.string "no-op" "plain" (Writer.escape "plain")

(* ---- Stats ------------------------------------------------------------ *)

let test_stats () =
  let doc = Document.create (sample_tree ()) in
  let stats = Stats.compute doc in
  check Alcotest.int "elements" 6 stats.Stats.n_elements;
  check Alcotest.int "labels" 5 stats.Stats.n_labels;
  check Alcotest.int "height" 3 stats.Stats.height;
  (* paths: root, root/a, root/a/x, root/a/y, root/b, root/b/a *)
  check Alcotest.int "paths" 6 (List.length stats.Stats.paths);
  let vpaths = Stats.value_paths stats in
  check Alcotest.int "value paths" 2 (List.length vpaths)

let test_stats_path_counts () =
  let root =
    Node.make "r"
      ~children:[ Node.make "a"; Node.make "a"; Node.make "a" ~children:[ Node.make "b" ] ]
  in
  let stats = Stats.compute (Document.create root) in
  let a_path =
    List.find
      (fun p -> List.map Label.to_string p.Stats.path = [ "r"; "a" ])
      stats.Stats.paths
  in
  check Alcotest.int "a count" 3 a_path.Stats.elements

let parse_roundtrip_property =
  (* generate a random small tree, write, re-parse, compare shape *)
  QCheck.Test.make ~name:"writer/parser roundtrip preserves structure" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Xc_util.Rng.create seed in
      let rec gen depth =
        let n_children =
          if depth >= 3 then 0 else Xc_util.Rng.int rng (4 - depth)
        in
        let tag = Printf.sprintf "t%d" (Xc_util.Rng.int rng 5) in
        if n_children = 0 && Xc_util.Rng.bool rng then
          Node.leaf tag (Value.Numeric (Xc_util.Rng.int rng 100))
        else Node.make tag ~children:(List.init n_children (fun _ -> gen (depth + 1)))
      in
      let doc = Document.create (gen 0) in
      let doc2 = Parser.parse_string (Writer.to_string doc) in
      Document.n_elements doc = Document.n_elements doc2
      && Array.for_all2
           (fun a b -> Label.equal a.Node.label b.Node.label)
           doc.Document.nodes doc2.Document.nodes)

let () =
  Alcotest.run ~and_exit:false "xc_xml"
    [ ( "label",
        [ Alcotest.test_case "interning" `Quick test_label_interning;
          Alcotest.test_case "many labels" `Quick test_label_many ] );
      ( "value",
        [ Alcotest.test_case "types" `Quick test_value_types;
          Alcotest.test_case "text sorts+dedupes" `Quick test_text_of_terms_sorts_dedupes;
          Alcotest.test_case "text contains" `Quick test_text_contains;
          Alcotest.test_case "equality" `Quick test_value_equal ] );
      ( "tokenizer",
        [ Alcotest.test_case "basic" `Quick test_tokenizer_basic;
          Alcotest.test_case "stopwords" `Quick test_tokenizer_stopwords;
          Alcotest.test_case "short tokens" `Quick test_tokenizer_short_tokens;
          Alcotest.test_case "empty" `Quick test_tokenizer_empty ] );
      ( "node+document",
        [ Alcotest.test_case "size/height" `Quick test_node_size_height;
          Alcotest.test_case "preorder iter" `Quick test_node_iter_preorder;
          Alcotest.test_case "add_child" `Quick test_node_add_child;
          Alcotest.test_case "preorder ids" `Quick test_document_ids_preorder;
          Alcotest.test_case "label path" `Quick test_document_label_path;
          QCheck_alcotest.to_alcotest summary_matches_document;
          Alcotest.test_case "value counts" `Quick test_document_value_counts;
          Alcotest.test_case "deep tree" `Slow test_deep_tree_no_overflow ] );
      ( "parser",
        [ Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "attributes" `Quick test_parse_attributes_discarded;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata+comments" `Quick test_parse_cdata_comments;
          Alcotest.test_case "mixed content" `Quick test_parse_mixed_content_ignored;
          Alcotest.test_case "default typing" `Quick test_parse_default_typing;
          Alcotest.test_case "assoc typing" `Quick test_parse_assoc_typing;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "doctype" `Quick test_parse_doctype ] );
      ( "writer",
        [ Alcotest.test_case "roundtrip" `Quick test_writer_roundtrip;
          Alcotest.test_case "size" `Quick test_writer_size;
          Alcotest.test_case "escape" `Quick test_escape;
          QCheck_alcotest.to_alcotest parse_roundtrip_property ] );
      ( "stats",
        [ Alcotest.test_case "basic" `Quick test_stats;
          Alcotest.test_case "path counts" `Quick test_stats_path_counts ] ) ]


(* ---- attribute handling (appended suite) --------------------------------- *)

let test_attributes_discarded_by_default () =
  let doc = Parser.parse_string {|<r id="1"><a href="x">7</a></r>|} in
  check Alcotest.int "elements" 2 (Document.n_elements doc);
  check Alcotest.bool "a keeps its numeric value" true
    (Value.equal doc.Document.nodes.(1).Node.value (Value.Numeric 7))

let test_attributes_as_elements () =
  let doc =
    Parser.parse_string ~attributes:`Elements
      {|<r id="42" name="root &amp; co"><a kind='x'/></r>|}
  in
  (* r, @id, @name, a, @kind *)
  check Alcotest.int "elements" 5 (Document.n_elements doc);
  let labels =
    Array.to_list (Array.map (fun n -> Label.to_string n.Node.label) doc.Document.nodes)
  in
  check (Alcotest.list Alcotest.string) "labels" [ "r"; "@id"; "@name"; "a"; "@kind" ]
    labels;
  (* default typing applies to attribute values too: @id is numeric *)
  check Alcotest.bool "@id numeric" true
    (Value.equal doc.Document.nodes.(1).Node.value (Value.Numeric 42));
  (* entity decoding inside attribute values *)
  check Alcotest.bool "@name decoded" true
    (Value.equal doc.Document.nodes.(2).Node.value (Value.Str "root & co"))

let test_attributes_with_text_value () =
  (* an element with attributes and character data keeps both *)
  let doc = Parser.parse_string ~attributes:`Elements {|<r><a id="1">9</a></r>|} in
  check Alcotest.int "elements" 3 (Document.n_elements doc);
  check Alcotest.bool "a keeps text" true
    (Value.equal doc.Document.nodes.(1).Node.value (Value.Numeric 9))

let test_attributes_queryable () =
  (* attribute elements participate in twig queries like any element *)
  let doc =
    Parser.parse_string ~attributes:`Elements
      {|<db><item id="1"/><item id="2"/><item id="30"/></db>|}
  in
  let count q = Xc_twig.Twig_eval.selectivity doc (Xc_twig.Twig_parse.parse q) in
  check (Alcotest.float 1e-9) "attribute range" 2.0 (count "//item[@id < 10]");
  (* and summarization covers them (within histogram interpolation
     error over the 2..30 value gap) *)
  let reference = Xc_core.Synopsis.freeze (Xc_core.Reference.build ~min_extent:1 doc) in
  check (Alcotest.float 0.5) "estimate" 2.0
    (Xc_core.Estimate.selectivity reference (Xc_twig.Twig_parse.parse "//item[@id < 10]"))

let () =
  Alcotest.run "xc_xml_attributes"
    [ ( "attributes",
        [ Alcotest.test_case "discarded by default" `Quick test_attributes_discarded_by_default;
          Alcotest.test_case "as elements" `Quick test_attributes_as_elements;
          Alcotest.test_case "with text value" `Quick test_attributes_with_text_value;
          Alcotest.test_case "queryable" `Quick test_attributes_queryable ] ) ]
