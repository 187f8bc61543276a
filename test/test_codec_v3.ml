(* Codec v3 (mmap-friendly, lazily verified) tests.

   Contracts under test, beyond the generic totality suite in
   test_fault.ml:

   - the checked-in golden file test/golden/imdb.v3.syn (one IMDB
     synopsis, seed 81, 40 movies, written by an earlier v3 writer)
     decodes to fixed node and edge counts and answers its three
     queries with fixed bits, through the decoder and the mapped
     loader alike;
   - v3 re-encoding is idempotent and keeps every estimate;
   - every single-bit flip in the prologue + section directory is
     detected, and sampled payload flips land in the right section's
     CRC;
   - a lazy (mapped) load of a damaged file either fails at admission
     (node-attribute sections) or raises Codec.Lazy_failure at the
     first access that needed the damaged section — and the serve
     engine contains that into a typed error (a [Failure] from the
     facade's single-query estimate), never a crash;
   - one definition of a valid artifact: for damage the checksums
     cannot see (a word overwritten, the CRCs recomputed), of_string,
     verify and a mapped load followed by a full walk refuse exactly
     the same files with the same error, and answer bit-identically
     when they accept;
   - fault storms at the mmap-path sites (codec.map,
     codec.section_verify) never produce an untyped failure;
   - a refused mapped synopsis is refused in O(1) at every later
     access: its deferred checks do not run again;
   - every value-summary kind is on disk in the golden file, so each
     reader arm is exercised;
   - the per-section report localizes damage. *)

module Codec = Xc_core.Codec
module S = Xc_core.Synopsis.Sealed
module Synopsis = Xc_core.Synopsis
module Reference = Xc_core.Reference
module Build = Xc_core.Build
module Fault = Xc_util.Fault
module Safe_io = Xc_util.Safe_io

let check = Alcotest.check

let datasets =
  [ ( "imdb",
      lazy
        (let doc = Xc_data.Imdb.generate ~seed:81 ~n_movies:40 () in
         let reference = Reference.build ~min_extent:4 doc in
         Build.run (Build.budget ~bstr_kb:3 ~bval_kb:15 ()) reference) );
    ( "xmark",
      lazy
        (let doc = Xc_data.Xmark.generate ~seed:82 ~scale:0.01 () in
         Synopsis.freeze (Reference.build ~min_extent:4 doc)) );
    ( "dblp",
      lazy
        (let doc = Xc_data.Dblp.generate ~seed:83 ~n_authors:40 () in
         Synopsis.freeze (Reference.build ~min_extent:4 doc)) ) ]

let force name = Lazy.force (List.assoc name datasets)

let queries_of = function
  | "imdb" -> [ "//movie/year[. > 1990]"; "//movie[year > 1990]"; "//movie/title" ]
  | "xmark" -> [ "//item"; "//person/name"; "//open_auction/bidder" ]
  | "dblp" -> [ "//article/title"; "//author"; "//*" ]
  | _ -> assert false

let est syn q = Xc_core.Estimate.selectivity syn (Xc_twig.Twig_parse.parse q)

let check_bits name a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h is not bit-identical to %h" name a b

let decode_exn what s =
  match Codec.of_string s with
  | Ok syn -> syn
  | Error e -> Alcotest.failf "%s: decode failed: %s" what (Codec.error_to_string e)

(* ---- the golden v3 file ------------------------------------------------- *)

let golden_path = "golden/imdb.v3.syn"

let golden () =
  match Safe_io.read golden_path with
  | Ok s -> s
  | Error e -> Alcotest.failf "read %s failed: %s" golden_path (Safe_io.error_to_string e)

(* [decoded] is the synopsis the v3 golden file holds: same shape,
   same estimates bit for bit *)
let check_same_synopsis what ~expected decoded =
  check Alcotest.int (what ^ " nodes") (S.n_nodes expected) (S.n_nodes decoded);
  check Alcotest.int (what ^ " edges") (S.n_edges expected) (S.n_edges decoded);
  List.iter
    (fun q -> check_bits (what ^ " " ^ q) (est expected q) (est decoded q))
    (queries_of "imdb")

(* ---- golden v3, pinned by its answers -----------------------------------

   The file was written by an earlier v3 writer that numbered its terms
   in intern order, so today's writer re-encodes it to the same length
   but other bytes: its decoded shape and answers are what is pinned.
   The figures are those the retired v1 and v2 readers gave for the
   same synopsis's v1 and v2 files, bit for bit. *)

let golden_nodes = 136
let golden_edges = 151

(* each query's estimate, as hex-float text *)
let golden_answers =
  [ ("//movie/year[. > 1990]", "0x1.a49826c93b8e4p+4");
    ("//movie[year > 1990]", "0x1.a49826c93b8e4p+4");
    ("//movie/title", "0x1.4p+5") ]

let check_pinned what syn =
  check Alcotest.int (what ^ " nodes") golden_nodes (S.n_nodes syn);
  check Alcotest.int (what ^ " edges") golden_edges (S.n_edges syn);
  List.iter
    (fun (q, bits) ->
      let v = est syn q in
      if Int64.bits_of_float v <> Int64.bits_of_float (float_of_string bits) then
        Alcotest.failf "%s %s: %h, pinned %s" what q v bits)
    golden_answers

(* the golden v3 file decodes to the synopsis the retired v2 reader gave
   for imdb.v2.syn (its shape and answers, pinned above), re-encoding it
   keeps those answers, and a v3 round trip keeps every dataset's
   estimates *)
let test_v3_v2_bit_identity () =
  let d3 = decode_exn "golden v3" (golden ()) in
  check_pinned "golden v3" d3;
  check_pinned "golden v3 re-encoded" (decode_exn "re-encoded" (Codec.to_string d3));
  List.iter
    (fun (name, _) ->
      let syn = force name in
      let d3 = decode_exn (name ^ " v3") (Codec.to_string syn) in
      List.iter
        (fun q -> check_bits (name ^ " vs original " ^ q) (est syn q) (est d3 q))
        (queries_of name))
    datasets

(* re-encoding the decoded synopsis gives the same bytes *)
let test_v3_reencode_idempotent () =
  List.iter
    (fun (name, _) ->
      let syn = force name in
      let encoded = Codec.to_string syn in
      let again = Codec.to_string (decode_exn name encoded) in
      check Alcotest.bool (name ^ ": v3 re-encoding is bit-exact") true
        (String.equal encoded again))
    datasets

(* ---- bit flips ----------------------------------------------------------- *)

let flip s i bit =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.unsafe_to_string b

(* the prologue (magic, version, section directory, directory CRC) is
   the part a lazy load trusts before returning Ok — every one of its
   bits must be load-bearing *)
let test_prologue_flips_detected () =
  let syn = force "imdb" in
  let good = Codec.to_string syn in
  let prologue = 448 in
  check Alcotest.bool "encoding longer than prologue" true (String.length good > prologue);
  for i = 0 to prologue - 1 do
    for bit = 0 to 7 do
      match Codec.of_string (flip good i bit) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "flip of bit %d at prologue byte %d went undetected" bit i
      | exception exn ->
        Alcotest.failf "flip at prologue byte %d raised %s" i (Printexc.to_string exn)
    done
  done;
  (* sampled payload flips: each must fail, every section covered *)
  let i = ref prologue in
  while !i < String.length good do
    (match Codec.of_string (flip good !i (!i mod 8)) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "flip at payload byte %d went undetected" !i
    | exception exn ->
      Alcotest.failf "flip at payload byte %d raised %s" !i (Printexc.to_string exn));
    i := !i + 211
  done

(* ---- lazy-load containment ----------------------------------------------- *)

let read_exn path =
  match Safe_io.read path with
  | Ok s -> s
  | Error e -> Alcotest.failf "read %s failed: %s" path (Safe_io.error_to_string e)

let write_exn path s =
  match Safe_io.write_atomic path s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write %s failed: %s" path (Safe_io.error_to_string e)

let in_temp_dir f =
  let dir = Filename.temp_file "xc_codec_v3" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* section [k]'s (offset, length) from the encoded directory *)
(* ---- reproducible bytes ---------------------------------------------------

   Term identifiers are process-local: their order is the order in
   which a process first interned each spelling. Two forked children
   intern the golden file's terms in different orders — one first sees
   them when it decodes the file, the other generates the document the
   file was built from first — and each re-encodes the decoded golden
   v3 synopsis. The bytes must be identical. Runs first in this suite,
   before the test process itself interns any of those terms, so the
   children do not inherit one id order from it. *)

let term_order syn =
  (* the synopsis's terms, in identifier order *)
  let ids = Hashtbl.create 256 in
  for i = 0 to S.n_nodes syn - 1 do
    match S.vsumm syn i with
    | Xc_vsumm.Value_summary.Vtext th ->
      let top, bucket, _ = Xc_vsumm.Term_hist.parts th in
      List.iter (fun (id, _) -> Hashtbl.replace ids id ()) top;
      List.iter (fun id -> Hashtbl.replace ids id ()) bucket
    | _ -> ()
  done;
  Hashtbl.fold (fun id () acc -> id :: acc) ids []
  |> List.sort Int.compare
  |> List.map (fun id -> Xc_xml.Dictionary.to_string (Xc_xml.Dictionary.unsafe_of_int id))
  |> String.concat " "

let encode_in_child ~dir name intern_first =
  let out = Filename.concat dir name in
  match Unix.fork () with
  | 0 ->
    let code =
      try
        intern_first ();
        let syn = decode_exn "golden v3" (golden ()) in
        write_exn out (Codec.to_string syn);
        write_exn (out ^ ".order") (term_order syn);
        0
      with _ -> 1
    in
    Unix._exit code
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> (read_exn out, read_exn (out ^ ".order"))
    | _ -> Alcotest.failf "child %s failed" name)

let test_bytes_independent_of_interning () =
  in_temp_dir @@ fun dir ->
  let noise () =
    for i = 1 to 5000 do
      ignore (Xc_xml.Dictionary.of_string (Printf.sprintf "noise%d" i))
    done
  in
  let a, order_a = encode_in_child ~dir "a.syn" noise in
  let b, order_b =
    encode_in_child ~dir "b.syn" (fun () ->
        ignore (Xc_data.Imdb.generate ~seed:81 ~n_movies:40 ());
        noise ())
  in
  check Alcotest.bool "the children interned the terms in different orders" true
    (order_a <> order_b);
  check Alcotest.bool "identical bytes" true (String.equal a b);
  check_same_synopsis "re-encoded" ~expected:(decode_exn "golden v3" (golden ()))
    (decode_exn "re-encoded" a)

let section_extent encoded k =
  let entry = 24 + (k * 32) in
  let get pos = Int64.to_int (String.get_int64_be encoded pos) in
  (get (entry + 8), get (entry + 16))

let section_names =
  [| "header"; "sids"; "counts"; "labels"; "vtypes"; "child_off"; "child_idx";
     "child_avg"; "parent_off"; "parent_idx"; "terms"; "vsumm_off"; "vsumm_blob" |]

let section_index name =
  let rec find i = if section_names.(i) = name then i else find (i + 1) in
  find 0

let test_lazy_deferred_failure () =
  in_temp_dir @@ fun dir ->
  let syn = force "imdb" in
  let path = Filename.concat dir "s.syn" in
  (match Codec.save path syn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" (Codec.error_to_string e));
  let good = read_exn path in
  let corrupt_section name =
    let off, len = section_extent good (section_index name) in
    check Alcotest.bool (name ^ " non-empty") true (len > 0);
    write_exn path (flip good (off + (len / 2)) 3)
  in
  (* damage in an eager-group section fails at admission *)
  corrupt_section "counts";
  (match Codec.load path with
  | Error (Codec.Checksum_mismatch { section = "counts"; _ }) -> ()
  | Error e -> Alcotest.failf "expected counts mismatch, got %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "lazy load admitted a damaged eager section");
  (* damage in a CSR section defers to the first numeric access *)
  corrupt_section "child_idx";
  (match Codec.load path with
  | Error e -> Alcotest.failf "lazy load refused deferred damage: %s" (Codec.error_to_string e)
  | Ok lazy_syn -> (
    (match est lazy_syn "//movie/title" with
    | _ -> Alcotest.fail "estimate on damaged CSR section succeeded"
    | exception Codec.Lazy_failure (Codec.Checksum_mismatch { section = "child_idx"; _ })
      -> ()
    | exception exn ->
      Alcotest.failf "expected Lazy_failure, got %s" (Printexc.to_string exn));
    (* the serve engine contains the same failure into a typed error *)
    (match
       Xc_serve.Engine.estimate_result lazy_syn (Xc_twig.Twig_parse.parse "//movie/title")
     with
    | Error (Xc_serve.Error.Unavailable _) -> ()
    | Error e -> Alcotest.failf "expected Unavailable, got %s" (Xc_serve.Error.to_string e)
    | Ok _ -> Alcotest.fail "engine served an estimate off a damaged section"
    | exception exn ->
      Alcotest.failf "engine leaked %s" (Printexc.to_string exn));
    (* the facade's single-query estimate takes the same fallback arm:
       one serve.fallback bump, then Failure, since the oracle trips too *)
    let fallbacks () =
      Xc_util.Metrics.counter_value Xc_util.Metrics.global "serve.fallback"
    in
    let before = fallbacks () in
    (match Xcluster.Query.estimate lazy_syn (Xc_twig.Twig_parse.parse "//movie/year") with
    | _ -> Alcotest.fail "facade estimated off a damaged section"
    | exception Failure _ -> ()
    | exception exn ->
      Alcotest.failf "expected Failure, got %s" (Printexc.to_string exn));
    check Alcotest.int "one serve.fallback" (before + 1) (fallbacks ())));
  (* damage in the value-summary blob defers to the first value read:
     structural queries still answer, a value predicate trips *)
  corrupt_section "vsumm_blob";
  (match Codec.load path with
  | Error e -> Alcotest.failf "lazy load refused vsumm damage: %s" (Codec.error_to_string e)
  | Ok lazy_syn -> (
    check_bits "structural estimate unaffected" (est syn "//movie/title")
      (est lazy_syn "//movie/title");
    match est lazy_syn "//movie[year > 1990]" with
    | _ -> Alcotest.fail "value predicate on damaged vsumm blob succeeded"
    | exception Codec.Lazy_failure _ -> ()
    | exception exn ->
      Alcotest.failf "expected Lazy_failure, got %s" (Printexc.to_string exn)));
  (* the full decode refuses all three up front *)
  List.iter
    (fun name ->
      corrupt_section name;
      match Codec.of_string (read_exn path) with
      | Error (Codec.Checksum_mismatch { section; _ }) when section = name -> ()
      | Error e ->
        Alcotest.failf "%s: expected its checksum mismatch, got %s" name
          (Codec.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: full decode admitted a damaged file" name)
    [ "counts"; "child_idx"; "vsumm_blob" ];
  (* and an undamaged file answers bit-identically through the map *)
  write_exn path good;
  match Codec.load path with
  | Error e -> Alcotest.failf "clean lazy load failed: %s" (Codec.error_to_string e)
  | Ok lazy_syn ->
    List.iter
      (fun q -> check_bits ("mapped " ^ q) (est syn q) (est lazy_syn q))
      (queries_of "imdb")

(* a refused mapped synopsis stays refused, in O(1): its deferred
   checks run at the first access only, so one refused estimate and ten
   verify the same sections, and every access raises the same
   exception *)
let test_refusal_remembered () =
  in_temp_dir @@ fun dir ->
  let good = Codec.to_string (force "imdb") in
  let path = Filename.concat dir "damaged.syn" in
  let off, len = section_extent good (section_index "child_avg") in
  write_exn path (flip good (off + (len / 2)) 5);
  let q = Xc_twig.Twig_parse.parse "//movie/title" in
  let lazy_verified () =
    Xc_util.Metrics.counter_value Xc_util.Metrics.global "codec.lazy_verify"
  in
  let load_mapped () =
    match Codec.load path with
    | Ok mapped -> mapped
    | Error e -> Alcotest.failf "mapped load refused at admission: %s" (Codec.error_to_string e)
  in
  let refuse times =
    let mapped = load_mapped () in
    let before = lazy_verified () in
    for i = 1 to times do
      match Xc_serve.Engine.estimate_result mapped q with
      | Error (Xc_serve.Error.Unavailable _) -> ()
      | Error e ->
        Alcotest.failf "call %d: expected Unavailable, got %s" i (Xc_serve.Error.to_string e)
      | Ok _ -> Alcotest.failf "call %d: served an estimate off a damaged section" i
    done;
    lazy_verified () - before
  in
  let once = refuse 1 in
  check Alcotest.bool "the first refusal verified sections" true (once > 0);
  check Alcotest.int "ten refusals verify what one does" once (refuse 10);
  let mapped = load_mapped () in
  let raised () =
    match S.child_off_ba mapped with
    | _ -> Alcotest.fail "numeric access admitted a damaged section"
    | exception (Codec.Lazy_failure _ as exn) -> exn
  in
  let first = raised () in
  check Alcotest.bool "every access raises the same exception" true (raised () == first)

(* ---- one definition of a valid artifact -----------------------------------

   Damage the checksums cannot see: bytes rewritten inside one section,
   then that section's CRC and the directory CRC recomputed. Whatever
   the decoder makes of such a file, every other reader must agree. *)

(* [s] with section [k]'s CRC and the directory CRC recomputed *)
let reseal s k =
  let off, len = section_extent s k in
  let b = Bytes.of_string s in
  let entry = 24 + (k * 32) in
  Bytes.set_int64_be b (entry + 24) (Int64.of_int (Xc_util.Crc32.sub s ~pos:off ~len));
  let dir_crc = Xc_util.Crc32.sub (Bytes.unsafe_to_string b) ~pos:12 ~len:(440 - 12) in
  Bytes.set_int64_be b 440 (Int64.of_int dir_crc);
  Bytes.unsafe_to_string b

(* Every check a mapped synopsis defers, run now: the first-touch
   verification (through [validate]) and every value summary's
   decode. A deferred failure raises Codec.Lazy_failure. *)
let full_walk syn =
  (match S.validate syn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mapped synopsis passed first touch but not validate: %s" e);
  for i = 0 to S.n_nodes syn - 1 do
    ignore (S.vsumm syn i)
  done

(* a mapped load followed by the full walk: [Error] at admission or
   at a deferred check *)
let mapped_outcome path =
  match Codec.load path with
  | Error e -> Error e
  | Ok syn -> (
    match full_walk syn with
    | () -> Ok syn
    | exception Codec.Lazy_failure e -> Error e)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let write_raw path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* two targets of one child_idx row swapped and the CRCs recomputed:
   the row is no longer ascending, and nothing but the structural
   check can tell *)
let test_unsorted_row_refused () =
  in_temp_dir @@ fun dir ->
  let syn = force "imdb" in
  let good = Codec.to_string syn in
  let k_off = section_index "child_off" and k_idx = section_index "child_idx" in
  let off_pos, _ = section_extent good k_off in
  let idx_pos, _ = section_extent good k_idx in
  let child_off i = Int64.to_int (String.get_int64_le good (off_pos + (8 * i))) in
  let rec wide_row i = if child_off (i + 1) - child_off i >= 2 then i else wide_row (i + 1) in
  let row = wide_row 0 in
  let b = Bytes.of_string good in
  let e = idx_pos + (8 * child_off row) in
  Bytes.set_int64_le b e (String.get_int64_le good (e + 8));
  Bytes.set_int64_le b (e + 8) (String.get_int64_le good e);
  let bad = reseal (Bytes.unsafe_to_string b) k_idx in
  let path = Filename.concat dir "unsorted.syn" in
  write_raw path bad;
  (* the decoder refuses it *)
  let refusal =
    match Codec.of_string bad with
    | Error (Codec.Corrupt { what; _ } as e) ->
      let needle = Printf.sprintf "child row %d not strictly ascending" row in
      check Alcotest.bool ("decoder names " ^ needle) true
        (contains what needle);
      e
    | Error e -> Alcotest.failf "expected Corrupt, got %s" (Codec.error_to_string e)
    | Ok _ -> Alcotest.fail "of_string admitted an unsorted CSR row"
  in
  (* verify refuses it with the same error *)
  (match Codec.verify path with
  | Error e ->
    check Alcotest.string "verify's error" (Codec.error_to_string refusal)
      (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "verify admitted an unsorted CSR row");
  (* the mapped load admits it (the CSR sections are deferred), and
     its first numeric access raises the decoder's error *)
  (match Codec.load path with
  | Error e -> Alcotest.failf "mapped load refused at admission: %s" (Codec.error_to_string e)
  | Ok mapped -> (
    (match S.child_idx_ba mapped with
    | _ -> Alcotest.fail "first numeric access admitted an unsorted CSR row"
    | exception Codec.Lazy_failure e ->
      check Alcotest.string "first touch's error" (Codec.error_to_string refusal)
        (Codec.error_to_string e));
    (* the hook stays armed, and the engine answers Unavailable *)
    match Xc_serve.Engine.estimate_result mapped (Xc_twig.Twig_parse.parse "//movie/title") with
    | Error (Xc_serve.Error.Unavailable _) -> ()
    | Error e -> Alcotest.failf "expected Unavailable, got %s" (Xc_serve.Error.to_string e)
    | Ok _ -> Alcotest.fail "engine served an estimate off an unsorted CSR row"));
  (* the facade's store refuses nothing at load either, and fails the
     same way at first touch *)
  match Xcluster.Store.load path with
  | Error e -> Alcotest.failf "Store.load refused at admission: %s" (Codec.error_to_string e)
  | Ok mapped -> (
    match Xcluster.Query.validate mapped with
    | _ -> Alcotest.fail "Query.validate admitted an unsorted CSR row"
    | exception Codec.Lazy_failure _ -> ())

(* a negative CSR offset is an inconsistency the structural check
   names, not an exception it throws *)
let test_negative_offset_typed () =
  let good = Codec.to_string (force "imdb") in
  let k = section_index "child_off" in
  let off, _ = section_extent good k in
  let b = Bytes.of_string good in
  Bytes.set_int64_le b (off + 8) (-2L);
  match Codec.of_string (reseal (Bytes.unsafe_to_string b) k) with
  | Error (Codec.Corrupt { what; _ }) ->
    check Alcotest.bool ("a named inconsistency: " ^ what) true
      (contains what "decoded synopsis is inconsistent")
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "of_string admitted a negative CSR offset"

(* Sec. 3 fixes a node's value-summary form by its value type: the
   golden file's numeric [year] node retyped STRING (its vtypes byte
   rewritten, the CRCs recomputed) still carries a histogram. Every
   reader refuses it with one error, the mapped one at the node's first
   value-summary access, and a string predicate on it is refused, not
   run against a histogram. *)
let test_vtype_mismatch_refused () =
  in_temp_dir @@ fun dir ->
  let good = golden () in
  let syn = decode_exn "golden v3" good in
  let year =
    let rec find i =
      if i = S.n_nodes syn then Alcotest.fail "no numeric year node"
      else if
        Xc_xml.Label.to_string (S.label syn i) = "year"
        && S.vtype syn i = Xc_xml.Value.Tnumeric
        && S.vsumm syn i <> Xc_vsumm.Value_summary.Vnone
      then i
      else find (i + 1)
    in
    find 0
  in
  let k = section_index "vtypes" in
  let off, _ = section_extent good k in
  let b = Bytes.of_string good in
  Bytes.set b (off + year) '\002';
  let bad = reseal (Bytes.unsafe_to_string b) k in
  let path = Filename.concat dir "retyped.syn" in
  write_raw path bad;
  let refusal =
    match Codec.of_string bad with
    | Error (Codec.Corrupt { what; _ } as e) ->
      check Alcotest.bool ("decoder names the mismatch: " ^ what) true
        (contains what "does not match the node's string type");
      Codec.error_to_string e
    | Error e -> Alcotest.failf "expected Corrupt, got %s" (Codec.error_to_string e)
    | Ok _ -> Alcotest.fail "of_string admitted a histogram on a string node"
  in
  (match Codec.verify path with
  | Error e -> check Alcotest.string "verify's error" refusal (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "verify admitted a histogram on a string node");
  match Codec.load path with
  | Error e -> Alcotest.failf "mapped load refused at admission: %s" (Codec.error_to_string e)
  | Ok mapped -> (
    (match S.vsumm mapped year with
    | _ -> Alcotest.fail "first vsumm access admitted a histogram on a string node"
    | exception Codec.Lazy_failure e ->
      check Alcotest.string "first access's error" refusal (Codec.error_to_string e));
    match
      Xc_serve.Engine.estimate_result mapped (Xc_twig.Twig_parse.parse "//year[contains(a)]")
    with
    | Error (Xc_serve.Error.Unavailable msg) ->
      check Alcotest.bool ("refused with the codec's error: " ^ msg) true (contains msg refusal)
    | Error e -> Alcotest.failf "expected Unavailable, got %s" (Xc_serve.Error.to_string e)
    | Ok _ -> Alcotest.fail "engine served a string predicate off a histogram")

module G = QCheck.Gen

(* one rewritten 8-byte word: section [k], word [w], new bytes [v] *)
type rewrite = { k : int; w : int; v : string }

let print_rewrite { k; w; v } =
  Printf.sprintf "%s word %d := %S" section_names.(k) w v

let definition_subject =
  lazy
    (let doc = Xc_data.Imdb.generate ~seed:81 ~n_movies:40 () in
     let workload =
       Xc_twig.Workload.generate
         ~spec:{ Xc_twig.Workload.default_spec with n_queries = 24; seed = 5 }
         doc
     in
     (Codec.to_string (force "imdb"), List.map (fun e -> e.Xc_twig.Workload.query) workload))

(* forced on first draw, not at start-up: the suite's first test must
   run before this process interns the synopsis's terms *)
let gen_rewrite () =
  let open G in
  let encoded = fst (Lazy.force definition_subject) in
  let n = S.n_nodes (force "imdb") in
  let nonempty = List.filter (fun k -> snd (section_extent encoded k) >= 8) (List.init 13 Fun.id) in
  oneofl nonempty >>= fun k ->
  let off, len = section_extent encoded k in
  int_range 0 ((len / 8) - 1) >>= fun w ->
  let word i = String.sub encoded (off + (8 * i)) 8 in
  let le x =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 x;
    Bytes.to_string b
  in
  let be x =
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 x;
    Bytes.to_string b
  in
  let small = map Int64.of_int (int_range (-2) (n + 2)) in
  map
    (fun v -> { k; w; v })
    (oneof
       [ map le small;  (* an index, count or offset of the numeric sections *)
         map be small;  (* a length or tag of the byte-packed ones *)
         map
           (fun bit -> le (Int64.logxor (String.get_int64_le (word w) 0) (Int64.shift_left 1L bit)))
           (int_range 0 63);
         map word (int_range 0 ((len / 8) - 1));  (* another word of the section *)
         map le ui64 ])

let rewrite encoded { k; w; v } =
  let off, _ = section_extent encoded k in
  let b = Bytes.of_string encoded in
  Bytes.blit_string v 0 b (off + (8 * w)) 8;
  reseal (Bytes.unsafe_to_string b) k

let answers syn queries =
  List.map
    (fun q ->
      match Xc_core.Estimate.selectivity syn q with
      | v -> Ok (Int64.bits_of_float v)
      | exception exn -> Error (Printexc.to_string exn))
    queries

let prop_one_definition =
  QCheck.Test.make ~name:"CRC-consistent rewrites: decode, verify and map agree" ~count:300
    (QCheck.make ~print:print_rewrite (G.delay gen_rewrite))
    (fun r ->
      let encoded, queries = Lazy.force definition_subject in
      let bad = rewrite encoded r in
      let path = Filename.temp_file "xc_definition" ".syn" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      write_raw path bad;
      let show = Codec.error_to_string in
      let decoded = Codec.of_string bad in
      (match (decoded, Codec.verify path) with
      | Ok _, Ok _ -> ()
      | Error a, Error b when a = b -> ()
      | Error a, Error b -> QCheck.Test.fail_reportf "decoder: %s; verify: %s" (show a) (show b)
      | Ok _, Error b -> QCheck.Test.fail_reportf "verify refused what the decoder accepts: %s" (show b)
      | Error a, Ok _ -> QCheck.Test.fail_reportf "verify accepted what the decoder refuses: %s" (show a));
      match (decoded, mapped_outcome path) with
      | Error a, Error b ->
        a = b || QCheck.Test.fail_reportf "decoder: %s; mapped: %s" (show a) (show b)
      | Ok d, Ok m -> answers d queries = answers m queries
      | Ok _, Error b -> QCheck.Test.fail_reportf "the map refused what the decoder accepts: %s" (show b)
      | Error a, Ok _ -> QCheck.Test.fail_reportf "the map accepted what the decoder refuses: %s" (show a))

(* ---- fault storms at the mmap sites -------------------------------------- *)

let with_faults cfg f =
  let previous = Fault.current () in
  Fault.configure (Some cfg);
  Fun.protect ~finally:(fun () -> Fault.configure previous) f

let faults ?(sites = []) ?(prob = 1.0) kinds = { Fault.seed = 7; prob; kinds; sites }

let test_fault_storm_mmap_sites () =
  in_temp_dir @@ fun dir ->
  let syn = force "imdb" in
  let path = Filename.concat dir "s.syn" in
  (match Codec.save path syn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" (Codec.error_to_string e));
  (* a certain failure at the map site is a typed Io error *)
  with_faults (faults [ Fault.Eio ] ~sites:[ "codec.map" ]) (fun () ->
      match Codec.load path with
      | Error (Codec.Io _) -> ()
      | Error e -> Alcotest.failf "expected Io, got %s" (Codec.error_to_string e)
      | Ok _ -> Alcotest.fail "load succeeded under a certain map fault"
      | exception exn -> Alcotest.failf "load raised %s" (Printexc.to_string exn));
  (* storm across every mmap-path site: loads are total, and a loaded
     synopsis either answers correctly or raises Lazy_failure at the
     deferred verification — nothing else *)
  let expected = est syn "//movie/title" in
  with_faults
    (faults ~prob:0.5
       [ Fault.Truncate; Fault.Bit_flip; Fault.Eio ]
       ~sites:[ "codec.map"; "codec.load"; "codec.section_verify" ])
    (fun () ->
      for i = 1 to 60 do
        match Codec.load path with
        | Error _ -> ()
        | exception exn ->
          Alcotest.failf "iteration %d: load raised %s" i (Printexc.to_string exn)
        | Ok loaded -> (
          match est loaded "//movie/title" with
          | v -> check_bits "storm estimate" expected v
          | exception Codec.Lazy_failure _ -> ()
          | exception exn ->
            Alcotest.failf "iteration %d: estimate raised %s" i (Printexc.to_string exn))
      done);
  (* faults cleared: the file is intact and maps cleanly *)
  match Codec.load path with
  | Ok loaded -> check_bits "post-storm estimate" expected (est loaded "//movie/title")
  | Error e -> Alcotest.failf "post-storm load failed: %s" (Codec.error_to_string e)

let test_golden_v3_pinned () =
  let decoded = decode_exn "golden v3" (golden ()) in
  check_pinned "decoded" decoded;
  (* every value-summary kind is on disk, so every reader arm runs *)
  let kinds = Hashtbl.create 4 in
  for i = 0 to S.n_nodes decoded - 1 do
    Hashtbl.replace kinds
      (match S.vsumm decoded i with
      | Xc_vsumm.Value_summary.Vnone -> "Vnone"
      | Vnum _ -> "Vnum"
      | Vstr _ -> "Vstr"
      | Vtext _ -> "Vtext")
      ()
  done;
  List.iter
    (fun k -> check Alcotest.bool ("golden file carries " ^ k) true (Hashtbl.mem kinds k))
    [ "Vnone"; "Vnum"; "Vstr"; "Vtext" ];
  (match Codec.load golden_path with
  | Ok mapped -> check_pinned "mapped" mapped
  | Error e -> Alcotest.failf "golden load failed: %s" (Codec.error_to_string e));
  match Codec.verify golden_path with
  | Ok info ->
    check Alcotest.int "verified nodes" golden_nodes info.Codec.i_nodes;
    check Alcotest.int "verified bytes" (String.length (golden ())) info.Codec.i_bytes
  | Error e -> Alcotest.failf "golden verify failed: %s" (Codec.error_to_string e)

(* ---- section report ------------------------------------------------------- *)

let test_sections_report () =
  let syn = force "dblp" in
  let v3 = Codec.to_string syn in
  (match Codec.sections_string v3 with
  | Error e -> Alcotest.failf "sections failed: %s" (Codec.error_to_string e)
  | Ok secs ->
    check Alcotest.int "13 sections" 13 (List.length secs);
    List.iteri
      (fun i s ->
        check Alcotest.string "section name" section_names.(i) s.Codec.sec_name;
        check Alcotest.bool ("crc ok: " ^ s.Codec.sec_name) true s.Codec.sec_crc_ok)
      secs);
  (* damage is localized, and the report does not stop at the first hit *)
  let off, len = section_extent v3 (section_index "child_avg") in
  match Codec.sections_string (flip v3 (off + (len / 2)) 5) with
  | Error e -> Alcotest.failf "sections on damage failed: %s" (Codec.error_to_string e)
  | Ok secs ->
    List.iter
      (fun s ->
        check Alcotest.bool ("localized: " ^ s.Codec.sec_name)
          (s.Codec.sec_name <> "child_avg")
          s.Codec.sec_crc_ok)
      secs

(* ---- read errors ---------------------------------------------------------- *)

(* A refused read names its path exactly once, from every reader: a
   missing file (whose Sys_error already names it) and a directory
   (whose read error does not). *)
let test_read_error_names_path_once () =
  let occurrences path msg =
    let n = String.length path in
    let count = ref 0 in
    for i = 0 to String.length msg - n do
      if String.sub msg i n = path then incr count
    done;
    !count
  in
  in_temp_dir (fun dir ->
      let missing = Filename.concat dir "missing.syn" in
      (match Codec.verify missing with
      | Ok _ -> Alcotest.fail "verify of a missing file succeeded"
      | Error e ->
        check Alcotest.string "verify, missing file"
          (missing ^ ": No such file or directory") (Codec.error_to_string e));
      (match Codec.load missing with
      | Ok _ -> Alcotest.fail "load of a missing file succeeded"
      | Error e ->
        check Alcotest.string "load, missing file"
          (missing ^ ": No such file or directory") (Codec.error_to_string e));
      match Codec.verify dir with
      | Ok _ -> Alcotest.fail "verify of a directory succeeded"
      | Error e ->
        let msg = Codec.error_to_string e in
        check Alcotest.bool ("directory named first: " ^ msg) true
          (String.starts_with ~prefix:(dir ^ ": ") msg);
        check Alcotest.int ("directory named once: " ^ msg) 1 (occurrences dir msg))

let () =
  Alcotest.run ~and_exit:false "codec_v3"
    [ ( "reproducible",
        [ Alcotest.test_case "v3 bytes independent of interning order" `Quick
            test_bytes_independent_of_interning ] );
      ( "bit identity",
        [ Alcotest.test_case "v3 decode = v2 decode" `Quick test_v3_v2_bit_identity;
          Alcotest.test_case "re-encoding idempotent" `Quick test_v3_reencode_idempotent ] );
      ( "bit flips",
        [ Alcotest.test_case "prologue exhaustive + payload sampled" `Quick
            test_prologue_flips_detected ] );
      ( "lazy verification",
        [ Alcotest.test_case "deferred failure containment" `Quick
            test_lazy_deferred_failure;
          Alcotest.test_case "refusal remembered" `Quick test_refusal_remembered ] );
      ( "one definition",
        [ Alcotest.test_case "unsorted CSR row refused by every reader" `Quick
            test_unsorted_row_refused;
          Alcotest.test_case "negative CSR offset is a named inconsistency" `Quick
            test_negative_offset_typed;
          Alcotest.test_case "value summary of the wrong kind refused by every reader" `Quick
            test_vtype_mismatch_refused;
          QCheck_alcotest.to_alcotest prop_one_definition ] );
      ( "fault storms",
        [ Alcotest.test_case "mmap sites total" `Quick test_fault_storm_mmap_sites ] );
      ( "versioning",
        [ Alcotest.test_case "golden v3 pinned by its answers" `Quick test_golden_v3_pinned ] );
      ( "sections",
        [ Alcotest.test_case "report localizes damage" `Quick test_sections_report ] );
      ( "read errors",
        [ Alcotest.test_case "path named once" `Quick test_read_error_names_path_once ] ) ]
