(* Codec v3 (mmap-friendly, lazily verified) tests.

   Contracts under test, beyond the generic totality suite in
   test_fault.ml:

   - the checked-in golden files test/golden/imdb.v{1,2,3}.syn (one
     IMDB synopsis, seed 81, 40 movies, written by the v1/v2/v3
     writers before the v1/v2 writers were retired) decode to the same
     synopsis: same node and edge counts, estimates bit for bit;
   - v3 re-encoding is idempotent;
   - every single-bit flip in the prologue + section directory is
     detected, and sampled payload flips land in the right section's
     CRC;
   - a lazy (mapped) load of a damaged file either fails at admission
     (eager-group sections) or raises Codec.Lazy_failure at the first
     access that needed the damaged section — and the serve engine
     contains that into a typed error (a [Failure] from the facade's
     single-query estimate), never a crash;
   - fault storms at the mmap-path sites (codec.map,
     codec.section_verify) never produce an untyped failure;
   - every value-summary kind is on disk in the golden files, so each
     reader arm is exercised;
   - the per-section report localizes damage and reflects lazy mode. *)

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
         Build.run (Build.params ~bstr_kb:3 ~bval_kb:15 ()) reference) );
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

(* ---- golden files: v1 / v2 / v3 decode to one synopsis ------------------- *)

let golden v =
  let path = Printf.sprintf "golden/imdb.v%d.syn" v in
  match Safe_io.read path with
  | Ok s -> s
  | Error e -> Alcotest.failf "read %s failed: %s" path (Safe_io.error_to_string e)

(* [decoded] is the synopsis the v3 golden file holds: same shape,
   same estimates bit for bit *)
let check_same_synopsis what ~expected decoded =
  check Alcotest.int (what ^ " nodes") (S.n_nodes expected) (S.n_nodes decoded);
  check Alcotest.int (what ^ " edges") (S.n_edges expected) (S.n_edges decoded);
  List.iter
    (fun q -> check_bits (what ^ " " ^ q) (est expected q) (est decoded q))
    (queries_of "imdb")

let test_v3_v2_bit_identity () =
  let d3 = decode_exn "golden v3" (golden 3) in
  check_same_synopsis "golden v2" ~expected:d3 (decode_exn "golden v2" (golden 2));
  (* and a v3 round trip keeps every dataset's estimates *)
  List.iter
    (fun (name, _) ->
      let syn = force name in
      let d3 = decode_exn (name ^ " v3") (Codec.to_string syn) in
      List.iter
        (fun q -> check_bits (name ^ " vs original " ^ q) (est syn q) (est d3 q))
        (queries_of name))
    datasets

let test_v3_reencode_idempotent () =
  List.iter
    (fun (name, _) ->
      let syn = force name in
      let encoded = Codec.to_string syn in
      let again = Codec.to_string (decode_exn name encoded) in
      check Alcotest.bool (name ^ ": v3 re-encoding is bit-exact") true
        (String.equal encoded again))
    datasets;
  (* decoding the v2 golden file and re-encoding as v3 reaches the
     same estimates as the v3 golden file (term identifiers are
     process-local, so the bytes may differ from that file's), and the
     re-encoding is itself a fixed point *)
  let once = Codec.to_string (decode_exn "golden v2" (golden 2)) in
  check Alcotest.bool "via v2: v3 re-encoding is bit-exact" true
    (String.equal once (Codec.to_string (decode_exn "via v2" once)));
  check_same_synopsis "via v2" ~expected:(decode_exn "golden v3" (golden 3))
    (decode_exn "via v2" once)

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
        let syn = decode_exn "golden v3" (golden 3) in
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
  check_same_synopsis "re-encoded" ~expected:(decode_exn "golden v3" (golden 3))
    (decode_exn "re-encoded" a)

let section_extent encoded k =
  let entry = 24 + (k * 32) in
  let get pos = Int64.to_int (String.get_int64_be encoded pos) in
  (get (entry + 8), get (entry + 16))

let section_index name =
  let names =
    [| "header"; "sids"; "counts"; "labels"; "vtypes"; "child_off"; "child_idx";
       "child_avg"; "parent_off"; "parent_idx"; "terms"; "vsumm_off"; "vsumm_blob" |]
  in
  let rec find i = if names.(i) = name then i else find (i + 1) in
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
  (* eager mode refuses all three up front *)
  (match Codec.load ~eager:true path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "eager load admitted a damaged file");
  (* and an undamaged file answers bit-identically through the map *)
  write_exn path good;
  match Codec.load path with
  | Error e -> Alcotest.failf "clean lazy load failed: %s" (Codec.error_to_string e)
  | Ok lazy_syn ->
    List.iter
      (fun q -> check_bits ("mapped " ^ q) (est syn q) (est lazy_syn q))
      (queries_of "imdb")

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

(* ---- back-compat ---------------------------------------------------------- *)

let test_old_versions_decode () =
  let d3 = decode_exn "golden v3" (golden 3) in
  (* every value-summary kind is on disk, so every reader arm runs *)
  let kinds = Hashtbl.create 4 in
  for i = 0 to S.n_nodes d3 - 1 do
    Hashtbl.replace kinds
      (match S.vsumm d3 i with
      | Xc_vsumm.Value_summary.Vnone -> "Vnone"
      | Vnum _ -> "Vnum"
      | Vstr _ -> "Vstr"
      | Vtext _ -> "Vtext")
      ()
  done;
  List.iter
    (fun k -> check Alcotest.bool ("golden file carries " ^ k) true (Hashtbl.mem kinds k))
    [ "Vnone"; "Vnum"; "Vstr"; "Vtext" ];
  List.iter
    (fun (what, version, encoded) ->
      check_same_synopsis what ~expected:d3 (decode_exn what encoded);
      match Codec.verify_string encoded with
      | Ok info ->
        check Alcotest.int (what ^ " version") version info.Codec.i_version;
        check Alcotest.bool (what ^ " checksummed") (version > 1) info.Codec.i_checksummed
      | Error e -> Alcotest.failf "%s verify failed: %s" what (Codec.error_to_string e))
    [ ("golden v1", 1, golden 1); ("golden v2", 2, golden 2); ("golden v3", 3, golden 3) ]

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
        check Alcotest.string "section name"
          [| "header"; "sids"; "counts"; "labels"; "vtypes"; "child_off";
             "child_idx"; "child_avg"; "parent_off"; "parent_idx"; "terms";
             "vsumm_off"; "vsumm_blob" |].(i)
          s.Codec.sec_name;
        check Alcotest.(option bool) ("crc ok: " ^ s.Codec.sec_name) (Some true)
          s.Codec.sec_crc_ok)
      secs);
  (* lazy mode reports only the admission-time check *)
  (match Codec.sections_string ~eager:false v3 with
  | Error e -> Alcotest.failf "lazy sections failed: %s" (Codec.error_to_string e)
  | Ok secs ->
    List.iteri
      (fun i s ->
        check Alcotest.(option bool) ("lazy crc: " ^ s.Codec.sec_name)
          (if i = 0 then Some true else None)
          s.Codec.sec_crc_ok)
      secs);
  (* damage is localized, and the report does not stop at the first hit *)
  let off, len = section_extent v3 (section_index "child_avg") in
  match Codec.sections_string (flip v3 (off + (len / 2)) 5) with
  | Error e -> Alcotest.failf "sections on damage failed: %s" (Codec.error_to_string e)
  | Ok secs ->
    List.iter
      (fun s ->
        check Alcotest.(option bool) ("localized: " ^ s.Codec.sec_name)
          (Some (s.Codec.sec_name <> "child_avg"))
          s.Codec.sec_crc_ok)
      secs

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
            test_lazy_deferred_failure ] );
      ( "fault storms",
        [ Alcotest.test_case "mmap sites total" `Quick test_fault_storm_mmap_sites ] );
      ( "versioning",
        [ Alcotest.test_case "v1/v2/v3 decode identically" `Quick test_old_versions_decode ] );
      ( "sections",
        [ Alcotest.test_case "report localizes damage" `Quick test_sections_report ] ) ]
