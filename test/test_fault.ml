(* Fault-tolerance tests for the persistence layer.

   The contract under test: decoding is TOTAL — any mutation of an
   encoded synopsis (truncation, bit rot, spliced bytes, hostile
   length fields) yields a typed [Error], never an exception and never
   an unbounded allocation — and [Safe_io.write_atomic] never damages
   the previous file, whatever fault interrupts the save. *)

module Codec = Xc_core.Codec
module S = Xc_core.Synopsis.Sealed
module Synopsis = Xc_core.Synopsis
module Reference = Xc_core.Reference
module Build = Xc_core.Build
module Rng = Xc_util.Rng
module Fault = Xc_util.Fault
module Safe_io = Xc_util.Safe_io

let check = Alcotest.check

(* small but representative: every value-summary kind appears *)
let datasets =
  [ ( "imdb",
      lazy
        (let doc = Xc_data.Imdb.generate ~seed:71 ~n_movies:40 () in
         let reference = Reference.build ~min_extent:4 doc in
         (* compress so TEXT buckets and pruned summaries are on disk too *)
         Build.run (Build.budget ~bstr_kb:3 ~bval_kb:15 ()) reference) );
    ( "xmark",
      lazy
        (let doc = Xc_data.Xmark.generate ~seed:72 ~scale:0.01 () in
         Synopsis.freeze (Reference.build ~min_extent:4 doc)) );
    ( "dblp",
      lazy
        (let doc = Xc_data.Dblp.generate ~seed:73 ~n_authors:40 () in
         Synopsis.freeze (Reference.build ~min_extent:4 doc)) ) ]

let force name = Lazy.force (List.assoc name datasets)

(* ---- decode-totality fuzz ----------------------------------------------- *)

let mutate rng good =
  let n = String.length good in
  match Rng.int rng 4 with
  | 0 ->
    (* truncate *)
    String.sub good 0 (Rng.int rng (n + 1))
  | 1 ->
    (* flip one bit *)
    let b = Bytes.of_string good in
    let i = Rng.int rng n in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
    Bytes.unsafe_to_string b
  | 2 ->
    (* splice a random slice of the encoding over another position *)
    let b = Bytes.of_string good in
    let len = 1 + Rng.int rng (min 64 n) in
    let src = Rng.int rng (n - len + 1) in
    let dst = Rng.int rng (n - len + 1) in
    Bytes.blit_string good src b dst len;
    Bytes.unsafe_to_string b
  | _ ->
    (* overwrite a few bytes with noise (hostile length fields land here) *)
    let b = Bytes.of_string good in
    let len = 1 + Rng.int rng (min 16 n) in
    let dst = Rng.int rng (n - len + 1) in
    for i = dst to dst + len - 1 do
      Bytes.set b i (Char.chr (Rng.int rng 256))
    done;
    Bytes.unsafe_to_string b

let fuzz_iterations = 2_100

let fuzz good () =
  let rng = Rng.create 20_260_806 in
  let ok = ref 0 and errors = ref 0 in
  for i = 1 to fuzz_iterations do
    let corrupt = mutate rng good in
    match Codec.of_string corrupt with
    | Ok decoded ->
      incr ok;
      (* a lucky mutation may decode (e.g. a truncation that cut
         nothing, or a splice of identical bytes): it must still be a
         well-formed synopsis *)
      check Alcotest.bool "decoded synopsis validates" true (S.validate decoded = Ok ())
    | Error _ -> incr errors
    | exception exn ->
      Alcotest.failf "iteration %d: decode raised %s" i (Printexc.to_string exn)
  done;
  check Alcotest.bool "ran the full budget" true (!ok + !errors = fuzz_iterations);
  check Alcotest.bool "mutations were mostly detected" true (!errors > fuzz_iterations / 2)

let test_fuzz name () = fuzz (Codec.to_string (force name)) ()

(* every single-bit flip must be caught: the v3 format has no byte
   outside the magic/version fields, the CRC-covered section
   directory and the CRC-covered section payloads *)
let test_every_bit_flip_detected () =
  let doc =
    Xc_xml.Parser.parse_string
      "<db><paper><title>one</title><year>1999</year></paper><paper><title>two</title><year>2001</year></paper></db>"
  in
  let syn = Synopsis.freeze (Reference.build ~min_extent:1 doc) in
  let good = Codec.to_string syn in
  for i = 0 to String.length good - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Codec.of_string (Bytes.unsafe_to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "flip of bit %d at byte %d went undetected" bit i
      | exception exn ->
        Alcotest.failf "flip at byte %d raised %s" i (Printexc.to_string exn)
    done
  done

let test_roundtrip_bit_exact () =
  List.iter
    (fun (name, syn) ->
      let syn = Lazy.force syn in
      let encoded = Codec.to_string syn in
      match Codec.of_string encoded with
      | Error e -> Alcotest.failf "%s: clean decode failed: %s" name (Codec.error_to_string e)
      | Ok decoded ->
        check Alcotest.bool
          (name ^ ": re-encoding is bit-exact")
          true
          (String.equal encoded (Codec.to_string decoded)))
    datasets

(* ---- hostile length fields ----------------------------------------------
   A forged file can carry correct CRCs over hostile content, so the
   decoder's pre-allocation bounds checks are the only line of
   defense. Each crafted input is a v3 container whose directory and
   section CRCs are valid, and must fail fast with a typed error — not
   attempt a max_int-sized allocation. *)

let put_int buf n = Buffer.add_int64_be buf (Int64.of_int n)

let ints xs =
  let b = Buffer.create (8 * List.length xs) in
  List.iter (put_int b) xs;
  Buffer.contents b

let ints_le xs =
  let b = Buffer.create (8 * List.length xs) in
  List.iter (fun x -> Buffer.add_int64_le b (Int64.of_int x)) xs;
  Buffer.contents b

let n_sections = 13

(* the section payloads of a v3 encoding, in directory order *)
let v3_sections s =
  Array.init n_sections (fun k ->
      let entry = 24 + (k * 32) in
      let get pos = Int64.to_int (String.get_int64_be s pos) in
      String.sub s (get (entry + 8)) (get (entry + 16)))

(* a v3 container around [payloads] (each a multiple of 8 bytes), with
   the packed offsets, every section CRC and the directory CRC a writer
   would give it *)
let forged_v3 payloads =
  let b = Buffer.create 4096 in
  Buffer.add_string b "XCLU";
  put_int b 3;
  Buffer.add_string b "\000\000\000\000";
  put_int b n_sections;
  let pos = ref (24 + (n_sections * 32) + 8) in
  Array.iteri
    (fun i p ->
      put_int b (i + 1);
      put_int b !pos;
      put_int b (String.length p);
      put_int b (Xc_util.Crc32.digest p);
      pos := !pos + String.length p)
    payloads;
  put_int b (Xc_util.Crc32.sub (Buffer.contents b) ~pos:12 ~len:(Buffer.length b - 12));
  Array.iter (Buffer.add_string b) payloads;
  Buffer.contents b

(* [good] with section [k]'s payload replaced, re-sealed *)
let with_section good k payload =
  let secs = v3_sections good in
  secs.(k) <- payload;
  forged_v3 secs

(* [field] names the length the guard refused *)
let expect_bad_length what ~field input =
  match Codec.of_string input with
  | Error (Codec.Bad_length b) ->
    check Alcotest.string (what ^ ": refused field") field b.what
  | Error e ->
    (* a different typed error is acceptable; an allocation attempt or
       crash is not — but Bad_length is what the guards should say *)
    Alcotest.failf "%s: expected Bad_length, got %s" what (Codec.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: hostile input decoded" what
  | exception exn -> Alcotest.failf "%s: raised %s" what (Printexc.to_string exn)

let test_hostile_lengths () =
  let doc =
    Xc_xml.Parser.parse_string
      "<db><paper><title>one</title><year>1999</year></paper><paper><title>two</title><year>2001</year></paper></db>"
  in
  let good = Codec.to_string (Synopsis.freeze (Reference.build ~min_extent:1 doc)) in
  check Alcotest.bool "the forge reproduces a written file" true
    (String.equal good (forged_v3 (v3_sections good)));
  let header = (v3_sections good).(0) in
  let n = Int64.to_int (String.get_int64_le header 16) in
  let with_node_count count =
    with_section good 0 (String.sub header 0 16 ^ ints_le [ count ] ^ String.sub header 24 8)
  in
  (* term table claiming max_int entries *)
  expect_bad_length "huge term count" ~field:"term-table size"
    (with_section good 10 (ints [ max_int ]));
  (* node count far beyond what the sections could hold *)
  expect_bad_length "huge node count" ~field:"sids section length"
    (with_node_count max_int);
  (* zero and negative node counts *)
  expect_bad_length "zero node count" ~field:"node count" (with_node_count 0);
  expect_bad_length "negative node count" ~field:"node count" (with_node_count (-7));
  (* node 0's histogram claims max_int buckets; every other node has
     no summary *)
  let blob = ints [ 1; max_int ] ^ String.concat "" (List.init (n - 1) (fun _ -> ints [ 0 ])) in
  let voff = ints_le (0 :: List.init n (fun i -> 16 + (8 * i))) in
  expect_bad_length "huge histogram" ~field:"histogram bucket count"
    (with_section (with_section good 11 voff) 12 blob);
  (* the first label claims more bytes than its whole section *)
  let labels = (v3_sections good).(3) in
  expect_bad_length "label past its section" ~field:"string length"
    (with_section good 3
       (ints [ String.length labels ] ^ String.sub labels 8 (String.length labels - 8)))

(* ---- versions ---------------------------------------------------------- *)

let test_unsupported_version () =
  let b = Buffer.create 16 in
  Buffer.add_string b "XCLU";
  put_int b 99;
  match Codec.of_string (Buffer.contents b) with
  | Error (Codec.Unsupported_version 99) -> ()
  | Error e -> Alcotest.failf "expected Unsupported_version, got %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "version-99 input decoded"

(* ---- XC_FAULTS parsing ---------------------------------------------------- *)

let test_fault_config_parsing () =
  (match Fault.config_of_string "seed=9,p=0.25,kinds=truncate+eio,sites=safe_io.rename" with
  | Ok cfg ->
    check Alcotest.int "seed" 9 cfg.Fault.seed;
    check (Alcotest.float 0.0) "prob" 0.25 cfg.Fault.prob;
    check Alcotest.bool "kinds" true (cfg.Fault.kinds = [ Fault.Truncate; Fault.Eio ]);
    check Alcotest.bool "sites" true (cfg.Fault.sites = [ "safe_io.rename" ])
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (match Fault.config_of_string "kinds=all" with
  | Ok cfg -> check Alcotest.int "all kinds" 5 (List.length cfg.Fault.kinds)
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  List.iter
    (fun bad ->
      match Fault.config_of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad
      | Error _ -> ())
    [ "seed=x"; "p=2.0"; "kinds=frobnicate"; "nonsense"; "what=ever" ]

(* ---- Safe_io crash simulation --------------------------------------------
   The atomic-replace property: however a save dies — before, during,
   or after the temp write, at fsync, or at the rename — the previous
   file's bytes are what a reader sees. *)

let with_faults cfg f =
  let previous = Fault.current () in
  Fault.configure (Some cfg);
  Fun.protect ~finally:(fun () -> Fault.configure previous) f

let faults ?(sites = []) ?(prob = 1.0) kinds = { Fault.seed = 5; prob; kinds; sites }

(* The in-place read-path form draws what the string form draws, in the
   same order: both replay the old string-only injection point's draw
   sequence (modelled below), and the in-place form touches nothing
   outside its byte range. *)
let test_mutate_in_place_agrees () =
  let cfg = { Fault.seed = 31; prob = 0.5; kinds = [ Fault.Truncate; Fault.Bit_flip ]; sites = [] } in
  let payloads = List.init 300 (fun i -> String.init (i mod 40) (fun j -> Char.chr ((i * 7 + j) land 0xFF))) in
  let model =
    let rng = Rng.create cfg.Fault.seed in
    List.map
      (fun s ->
        let n = String.length s in
        if Rng.chance rng cfg.Fault.prob then String.sub s 0 (Rng.int rng (n + 1))
        else if Rng.chance rng cfg.Fault.prob && n > 0 then begin
          let b = Bytes.of_string s in
          let i = Rng.int rng n in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
          Bytes.to_string b
        end
        else s)
      payloads
  in
  let via_string = with_faults cfg (fun () -> List.map (Fault.mutate ~site:"t") payloads) in
  let via_bytes =
    with_faults cfg (fun () ->
        List.map
          (fun s ->
            let n = String.length s in
            let b = Bytes.make (n + 10) '#' in
            Bytes.blit_string s 0 b 5 n;
            let visible = Fault.mutate_sub ~site:"t" b ~pos:5 ~len:n in
            check Alcotest.bool "visible length within the range" true (visible >= 0 && visible <= n);
            check Alcotest.string "guard bytes untouched" "##########"
              (Bytes.sub_string b 0 5 ^ Bytes.sub_string b (n + 5) 5);
            Bytes.sub_string b 5 visible)
          payloads)
  in
  check Alcotest.(list string) "string form = model" model via_string;
  check Alcotest.(list string) "in-place form = string form" via_string via_bytes;
  check Alcotest.bool "the storm fired" true (List.exists2 ( <> ) payloads via_string)

let read_exn path =
  match Safe_io.read path with
  | Ok s -> s
  | Error e -> Alcotest.failf "read %s failed: %s" path (Safe_io.error_to_string e)

let in_temp_dir f =
  let dir = Filename.temp_file "xc_fault" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_atomic_replace_survives_faults () =
  in_temp_dir @@ fun dir ->
  let path = Filename.concat dir "synopsis.bin" in
  (match Safe_io.write_atomic path "generation-one" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "initial write failed: %s" (Safe_io.error_to_string e));
  (* a crash between temp-write and rename: the old file is intact *)
  List.iter
    (fun (what, kinds, sites) ->
      with_faults (faults ~sites kinds) (fun () ->
          match Safe_io.write_atomic path "generation-two" with
          | Ok () -> Alcotest.failf "%s: write unexpectedly succeeded" what
          | Error _ ->
            check Alcotest.string
              (what ^ ": previous contents intact")
              "generation-one" (read_exn path);
            check Alcotest.(list string)
              (what ^ ": no temp litter")
              [ "synopsis.bin" ]
              (Array.to_list (Sys.readdir dir))))
    [ ("die at open", [ Fault.Eio ], [ "safe_io.open" ]);
      ("die mid-write", [ Fault.Eio ], [ "safe_io.write" ]);
      ("disk full", [ Fault.Enospc ], [ "safe_io.write" ]);
      ("short write", [ Fault.Short_write ], [ "safe_io.write" ]);
      ("die at fsync", [ Fault.Eio ], [ "safe_io.fsync" ]);
      ("die at rename", [ Fault.Eio ], [ "safe_io.rename" ]) ];
  (* with faults cleared the replace goes through *)
  (match Safe_io.write_atomic path "generation-two" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean write failed: %s" (Safe_io.error_to_string e));
  check Alcotest.string "replaced" "generation-two" (read_exn path)

let test_save_load_under_faults () =
  in_temp_dir @@ fun dir ->
  let path = Filename.concat dir "synopsis.syn" in
  let syn = force "imdb" in
  (match Codec.save path syn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean save failed: %s" (Codec.error_to_string e));
  let golden = read_exn path in
  with_faults (faults ~prob:0.5 [ Fault.Truncate; Fault.Bit_flip; Fault.Enospc; Fault.Eio; Fault.Short_write ])
    (fun () ->
      for _ = 1 to 60 do
        (* every save outcome is typed, and a failed save never
           touches the target *)
        (match Codec.save path syn with
        | Ok () -> ()
        | Error (Codec.Io _) -> ()
        | Error e -> Alcotest.failf "unexpected save error: %s" (Codec.error_to_string e)
        | exception exn -> Alcotest.failf "save raised %s" (Printexc.to_string exn));
        (* every load outcome is typed: reads pass through the fault
           sites, so truncation and bit rot surface as decode errors *)
        match Codec.load path with
        | Ok decoded ->
          check Alcotest.int "loaded node count" (S.n_nodes syn) (S.n_nodes decoded)
        | Error _ -> ()
        | exception exn -> Alcotest.failf "load raised %s" (Printexc.to_string exn)
      done);
  (* after the fault storm: the file is still a valid synopsis *)
  check Alcotest.string "target only ever held complete encodings" golden (read_exn path);
  match Codec.load path with
  | Ok decoded -> check Alcotest.int "still loadable" (S.n_nodes syn) (S.n_nodes decoded)
  | Error e -> Alcotest.failf "post-fault load failed: %s" (Codec.error_to_string e)

(* ---- verify -------------------------------------------------------------- *)

let test_verify_file () =
  in_temp_dir @@ fun dir ->
  let path = Filename.concat dir "v.syn" in
  let syn = force "dblp" in
  (match Codec.save path syn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" (Codec.error_to_string e));
  (match Codec.verify path with
  | Ok info -> check Alcotest.int "nodes" (S.n_nodes syn) info.Codec.i_nodes
  | Error e -> Alcotest.failf "verify failed: %s" (Codec.error_to_string e));
  (* corrupt one payload byte on disk: verify must catch it, with the
     decoder's error *)
  let b = Bytes.of_string (read_exn path) in
  Bytes.set b (Bytes.length b - 1) '\255';
  (match Safe_io.write_atomic path (Bytes.unsafe_to_string b) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rewrite failed: %s" (Safe_io.error_to_string e));
  match Codec.verify path with
  | Error (Codec.Checksum_mismatch { section = "vsumm_blob"; _ }) -> ()
  | Error e ->
    Alcotest.failf "expected vsumm_blob checksum mismatch, got %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "verify accepted a corrupt file"

(* ---- admission ----------------------------------------------------------
   The first bytes of a file decide its fate the same way in every
   reader: the string decoder, the mapped loader (which reads only a
   prefix) and verify give one error for each. *)

let test_admission_agrees () =
  in_temp_dir @@ fun dir ->
  let v3 = Codec.to_string (force "dblp") in
  (* a 12-byte header of version [v], then a full v3 body *)
  let header v =
    let b = Bytes.of_string v3 in
    Bytes.set_int64_be b 4 (Int64.of_int v);
    Bytes.unsafe_to_string b
  in
  let foreign = String.init 634 (fun i -> "<doc>text</doc>\n".[i mod 16]) in
  let path = Filename.concat dir "input.syn" in
  List.iter
    (fun (what, input, expected) ->
      (match Safe_io.write_atomic path input with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write failed: %s" (Safe_io.error_to_string e));
      let error = function
        | Ok _ -> Alcotest.failf "%s: admitted" what
        | Error e -> Codec.error_to_string e
      in
      let expected = Codec.error_to_string expected in
      check Alcotest.string (what ^ ": of_string") expected (error (Codec.of_string input));
      check Alcotest.string (what ^ ": load") expected (error (Codec.load path));
      check Alcotest.string (what ^ ": verify") expected (error (Codec.verify path)))
    [ ("empty", "", Codec.Bad_magic);
      ("XC", "XC", Codec.Bad_magic);
      ("XCLU", "XCLU", Codec.Truncated { pos = 4; need = 8 });
      ("v1 header", header 1, Codec.Unsupported_version 1);
      ("v2 header", header 2, Codec.Unsupported_version 2);
      ("v99 header", header 99, Codec.Unsupported_version 99);
      ("foreign", foreign, Codec.Bad_magic);
      ("v3 prefix", String.sub v3 0 100, Codec.Truncated { pos = 100; need = 348 }) ]

let () =
  Alcotest.run ~and_exit:false "fault"
    [ ( "decode totality",
        [ Alcotest.test_case "fuzz imdb (2100 mutations)" `Quick (test_fuzz "imdb");
          Alcotest.test_case "fuzz xmark (2100 mutations)" `Quick (test_fuzz "xmark");
          Alcotest.test_case "fuzz dblp (2100 mutations)" `Quick (test_fuzz "dblp");
          Alcotest.test_case "every bit flip detected" `Quick test_every_bit_flip_detected;
          Alcotest.test_case "clean round trip is bit-exact" `Quick test_roundtrip_bit_exact;
          Alcotest.test_case "hostile lengths rejected pre-allocation" `Quick
            test_hostile_lengths ] );
      ( "versioning",
        [ Alcotest.test_case "admission errors agree" `Quick test_admission_agrees;
          Alcotest.test_case "unknown version rejected" `Quick test_unsupported_version ] );
      ( "fault harness",
        [ Alcotest.test_case "XC_FAULTS parsing" `Quick test_fault_config_parsing;
          Alcotest.test_case "in-place read fault agrees with the string form" `Quick
            test_mutate_in_place_agrees;
          Alcotest.test_case "atomic replace survives faults" `Quick
            test_atomic_replace_survives_faults;
          Alcotest.test_case "save/load under fault storm" `Quick
            test_save_load_under_faults ] );
      ("verify", [ Alcotest.test_case "verify catches disk corruption" `Quick test_verify_file ])
    ]
