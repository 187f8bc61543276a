(* Serving-layer tests: the wire protocol's total decoding (hostile
   lengths, forged CRCs, truncation), the registry's verify-on-admit
   skip-and-count contract, the bounded engine LRU, and a live daemon
   driven by concurrent client domains — whose answers must be
   bit-identical to estimate_uncached on the same artifact, under a
   socket fault storm included. *)

module Serve = Xcluster.Serve
module Protocol = Serve.Protocol
module Error = Serve.Error
module Registry = Serve.Registry
module Lru = Xc_serve.Lru
module Metrics = Xc_util.Metrics
module Fault = Xc_util.Fault

let check = Alcotest.check

let counter name = Metrics.counter_value Metrics.global name

(* ---- fixtures ----------------------------------------------------------- *)

let synopsis_a =
  lazy
    (let doc = Xc_data.Imdb.generate ~seed:81 ~n_movies:40 () in
     Xcluster.Build.run ~min_extent:4
       ~budget:(Xcluster.Build.budget ~bstr_kb:4 ~bval_kb:20 ())
       doc)

let synopsis_b =
  lazy
    (let doc = Xc_data.Dblp.generate ~seed:82 ~n_authors:40 () in
     Xcluster.Build.run ~min_extent:4
       ~budget:(Xcluster.Build.budget ~bstr_kb:4 ~bval_kb:20 ())
       doc)

(* a second generation for the same dataset as [synopsis_a]: a tighter
   structural budget, so its estimates (and its uid) differ *)
let synopsis_a2 =
  lazy
    (let doc = Xc_data.Imdb.generate ~seed:81 ~n_movies:40 () in
     Xcluster.Build.run ~min_extent:4
       ~budget:(Xcluster.Build.budget ~bstr_kb:2 ~bval_kb:12 ())
       doc)

let temp_dir () =
  let dir = Filename.temp_file "xc_serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rm_rf dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ()

let save_exn path syn =
  match Xcluster.Store.save path syn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save %s: %s" path (Xc_core.Codec.error_to_string e)

let load_exn path =
  match Xcluster.Store.load path with
  | Ok s -> s
  | Error e -> Alcotest.failf "load %s: %s" path (Xc_core.Codec.error_to_string e)

(* ---- protocol round-trip ------------------------------------------------ *)

let sample_requests =
  [ Protocol.Estimate { synopsis = "imdb"; query = "//movie/title" };
    Protocol.Estimate_batch
      {
        synopsis = "x";
        queries = [| "//a"; "//b[. > 3]/c"; "//d[. ftcontains(war)]" |];
        options =
          { Serve.default_options with
            Serve.domains = Some 3;
            fallback = Serve.Strict };
      };
    Protocol.Estimate_batch
      { synopsis = ""; queries = [||]; options = Serve.default_options };
    Protocol.List_synopses;
    Protocol.Stats;
    Protocol.Update { synopsis = "imdb"; path = "/var/lib/xc/imdb.g2.syn" };
    Protocol.Update { synopsis = ""; path = "" };
    Protocol.Reload;
    Protocol.Ping;
    Protocol.Shutdown ]

let sample_responses =
  [ Protocol.Floats [| 1.5; 0.0; -0.0; Float.max_float; 1e-300; Float.infinity |];
    Protocol.Floats [||];
    Protocol.Synopses
      [| { Protocol.l_name = "imdb"; l_nodes = 12; l_edges = 30; l_bytes = 4096 };
         { Protocol.l_name = ""; l_nodes = 0; l_edges = 0; l_bytes = 0 } |];
    Protocol.Stats_json "{\"counters\":{}}";
    Protocol.Reloaded { loaded = 3; skipped = 1 };
    Protocol.Swapped { generation = 42 };
    Protocol.Health
      {
        Protocol.h_synopses = 3;
        h_generations = 7;
        h_queue = 2;
        h_inflight = 1;
        h_uptime_s = 12.5;
        h_draining = true;
      };
    Protocol.Health
      {
        Protocol.h_synopses = 0;
        h_generations = 0;
        h_queue = 0;
        h_inflight = 0;
        h_uptime_s = 0.0;
        h_draining = false;
      };
    Protocol.Done;
    Protocol.Error_frame { code = 4; message = "query 0: nope" } ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok req' -> check Alcotest.bool "request round-trips" true (req = req')
      | Error e -> Alcotest.failf "decode failed: %a" Error.pp_protocol e)
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      match Protocol.decode_response (Protocol.encode_response resp) with
      | Ok resp' ->
        (* floats must survive bit-for-bit, so compare Floats bitwise *)
        (match (resp, resp') with
        | Protocol.Floats a, Protocol.Floats b ->
          check Alcotest.int "float count" (Array.length a) (Array.length b);
          Array.iteri
            (fun i v ->
              check Alcotest.bool "float bits" true
                (Int64.bits_of_float v = Int64.bits_of_float b.(i)))
            a
        | _ -> check Alcotest.bool "response round-trips" true (resp = resp'))
      | Error e -> Alcotest.failf "decode failed: %a" Error.pp_protocol e)
    sample_responses

(* every truncation of a valid frame must decode to a typed protocol
   error — never an exception, never a success *)
let test_truncation_total () =
  let frame =
    Protocol.encode_request
      (Protocol.Estimate_batch
         {
           synopsis = "syn";
           queries = [| "//a/b"; "//c" |];
           options = Serve.default_options;
         })
  in
  for len = 0 to String.length frame - 1 do
    match Protocol.decode_request (String.sub frame 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded successfully" len
    | Error _ -> ()
  done

(* a flipped payload bit must be caught by the frame CRC before any
   payload field is parsed *)
let test_forged_crc () =
  let frame = Protocol.encode_request (Protocol.Estimate { synopsis = "s"; query = "//q" }) in
  let header_bytes = String.length (Protocol.encode_request Protocol.Shutdown) in
  let b = Bytes.of_string frame in
  (* flip one bit in the payload (past the header) *)
  let i = header_bytes + ((Bytes.length b - header_bytes) / 2) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  match Protocol.decode_request (Bytes.unsafe_to_string b) with
  | Error (Checksum_mismatch _) -> ()
  | Error e -> Alcotest.failf "expected checksum mismatch, got %a" Error.pp_protocol e
  | Ok _ -> Alcotest.fail "bit-flipped frame decoded successfully"

(* the CRC field (bytes 10-13, u32 BE) of two fixed frames, pinned: a
   checksum implementation that changed any wire byte fails here *)
let test_golden_frame_crcs () =
  let crc_field frame = Int32.to_int (String.get_int32_be frame 10) land 0xFFFFFFFF in
  let batch =
    Protocol.encode_request
      (Protocol.Estimate_batch
         {
           synopsis = "xmark";
           queries = Array.init 64 (Printf.sprintf "//open_auction[initial > %d]/bidder");
           options = Serve.options ~domains:2 ~max_batch:512 ();
         })
  in
  let answers = Array.init 100 (fun i -> float_of_int i *. 0.37) in
  let floats = Protocol.encode_response (Protocol.Floats answers) in
  check Alcotest.int "Estimate_batch frame length" 2809 (String.length batch);
  check Alcotest.int "Estimate_batch frame CRC" 0x71fe8fb1 (crc_field batch);
  check Alcotest.int "Floats frame length" 822 (String.length floats);
  check Alcotest.int "Floats frame CRC" 0x3419661c (crc_field floats)

(* a frame header advertising a huge payload must be rejected from the
   length field alone *)
let test_hostile_length () =
  let huge = Bytes.make Protocol.header_bytes '\000' in
  Bytes.set_uint8 huge 0 Protocol.version;
  Bytes.set huge 1 '\x01';
  (* length = max_int as 8-byte BE *)
  Bytes.set_int64_be huge 2 (Int64.of_int max_int);
  match Protocol.decode_request (Bytes.unsafe_to_string huge ^ String.make 64 'x') with
  | Error (Bad_length _) -> ()
  | Error e -> Alcotest.failf "expected bad length, got %a" Error.pp_protocol e
  | Ok _ -> Alcotest.fail "hostile length accepted"

let test_bad_tag () =
  let payload_crc = Xc_util.Crc32.digest "" in
  let b = Bytes.make Protocol.header_bytes '\000' in
  Bytes.set_uint8 b 0 Protocol.version;
  Bytes.set b 1 '\x33';
  Bytes.set_int32_be b 10 (Int32.of_int payload_crc);
  match Protocol.decode_request (Bytes.unsafe_to_string b) with
  | Error (Bad_tag 0x33) -> ()
  | Error e -> Alcotest.failf "expected bad tag, got %a" Error.pp_protocol e
  | Ok _ -> Alcotest.fail "unknown tag accepted"

let test_endpoint_parsing () =
  (match Protocol.endpoint_of_string "unix:/tmp/x.sock" with
  | Ok (Protocol.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix: endpoint");
  (match Protocol.endpoint_of_string "tcp:localhost:7070" with
  | Ok (Protocol.Tcp ("localhost", 7070)) -> ()
  | _ -> Alcotest.fail "tcp: endpoint");
  (match Protocol.endpoint_of_string "bare.sock" with
  | Ok (Protocol.Unix_sock "bare.sock") -> ()
  | _ -> Alcotest.fail "bare endpoint");
  match Protocol.endpoint_of_string "tcp:nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tcp without port accepted"

(* errors cross the wire category-intact *)
let test_error_wire () =
  List.iter
    (fun e ->
      let code, msg = Error.to_wire e in
      let back = Error.of_wire code msg in
      let same =
        match (e, back) with
        | Error.Codec _, Error.Codec _
        | Error.Admission _, Error.Admission _
        | Error.Query _, Error.Query _
        | Error.Unavailable _, Error.Unavailable _
        | Error.Io _, Error.Io _ ->
          true
        (* a version refusal comes back typed, with the refused byte *)
        | Error.Protocol (Bad_version a), Error.Protocol (Bad_version b) -> a = b
        (* any other remote protocol complaint intentionally comes back
           as Io *)
        | Error.Protocol _, Error.Io _ -> true
        (* the numeric payloads ride in the message's leading decimal *)
        | Error.Timeout { elapsed_ms = a }, Error.Timeout { elapsed_ms = b } ->
          a = b
        | ( Error.Overloaded { retry_after_ms = a },
            Error.Overloaded { retry_after_ms = b } ) ->
          a = b
        | _ -> false
      in
      check Alcotest.bool "category survives the wire" true same)
    [ Error.Codec (Xc_core.Codec.Io "gone");
      Error.Protocol Error.Closed;
      Error.Protocol (Error.Bad_version 0x08);
      Error.Admission "unknown";
      Error.Query "bad twig";
      Error.Unavailable "strict";
      Error.Io "refused";
      Error.Timeout { elapsed_ms = 1234 };
      Error.Overloaded { retry_after_ms = 250 } ]

(* ---- generated round trips ---------------------------------------------
   Every request and response variant, generated, must decode to itself
   (floats bit for bit) through the string wrappers and through one
   reused buffer pair over a socketpair. A test case is a run of frames
   of random sizes, and the pair persists across cases, so a small
   frame written or read after a large one would expose a stale byte. *)

module G = QCheck.Gen

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let response_equal a b =
  match (a, b) with
  | Protocol.Floats x, Protocol.Floats y ->
    Array.length x = Array.length y && Array.for_all2 bits_equal x y
  | Protocol.Health h, Protocol.Health h' ->
    bits_equal h.Protocol.h_uptime_s h'.Protocol.h_uptime_s
    && { h with Protocol.h_uptime_s = 0.0 } = { h' with Protocol.h_uptime_s = 0.0 }
  | _ -> a = b

(* mostly small frames, now and then one of several kilobytes *)
let gen_count = G.frequency [ (3, G.int_bound 4); (2, G.int_bound 64); (1, G.int_range 200 900) ]
let gen_text = G.string_size ~gen:G.char (G.int_bound 48)
let gen_float = G.map Int64.float_of_bits G.ui64

let gen_options =
  G.map4
    (fun domains strict max_batch max_frame_bytes ->
      { Serve.domains;
        fallback = (if strict then Serve.Strict else Serve.Degrade);
        max_batch;
        max_frame_bytes })
    (G.opt (G.int_range 1 64)) G.bool (G.int_range 1 max_int) (G.int_range 1 max_int)

let gen_request =
  G.oneof
    [ G.map2 (fun synopsis query -> Protocol.Estimate { synopsis; query }) gen_text gen_text;
      G.map3
        (fun synopsis queries options -> Protocol.Estimate_batch { synopsis; queries; options })
        gen_text (G.array_size gen_count gen_text) gen_options;
      G.map2 (fun synopsis path -> Protocol.Update { synopsis; path }) gen_text gen_text;
      G.oneofl
        [ Protocol.List_synopses; Protocol.Stats; Protocol.Reload; Protocol.Shutdown;
          Protocol.Ping ] ]

let gen_response =
  let listed =
    G.map4
      (fun l_name l_nodes l_edges l_bytes -> { Protocol.l_name; l_nodes; l_edges; l_bytes })
      gen_text G.int G.int G.int
  in
  let health =
    G.map3
      (fun (h_synopses, h_generations) (h_queue, h_inflight) (h_uptime_s, h_draining) ->
        Protocol.Health
          { Protocol.h_synopses; h_generations; h_queue; h_inflight; h_uptime_s; h_draining })
      (G.pair G.int G.int) (G.pair G.int G.int) (G.pair gen_float G.bool)
  in
  G.oneof
    [ G.map (fun a -> Protocol.Floats a) (G.array_size gen_count gen_float);
      G.map (fun a -> Protocol.Synopses a) (G.array_size gen_count listed);
      G.map
        (fun s -> Protocol.Stats_json s)
        (G.string_size ~gen:G.char (G.map (fun n -> 40 * n) gen_count));
      G.map2 (fun loaded skipped -> Protocol.Reloaded { loaded; skipped }) G.int G.int;
      G.map (fun generation -> Protocol.Swapped { generation }) G.int;
      G.pure Protocol.Done;
      health;
      G.map2 (fun code message -> Protocol.Error_frame { code; message }) G.int gen_text ]

(* a write buffer, a read buffer and the socketpair between them *)
type buffer_pair = {
  w : Protocol.Frame.t;
  r : Protocol.Frame.t;
  tx : Unix.file_descr;
  rx : Unix.file_descr;
}

let buffer_pair () =
  let tx, rx = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  { w = Protocol.Frame.create (); r = Protocol.Frame.create (); tx; rx }

let shared_pair = lazy (buffer_pair ())

(* Send the frame [p.w] holds and [recv] it on the other end. The write
   runs on its own thread, so a frame larger than the socket buffer
   cannot deadlock the reader. *)
let exchange p recv =
  let sent = ref (Ok ()) in
  let writer = Thread.create (fun () -> sent := Protocol.send_frame p.tx p.w) () in
  let got = recv p.rx in
  Thread.join writer;
  (match !sent with Ok () -> () | Error e -> Alcotest.failf "send: %s" (Error.to_string e));
  got

(* read one frame into [p.r] and decode it whole *)
let recv_request p fd =
  match Protocol.read_frame ~site:"serve.recv" p.r fd with
  | Ok true -> Result.map Option.some (Protocol.decode_request (Protocol.Frame.contents p.r))
  | Ok false -> Ok None
  | Error e -> Alcotest.failf "recv: %s" (Error.to_string e)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"generated requests round-trip" ~count:150
    (QCheck.make (G.list_size (G.int_range 1 6) gen_request))
    (fun reqs ->
      let p = Lazy.force shared_pair in
      List.for_all
        (fun req ->
          let s = Protocol.encode_request req in
          Protocol.encode_request_into p.w req;
          Protocol.decode_request s = Ok req
          && Protocol.Frame.contents p.w = s
          && exchange p (recv_request p) = Ok (Some req))
        reqs)

(* The daemon's read path: an estimate frame read as a view names its
   texts as slices that spell the queries sent; any other request
   decodes as [decode_request] does. *)
let prop_request_view =
  let texts = Xc_util.Slices.create () in
  let spelled queries =
    Xc_util.Slices.length texts = Array.length queries
    && Array.for_all Fun.id (Array.mapi (fun i q -> Xc_util.Slices.to_string texts i = q) queries)
  in
  QCheck.Test.make ~name:"generated requests read as views" ~count:150
    (QCheck.make (G.list_size (G.int_range 1 6) gen_request))
    (fun reqs ->
      let p = Lazy.force shared_pair in
      List.for_all
        (fun req ->
          Protocol.encode_request_into p.w req;
          match (req, exchange p (fun fd -> Protocol.recv_view ~into:p.r ~texts fd)) with
          | ( Protocol.Estimate { synopsis; query },
              Ok (Some (Protocol.Estimates { synopsis = s; options = None })) ) ->
            s = synopsis && spelled [| query |]
          | ( Protocol.Estimate_batch { synopsis; queries; options },
              Ok (Some (Protocol.Estimates { synopsis = s; options = Some o })) ) ->
            s = synopsis && o = options && spelled queries
          | (Protocol.Estimate _ | Protocol.Estimate_batch _), _ -> false
          | req, got -> got = Ok (Some (Protocol.Request req)))
        reqs)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"generated responses round-trip, floats bitwise" ~count:150
    (QCheck.make (G.list_size (G.int_range 1 6) gen_response))
    (fun resps ->
      let p = Lazy.force shared_pair in
      let same resp = function Ok resp' -> response_equal resp resp' | Error _ -> false in
      List.for_all
        (fun resp ->
          let s = Protocol.encode_response resp in
          Protocol.encode_response_into p.w resp;
          same resp (Protocol.decode_response s)
          && Protocol.Frame.contents p.w = s
          && same resp (exchange p (fun fd -> Protocol.recv_response ~into:p.r fd)))
        resps)

(* one read buffer, one write buffer: a frame that grows both, then
   two small ones that must not see its bytes *)
let test_reused_read_buffer () =
  let p = buffer_pair () in
  Fun.protect ~finally:(fun () -> Unix.close p.tx; Unix.close p.rx) @@ fun () ->
  List.iter
    (fun req ->
      Protocol.encode_request_into p.w req;
      match exchange p (recv_request p) with
      | Ok (Some req') -> check Alcotest.bool "request through the reused buffers" true (req = req')
      | Ok None -> Alcotest.fail "end of stream"
      | Error e -> Alcotest.failf "decode: %s" (Error.to_string (Error.Protocol e)))
    [ Protocol.Estimate_batch
        {
          synopsis = "xmark";
          queries = Array.init 2000 (fun i -> Printf.sprintf "//open_auction[bidder/increase > %d]" i);
          options = Serve.default_options;
        };
      Protocol.Estimate { synopsis = "xmark"; query = "//person/name" };
      Protocol.Ping ]

(* Once a connection's buffers have grown, encoding a 400-query batch
   and a 400-float answer and reading a frame back allocate nothing on
   the major heap (frame-sized blocks would land there directly). The
   string wrapper, measured the same way, must register its blocks. *)
let test_warm_frames_allocate_nothing () =
  let p = buffer_pair () in
  Fun.protect ~finally:(fun () -> Unix.close p.tx; Unix.close p.rx) @@ fun () ->
  let batch =
    Protocol.Estimate_batch
      {
        synopsis = "xmark";
        queries = Array.init 400 (fun i -> Printf.sprintf "//open_auction[bidder/increase > %d]" i);
        options = Serve.default_options;
      }
  in
  let floats = Protocol.Floats (Array.init 400 (fun i -> float_of_int i /. 7.0)) in
  let round () =
    Protocol.encode_response_into p.w floats;
    Protocol.encode_request_into p.w batch;
    (match Protocol.send_frame p.tx p.w with
    | Ok () -> ()
    | Error e -> Alcotest.failf "send: %s" (Error.to_string e));
    match Protocol.read_frame ~site:"serve.recv" p.r p.rx with
    | Ok true -> ()
    | Ok false -> Alcotest.fail "end of stream"
    | Error e -> Alcotest.failf "recv: %s" (Error.to_string e)
  in
  (* [Gc.counters], not [Gc.quick_stat]: OCaml 5's quick_stat adds a
     domain's direct major allocations in only at its next minor
     collection, so it would read 0 here whatever [f] allocated *)
  let major_words_added f =
    Gc.minor ();
    let _, _, before = Gc.counters () in
    f ();
    let _, _, after = Gc.counters () in
    after -. before
  in
  round ();
  check (Alcotest.float 0.0) "major words added by a warm encode + read" 0.0
    (major_words_added round);
  let frame_words = float_of_int (String.length (Protocol.encode_request batch) / 8) in
  check Alcotest.bool "the string wrapper's frame-sized blocks are counted" true
    (major_words_added (fun () -> ignore (Protocol.encode_request batch)) >= frame_words)

(* ---- options ------------------------------------------------------------ *)

let test_options_validation () =
  let o = Serve.options ~domains:2 ~fallback:Serve.Strict () in
  check Alcotest.bool "fields" true
    (o.Serve.domains = Some 2 && o.Serve.fallback = Serve.Strict);
  check Alcotest.bool "default degrades" true
    (Serve.default_options.Serve.fallback = Serve.Degrade
    && Serve.default_options.Serve.domains = None);
  check Alcotest.bool "default admission limits are positive" true
    (Serve.default_options.Serve.max_batch > 0
    && Serve.default_options.Serve.max_frame_bytes > 0);
  (match Serve.options ~max_batch:16 ~max_frame_bytes:4096 () with
  | { Serve.max_batch = 16; max_frame_bytes = 4096; _ } -> ()
  | _ -> Alcotest.fail "admission limits not threaded");
  (match Serve.options ~max_batch:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_batch = 0 accepted");
  (match Serve.options ~max_frame_bytes:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_frame_bytes = 0 accepted");
  match Serve.options ~domains:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains = 0 accepted"

(* ---- LRU ---------------------------------------------------------------- *)

let test_lru_policy () =
  let l = Lru.create 2 in
  check Alcotest.bool "no eviction below capacity" true (Lru.put l "a" 1 = None);
  check Alcotest.bool "no eviction at capacity" true (Lru.put l "b" 2 = None);
  check Alcotest.(list string) "recency order" [ "b"; "a" ] (Lru.keys_by_recency l);
  (* touching [a] makes [b] the eviction candidate *)
  check Alcotest.(option int) "hit refreshes" (Some 1) (Lru.find l "a");
  check Alcotest.bool "lru evicted" true (Lru.put l "c" 3 = Some ("b", 2));
  check Alcotest.(list string) "post-eviction order" [ "c"; "a" ] (Lru.keys_by_recency l);
  (* replacing an existing key never evicts *)
  check Alcotest.bool "replace in place" true (Lru.put l "a" 9 = None);
  check Alcotest.(option int) "replaced value" (Some 9) (Lru.find l "a");
  check Alcotest.int "length" 2 (Lru.length l)

(* ---- registry ----------------------------------------------------------- *)

let test_registry_skip_and_count () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  save_exn (Filename.concat dir "good_a.syn") (Lazy.force synopsis_a);
  save_exn (Filename.concat dir "good_b.syn") (Lazy.force synopsis_b);
  let oc = open_out (Filename.concat dir "rotten.syn") in
  output_string oc "this is not a synopsis";
  close_out oc;
  let errors_before = counter "serve.load_error" in
  let r = Registry.create () in
  (match Registry.add_dir r dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add_dir: %s" (Error.to_string e));
  let report = Registry.load r in
  check Alcotest.int "loaded" 2 report.Registry.loaded;
  check Alcotest.int "skipped" 1 report.Registry.skipped;
  check Alcotest.(list string) "only verified names admitted" [ "good_a"; "good_b" ]
    (Registry.names r);
  check Alcotest.bool "skip was counted" true (counter "serve.load_error" > errors_before);
  check Alcotest.bool "rotten not found" true (Registry.find r "rotten" = None);
  (* a reload after the good artifact rots keeps the admitted synopsis *)
  let oc = open_out (Filename.concat dir "good_a.syn") in
  output_string oc "rotted in place";
  close_out oc;
  let report = Registry.load r in
  check Alcotest.int "reload skipped the rotted pair" 2 report.Registry.skipped;
  check Alcotest.bool "previous admission survives" true
    (Registry.find r "good_a" <> None)

let test_registry_engine_lru () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  save_exn (Filename.concat dir "a.syn") (Lazy.force synopsis_a);
  save_exn (Filename.concat dir "b.syn") (Lazy.force synopsis_b);
  let r = Registry.create ~max_engines:1 () in
  (match Registry.add_dir r dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add_dir: %s" (Error.to_string e));
  ignore (Registry.load r);
  check Alcotest.int "bound" 1 (Registry.max_engines r);
  let admits = counter "serve.engine_admit" in
  let evicts = counter "serve.engine_evict" in
  let hits = counter "serve.engine_hit" in
  (match Registry.engine r "a" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "engine a: %s" (Error.to_string e));
  check Alcotest.(list string) "a resident" [ "a" ] (Registry.engine_names r);
  (match Registry.engine r "b" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "engine b: %s" (Error.to_string e));
  check Alcotest.(list string) "b evicted a" [ "b" ] (Registry.engine_names r);
  check Alcotest.int "two admits" (admits + 2) (counter "serve.engine_admit");
  check Alcotest.int "one evict" (evicts + 1) (counter "serve.engine_evict");
  ignore (Registry.engine r "b");
  check Alcotest.int "resident engine is a hit" (hits + 1) (counter "serve.engine_hit");
  match Registry.engine r "nope" with
  | Error (Error.Admission _) -> ()
  | Error e -> Alcotest.failf "expected admission error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "unknown name produced an engine"

(* ---- live daemon -------------------------------------------------------- *)

(* The daemon runs in a spawned domain of this process (Daemon.run
   blocks its caller; Shutdown exits it), clients in further domains
   doing only socket I/O. [same_domain] runs it on a thread of this
   domain instead, so that this domain's GC counters include what it
   allocates. *)
let with_daemon ?(max_engines = 8) ?(tune = fun c -> c) ?(same_domain = false) sources f =
  let dir = temp_dir () in
  let endpoint = Protocol.Unix_sock (Filename.concat dir "d.sock") in
  let registry = Registry.create ~max_engines () in
  List.iter (fun (name, path) -> Registry.add_source registry ~name ~path) sources;
  let ready = Atomic.make false in
  let config =
    tune
      { Serve.Daemon.default_config with
        Serve.Daemon.endpoint;
        max_engines;
        options = Serve.default_options }
  in
  let join_daemon =
    let run () = Serve.Daemon.run ~config ~on_ready:(fun _ -> Atomic.set ready true) registry in
    if same_domain then
      let th = Thread.create run () in
      fun () -> Thread.join th
    else
      let d = Domain.spawn run in
      fun () -> Domain.join d
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.01)
  done;
  if not (Atomic.get ready) then Alcotest.fail "daemon did not come up";
  Fun.protect
    ~finally:(fun () ->
      (* the shutdown frame can be refused under an active fault storm:
         retry until acknowledged (faults are probabilistic) *)
      let rec shut n =
        if n = 0 then Alcotest.fail "daemon refused shutdown"
        else
          match Serve.Client.connect endpoint with
          | Error _ -> shut (n - 1)
          | Ok c ->
            let r = Serve.Client.shutdown c in
            Serve.Client.close c;
            (match r with Ok () -> () | Error _ -> shut (n - 1))
      in
      shut 500;
      join_daemon ();
      rm_rf dir)
    (fun () -> f endpoint)

let connect_exn endpoint =
  match Serve.Client.connect endpoint with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Error.to_string e)

let query_sources ?(n_queries = 40) syn =
  let doc = Xc_data.Imdb.generate ~seed:81 ~n_movies:40 () in
  let spec = { Xc_twig.Workload.default_spec with n_queries; seed = 9 } in
  let wl = Xc_twig.Workload.generate ~spec doc in
  (* daemon-side queries are source text: keep only workload queries
     whose rendering parses back *)
  wl
  |> List.filter_map (fun e ->
         let s = Format.asprintf "%a" Xc_twig.Twig_query.pp e.Xc_twig.Workload.query in
         match Xcluster.Query.parse s with
         | q -> Some (s, Xcluster.Query.estimate_uncached syn q)
         | exception _ -> None)
  |> Array.of_list

let test_daemon_concurrent_bitwise () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  (* the reference is computed on the loaded artifact — the bytes the
     daemon serves *)
  let loaded =
    match Xcluster.Store.load path with
    | Ok s -> s
    | Error e -> Alcotest.failf "load: %s" (Xc_core.Codec.error_to_string e)
  in
  let qs = query_sources loaded in
  check Alcotest.bool "workload renders to source" true (Array.length qs > 10);
  let sources = Array.map fst qs in
  let expected = Array.map snd qs in
  with_daemon [ ("imdb", path) ] @@ fun endpoint ->
  let client () =
    Domain.spawn (fun () ->
        match Serve.Client.connect endpoint with
        | Error e -> Result.Error (Error.to_string e)
        | Ok c ->
          let r =
            match Serve.Client.estimate_batch c ~synopsis:"imdb" sources with
            | Ok floats -> Result.Ok floats
            | Error e -> Result.Error (Error.to_string e)
          in
          Serve.Client.close c;
          r)
  in
  let answers = List.map Domain.join (List.init 3 (fun _ -> client ())) in
  List.iter
    (fun answer ->
      match answer with
      | Result.Error e -> Alcotest.failf "client: %s" e
      | Result.Ok floats ->
        check Alcotest.int "answer count" (Array.length expected) (Array.length floats);
        Array.iteri
          (fun i v ->
            check Alcotest.bool "bit-identical to estimate_uncached" true
              (Int64.bits_of_float v = Int64.bits_of_float expected.(i)))
          floats)
    answers

let test_daemon_error_frames () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  with_daemon [ ("imdb", path) ] @@ fun endpoint ->
  let c =
    match Serve.Client.connect endpoint with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" (Error.to_string e)
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (match Serve.Client.estimate c ~synopsis:"nope" ~query:"//a" with
  | Error (Error.Admission _) -> ()
  | Error e -> Alcotest.failf "expected admission error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "unknown synopsis answered");
  (match Serve.Client.estimate c ~synopsis:"imdb" ~query:"[[[" with
  | Error (Error.Query _) -> ()
  | Error e -> Alcotest.failf "expected query error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "unparsable query answered");
  (match Serve.Client.estimate_batch c ~synopsis:"imdb" [| "//movie/title"; "[[[" |] with
  | Error (Error.Query msg) ->
    check Alcotest.bool ("batch error names its query: " ^ msg) true
      (String.starts_with ~prefix:"query 1: " msg)
  | Error e -> Alcotest.failf "expected query error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "unparsable batch answered");
  (* the connection survives error frames: a good request still works *)
  (match Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie/title" with
  | Ok v -> check Alcotest.bool "finite estimate" true (Float.is_finite v)
  | Error e -> Alcotest.failf "estimate after errors: %s" (Error.to_string e));
  (* the same typed errors once the synopsis's engine is resident *)
  (match Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie[" with
  | Error (Error.Query _) -> ()
  | Error e -> Alcotest.failf "expected query error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "unparsable query answered on a warm engine");
  (match Serve.Client.estimate_batch c ~synopsis:"nope" [| "//a" |] with
  | Error (Error.Admission _) -> ()
  | Error e -> Alcotest.failf "expected admission error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "unknown synopsis answered a batch");
  (match Serve.Client.list_synopses c with
  | Ok [| { Protocol.l_name = "imdb"; l_nodes; l_bytes; _ } |] ->
    check Alcotest.bool "listed sizes" true (l_nodes > 0 && l_bytes > 0)
  | Ok _ -> Alcotest.fail "unexpected listing"
  | Error e -> Alcotest.failf "list: %s" (Error.to_string e));
  (match Serve.Client.stats c with
  | Ok json ->
    check Alcotest.bool "stats is a JSON object" true
      (String.length json > 0 && json.[0] = '{')
  | Error e -> Alcotest.failf "stats: %s" (Error.to_string e));
  match Serve.Client.reload c with
  | Ok report -> check Alcotest.int "reload re-admits" 1 report.Registry.loaded
  | Error e -> Alcotest.failf "reload: %s" (Error.to_string e)

(* a storm of Truncate+Bit_flip faults on the daemon's socket-read site:
   every request must come back Ok or as a typed error, and the daemon
   must still answer cleanly once the storm lifts *)
let test_daemon_survives_socket_storm () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  with_daemon [ ("imdb", path) ] @@ fun endpoint ->
  let saved = Fault.current () in
  Fault.configure
    (Some
       {
         Fault.seed = 17;
         prob = 0.4;
         kinds = [ Fault.Truncate; Fault.Bit_flip ];
         sites = [ "serve.recv" ];
       });
  let ok = ref 0 and typed_errors = ref 0 in
  Fun.protect ~finally:(fun () -> Fault.configure saved) (fun () ->
      for _ = 1 to 60 do
        match Serve.Client.connect endpoint with
        | Error _ -> incr typed_errors
        | Ok c ->
          (match Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie/title" with
          | Ok _ -> incr ok
          | Error _ -> incr typed_errors);
          Serve.Client.close c
      done);
  check Alcotest.int "every stormed request answered" 60 (!ok + !typed_errors);
  check Alcotest.bool "storm actually fired" true (!typed_errors > 0);
  (* storm lifted: the daemon is intact *)
  match Serve.Client.connect endpoint with
  | Error e -> Alcotest.failf "connect after storm: %s" (Error.to_string e)
  | Ok c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    (match Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie/title" with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "estimate after storm: %s" (Error.to_string e))

(* ---- serving-plane hardening --------------------------------------------- *)

let sock_path = function
  | Protocol.Unix_sock p -> p
  | Protocol.Tcp _ -> Alcotest.fail "expected a unix endpoint"

(* a raw peer, below the client layer: the hardening tests need to
   misbehave in ways the client cannot *)
let raw_connect endpoint =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (sock_path endpoint));
  fd

let raw_close fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let test_ping_health () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  with_daemon [ ("imdb", path) ] @@ fun endpoint ->
  match Serve.Client.connect endpoint with
  | Error e -> Alcotest.failf "connect: %s" (Error.to_string e)
  | Ok c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    (match Serve.Client.ping c with
    | Ok h ->
      check Alcotest.int "synopses" 1 h.Protocol.h_synopses;
      check Alcotest.bool "load admitted a generation" true
        (h.Protocol.h_generations >= 1);
      (* this very connection is checked out by a worker *)
      check Alcotest.bool "pinging connection is in flight" true
        (h.Protocol.h_inflight >= 1);
      check Alcotest.bool "queue depth sane" true (h.Protocol.h_queue >= 0);
      check Alcotest.bool "uptime sane" true (h.Protocol.h_uptime_s >= 0.0);
      check Alcotest.bool "not draining" true (not h.Protocol.h_draining)
    | Error e -> Alcotest.failf "ping: %s" (Error.to_string e));
    (* health answers interleave with estimates on one connection *)
    match Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie/title" with
    | Ok v -> check Alcotest.bool "estimate after ping" true (Float.is_finite v)
    | Error e -> Alcotest.failf "estimate after ping: %s" (Error.to_string e)

(* A slow-loris peer — half a frame header, then silence — must cost one
   worker for at most the read deadline: other clients stay served, and
   the loris gets a typed Timeout frame and eviction. *)
let test_slow_loris_evicted () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  let tune c =
    { c with
      Serve.Daemon.workers = 2;
      recv_timeout_s = 0.15;
      request_budget_s = 0.5 }
  in
  with_daemon ~tune [ ("imdb", path) ] @@ fun endpoint ->
  let timeouts0 = counter "daemon.timeouts" in
  let evicted0 = counter "daemon.evicted" in
  let loris = raw_connect endpoint in
  Fun.protect ~finally:(fun () -> raw_close loris) @@ fun () ->
  (* half a header: the version byte, then silence *)
  ignore (Unix.write_substring loris (String.make 1 (Char.chr Protocol.version)) 0 1);
  (* the stalled peer occupies one worker; the other still answers *)
  (match Serve.Client.connect endpoint with
  | Error e -> Alcotest.failf "connect during stall: %s" (Error.to_string e)
  | Ok c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    (match Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie/title" with
    | Ok v ->
      check Alcotest.bool "finite estimate during stall" true (Float.is_finite v)
    | Error e ->
      Alcotest.failf "stalled peer blocked other clients: %s" (Error.to_string e)));
  (* the loris is evicted with a typed frame within the deadline *)
  Unix.setsockopt_float loris Unix.SO_RCVTIMEO 5.0;
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 256 in
  let rec drain () =
    match Unix.read loris chunk 0 256 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "stalled peer was not evicted within the deadline"
  in
  drain ();
  (match Protocol.decode_response (Buffer.contents buf) with
  | Ok (Protocol.Error_frame { code; message }) -> (
    match Error.of_wire code message with
    | Error.Timeout { elapsed_ms } ->
      check Alcotest.bool "elapsed is non-negative" true (elapsed_ms >= 0)
    | e -> Alcotest.failf "expected a timeout frame, got %s" (Error.to_string e))
  | Ok _ -> Alcotest.fail "expected an error frame before eviction"
  | Error e -> Alcotest.failf "eviction frame damaged: %a" Error.pp_protocol e);
  check Alcotest.bool "timeout counted" true (counter "daemon.timeouts" > timeouts0);
  check Alcotest.bool "eviction counted" true (counter "daemon.evicted" > evicted0)

(* With one worker stalled and the pending queue full, the next
   connection is shed with a typed Overloaded frame carrying the
   daemon's backoff hint — and with_retry outlasts the stall. *)
let test_overload_shed_and_retry () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  let tune c =
    { c with
      Serve.Daemon.workers = 1;
      max_pending = 1;
      recv_timeout_s = 0.3;
      request_budget_s = 0.5;
      retry_after_ms = 20 }
  in
  with_daemon ~tune [ ("imdb", path) ] @@ fun endpoint ->
  let shed0 = counter "daemon.shed" in
  (* a stalled peer checks out the single worker... *)
  let loris = raw_connect endpoint in
  Fun.protect ~finally:(fun () -> raw_close loris) @@ fun () ->
  (* half a header: the version byte, then silence *)
  ignore (Unix.write_substring loris (String.make 1 (Char.chr Protocol.version)) 0 1);
  Unix.sleepf 0.05;
  (* ...a second connection fills the pending queue... *)
  let filler = raw_connect endpoint in
  Fun.protect ~finally:(fun () -> raw_close filler) @@ fun () ->
  Unix.sleepf 0.05;
  (* ...so the third is shed before it utters a request *)
  (match Serve.Client.connect endpoint with
  | Error e -> Alcotest.failf "connect: %s" (Error.to_string e)
  | Ok c -> (
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    match Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie/title" with
    | Error (Error.Overloaded { retry_after_ms }) ->
      check Alcotest.int "daemon's backoff hint" 20 retry_after_ms
    | Error e -> Alcotest.failf "expected overloaded, got %s" (Error.to_string e)
    | Ok _ -> Alcotest.fail "request served through a full queue"));
  check Alcotest.bool "shed counted" true (counter "daemon.shed" > shed0);
  (* the stalled peers are evicted within their deadlines, so a retried
     request is eventually served *)
  let retry0 = counter "client.retry" in
  (match
     Serve.Client.with_retry ~attempts:20 ~base_delay_s:0.05 ~max_delay_s:0.2
       ~timeout_s:5.0 endpoint (fun c ->
         Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie/title")
   with
  | Ok v -> check Alcotest.bool "retried estimate finite" true (Float.is_finite v)
  | Error e -> Alcotest.failf "with_retry never recovered: %s" (Error.to_string e));
  check Alcotest.bool "retries taken" true (counter "client.retry" > retry0)

(* Admission limits: an over-limit batch is a permanent Admission error
   on a surviving connection; an oversized frame is refused from its
   header alone and the stream dropped, after which the client's next
   idempotent request transparently reconnects. *)
let test_admission_limits () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  let tune c =
    { c with
      Serve.Daemon.options = Serve.options ~max_batch:4 ~max_frame_bytes:2048 ()
    }
  in
  with_daemon ~tune [ ("imdb", path) ] @@ fun endpoint ->
  match Serve.Client.connect endpoint with
  | Error e -> Alcotest.failf "connect: %s" (Error.to_string e)
  | Ok c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    (match
       Serve.Client.estimate_batch c ~synopsis:"imdb"
         (Array.make 5 "//movie/title")
     with
    | Error (Error.Admission msg) ->
      check Alcotest.bool "names the limit" true (contains msg "limit")
    | Error e -> Alcotest.failf "expected admission, got %s" (Error.to_string e)
    | Ok _ -> Alcotest.fail "over-limit batch served");
    (* the refusal was an answer, not an eviction: same connection *)
    (match
       Serve.Client.estimate_batch c ~synopsis:"imdb"
         (Array.make 4 "//movie/title")
     with
    | Ok r -> check Alcotest.int "at-limit batch answered" 4 (Array.length r)
    | Error e -> Alcotest.failf "at-limit batch: %s" (Error.to_string e));
    let reconnect0 = counter "client.reconnect" in
    (match
       Serve.Client.estimate c ~synopsis:"imdb" ~query:(String.make 4096 'x')
     with
    | Error (Error.Admission _) -> ()
    | Error e -> Alcotest.failf "expected admission, got %s" (Error.to_string e)
    | Ok _ -> Alcotest.fail "oversized frame served");
    (match Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie/title" with
    | Ok v -> check Alcotest.bool "served after reconnect" true (Float.is_finite v)
    | Error e -> Alcotest.failf "reconnect after eviction: %s" (Error.to_string e));
    check Alcotest.bool "reconnect counted" true
      (counter "client.reconnect" > reconnect0)

(* Graceful drain: a request already on the wire when stop() lands is
   answered — bit-identical — before its connection closes, and the
   daemon then refuses new connections and exits. Runs its own daemon
   lifecycle: with_daemon's shutdown handshake expects a live daemon. *)
let test_graceful_drain () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  let expected =
    match Xcluster.Store.load path with
    | Ok s -> Xcluster.Query.estimate_uncached s (Xcluster.Query.parse "//movie/title")
    | Error e -> Alcotest.failf "load: %s" (Xc_core.Codec.error_to_string e)
  in
  let endpoint = Protocol.Unix_sock (Filename.concat dir "d.sock") in
  let registry = Registry.create ~max_engines:4 () in
  Registry.add_source registry ~name:"imdb" ~path;
  let ready = Atomic.make false in
  let config =
    { Serve.Daemon.default_config with
      Serve.Daemon.endpoint;
      max_engines = 4;
      options = Serve.default_options;
      workers = 2;
      drain_timeout_s = 5.0 }
  in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run ~config
          ~on_ready:(fun _ -> Atomic.set ready true)
          registry)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.01)
  done;
  if not (Atomic.get ready) then Alcotest.fail "daemon did not come up";
  let fd = raw_connect endpoint in
  Fun.protect ~finally:(fun () -> raw_close fd) @@ fun () ->
  let send_req req =
    match Protocol.send fd (Protocol.encode_request req) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "send: %s" (Error.to_string e)
  in
  let recv_estimate what =
    match Protocol.recv_response fd with
    | Ok (Protocol.Floats [| v |]) ->
      check Alcotest.bool (what ^ " bit-identical") true
        (Int64.bits_of_float v = Int64.bits_of_float expected)
    | Ok _ -> Alcotest.failf "%s: unexpected response kind" what
    | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)
  in
  let req = Protocol.Estimate { synopsis = "imdb"; query = "//movie/title" } in
  (* prime: a worker now owns this connection *)
  send_req req;
  recv_estimate "primed estimate";
  (* in flight at stop time: request on the wire, then drain begins *)
  send_req req;
  Serve.Daemon.stop ();
  recv_estimate "drained in-flight estimate";
  (* after answering, the drain closes the connection... *)
  (match Protocol.recv_response fd with
  | Ok _ -> Alcotest.fail "connection survived the drain"
  | Error _ -> ());
  Domain.join daemon;
  (* ...and the stopped daemon accepts nobody *)
  match Serve.Client.connect endpoint with
  | Ok c ->
    Serve.Client.close c;
    Alcotest.fail "daemon accepted a connection after drain"
  | Error (Error.Io _) -> ()
  | Error e -> Alcotest.failf "expected io error, got %s" (Error.to_string e)

(* connection failures are typed — never a silent loopback fallback *)
let test_client_connect_errors () =
  (match Serve.Client.connect (Protocol.Unix_sock "/definitely/not/here.sock") with
  | Error (Error.Io _) -> ()
  | Error e -> Alcotest.failf "expected io error, got %s" (Error.to_string e)
  | Ok c ->
    Serve.Client.close c;
    Alcotest.fail "connected to a missing socket");
  match Serve.Client.connect (Protocol.Tcp ("host.invalid", 7)) with
  | Error (Error.Io msg) ->
    check Alcotest.bool "names the unresolvable host" true
      (contains msg "unknown host")
  | Error e -> Alcotest.failf "expected io error, got %s" (Error.to_string e)
  | Ok c ->
    Serve.Client.close c;
    Alcotest.fail "an unresolvable name connected somewhere"

(* ---- frame versioning ----------------------------------------------------- *)

(* A frame in the older, unversioned layout: tag u8, length u64 BE,
   CRC-32 u32 BE, payload — the layout peers spoke before the version
   byte, whose batch options were five ints. *)
let old_layout_frame tag payload =
  let b = Bytes.create (13 + String.length payload) in
  Bytes.set_uint8 b 0 tag;
  Bytes.set_int64_be b 1 (Int64.of_int (String.length payload));
  Bytes.set_int32_be b 9 (Int32.of_int (Xc_util.Crc32.digest payload));
  Bytes.blit_string payload 0 b 13 (String.length payload);
  Bytes.to_string b

let test_version_decode () =
  let ping = Protocol.encode_request Protocol.Ping in
  check Alcotest.int "version byte leads" Protocol.version (Char.code ping.[0]);
  (match Protocol.decode_request (old_layout_frame 0x08 "") with
  | Error (Bad_version 0x08) -> ()
  | Error e -> Alcotest.failf "expected a version refusal, got %a" Error.pp_protocol e
  | Ok _ -> Alcotest.fail "old-layout frame decoded");
  let foreign = Bytes.of_string ping in
  Bytes.set_uint8 foreign 0 0xC2;
  match Protocol.decode_request (Bytes.to_string foreign) with
  | Error (Bad_version 0xC2) -> ()
  | Error e -> Alcotest.failf "expected a version refusal, got %a" Error.pp_protocol e
  | Ok _ -> Alcotest.fail "foreign-version frame decoded"

(* The daemon refuses an old-layout frame from its first byte — even a
   bare 13-byte header, shorter than the current one — with a version
   error frame, then closes the connection. *)
let test_daemon_refuses_old_layout () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  with_daemon [ ("imdb", path) ] @@ fun endpoint ->
  let old_batch =
    (* synopsis, then the five-int options, then one query *)
    let b = Buffer.create 64 in
    let int n =
      let s = Bytes.create 8 in
      Bytes.set_int64_be s 0 (Int64.of_int n);
      Buffer.add_bytes b s
    in
    let str s = int (String.length s); Buffer.add_string b s in
    str "imdb";
    List.iter int [ -1; 0; 1; 8192; 1 lsl 26 ];
    int 1;
    str "//movie/title";
    old_layout_frame 0x02 (Buffer.contents b)
  in
  List.iter
    (fun (tag, frame) ->
      let refused = counter "daemon.proto_error" in
      let fd = raw_connect endpoint in
      Fun.protect ~finally:(fun () -> raw_close fd) @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      ignore (Unix.write_substring fd frame 0 (String.length frame));
      let r = Protocol.Frame.create () in
      (match Protocol.read_frame ~site:"client.recv" r fd with
      | Ok true -> (
        match Protocol.decode_response (Protocol.Frame.contents r) with
        | Ok (Protocol.Error_frame { code; message }) -> (
          match Error.of_wire code message with
          | Error.Protocol (Bad_version v) -> check Alcotest.int "the refused byte" tag v
          | e -> Alcotest.failf "expected a version refusal, got %s" (Error.to_string e))
        | Ok _ -> Alcotest.fail "old-layout frame answered"
        | Error e -> Alcotest.failf "refusal frame damaged: %a" Error.pp_protocol e)
      | Ok false -> Alcotest.fail "closed without an answer"
      | Error e -> Alcotest.failf "no refusal frame: %s" (Error.to_string e));
      (* then the stream ends: cleanly, or with a reset when the daemon
         closed over the unread rest of the refused frame *)
      (match Protocol.read_frame ~site:"client.recv" r fd with
      | Ok false | Error (Error.Io _) -> ()
      | Ok true -> Alcotest.fail "connection kept open after the refusal"
      | Error e -> Alcotest.failf "expected end of stream, got %s" (Error.to_string e));
      check Alcotest.int "refusal counted" (refused + 1) (counter "daemon.proto_error"))
    [ (0x08, old_layout_frame 0x08 ""); (0x02, old_batch) ]

(* A client reading a response in a layout it does not speak gets a
   typed version error, and does not reconnect to retry. *)
let test_client_refuses_foreign_version () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "peer.sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> raw_close listener) @@ fun () ->
  Unix.bind listener (Unix.ADDR_UNIX sock);
  Unix.listen listener 4;
  (* a peer answering every request with a Health frame whose version
     byte is not ours *)
  let peer =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        let r = Protocol.Frame.create () and w = Protocol.Frame.create () in
        (match Protocol.read_frame ~site:"serve.recv" r fd with
        | Ok true ->
          Protocol.encode_response_into w
            (Protocol.Health
               { Protocol.h_synopses = 0; h_generations = 0; h_queue = 0; h_inflight = 0;
                 h_uptime_s = 0.0; h_draining = false });
          let frame = Bytes.of_string (Protocol.Frame.contents w) in
          Bytes.set_uint8 frame 0 (Protocol.version + 1);
          ignore (Unix.write fd frame 0 (Bytes.length frame))
        | _ -> ());
        raw_close fd)
      ()
  in
  let c = connect_exn (Protocol.Unix_sock sock) in
  let reconnects = counter "client.reconnect" in
  (match Serve.Client.ping c with
  | Error (Error.Protocol (Bad_version v)) ->
    check Alcotest.int "the refused byte" (Protocol.version + 1) v
  | Error e -> Alcotest.failf "expected a version error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "foreign-version response accepted");
  check Alcotest.int "no reconnect" reconnects (counter "client.reconnect");
  Serve.Client.close c;
  Thread.join peer

(* ---- generation swap ----------------------------------------------------- *)

(* Registry.swap: the generation counter bumps exactly on uid change,
   and a corrupt artifact keeps the previous good generation serving
   (skip-and-count). *)
let test_registry_swap_generations () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let reg = Registry.create () in
  let g1 = Lazy.force synopsis_a in
  check Alcotest.int "fresh name starts at 0" 0 (Registry.generation reg "imdb");
  check Alcotest.int "first swap" 1 (Registry.swap reg ~name:"imdb" g1);
  check Alcotest.int "same uid does not bump" 1 (Registry.swap reg ~name:"imdb" g1);
  let path2 = Filename.concat dir "g2.syn" in
  save_exn path2 (Lazy.force synopsis_a2);
  (match Registry.swap_from reg ~name:"imdb" ~path:path2 with
  | Ok gen -> check Alcotest.int "uid change bumps" 2 gen
  | Error e -> Alcotest.failf "swap_from: %s" (Error.to_string e));
  let expected_g2 =
    match Xcluster.Store.load path2 with
    | Ok s -> Xcluster.Query.estimate_uncached s (Xcluster.Query.parse "//movie/title")
    | Error e -> Alcotest.failf "load: %s" (Xc_core.Codec.error_to_string e)
  in
  let serving () =
    match Registry.find reg "imdb" with
    | Some syn -> Xcluster.Query.estimate_uncached syn (Xcluster.Query.parse "//movie/title")
    | None -> Alcotest.fail "name disappeared"
  in
  check Alcotest.bool "new generation serves" true
    (Int64.bits_of_float (serving ()) = Int64.bits_of_float expected_g2);
  (* a corrupt artifact: typed error, generation and serving unchanged *)
  let skipped0 = counter "serve.swap_skipped" in
  let bad = Filename.concat dir "bad.syn" in
  let oc = open_out bad in
  output_string oc "not a synopsis";
  close_out oc;
  (match Registry.swap_from reg ~name:"imdb" ~path:bad with
  | Ok _ -> Alcotest.fail "corrupt artifact admitted"
  | Error (Error.Codec _) -> ()
  | Error e -> Alcotest.failf "expected codec error, got %s" (Error.to_string e));
  check Alcotest.int "generation unchanged" 2 (Registry.generation reg "imdb");
  check Alcotest.bool "skip counted" true (counter "serve.swap_skipped" > skipped0);
  check Alcotest.bool "previous good generation still serves" true
    (Int64.bits_of_float (serving ()) = Int64.bits_of_float expected_g2)

(* A swap storm against a live daemon: reader domains hammer
   estimate_batch while another connection alternates the name between
   two generations. Every full answer vector must match one generation
   or the other — never a mix — and the generation counter must bump by
   exactly one per swap. *)
let test_daemon_swap_storm () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path1 = Filename.concat dir "g1.syn" in
  let path2 = Filename.concat dir "g2.syn" in
  save_exn path1 (Lazy.force synopsis_a);
  save_exn path2 (Lazy.force synopsis_a2);
  let g1 = load_exn path1 and g2 = load_exn path2 in
  let qs = query_sources g1 in
  let sources = Array.map fst qs in
  let bits = Array.map Int64.bits_of_float in
  let e1 = bits (Array.map snd qs) in
  let e2 =
    bits
      (Array.map
         (fun (s, _) -> Xcluster.Query.estimate_uncached g2 (Xcluster.Query.parse s))
         qs)
  in
  check Alcotest.bool "generations answer differently" true (e1 <> e2);
  with_daemon [ ("imdb", path1) ] @@ fun endpoint ->
  let stop = Atomic.make false in
  let reader () =
    Domain.spawn (fun () ->
        let answered = ref 0 and torn = ref 0 and failed = ref 0 in
        while not (Atomic.get stop) do
          match Serve.Client.connect endpoint with
          | Error _ -> incr failed
          | Ok c ->
            (match Serve.Client.estimate_batch c ~synopsis:"imdb" sources with
            | Ok floats ->
              incr answered;
              let b = bits floats in
              if not (b = e1 || b = e2) then incr torn
            | Error _ -> incr failed);
            Serve.Client.close c
        done;
        (!answered, !torn, !failed))
  in
  let readers = List.init 2 (fun _ -> reader ()) in
  let gens = ref [] in
  (match Serve.Client.connect endpoint with
  | Error e -> Alcotest.failf "swapper connect: %s" (Error.to_string e)
  | Ok c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    for i = 1 to 14 do
      let path = if i land 1 = 1 then path2 else path1 in
      match Serve.Client.update c ~synopsis:"imdb" ~path with
      | Ok gen -> gens := gen :: !gens
      | Error e -> Alcotest.failf "swap %d: %s" i (Error.to_string e)
    done);
  Atomic.set stop true;
  let results = List.map Domain.join readers in
  (match List.rev !gens with
  | [] -> Alcotest.fail "no swaps"
  | g0 :: rest ->
    (* the initial source load is generation 1 *)
    check Alcotest.int "first swap is generation 2" 2 g0;
    ignore
      (List.fold_left
         (fun prev g ->
           check Alcotest.int "generation bumps by one per swap" (prev + 1) g;
           g)
         g0 rest));
  List.iter
    (fun (answered, torn, failed) ->
      check Alcotest.bool "readers made progress" true (answered > 0);
      check Alcotest.int "no torn generation observed" 0 torn;
      check Alcotest.int "no failed reads during swaps" 0 failed)
    results

(* ---- facade surface ------------------------------------------------------ *)

(* The submodule facade is the only supported surface (the flat aliases
   of the pre-redesign API are gone): its estimation entry points must
   agree bitwise with each other and with the underlying engine. *)
let test_facade_agreement () =
  let syn = Lazy.force synopsis_a in
  let q = Xcluster.Query.parse "//movie/title" in
  let cached = Xcluster.Query.estimate syn q in
  let uncached = Xcluster.Query.estimate_uncached syn q in
  check Alcotest.bool "Query.estimate = estimate_uncached" true
    (Int64.bits_of_float cached = Int64.bits_of_float uncached);
  (match Xcluster.Serve.estimate_batch syn [| q |] with
  | Error e -> Alcotest.failf "Serve.estimate_batch: %s" (Serve.Error.to_string e)
  | Ok batch ->
    check Alcotest.bool "Serve.estimate_batch = Query.estimate" true
      (Int64.bits_of_float batch.(0) = Int64.bits_of_float cached));
  (* a representative of every submodule family, so removals break the
     build *)
  let _ = Xcluster.Build.run in
  let _ = Xcluster.Build.budget in
  let _ = Xcluster.Build.compress_builder in
  let _ = Xcluster.Build.update in
  let _ = Xcluster.Build.update_and_seal in
  let _ = Xcluster.Store.save in
  let _ = Xcluster.Store.load in
  let _ = Xcluster.Store.verify in
  let _ = Xcluster.Serve.batch_engine in
  let _ = Xcluster.Metrics.json in
  ()

(* ---- the source-text batch path ----------------------------------------- *)

module Engine = Xc_serve.Engine

let check_oracle tag syn texts got =
  check Alcotest.int (tag ^ ": answer count") (Array.length texts) (Array.length got);
  Array.iteri
    (fun i text ->
      check Alcotest.bool (Printf.sprintf "%s: query %d = oracle" tag i) true
        (bits_equal (Xcluster.Query.estimate_uncached syn (Xcluster.Query.parse text)) got.(i)))
    texts

let texts_ok tag = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" tag (Error.to_string e)

(* the daemon's text path, on strings: one slice per text, answers
   into a fresh buffer *)
let estimate_texts ?options engine syn texts =
  let into = Array.make (Array.length texts) 0.0 in
  Engine.estimate_texts_with ?options ~into engine syn (Xc_util.Slices.of_strings texts)
  |> Result.map (fun () -> into)

let test_texts_parse_error () =
  let syn = Lazy.force synopsis_a in
  let texts = Array.map fst (query_sources syn) in
  let engine = Xc_core.Plan.Batch.create syn in
  let bad = Array.copy texts in
  bad.(2) <- "//movie[";
  (match estimate_texts engine syn bad with
  | Error (Error.Query msg) ->
    check Alcotest.bool ("indexed message: " ^ msg) true
      (String.starts_with ~prefix:"query 2: " msg)
  | Error e -> Alcotest.failf "expected a query error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "unparsable batch answered");
  check_oracle "after the error" syn texts
    (texts_ok "good batch" (estimate_texts engine syn texts))

(* a generation swap evicts the registry's engine, and with it the text
   index and the last plan: the next batch is answered by the new
   generation *)
let test_texts_across_swap () =
  let g1 = Lazy.force synopsis_a and g2 = Lazy.force synopsis_a2 in
  let texts = Array.map fst (query_sources g1) in
  let reg = Registry.create () in
  ignore (Registry.swap reg ~name:"imdb" g1);
  let serve () =
    match Registry.engine reg "imdb" with
    | Ok (syn, eng) -> (syn, eng, texts_ok "batch" (estimate_texts eng syn texts))
    | Error e -> Alcotest.failf "engine: %s" (Error.to_string e)
  in
  let _, eng1, r1 = serve () in
  check_oracle "generation 1" g1 texts r1;
  let _, _, r1' = serve () in
  check_oracle "generation 1, warm" g1 texts r1';
  ignore (Registry.swap reg ~name:"imdb" g2);
  let syn, eng2, r2 = serve () in
  check Alcotest.bool "served from the new generation" true (syn == g2);
  check Alcotest.bool "fresh engine after the swap" true (eng2 != eng1);
  check_oracle "generation 2" g2 texts r2;
  check Alcotest.bool "the generations differ somewhere" true
    (Array.exists2 (fun a b -> not (bits_equal a b)) r1 r2)

(* Single Estimate frames go through the registry's engine, as batches
   do: every answer is bit-identical to the oracle on the served
   generation, a swap moves them to the new generation, and every frame
   after the first is an engine-LRU hit. *)
let test_single_frames () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path1 = Filename.concat dir "g1.syn" and path2 = Filename.concat dir "g2.syn" in
  save_exn path1 (Lazy.force synopsis_a);
  save_exn path2 (Lazy.force synopsis_a2);
  let g1 = load_exn path1 and g2 = load_exn path2 in
  let texts = Array.map fst (query_sources g1) in
  let oracle syn = Array.map (fun t -> Xc_core.Estimate.selectivity syn (Xcluster.Query.parse t)) texts in
  with_daemon [ ("imdb", path1) ] @@ fun endpoint ->
  let c = connect_exn endpoint in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let singles () =
    Array.map
      (fun query ->
        match Serve.Client.estimate c ~synopsis:"imdb" ~query with
        | Ok v -> v
        | Error e -> Alcotest.failf "estimate %S: %s" query (Error.to_string e))
      texts
  in
  let same tag expected got =
    Array.iteri
      (fun i v ->
        check Alcotest.bool (Printf.sprintf "%s: query %d" tag i) true (bits_equal v got.(i)))
      expected
  in
  let hits = counter "serve.engine_hit" and admits = counter "serve.engine_admit" in
  let r1 = singles () in
  same "generation 1 = Estimate.selectivity" (oracle g1) r1;
  check Alcotest.int "one engine admitted" (admits + 1) (counter "serve.engine_admit");
  check Alcotest.int "every later frame is an engine hit"
    (hits + Array.length texts - 1)
    (counter "serve.engine_hit");
  same "warm single frames" r1 (singles ());
  (match Serve.Client.estimate_batch c ~synopsis:"imdb" texts with
  | Ok r -> same "single frames = one batch" r1 r
  | Error e -> Alcotest.failf "batch: %s" (Error.to_string e));
  (match Serve.Client.update c ~synopsis:"imdb" ~path:path2 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "swap: %s" (Error.to_string e));
  let r2 = singles () in
  same "generation 2 = Estimate.selectivity" (oracle g2) r2;
  check Alcotest.bool "the generations differ somewhere" true
    (Array.exists2 (fun a b -> not (bits_equal a b)) r1 r2)

(* Strict and Degrade on the text path behave exactly as on the parsed
   path: a synopsis whose value-summary section is damaged (a lazy load
   defers that check to first use) answers structural batches, fails
   value predicates as Unavailable, counts the fallback only under
   Degrade, and still reports a bad text as a query error. *)
let test_texts_fallback_policies () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  let good = In_channel.with_open_bin path In_channel.input_all in
  (* section 12 (vsumm_blob) of the v3 directory: big-endian offset and
     length at entry + 8 / + 16 *)
  let entry = 24 + (12 * 32) in
  let get pos = Int64.to_int (String.get_int64_be good pos) in
  let off = get (entry + 8) and len = get (entry + 16) in
  check Alcotest.bool "value-summary section present" true (len > 0);
  let b = Bytes.of_string good in
  let i = off + (len / 2) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 8));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let syn =
    match Xc_core.Codec.load path with
    | Ok s -> s
    | Error e -> Alcotest.failf "lazy load: %s" (Xc_core.Codec.error_to_string e)
  in
  let structural = [| "//movie/title"; "//actor/name" |] in
  let valued = [| "//movie/title"; "//movie[year > 1990]" |] in
  let bad_text = [| "//movie[year > 1990]"; "//movie[" |] in
  let bad_text_msg =
    match Xc_twig.Twig_parse.parse_result bad_text.(1) with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail "fixture text parses"
  in
  let outcome = function
    | Ok _ -> "ok"
    | Error (Error.Query msg) -> "query:" ^ msg
    | Error (Error.Unavailable _) -> "unavailable"
    | Error e -> "other:" ^ Error.to_string e
  in
  List.iter
    (fun (policy, fallback) ->
      let options = Serve.options ~domains:1 ~fallback () in
      let run texts =
        let counted = counter "serve.batch_fallback" in
        let single = counter "serve.fallback" in
        let r =
          estimate_texts ~options (Xc_core.Plan.Batch.create syn) syn texts
        in
        (* a failed batch degrades once, as a whole: it never re-enters
           the per-query ladder and its own fallback counter *)
        check Alcotest.int (policy ^ ": no per-query fallback inside a batch") single
          (counter "serve.fallback");
        (r, counter "serve.batch_fallback" - counted)
      in
      let as_parsed tag texts r =
        let parsed = Serve.estimate_batch ~options syn (Array.map Xcluster.Query.parse texts) in
        check Alcotest.string (policy ^ " " ^ tag ^ ": text path = parsed path")
          (outcome parsed) (outcome r)
      in
      let r, fb = run structural in
      as_parsed "structural" structural r;
      check_oracle (policy ^ " structural") (Lazy.force synopsis_a) structural
        (texts_ok "structural" r);
      check Alcotest.int (policy ^ " structural: no fallback") 0 fb;
      let r, fb = run valued in
      as_parsed "valued" valued r;
      check Alcotest.string (policy ^ " valued") "unavailable" (outcome r);
      check Alcotest.int (policy ^ " valued: fallback counted under Degrade only")
        (if fallback = Serve.Degrade then 1 else 0) fb;
      let r, _ = run bad_text in
      check Alcotest.string (policy ^ " bad text wins over the engine failure")
        ("query:query 1: " ^ bad_text_msg) (outcome r);
      (* the daemon's single Estimate frames under the same policy: each
         answers as the one-text batch does, with the same fallback
         count *)
      with_daemon ~tune:(fun c -> { c with Serve.Daemon.options }) [ ("imdb", path) ]
      @@ fun endpoint ->
      let c = connect_exn endpoint in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      Array.iter
        (fun text ->
          let counted = counter "serve.batch_fallback" in
          let single =
            Result.map (fun v -> [| v |]) (Serve.Client.estimate c ~synopsis:"imdb" ~query:text)
          in
          let fb = counter "serve.batch_fallback" - counted in
          let batch, fb' = run [| text |] in
          let tag = Printf.sprintf "%s single frame %S" policy text in
          check Alcotest.string (tag ^ " = one-text batch") (outcome batch) (outcome single);
          check Alcotest.int (tag ^ ": fallback count") fb' fb;
          match (batch, single) with
          | Ok [| a |], Ok [| b |] -> check Alcotest.bool (tag ^ ": bitwise") true (bits_equal a b)
          | _ -> ())
        (Array.concat [ structural; valued; bad_text ]))
    [ ("degrade", Serve.Degrade); ("strict", Serve.Strict) ]

(* The daemon's whole warm estimate request — read_frame, the frame
   view, the registry's engine, the cohort sweep, the answers encoded
   into the write frame — against a live daemon on a thread of this
   domain, so this domain's counters include the daemon's allocations.
   The peer is raw: it sends a frame encoded into a warm buffer and
   reads the answer frame without decoding it, which "warm frames
   allocate no major words" shows allocates nothing. Major words are
   counted with [Gc.counters], as there. Minor words are read with
   [Gc.minor_words]: with the daemon on a second thread, [Gc.counters]
   reported ~70 minor words per warm trip where [Gc.minor_words] and
   the minor-collection rate over 2000 trips both showed ~550. Each
   answer is checked against the oracle after the measured trip. *)
let test_warm_requests_allocate_nothing () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  let syn = load_exn path in
  let base = Array.map fst (query_sources ~n_queries:400 syn) in
  let nb = Array.length base in
  (* [n] distinct texts: the workload's queries, then whitespace
     variants of them *)
  let texts n = Array.init n (fun i -> String.make (i / nb) ' ' ^ base.(i mod nb)) in
  let options = Serve.options ~domains:1 () in
  let tune c = { c with Serve.Daemon.options } in
  with_daemon ~tune ~same_domain:true [ ("imdb", path) ] @@ fun endpoint ->
  let fd = raw_connect endpoint in
  Fun.protect ~finally:(fun () -> raw_close fd) @@ fun () ->
  let w = Protocol.Frame.create () and r = Protocol.Frame.create () in
  let trip req =
    Protocol.encode_request_into w req;
    (match Protocol.send_frame fd w with
    | Ok () -> ()
    | Error e -> Alcotest.failf "send: %s" (Error.to_string e));
    match Protocol.read_frame ~site:"client.recv" r fd with
    | Ok true -> ()
    | Ok false -> Alcotest.fail "end of stream"
    | Error e -> Alcotest.failf "recv: %s" (Error.to_string e)
  in
  (* (minor words, major words) added by one warm trip, and its answers *)
  let counted req =
    for _ = 1 to 3 do
      trip req
    done;
    Gc.minor ();
    let _, _, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    trip req;
    let minor1 = Gc.minor_words () in
    let _, _, major1 = Gc.counters () in
    match Protocol.decode_response (Protocol.Frame.contents r) with
    | Ok (Protocol.Floats answers) -> (minor1 -. minor0, major1 -. major0, answers)
    | Ok _ -> Alcotest.fail "expected answers"
    | Error e -> Alcotest.failf "answer frame: %a" Error.pp_protocol e
  in
  let batch n =
    let texts = texts n in
    let minor, major, answers =
      counted (Protocol.Estimate_batch { synopsis = "imdb"; queries = texts; options })
    in
    check_oracle (Printf.sprintf "%d-query batch" n) syn texts answers;
    check (Alcotest.float 0.0) (Printf.sprintf "major words added by a warm %d-query batch" n)
      0.0 major;
    minor
  in
  let minor400 = batch 400 in
  let minor50 = batch 50 in
  let single_minor, single_major, single =
    counted (Protocol.Estimate { synopsis = "imdb"; query = base.(0) })
  in
  check_oracle "single estimate" syn [| base.(0) |] single;
  check (Alcotest.float 0.0) "major words added by a warm single estimate" 0.0 single_major;
  (* a request allocates a constant — timestamps, metric updates, the
     request's option record — never a word per query. The batch sizes
     differ in the one place a pass's metrics do: the sweep records at
     most 8 sampled cohort latencies, which costs a few dozen words
     each *)
  let slack = 256.0 in
  if minor400 > minor50 +. slack then
    Alcotest.failf "a warm 400-query batch allocated %.0f minor words, a 50-query one %.0f"
      minor400 minor50;
  check Alcotest.bool "a warm single estimate allocates no more than a batch" true
    (single_minor <= minor50 +. slack)

(* ---- carry-over reads ------------------------------------------------------

   [read_frame] asks each read() for all the room its buffer has, so it
   may read past a frame; those bytes stay in the buffer and start the
   next frame. *)

let read_calls () = counter "protocol.read_calls"

(* Any sequence of valid frames, concatenated and written in chunks of
   any size (a byte at a time up to all at once), reads back frame for
   frame, with nothing left over. The writer runs on its own thread and
   yields between chunks, so reads land mid-header and mid-payload. *)
let prop_chunked_stream =
  QCheck.Test.make ~name:"concatenated frames read back in any chunking" ~count:80
    (QCheck.make
       (G.triple (G.list_size (G.int_range 1 6) gen_request) (G.int_bound 3) G.int))
    (fun (reqs, mode, seed) ->
      let tx, rx = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close tx; Unix.close rx) @@ fun () ->
      let stream = String.concat "" (List.map Protocol.encode_request reqs) in
      let total = String.length stream in
      (* a byte at a time costs a syscall per byte: dribble only the
         first kilobytes of a long stream *)
      let max_chunk =
        match mode with 0 -> 1 | 1 -> 16 | 2 -> 4096 | _ -> total
      in
      let rng = Random.State.make [| seed |] in
      let writer =
        Thread.create
          (fun () ->
            let pos = ref 0 in
            while !pos < total do
              let cap = if !pos >= 4096 then max 4096 max_chunk else max_chunk in
              let n = min (total - !pos) (1 + Random.State.int rng cap) in
              let w = Unix.write_substring tx stream !pos n in
              pos := !pos + w;
              Thread.yield ()
            done)
          ()
      in
      let r = Protocol.Frame.create () in
      let back =
        List.map
          (fun _ ->
            match Protocol.read_frame ~site:"serve.recv" r rx with
            | Ok true -> Protocol.decode_request (Protocol.Frame.contents r)
            | Ok false -> Error Error.Closed
            | Error e -> Alcotest.failf "recv: %s" (Error.to_string e))
          reqs
      in
      Thread.join writer;
      back = List.map Result.ok reqs && Protocol.Frame.buffered r = 0)

(* A frame whole in the socket costs one read(); three written at once
   cost one between them. *)
let test_one_read_per_frame () =
  let p = buffer_pair () in
  Fun.protect ~finally:(fun () -> Unix.close p.tx; Unix.close p.rx) @@ fun () ->
  let point = Protocol.Estimate { synopsis = "imdb"; query = "//movie/title" } in
  let frame = Protocol.encode_request point in
  let read () =
    match Protocol.read_frame ~site:"serve.recv" p.r p.rx with
    | Ok true -> check Alcotest.bool "frame read back" true (Protocol.decode_request (Protocol.Frame.contents p.r) = Ok point)
    | Ok false -> Alcotest.fail "end of stream"
    | Error e -> Alcotest.failf "recv: %s" (Error.to_string e)
  in
  ignore (Unix.write_substring p.tx frame 0 (String.length frame));
  let c0 = read_calls () in
  read ();
  check Alcotest.int "one read for a whole frame" (c0 + 1) (read_calls ());
  let three = String.concat "" [ frame; frame; frame ] in
  ignore (Unix.write_substring p.tx three 0 (String.length three));
  let c0 = read_calls () in
  read ();
  check Alcotest.int "the rest carried over" (2 * String.length frame)
    (Protocol.Frame.buffered p.r);
  read ();
  read ();
  check Alcotest.int "one read for three whole frames" (c0 + 1) (read_calls ());
  check Alcotest.int "nothing left" 0 (Protocol.Frame.buffered p.r)

(* A carried partial header, then a hang-up: a typed truncation naming
   the missing header bytes; a carried partial payload likewise. *)
let test_carried_partial_then_hangup () =
  let frame = Protocol.encode_request Protocol.Ping in
  let batch =
    Protocol.encode_request
      (Protocol.Estimate_batch
         { synopsis = "x"; queries = [| "//a"; "//b" |]; options = Serve.default_options })
  in
  List.iter
    (fun (what, tail, need) ->
      let tx, rx = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close rx) @@ fun () ->
      let s = frame ^ tail in
      ignore (Unix.write_substring tx s 0 (String.length s));
      Unix.close tx;
      let r = Protocol.Frame.create () in
      (match Protocol.read_frame ~site:"serve.recv" r rx with
      | Ok true -> check Alcotest.int (what ^ ": carried") (String.length tail) (Protocol.Frame.buffered r)
      | _ -> Alcotest.failf "%s: the whole first frame did not read" what);
      match Protocol.read_frame ~site:"serve.recv" r rx with
      | Error (Error.Protocol (Truncated { need = n })) -> check Alcotest.int (what ^ ": missing bytes") need n
      | Error e -> Alcotest.failf "%s: expected a truncation, got %s" what (Error.to_string e)
      | Ok _ -> Alcotest.failf "%s: a truncated frame read" what)
    [ ("partial header", String.sub frame 0 5, Protocol.header_bytes - 5);
      ("partial payload", String.sub batch 0 30, String.length batch - 30) ]

(* Request frames written to a live daemon in one write are answered in
   order, each bit-identical to Estimate.selectivity; the answers,
   which may also arrive together, are read through one buffer. *)
let test_daemon_pipelined_frames () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  let syn = load_exn path in
  let qs = Array.sub (query_sources syn) 0 5 in
  with_daemon [ ("imdb", path) ] @@ fun endpoint ->
  let fd = raw_connect endpoint in
  Fun.protect ~finally:(fun () -> raw_close fd) @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let texts = Array.map fst qs in
  let reqs =
    Array.to_list (Array.map (fun query -> Protocol.Estimate { synopsis = "imdb"; query }) texts)
    @ [ Protocol.Estimate_batch { synopsis = "imdb"; queries = texts; options = Serve.default_options } ]
  in
  let burst = String.concat "" (List.map Protocol.encode_request reqs) in
  check Alcotest.int "one write" (String.length burst)
    (Unix.write_substring fd burst 0 (String.length burst));
  let r = Protocol.Frame.create () in
  let next () =
    match Protocol.recv_response ~into:r fd with
    | Ok (Protocol.Floats fs) -> fs
    | Ok _ -> Alcotest.fail "unexpected response kind"
    | Error e -> Alcotest.failf "recv: %s" (Error.to_string e)
  in
  Array.iteri (fun i text -> check_oracle (Printf.sprintf "frame %d" i) syn [| text |] (next ())) texts;
  check_oracle "batch frame" syn texts (next ())

(* A client whose connection died with bytes read past its last answer
   drops them on reconnect: the answer on the new connection is its
   own, not a stale frame's bytes. The peer answers its first request
   with the answer, a whole stale frame and the start of another, then
   hangs up; the client's next request fails on the dead socket and
   reconnects. *)
let test_client_drops_carry_on_reconnect () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "peer.sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> raw_close listener) @@ fun () ->
  Unix.bind listener (Unix.ADDR_UNIX sock);
  Unix.listen listener 4;
  let first_closed = Atomic.make false in
  let floats v = Protocol.encode_response (Protocol.Floats [| v |]) in
  let peer =
    Thread.create
      (fun () ->
        let serve reply =
          let fd, _ = Unix.accept listener in
          let r = Protocol.Frame.create () in
          (match Protocol.read_frame ~site:"serve.recv" r fd with
          | Ok true -> ignore (Unix.write_substring fd reply 0 (String.length reply))
          | _ -> ());
          raw_close fd
        in
        let stale = floats 777.0 in
        serve (floats 1.0 ^ floats 666.0 ^ String.sub stale 0 20);
        Atomic.set first_closed true;
        serve (floats 2.0))
      ()
  in
  let c = connect_exn (Protocol.Unix_sock sock) in
  let estimate () =
    match Serve.Client.estimate c ~synopsis:"imdb" ~query:"//movie" with
    | Ok v -> v
    | Error e -> Alcotest.failf "estimate: %s" (Error.to_string e)
  in
  check (Alcotest.float 0.0) "first answer" 1.0 (estimate ());
  while not (Atomic.get first_closed) do
    Thread.delay 0.001
  done;
  let reconnects = counter "client.reconnect" in
  check (Alcotest.float 0.0) "the new connection's answer" 2.0 (estimate ());
  check Alcotest.int "one reconnect" (reconnects + 1) (counter "client.reconnect");
  Serve.Client.close c;
  Thread.join peer

(* A peer that answers Estimate request "k" with the float k after
   [delay k] seconds, one thread per connection, until [stop]. A client
   whose receive timeout fires before the answer drops the connection;
   the late answer then lands on a closed socket, never in front of the
   next request's. *)
let with_scripted_peer ~delay f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "peer.sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> raw_close listener) @@ fun () ->
  Unix.bind listener (Unix.ADDR_UNIX sock);
  Unix.listen listener 8;
  let stop = Atomic.make false in
  let conns = ref [] in
  let serve fd =
    let r = Protocol.Frame.create () and w = Protocol.Frame.create () in
    let rec loop () =
      match Protocol.read_frame ~site:"serve.recv" r fd with
      | Ok true -> (
        match Protocol.decode_request (Protocol.Frame.contents r) with
        | Ok (Protocol.Estimate { query; _ }) ->
          let k = float_of_string query in
          Thread.delay (delay k);
          Protocol.encode_response_into w (Protocol.Floats [| k |]);
          (match Protocol.send_frame fd w with Ok () -> loop () | Error _ -> ())
        | Ok _ | Error _ -> ())
      | Ok false | Error _ -> ()
    in
    loop ();
    raw_close fd
  in
  let acceptor =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ listener ] [] [] 0.02 with
          | _ :: _, _, _ ->
            let fd, _ = Unix.accept listener in
            conns := Thread.create serve fd :: !conns
          | [], _, _ -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      List.iter Thread.join !conns)
    (fun () -> f (Protocol.Unix_sock sock))

let ask c k = Serve.Client.estimate c ~synopsis:"s" ~query:(string_of_int k)

let test_client_drops_after_timeout () =
  with_scripted_peer
    ~delay:(fun k -> if k = 1.0 then 0.8 else 0.0)
    (fun endpoint ->
      let c =
        match Serve.Client.connect ~timeout_s:0.2 endpoint with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" (Error.to_string e)
      in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match ask c 1 with
      | Error (Error.Timeout _) -> ()
      | Ok v -> Alcotest.failf "request 1 answered %g before its delay" v
      | Error e -> Alcotest.failf "request 1: %s" (Error.to_string e));
      let reconnects = counter "client.reconnect" in
      (* the peer answers request 1 while request 2 is out *)
      (match ask c 2 with
      | Ok v -> check (Alcotest.float 0.0) "request 2 gets its own answer" 2.0 v
      | Error e -> Alcotest.failf "request 2: %s" (Error.to_string e));
      check Alcotest.int "one reconnect" (reconnects + 1) (counter "client.reconnect");
      Thread.delay 0.7;
      match ask c 3 with
      | Ok v -> check (Alcotest.float 0.0) "request 3 after the late answer" 3.0 v
      | Error e -> Alcotest.failf "request 3: %s" (Error.to_string e))

let prop_no_stale_answers =
  (* any mix of prompt and late answers: every request gets its own
     float or a typed error, never an earlier request's float *)
  QCheck.Test.make ~name:"client answers are never another request's" ~count:10
    QCheck.(list_of_size (Gen.int_range 2 5) bool)
    (fun lates ->
      let lates = Array.of_list lates in
      with_scripted_peer
        ~delay:(fun k -> if lates.(int_of_float k) then 0.12 else 0.0)
        (fun endpoint ->
          match Serve.Client.connect ~timeout_s:0.05 endpoint with
          | Error e -> QCheck.Test.fail_reportf "connect: %s" (Error.to_string e)
          | Ok c ->
            Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
            Array.for_all Fun.id
              (Array.mapi
                 (fun k _ ->
                   match ask c k with
                   | Ok v when v = float_of_int k -> true
                   | Ok v -> QCheck.Test.fail_reportf "request %d answered %g" k v
                   | Error (Error.Timeout _ | Error.Io _ | Error.Protocol _) -> true
                   | Error e ->
                     QCheck.Test.fail_reportf "request %d: unexpected failure %s" k
                       (Error.to_string e))
                 lates)))

(* A warm point round trip makes one read() at each end: the daemon
   reads the request frame, the client the answer frame. The read
   counter is bumped after each read() returns, so a daemon blocked
   waiting for the next request has not counted that read yet. *)
let test_point_round_trip_reads () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "imdb.syn" in
  save_exn path (Lazy.force synopsis_a);
  let syn = load_exn path in
  let text = fst (query_sources syn).(0) in
  with_daemon [ ("imdb", path) ] @@ fun endpoint ->
  let c = connect_exn endpoint in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let estimate () =
    match Serve.Client.estimate c ~synopsis:"imdb" ~query:text with
    | Ok v -> v
    | Error e -> Alcotest.failf "estimate: %s" (Error.to_string e)
  in
  ignore (estimate ());
  let trips = 50 in
  let c0 = read_calls () in
  for _ = 1 to trips do
    ignore (estimate ())
  done;
  check Alcotest.int "one read per frame at each end" (2 * trips) (read_calls () - c0);
  check_oracle "the answer" syn [| text |] [| estimate () |]

(* ---- suite -------------------------------------------------------------- *)

let () =
  Alcotest.run ~and_exit:false "serve"
    [ ( "protocol",
        [ Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "truncation is total" `Quick test_truncation_total;
          Alcotest.test_case "forged CRC detected" `Quick test_forged_crc;
          Alcotest.test_case "golden frame CRCs" `Quick test_golden_frame_crcs;
          Alcotest.test_case "hostile length rejected" `Quick test_hostile_length;
          Alcotest.test_case "unknown tag rejected" `Quick test_bad_tag;
          Alcotest.test_case "endpoint parsing" `Quick test_endpoint_parsing;
          Alcotest.test_case "errors cross the wire" `Quick test_error_wire;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_request_view;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          Alcotest.test_case "reused read buffer: large frame, then small" `Quick
            test_reused_read_buffer;
          Alcotest.test_case "warm frames allocate no major words" `Quick
            test_warm_frames_allocate_nothing ] );
      ( "framing",
        [ QCheck_alcotest.to_alcotest prop_chunked_stream;
          Alcotest.test_case "one read per whole frame" `Quick test_one_read_per_frame;
          Alcotest.test_case "carried partial frame, then hang-up" `Quick
            test_carried_partial_then_hangup;
          Alcotest.test_case "daemon answers pipelined frames in order" `Quick
            test_daemon_pipelined_frames;
          Alcotest.test_case "reconnect drops stale bytes" `Quick
            test_client_drops_carry_on_reconnect;
          Alcotest.test_case "a timed-out answer never reaches the next request" `Quick
            test_client_drops_after_timeout;
          QCheck_alcotest.to_alcotest prop_no_stale_answers;
          Alcotest.test_case "warm point round trip: one read per end" `Quick
            test_point_round_trip_reads ] );
      ( "options",
        [ Alcotest.test_case "validation" `Quick test_options_validation ] );
      ("lru", [ Alcotest.test_case "exact LRU policy" `Quick test_lru_policy ]);
      ( "registry",
        [ Alcotest.test_case "corrupt artifact skipped and counted" `Quick
            test_registry_skip_and_count;
          Alcotest.test_case "engine admission is bounded LRU" `Quick
            test_registry_engine_lru ] );
      ( "daemon",
        [ Alcotest.test_case "concurrent clients, bitwise answers" `Quick
            test_daemon_concurrent_bitwise;
          Alcotest.test_case "typed error frames" `Quick test_daemon_error_frames;
          Alcotest.test_case "survives socket fault storm" `Quick
            test_daemon_survives_socket_storm ] );
      ( "hardening",
        [ Alcotest.test_case "ping answers health" `Quick test_ping_health;
          Alcotest.test_case "slow-loris peer evicted by deadline" `Quick
            test_slow_loris_evicted;
          Alcotest.test_case "overload sheds, with_retry recovers" `Quick
            test_overload_shed_and_retry;
          Alcotest.test_case "admission limits refuse, connection policy" `Quick
            test_admission_limits;
          Alcotest.test_case "graceful drain finishes in-flight work" `Quick
            test_graceful_drain;
          Alcotest.test_case "connect failures are typed" `Quick
            test_client_connect_errors ] );
      ( "version",
        [ Alcotest.test_case "other layouts refused on decode" `Quick test_version_decode;
          Alcotest.test_case "daemon refuses an old-layout frame" `Quick
            test_daemon_refuses_old_layout;
          Alcotest.test_case "client refuses a foreign-version response" `Quick
            test_client_refuses_foreign_version ] );
      ( "swap",
        [ Alcotest.test_case "registry generations" `Quick
            test_registry_swap_generations;
          Alcotest.test_case "daemon swap storm is atomic" `Quick
            test_daemon_swap_storm ] );
      ( "texts",
        [ Alcotest.test_case "parse error is indexed" `Quick test_texts_parse_error;
          Alcotest.test_case "answers follow a generation swap" `Quick
            test_texts_across_swap;
          Alcotest.test_case "single frames: oracle, swap, engine hits" `Quick
            test_single_frames;
          Alcotest.test_case "warm requests allocate no major words" `Quick
            test_warm_requests_allocate_nothing;
          Alcotest.test_case "Strict and Degrade as on parsed batches" `Quick
            test_texts_fallback_policies ] );
      ( "facade",
        [ Alcotest.test_case "submodule surface agrees bitwise" `Quick
            test_facade_agreement ] ) ]
