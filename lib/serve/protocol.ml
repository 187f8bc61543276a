module Crc32 = Xc_util.Crc32
module Fault = Xc_util.Fault
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters
module Slices = Xc_util.Slices

(* ---- endpoints --------------------------------------------------------- *)

type endpoint = Unix_sock of string | Tcp of string * int

let endpoint_of_string s =
  let tcp rest =
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp endpoint %S needs HOST:PORT" s)
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad port in tcp endpoint %S" s))
  in
  if String.length s = 0 then Error "empty endpoint"
  else if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else if String.length s > 4 && String.sub s 0 4 = "tcp:" then
    tcp (String.sub s 4 (String.length s - 4))
  else Ok (Unix_sock s)

let endpoint_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* ---- messages ---------------------------------------------------------- *)

type request =
  | Estimate of { synopsis : string; query : string }
  | Estimate_batch of {
      synopsis : string;
      queries : string array;
      options : Options.t;
    }
  | List_synopses
  | Stats
  | Update of { synopsis : string; path : string }
  | Reload
  | Shutdown
  | Ping

type listed = { l_name : string; l_nodes : int; l_edges : int; l_bytes : int }

type health = {
  h_synopses : int;
  h_generations : int;
  h_queue : int;
  h_inflight : int;
  h_uptime_s : float;
  h_draining : bool;
}

type response =
  | Floats of float array
  | Synopses of listed array
  | Stats_json of string
  | Reloaded of { loaded : int; skipped : int }
  | Swapped of { generation : int }
  | Done
  | Health of health
  | Error_frame of { code : int; message : string }

(* frame tags; requests and responses share one byte-space so a frame
   arriving on the wrong side of the connection is a Bad_tag, not a
   misparse *)
let tag_estimate = 0x01
let tag_estimate_batch = 0x02
let tag_list = 0x03
let tag_stats = 0x04
let tag_reload = 0x05
let tag_shutdown = 0x06
let tag_update = 0x07
let tag_ping = 0x08
let tag_floats = 0x41
let tag_synopses = 0x42
let tag_stats_json = 0x43
let tag_reloaded = 0x44
let tag_done = 0x45
let tag_swapped = 0x46
let tag_health = 0x47
let tag_error = 0x7F

(* The first header byte. It lies outside the tag space (tags are at
   most 0x7F), so a frame in the older, unversioned layout — whose
   first byte is its tag — can never pass for this one. *)
let version = 0xC2

let max_payload = 1 lsl 26 (* 64 MiB *)
let header_bytes = 14 (* version u8 + tag u8 + length u64 + crc u32 *)

(* ---- frame buffers -----------------------------------------------------
   One frame, header and payload, in bytes its owner reuses from frame
   to frame. [len] is the visible length. A read buffer may also hold
   the start of the next frame: the [carry] bytes at [carry_pos], read
   past the frame in the same read() call. Every other byte is stale.
   The capacity starts at [initial_capacity] and doubles, so a
   connection that keeps sending frames of one size stops allocating
   after its first. *)

module Frame = struct
  type t = {
    mutable bytes : Bytes.t;
    mutable len : int;
    mutable carry_pos : int;
    mutable carry : int;
  }

  let initial_capacity = 1024
  let create () = { bytes = Bytes.create initial_capacity; len = 0; carry_pos = 0; carry = 0 }
  let contents f = Bytes.sub_string f.bytes 0 f.len
  let buffered f = f.carry

  let clear f =
    f.len <- 0;
    f.carry <- 0

  (* room for [n] bytes in all, keeping the first [keep] *)
  let reserve ?keep f n =
    if n > Bytes.length f.bytes then begin
      let cap = ref (Bytes.length f.bytes) in
      while !cap < n do
        cap := 2 * !cap
      done;
      let b = Bytes.create !cap in
      Bytes.blit f.bytes 0 b 0 (Option.value keep ~default:f.len);
      f.bytes <- b
    end
end

(* ---- primitive writers ------------------------------------------------- *)

let[@inline] put_int64 (f : Frame.t) v =
  Frame.reserve f (f.len + 8);
  Bytes.set_int64_be f.bytes f.len v;
  f.len <- f.len + 8

let[@inline] put_int f n = put_int64 f (Int64.of_int n)
let[@inline] put_float f x = put_int64 f (Int64.bits_of_float x)

let put_string (f : Frame.t) s =
  let n = String.length s in
  put_int f n;
  Frame.reserve f (f.len + n);
  Bytes.blit_string s 0 f.bytes f.len n;
  f.len <- f.len + n

(* Encode one frame into [f]: reserve the header, let [payload] write
   the payload in place and return the tag, then fill in the version,
   the tag, the length and the CRC. *)
let encode_into (f : Frame.t) payload =
  f.len <- header_bytes;
  let tag = payload f in
  let n = f.len - header_bytes in
  Bytes.set_uint8 f.bytes 0 version;
  Bytes.set_uint8 f.bytes 1 tag;
  Bytes.set_int64_be f.bytes 2 (Int64.of_int n);
  Bytes.set_int32_be f.bytes 10
    (Int32.of_int (Crc32.sub (Bytes.unsafe_to_string f.bytes) ~pos:header_bytes ~len:n))

(* ---- bounded reader ----------------------------------------------------
   The same discipline as Codec's: every read checks the frame bound,
   every count is validated against the remaining bytes before any
   allocation, and all failures are the typed Error.protocol. The
   reader only looks at [src], so it reads a frame buffer in place and
   a string without a copy. *)

exception Proto of Error.protocol

type reader = { src : Bytes.t; mutable pos : int; limit : int }

let remaining r = r.limit - r.pos

let get_int r =
  if r.pos + 8 > r.limit then raise (Proto (Truncated { need = r.pos + 8 - r.limit }));
  let v64 = Bytes.get_int64_be r.src r.pos in
  let v = Int64.to_int v64 in
  (* a sign-bit flip must not alias into a small int (cf. Codec) *)
  if Int64.of_int v <> v64 then
    raise (Proto (Bad_length { len = Int64.to_int v64; what = "integer field" }));
  r.pos <- r.pos + 8;
  v

let get_float r =
  if r.pos + 8 > r.limit then raise (Proto (Truncated { need = r.pos + 8 - r.limit }));
  let v = Int64.float_of_bits (Bytes.get_int64_be r.src r.pos) in
  r.pos <- r.pos + 8;
  v

(* a string's length field, checked against the bytes left; the
   string itself starts at [r.pos] *)
let get_string_length r =
  let n = get_int r in
  if n < 0 || n > remaining r then raise (Proto (Bad_length { len = n; what = "string length" }));
  n

let get_string r =
  let n = get_string_length r in
  let s = Bytes.sub_string r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* the next string as a slice of the frame, nothing copied *)
let get_slice r texts =
  let n = get_string_length r in
  Slices.add texts r.pos n;
  r.pos <- r.pos + n

let get_count r ~elt_min ~what =
  let n = get_int r in
  if n < 0 || n > remaining r / max 1 elt_min then
    raise (Proto (Bad_length { len = n; what }));
  n

(* ---- payload codecs ---------------------------------------------------- *)

let encode_request_into f req =
  encode_into f @@ fun buf ->
    match req with
    | Estimate { synopsis; query } ->
      put_string buf synopsis;
      put_string buf query;
      tag_estimate
    | Estimate_batch { synopsis; queries; options = _ } ->
      put_string buf synopsis;
      put_int buf (Array.length queries);
      Array.iter (put_string buf) queries;
      tag_estimate_batch
    | Update { synopsis; path } ->
      put_string buf synopsis;
      put_string buf path;
      tag_update
    | List_synopses -> tag_list
    | Stats -> tag_stats
    | Reload -> tag_reload
    | Shutdown -> tag_shutdown
    | Ping -> tag_ping

let put_floats (f : Frame.t) fs n =
  put_int f n;
  Frame.reserve f (f.len + (8 * n));
  for i = 0 to n - 1 do
    Bytes.set_int64_be f.bytes f.len (Int64.bits_of_float (Array.unsafe_get fs i));
    f.len <- f.len + 8
  done

let encode_floats_into f fs n =
  if n < 0 || n > Array.length fs then invalid_arg "Protocol.encode_floats_into";
  encode_into f @@ fun buf ->
    put_floats buf fs n;
    tag_floats

let encode_response_into f resp =
  encode_into f @@ fun buf ->
    match resp with
    | Floats fs ->
      put_floats buf fs (Array.length fs);
      tag_floats
    | Synopses ls ->
      put_int buf (Array.length ls);
      Array.iter
        (fun l ->
          put_string buf l.l_name;
          put_int buf l.l_nodes;
          put_int buf l.l_edges;
          put_int buf l.l_bytes)
        ls;
      tag_synopses
    | Stats_json json ->
      put_string buf json;
      tag_stats_json
    | Reloaded { loaded; skipped } ->
      put_int buf loaded;
      put_int buf skipped;
      tag_reloaded
    | Swapped { generation } ->
      put_int buf generation;
      tag_swapped
    | Done -> tag_done
    | Health h ->
      put_int buf h.h_synopses;
      put_int buf h.h_generations;
      put_int buf h.h_queue;
      put_int buf h.h_inflight;
      put_float buf h.h_uptime_s;
      put_int buf (if h.h_draining then 1 else 0);
      tag_health
    | Error_frame { code; message } ->
      put_int buf code;
      put_string buf message;
      tag_error

let encode_request req =
  let f = Frame.create () in
  encode_request_into f req;
  Frame.contents f

let encode_response resp =
  let f = Frame.create () in
  encode_response_into f resp;
  Frame.contents f

(* The header's version byte, checked before anything else in the
   header is trusted. *)
let check_version src =
  let v = Bytes.get_uint8 src 0 in
  if v <> version then Error (Error.Bad_version v) else Ok ()

(* The header's length field, validated against {!max_payload} before
   anything is read or allocated for the payload. *)
let declared_length src =
  let len64 = Bytes.get_int64_be src 2 in
  let len = Int64.to_int len64 in
  if Int64.of_int len <> len64 || len < 0 || len > max_payload then
    Error (Error.Bad_length { len; what = "frame payload length" })
  else Ok len

(* Split the [n]-byte frame at the start of [src] into (tag, payload
   reader), checking the framing: version, length bound, truncation,
   CRC. *)
let open_frame src n =
  if n >= 1 then (match check_version src with Ok () -> () | Error e -> raise (Proto e));
  if n < header_bytes then raise (Proto (Truncated { need = header_bytes - n }));
  let len = match declared_length src with Ok len -> len | Error e -> raise (Proto e) in
  if header_bytes + len > n then
    raise (Proto (Truncated { need = header_bytes + len - n }));
  let stored = Int32.to_int (Bytes.get_int32_be src 10) land 0xFFFFFFFF in
  let actual = Crc32.sub (Bytes.unsafe_to_string src) ~pos:header_bytes ~len in
  if stored <> actual then raise (Proto (Checksum_mismatch { stored; actual }));
  (Bytes.get_uint8 src 1, { src; pos = header_bytes; limit = header_bytes + len })

(* every request but the two estimate frames, which [parse_incoming]
   reads *)
let parse_control tag r =
  if tag = tag_update then begin
    let synopsis = get_string r in
    let path = get_string r in
    Update { synopsis; path }
  end
  else if tag = tag_list then List_synopses
  else if tag = tag_stats then Stats
  else if tag = tag_reload then Reload
  else if tag = tag_shutdown then Shutdown
  else if tag = tag_ping then Ping
  else raise (Proto (Bad_tag tag))

type incoming =
  | Estimates of { synopsis : string }
  | Request of request

(* The one reader of the estimate frame layout: the query texts become
   slices of the frame, nothing copied. *)
let parse_incoming texts (tag, r) =
  Slices.reset texts r.src;
  if tag = tag_estimate then begin
    let synopsis = get_string r in
    get_slice r texts;
    Estimates { synopsis }
  end
  else if tag = tag_estimate_batch then begin
    let synopsis = get_string r in
    let n = get_count r ~elt_min:8 ~what:"query count" in
    for _ = 1 to n do
      get_slice r texts
    done;
    Estimates { synopsis }
  end
  else Request (parse_control tag r)

(* a request decoded whole: an estimate frame's slices copied out *)
let parse_request ((tag, _) as frame) =
  let texts = Slices.create () in
  match parse_incoming texts frame with
  | Request req -> req
  | Estimates { synopsis } when tag = tag_estimate ->
    Estimate { synopsis; query = Slices.to_string texts 0 }
  | Estimates { synopsis } ->
    Estimate_batch
      {
        synopsis;
        queries = Array.init (Slices.length texts) (Slices.to_string texts);
        options = Options.default;
      }

let parse_response (tag, r) =
  if tag = tag_floats then
    let n = get_count r ~elt_min:8 ~what:"float count" in
    Floats (Array.init n (fun _ -> get_float r))
  else if tag = tag_synopses then
    let n = get_count r ~elt_min:32 ~what:"synopsis count" in
    Synopses
      (Array.init n (fun _ ->
           let l_name = get_string r in
           let l_nodes = get_int r in
           let l_edges = get_int r in
           let l_bytes = get_int r in
           { l_name; l_nodes; l_edges; l_bytes }))
  else if tag = tag_stats_json then Stats_json (get_string r)
  else if tag = tag_reloaded then begin
    let loaded = get_int r in
    let skipped = get_int r in
    Reloaded { loaded; skipped }
  end
  else if tag = tag_swapped then Swapped { generation = get_int r }
  else if tag = tag_done then Done
  else if tag = tag_health then begin
    let h_synopses = get_int r in
    let h_generations = get_int r in
    let h_queue = get_int r in
    let h_inflight = get_int r in
    let h_uptime_s = get_float r in
    let h_draining =
      match get_int r with
      | 0 -> false
      | 1 -> true
      | d -> raise (Proto (Bad_length { len = d; what = "draining field" }))
    in
    Health { h_synopses; h_generations; h_queue; h_inflight; h_uptime_s; h_draining }
  end
  else if tag = tag_error then begin
    let code = get_int r in
    let message = get_string r in
    Error_frame { code; message }
  end
  else raise (Proto (Bad_tag tag))

(* Total-decoding boundary: any stray exception out of parsing is
   normalized to a typed error, exactly like Codec's guard. *)
let decode parse src n =
  match parse (open_frame src n) with
  | v -> Ok v
  | exception Proto e -> Error e
  | exception _ -> Error (Error.Bad_tag (-1))

(* the reader never writes to [src], so a string is read in place *)
let decode_request s = decode parse_request (Bytes.unsafe_of_string s) (String.length s)
let decode_response s = decode parse_response (Bytes.unsafe_of_string s) (String.length s)

let view_request (f : Frame.t) texts = decode (parse_incoming texts) f.bytes f.len

(* ---- deadlines ---------------------------------------------------------

   A deadline is an absolute wall-clock budget for one frame (or one
   whole request). SO_RCVTIMEO alone cannot stop a slow-loris peer —
   every byte it dribbles in resets the socket timer — so the read loop
   also checks the deadline between partial reads: the per-read timer
   bounds silence, the deadline bounds the total. The [serve.deadline]
   fault site lets the chaos harness force an expiry deterministically
   without actually waiting out a budget. *)

type deadline = { started : float; expires : float }

let deadline_after budget_s =
  let now = Unix.gettimeofday () in
  { started = now; expires = now +. budget_s }

let deadline_expired ?site d =
  let forced =
    match site with
    | None -> false
    | Some site -> (
      match Fault.raise_io ~site with
      | () -> false
      | exception Fault.Injected _ -> true)
  in
  forced || Unix.gettimeofday () > d.expires

let deadline_elapsed_ms d =
  int_of_float (Float.max 0. (Unix.gettimeofday () -. d.started) *. 1000.)

let timeout_error = function
  | Some d -> Error.Timeout { elapsed_ms = deadline_elapsed_ms d }
  | None -> Error.Timeout { elapsed_ms = 0 }

(* ---- socket transport -------------------------------------------------- *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = try Unix.write fd b pos len with Unix.Unix_error (EINTR, _, _) -> 0 in
    write_all fd b (pos + n) (len - n)
  end

(* [site], when given, is a Fault injection point for the write path
   ([serve.send]); an injected Enospc/Eio becomes a typed Io error
   exactly as a real one would. A blocked write past SO_SNDTIMEO
   surfaces as EAGAIN and becomes {!Error.Timeout} — the peer stopped
   draining its socket. *)
let send_bytes ?site fd b len =
  let inject () = match site with None -> () | Some site -> Fault.raise_io ~site in
  match
    inject ();
    write_all fd b 0 len
  with
  | () -> Ok ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
    Error (Error.Timeout { elapsed_ms = 0 })
  | exception Unix.Unix_error (e, _, _) ->
    Error (Error.Io (Printf.sprintf "send: %s" (Unix.error_message e)))
  | exception Fault.Injected { site; kind } ->
    Error (Error.Io (Printf.sprintf "send: injected %s at %s" (Fault.kind_name kind) site))

(* [write_all] only reads the bytes it is given *)
let send ?site fd s = send_bytes ?site fd (Bytes.unsafe_of_string s) (String.length s)
let send_frame ?site fd (f : Frame.t) = send_bytes ?site fd f.bytes f.len

(* one read() call, counted whether it returns or raises *)
let read_counted fd b off len =
  match Unix.read fd b off len with
  | n ->
    Metrics.incr Meters.Protocol.read_calls;
    n
  | exception e ->
    Metrics.incr Meters.Protocol.read_calls;
    raise e

(* Read into [f.bytes] from [have] until at least [need] bytes are
   held, asking each read() for all the room the buffer has, so bytes
   already waiting past [need] arrive in the same call. [`Ok k] reports
   how many bytes the buffer holds, [`Eof k] how many it held when the
   stream ended. [`Timeout] fires when the per-read SO_RCVTIMEO timer
   expires (EAGAIN) or the frame deadline passes between partial
   reads. *)
let fill ?deadline ?deadline_site fd (f : Frame.t) have ~need =
  let expired () =
    match deadline with
    | None -> false
    | Some d -> deadline_expired ?site:deadline_site d
  in
  let rec go have =
    if have >= need then `Ok have
    else if expired () then `Timeout
    else begin
      match read_counted fd f.bytes have (Bytes.length f.bytes - have) with
      | 0 -> `Eof have
      | n -> go (have + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go have
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> `Timeout
    end
  in
  go have

let recv_io e = Error (Error.Io (Printf.sprintf "recv: %s" (Unix.error_message e)))

(* Read one frame into [f]. The bytes a previous read carried past its
   frame move to the front and count first; then each read() fills as
   much of the buffer as the socket has ready, so a frame already whole
   in the socket costs one call. The version byte is checked as soon as
   there is one, and the length field as soon as the header is whole —
   against {!max_payload}, then against [limit] — before the buffer
   grows. The payload then passes through the Fault injection site, so
   the harness can truncate or flip bits at the socket boundary. A
   damaged payload fails the CRC or the bounded reader — never crashes
   the process. Bytes read past the frame stay in [f] as the next
   frame's start; after an error none do.

   [limit], when below {!max_payload}, is an admission bound: a frame
   declaring a larger payload is refused with {!Error.Admission}
   {e before} the buffer grows. The refusal is permanent (the same
   frame can never succeed) and desynchronizes the stream, so callers
   close the connection after answering. *)
let read_frame ~site ?deadline ?deadline_site ?(limit = max_payload) (f : Frame.t) fd =
  let carried = f.carry in
  if carried > 0 && f.carry_pos > 0 then Bytes.blit f.bytes f.carry_pos f.bytes 0 carried;
  Frame.clear f;
  let fill = fill ?deadline ?deadline_site fd f in
  let frame () =
    (* the version byte is checked as soon as it arrives, so a peer
       speaking another layout is refused at once, even one whose whole
       frame is shorter than the header *)
    match fill carried ~need:1 with
    | `Eof _ -> `End
    | `Timeout -> `Timeout
    | `Ok have -> (
      match check_version f.bytes with
      | Error p -> `Refused (Error.Protocol p)
      | Ok () -> (
        match fill have ~need:header_bytes with
        | `Eof have -> `Truncated (header_bytes - have)
        | `Timeout -> `Timeout
        | `Ok have -> (
          match declared_length f.bytes with
          | Error p -> `Refused (Error.Protocol p)
          | Ok len when len > limit ->
            `Refused
              (Error.Admission
                 (Printf.sprintf "frame payload of %d bytes exceeds the %d-byte limit" len limit))
          | Ok len -> (
            let total = header_bytes + len in
            Frame.reserve ~keep:have f total;
            match fill have ~need:total with
            | `Eof have -> `Truncated (total - have)
            | `Timeout -> `Timeout
            | `Ok have -> `Frame (len, have)))))
  in
  match frame () with
  | exception Unix.Unix_error (e, _, _) -> recv_io e
  | `End -> Ok false
  | `Timeout -> Error (timeout_error deadline)
  | `Refused e -> Error e
  | `Truncated need -> Error (Error.Protocol (Truncated { need }))
  | `Frame (len, have) ->
    let total = header_bytes + len in
    f.carry_pos <- total;
    f.carry <- have - total;
    f.len <- header_bytes + Fault.mutate_sub ~site f.bytes ~pos:header_bytes ~len;
    Ok true

let recv_view ?deadline ?limit ~into ~texts fd =
  match read_frame ~site:"serve.recv" ?deadline ~deadline_site:"serve.deadline" ?limit into fd with
  | Error _ as e -> e
  | Ok false -> Ok None
  | Ok true -> (
    match view_request into texts with
    | Ok req -> Ok (Some req)
    | Error p -> Error (Error.Protocol p))

let recv_response ?deadline ?(into = Frame.create ()) fd =
  match read_frame ~site:"client.recv" ?deadline into fd with
  | Error _ as e -> e
  | Ok false -> Error (Error.Protocol Closed)
  | Ok true -> (
    match decode parse_response into.bytes into.len with
    | Ok resp -> Ok resp
    | Error p -> Error (Error.Protocol p))
