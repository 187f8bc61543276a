(** The daemon's length-prefixed binary wire protocol.

    Every message travels as one {b frame} reusing the framed-section
    discipline of the codec's v2 container — version, tag, length,
    checksum, payload:

    {v
      +---------+-----+----------------+-------------+------------------+
      | version | tag |    length      |   CRC-32    |     payload      |
      |   u8    | u8  |  u64 BE bytes  | u32 BE      |  [length] bytes  |
      +---------+-----+----------------+-------------+------------------+
    v}

    The version byte is {!version}, outside the tag space, so a frame
    from a peer speaking the older unversioned layout (tag first) is
    refused from its first byte as [Bad_version], never misparsed. The
    CRC-32 ({!Xc_util.Crc32}) covers the payload, so a flipped bit or
    truncated read is detected before any payload field is parsed.
    Decoding is {b total}: a hostile frame length is validated against
    {!max_payload} before the read buffer grows, payload-internal
    lengths against the frame bound before any allocation, and every
    way a frame can be wrong surfaces as an [Error] of
    {!Error.protocol}, never an exception.

    Frames are encoded into and read into reusable {!Frame} buffers;
    the string functions ({!encode_request}, {!decode_request}, …) are
    thin wrappers over the same codec. The daemon reads estimate
    frames as views ({!view_request}): their query texts stay in the
    read buffer as {!Xc_util.Slices}, and answers are encoded straight
    from a float buffer ({!encode_floats_into}).

    Integers ride as 8-byte big-endian two's complement (rejected
    outside OCaml's 63-bit [int] range, so a sign-bit flip in a frame
    field cannot alias), floats as their IEEE-754 bit pattern — the
    estimates a client reads are {b bit-identical} to what the daemon
    computed.

    Socket reads pass through the [serve.recv] / [client.recv]
    {!Xc_util.Fault} injection sites, so the fault harness can storm
    the socket boundary exactly like it storms the persistence layer. *)

(* ---- endpoints --------------------------------------------------------- *)

type endpoint =
  | Unix_sock of string  (** a filesystem socket path *)
  | Tcp of string * int  (** host, port *)

val endpoint_of_string : string -> (endpoint, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path (taken as a Unix
    socket). *)

val endpoint_to_string : endpoint -> string

(* ---- messages ---------------------------------------------------------- *)

type request =
  | Estimate of { synopsis : string; query : string }
      (** one twig (source text) against the named synopsis *)
  | Estimate_batch of {
      synopsis : string;
      queries : string array;
      options : Options.t;
          (** not encoded, kept only so the benchmark compiles; a
              decoded frame carries {!Options.default}. The daemon's
              own {!Daemon.config} decides how a batch is served. A
              peer sending the older layout, with option ints between
              the synopsis and the query count, also sends an older
              version byte, so its frames are refused as
              [Bad_version]. *)
    }
  | List_synopses
  | Stats  (** the daemon's metrics snapshot as JSON *)
  | Update of { synopsis : string; path : string }
      (** swap the named synopsis to the repaired generation stored at
          [path] ({!Registry.swap_from}); answered with [Swapped] on
          success, and on a corrupt artifact with an error frame while
          the previous good generation keeps serving *)
  | Reload  (** re-scan every registered artifact *)
  | Shutdown  (** stop accepting; the daemon exits its loop cleanly *)
  | Ping
      (** readiness probe; answered with [Health], including (on an
          already-open connection) while the daemon is draining *)

type listed = {
  l_name : string;
  l_nodes : int;
  l_edges : int;
  l_bytes : int;  (** structural + value bytes *)
}

type health = {
  h_synopses : int;  (** names currently admitted in the registry *)
  h_generations : int;  (** sum of per-name generation counters *)
  h_queue : int;  (** connections parked in the pending queue *)
  h_inflight : int;  (** worker threads currently serving a connection *)
  h_uptime_s : float;
  h_draining : bool;  (** a graceful drain is in progress *)
}

type response =
  | Floats of float array
      (** estimates, positionally answering the request's queries *)
  | Synopses of listed array
  | Stats_json of string
  | Reloaded of { loaded : int; skipped : int }
  | Swapped of { generation : int }
      (** acknowledges [Update] with the name's new generation number *)
  | Done  (** acknowledges [Shutdown] *)
  | Health of health  (** acknowledges [Ping] *)
  | Error_frame of { code : int; message : string }
      (** see {!Error.to_wire} / {!Error.of_wire} *)

val version : int
(** The frame layout's version byte, [0xC2]: the first byte of every
    frame. Tags are at most [0x7F], so no unversioned frame starts with
    it. [0xC1] frames, whose [Estimate_batch] carried four option ints,
    are refused as [Bad_version]. *)

val header_bytes : int
(** Bytes before the payload: version, tag, length and CRC (14). *)

val max_payload : int
(** Upper bound on a frame payload; larger length fields are rejected
    as hostile before the read buffer grows. *)

(* ---- frame buffers ----------------------------------------------------- *)

module Frame : sig
  type t
  (** A growable frame buffer: bytes plus a visible length. It holds
      one whole frame, header and payload, and is reused from frame to
      frame; its capacity starts at 1 KiB and doubles when a frame
      needs more, and never shrinks. Encoding writes the payload in
      place, then fills in the header's tag, length and CRC; decoding
      parses the bytes in place.

      A {b read} buffer holds more: {!read_frame} asks each read() for
      all the room the buffer has, so it may read past its frame, and
      it keeps those bytes ({e carry-over}) as the start of the next
      frame it reads. A read buffer is therefore a connection's
      inbound stream state: never encode into it, and {!clear} it when
      the connection it reads from is closed or replaced.

      Whoever creates a frame buffer owns it, and only one thread may
      use it at a time. The daemon's connection loop owns one read and
      one write buffer per connection; a {!Client.t} owns one of each
      for its socket. Once a connection's buffers have grown to its
      largest frame, a round trip allocates no frame-sized block at
      either end. *)

  val create : unit -> t

  val contents : t -> string
  (** A copy of the frame currently held. *)

  val buffered : t -> int
  (** Bytes of the next frame already read into the buffer (its
      carry-over): a request in flight, though the socket may be empty. *)

  val clear : t -> unit
  (** Drop the frame and any carry-over. *)
end

(* ---- frame codec ------------------------------------------------------- *)

val encode_request_into : Frame.t -> request -> unit
(** Replace the buffer's contents with the encoded frame. *)

val encode_response_into : Frame.t -> response -> unit

val encode_floats_into : Frame.t -> float array -> int -> unit
(** [encode_floats_into f fs n] is [encode_response_into f (Floats
    (Array.sub fs 0 n))] without the copy: the daemon encodes answers
    straight from its reusable answer buffer.
    @raise Invalid_argument unless [0 <= n <= Array.length fs]. *)

val encode_request : request -> string
(** {!encode_request_into} a fresh buffer, copied out. *)

val encode_response : response -> string

val decode_request : string -> (request, Error.protocol) result
(** Decode one complete request frame, in place. Total. *)

val decode_response : string -> (response, Error.protocol) result

(** A request as the daemon reads it: estimate frames as views. *)
type incoming =
  | Estimates of { synopsis : string }
      (** an [Estimate] or [Estimate_batch] frame, its query texts left
          in the read buffer as the slices {!view_request} filled (one
          for an [Estimate]) *)
  | Request of request
      (** any other request, decoded; never an [Estimate] or
          [Estimate_batch] *)

val view_request : Frame.t -> Xc_util.Slices.t -> (incoming, Error.protocol) result
(** Decode the request frame the buffer holds, in place, with the same
    checks as {!decode_request} (version, length bound, CRC, every
    field bound). An estimate frame's query texts are not copied: the
    slice set is reset onto the buffer and gets one slice per text, in
    order, valid until the buffer is next written. Once the slice set
    has grown to a connection's largest batch, this allocates nothing
    that grows with the batch. Total. *)

(* ---- deadlines --------------------------------------------------------- *)

type deadline
(** An absolute wall-clock budget for one frame or one whole request.
    [SO_RCVTIMEO] alone cannot stop a slow-loris peer — every dribbled
    byte resets the socket timer — so the read loop also checks the
    deadline between partial reads: the socket timer bounds {e silence},
    the deadline bounds the {e total}. *)

val deadline_after : float -> deadline
(** [deadline_after budget_s] starts a budget of [budget_s] seconds
    from now. *)

val deadline_expired : ?site:string -> deadline -> bool
(** Whether the budget ran out. [site], when given, is a {!Xc_util.Fault}
    injection point ([serve.deadline]) that forces an expiry when an
    [eio]/[enospc] fault fires — the chaos harness triggers timeout
    handling without waiting out a real budget. *)

val deadline_elapsed_ms : deadline -> int
(** Milliseconds since the budget started (for {!Error.Timeout}). *)

(* ---- socket transport -------------------------------------------------- *)

val send : ?site:string -> Unix.file_descr -> string -> (unit, Error.t) result
(** Write a whole encoded frame. Never raises ([EPIPE] and friends
    become [Error (Io _)]). A write blocked past [SO_SNDTIMEO] becomes
    [Error (Timeout _)] — the peer stopped draining its socket. [site],
    when given, is a write-path fault injection point ([serve.send]). *)

val send_frame : ?site:string -> Unix.file_descr -> Frame.t -> (unit, Error.t) result
(** {!send} for the frame a buffer holds, written straight from it. *)

val read_frame :
  site:string ->
  ?deadline:deadline ->
  ?deadline_site:string ->
  ?limit:int ->
  Frame.t ->
  Unix.file_descr ->
  (bool, Error.t) result
(** Read one frame off the socket into the buffer, replacing its
    contents, without decoding it: [Ok true] when a frame arrived,
    [Ok false] on a clean end-of-stream at a frame boundary. The
    buffer's carry-over ({!Frame.buffered}) is the frame's first
    bytes; each read() then asks for all the room the buffer has, so
    a frame already whole in the socket costs one call, and bytes read
    past the frame stay in the buffer as the next frame's carry-over
    (after an error, none do). The version byte is checked as soon as
    there is one — a wrong one is [Error (Protocol (Bad_version b))]
    at once, even when the peer's whole frame is shorter than
    {!header_bytes} — and the length field is checked against
    {!max_payload} and [limit] before the buffer grows; after a
    refusal of either kind the stream cannot resynchronize, so the
    caller must close the connection. The payload
    then passes the read fault site [site] ({!Xc_util.Fault.mutate_sub}),
    so a damaged payload fails decoding, never the read. [deadline]
    bounds the whole frame, checked between partial reads at fault
    site [deadline_site]; expiry and [SO_RCVTIMEO]'s [EAGAIN] both
    surface as [Error (Timeout _)]. [limit], when below
    {!max_payload}, refuses larger frames with [Error (Admission _)];
    the stream is desynchronized after such a refusal, so the caller
    must close the connection. This is the framing half of
    {!recv_view} and {!recv_response}. *)

val recv_view :
  ?deadline:deadline ->
  ?limit:int ->
  into:Frame.t ->
  texts:Xc_util.Slices.t ->
  Unix.file_descr ->
  (incoming option, Error.t) result
(** The daemon's read path: {!read_frame} at site [serve.recv]
    (deadline site [serve.deadline]) into [into], then {!view_request}
    on it with [texts]. [Ok None] is a clean end-of-stream at a frame
    boundary — the normal way a client hangs up. *)

val recv_response :
  ?deadline:deadline -> ?into:Frame.t -> Unix.file_descr -> (response, Error.t) result
(** {!read_frame} at site [client.recv] into [into], then decode the
    response; end-of-stream here is [Error (Protocol Closed)] — a
    response was owed. Without [into], a fresh buffer is read into and
    any carry-over is dropped with it. *)
