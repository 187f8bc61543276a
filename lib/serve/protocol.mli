(** The daemon's length-prefixed binary wire protocol.

    Every message travels as one {b frame} reusing the framed-section
    discipline of the codec's v2 container — tag, length, checksum,
    payload:

    {v
      +-----+----------------+-------------+------------------+
      | tag |    length      |   CRC-32    |     payload      |
      | u8  |  u64 BE bytes  | u32 BE      |  [length] bytes  |
      +-----+----------------+-------------+------------------+
    v}

    The CRC-32 ({!Xc_util.Crc32}) covers the payload, so a flipped bit
    or truncated read is detected before any payload field is parsed.
    Decoding is {b total}: a hostile frame length is validated against
    {!max_payload} before the read buffer grows, payload-internal
    lengths against the frame bound before any allocation, and every
    way a frame can be wrong surfaces as an [Error] of
    {!Error.protocol}, never an exception.

    Frames are encoded into and read into reusable {!Frame} buffers;
    the string functions ({!encode_request}, {!decode_request}, …) are
    thin wrappers over the same codec.

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
          (** on the wire, four ints in this order: [domains] ([-1] for
              [None], else positive), [fallback] ([0] [Degrade], [1]
              [Strict]), [max_batch], [max_frame_bytes]. Frames carry
              no version field, so a peer still sending the older
              five-int layout (a sweep-order flag after [fallback]) is
              misread from the third int on. *)
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
      place, then fills in the header's tag, length and CRC; reading
      fills the header, then the payload, and decoding parses the
      bytes in place.

      Whoever creates a frame buffer owns it, and only one thread may
      use it at a time. The daemon's connection loop owns one read and
      one write buffer per connection; a {!Client.t} owns one of each
      for its socket. Once a connection's buffers have grown to its
      largest frame, a round trip allocates no frame-sized block at
      either end. *)

  val create : unit -> t

  val contents : t -> string
  (** A copy of the frame currently held. *)
end

(* ---- frame codec ------------------------------------------------------- *)

val encode_request_into : Frame.t -> request -> unit
(** Replace the buffer's contents with the encoded frame. *)

val encode_response_into : Frame.t -> response -> unit

val encode_request : request -> string
(** {!encode_request_into} a fresh buffer, copied out. *)

val encode_response : response -> string

val decode_request : string -> (request, Error.protocol) result
(** Decode one complete request frame, in place. Total. *)

val decode_response : string -> (response, Error.protocol) result

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
    header is read first and its length field checked against
    {!max_payload} and [limit] before the buffer grows; the payload
    then passes the read fault site [site] ({!Xc_util.Fault.mutate_sub}),
    so a damaged payload fails decoding, never the read. [deadline]
    bounds the whole frame, checked between partial reads at fault
    site [deadline_site]; expiry and [SO_RCVTIMEO]'s [EAGAIN] both
    surface as [Error (Timeout _)]. [limit], when below
    {!max_payload}, refuses larger frames with [Error (Admission _)];
    the stream is desynchronized after such a refusal, so the caller
    must close the connection. This is the framing half of
    {!recv_request} and {!recv_response}. *)

val recv_request :
  ?deadline:deadline ->
  ?limit:int ->
  ?into:Frame.t ->
  Unix.file_descr ->
  (request option, Error.t) result
(** {!read_frame} at site [serve.recv] (deadline site
    [serve.deadline]) into [into], then decode the request from it in
    place. [Ok None] is a clean end-of-stream at a frame boundary — the
    normal way a client hangs up. Without [into], a fresh buffer is
    used for this one frame. *)

val recv_response :
  ?deadline:deadline -> ?into:Frame.t -> Unix.file_descr -> (response, Error.t) result
(** {!read_frame} at site [client.recv] into [into], then decode the
    response; end-of-stream here is [Error (Protocol Closed)] — a
    response was owed. *)
