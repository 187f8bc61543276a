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
    Decoding is {b total}: hostile length fields are validated against
    {!max_payload} (and payload-internal lengths against the frame
    bound) before any allocation, and every way a frame can be wrong
    surfaces as an [Error] of {!Error.protocol}, never an exception.

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
    as hostile before allocation. *)

(* ---- frame codec (pure) ------------------------------------------------ *)

val encode_request : request -> string
val encode_response : response -> string

val decode_request : string -> (request, Error.protocol) result
(** Decode one complete request frame. Total. *)

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

val recv_request :
  ?deadline:deadline ->
  ?limit:int ->
  Unix.file_descr ->
  (request option, Error.t) result
(** Read one frame off the socket (site [serve.recv]) and decode it.
    [Ok None] is a clean end-of-stream at a frame boundary — the normal
    way a client hangs up. [deadline] bounds the whole frame (checked at
    fault site [serve.deadline]; expiry and [SO_RCVTIMEO]'s [EAGAIN]
    both surface as [Error (Timeout _)]). [limit], when below
    {!max_payload}, refuses larger frames with [Error (Admission _)]
    before the payload allocation; the stream is desynchronized after
    such a refusal, so the caller must close the connection. *)

val recv_response :
  ?deadline:deadline -> Unix.file_descr -> (response, Error.t) result
(** Read one response frame (site [client.recv]); end-of-stream here is
    [Error (Protocol Closed)] — a response was owed. [deadline] bounds
    the whole frame. *)
