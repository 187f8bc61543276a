(** The one error type of the serving layer.

    Everything a daemon, a client, or the in-process serving facade can
    fail with — a corrupt synopsis artifact ({!Codec}), a damaged or
    hostile wire frame ({!Protocol}), a request for a synopsis the
    registry does not hold or will not admit ({!Admission}), an
    unparsable twig ({!Query}), an estimate neither the fast path nor
    the oracle could give ({!Unavailable}), or plain socket trouble ({!Io}) — is one
    constructor of {!t}, so callers match on a single variant instead
    of threading three error types through their plumbing.

    Errors cross the wire as [(code, message)] pairs ({!to_wire} /
    {!of_wire}); the category survives the trip exactly, the structured
    detail is folded into the message. *)

type protocol =
  | Truncated of { need : int }
      (** the peer closed or the frame ended where [need] more bytes
          were required *)
  | Bad_tag of int  (** an unknown frame or payload tag *)
  | Bad_length of { len : int; what : string }
      (** a length field is negative or beyond the frame bound *)
  | Checksum_mismatch of { stored : int; actual : int }
      (** the payload failed its CRC-32 *)
  | Closed  (** the connection closed where a response was expected *)
  | Bad_version of int
      (** the frame's first byte, which is not {!Protocol.version}: the
          peer speaks another frame layout (an older, unversioned peer
          sends its tag there) *)

type t =
  | Codec of Xc_core.Codec.error
      (** a synopsis artifact failed to load or verify *)
  | Protocol of protocol  (** the wire protocol was violated *)
  | Admission of string
      (** the registry does not hold (or will not admit) the synopsis *)
  | Query of string  (** the twig query failed to parse *)
  | Unavailable of string
      (** the fast path failed and the oracle it degrades to failed
          too — a lazily loaded synopsis whose deferred section
          verification fails at that access *)
  | Io of string  (** connect/send/recv failure *)
  | Timeout of { elapsed_ms : int }
      (** a read/write/request deadline was exceeded — the daemon
          answers this frame best-effort and evicts the connection; a
          client surfaces it when the daemon went quiet past its
          receive timeout *)
  | Overloaded of { retry_after_ms : int }
      (** admission control shed this connection or request: the
          daemon's bounded in-flight queue was full. Transient by
          construction — {!Client.with_retry} backs off at least
          [retry_after_ms] and tries again *)

val pp_protocol : Format.formatter -> protocol -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_wire : t -> int * string
(** The [(code, message)] encoding of an error frame. Codes are stable
    protocol constants: 1 codec, 2 protocol, 3 admission, 4 query,
    5 unavailable, 6 io, 7 timeout, 8 overloaded, 9 version (a
    {!Bad_version} protocol error, whose message starts with the
    refused byte in decimal). *)

val of_wire : int -> string -> t
(** Inverse of {!to_wire} up to structured detail: the category
    survives, nested payloads come back as their rendered message (a
    {!Codec} error resurfaces as [Codec (Io message)]). A remote
    {!Protocol} complaint — the peer judging {e our} bytes — comes back
    as {!Io}, since locally the framing was fine — except a version
    refusal, which comes back as [Protocol (Bad_version b)]: the peer
    does not speak this side's layout, which no retry can mend.
    {!Timeout}, {!Overloaded} and {!Bad_version} reconstruct their
    number from the message's leading decimal, so a client's backoff
    still honors the daemon's hint after the trip. Unknown codes map
    to {!Io}. *)
