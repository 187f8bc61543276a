(** Client for the estimation daemon.

    Result-first: every call returns [(_, Error.t) result] — connection
    trouble, protocol damage, and server-side error frames all arrive
    through the same {!Error.t} the rest of the serving layer uses.
    A client is one socket and two frame buffers ({!Protocol.Frame}),
    one it encodes requests into and one it reads responses into; calls
    on it are request/response in order (the daemon answers frames in
    order). A client and its buffers belong to one thread: calls on one
    client must never overlap.

    {b Liveness.} [connect ~timeout_s] bounds the connection attempt
    (non-blocking connect + select) and installs the same budget as the
    socket's [SO_RCVTIMEO]/[SO_SNDTIMEO], plus a whole-response
    deadline on every receive — a daemon that goes quiet surfaces as
    {!Error.Timeout} instead of a hang. Name resolution failure is a
    typed {!Error.Io}, never a silent fallback address.

    {b Recovery.} A request whose {e write} fails because the daemon
    already answered and closed — a shed connection's
    {!Error.Overloaded} frame, an evicted peer's {!Error.Timeout} frame
    — surfaces the daemon's frame rather than the write's symptom.
    Idempotent requests (everything except {!update} and
    {!shutdown}) transparently reconnect once when the connection turns
    out dead — the daemon evicts idle peers and closes keep-alive
    connections on drain, so the first request after a pause may find a
    stale socket ([client.reconnect] counts these). Bytes the read
    buffer holds past the last response belong to the old socket and
    are dropped with it, on reconnect as on {!close}, so a new
    connection never reads a stale frame. {!with_retry} adds
    the cross-connection policy: capped jittered exponential backoff
    over fresh connections, honoring the daemon's
    {!Error.Overloaded} [retry_after_ms] hint as a floor. *)

type t

val connect : ?timeout_s:float -> Protocol.endpoint -> (t, Error.t) result
(** [timeout_s] bounds the connect itself and every subsequent
    read/write on the socket; omit it for fully blocking I/O. Passes
    the [client.connect] fault site. *)

val close : t -> unit
(** Idempotent. *)

val estimate :
  t -> synopsis:string -> query:string -> (float, Error.t) result
(** [query] is twig source text, parsed daemon-side. *)

val estimate_batch :
  t ->
  ?options:Options.t ->
  synopsis:string ->
  string array ->
  (float array, Error.t) result
(** [result.(i)] answers query [i] — floats bit-identical to what the
    daemon computed (they travel as IEEE-754 bit patterns). *)

val list_synopses : t -> (Protocol.listed array, Error.t) result
val stats : t -> (string, Error.t) result
(** The daemon's metrics snapshot as a JSON object. *)

val ping : t -> (Protocol.health, Error.t) result
(** Readiness probe: the daemon's health snapshot (admitted synopses,
    generation total, queue depth, in-flight count, uptime, draining
    flag). *)

val update :
  t -> synopsis:string -> path:string -> (int, Error.t) result
(** Swap the named synopsis to the repaired generation stored at
    [path] (daemon-side {!Registry.swap_from}); [Ok generation] once
    the swap committed. A corrupt artifact is a typed error and the
    daemon keeps serving the previous good generation. Never retried
    or transparently reconnected — not idempotent. *)

val reload : t -> (Registry.load_report, Error.t) result

val shutdown : t -> (unit, Error.t) result
(** Ask the daemon to begin its graceful drain; [Ok ()] once it
    acknowledged. Never transparently reconnected. *)

val with_retry :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?seed:int ->
  ?timeout_s:float ->
  Protocol.endpoint ->
  (t -> ('a, Error.t) result) ->
  ('a, Error.t) result
(** [with_retry endpoint f] connects, runs [f], and on a {e transient}
    failure — {!Error.Overloaded}, {!Error.Io}, {!Error.Timeout}, or a
    closed connection — closes, sleeps, and tries again on a fresh
    connection, up to [attempts] (default 5) total tries. The sleep is
    capped jittered exponential backoff ([base_delay_s] 10 ms doubling
    up to [max_delay_s] 500 ms, jittered to 50–100% of the cap by a
    [seed]-deterministic stream), floored by an [Overloaded] frame's
    [retry_after_ms] hint. Permanent errors ({!Error.Admission},
    {!Error.Query}, {!Error.Unavailable}, damaged frames, corrupt
    artifacts) return immediately — retrying a request that can never
    succeed is how retry storms start. [client.retry] counts the
    retries taken. *)
