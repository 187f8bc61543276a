(** The estimation daemon: one warm process, many synopses, zero
    per-request prepare cost — hardened for concurrent, hostile, and
    overloaded traffic.

    {!run} binds an endpoint (Unix or TCP socket) and serves
    connections from a bounded pool of OS worker threads fed by a
    single accept loop. Workers overlap on blocking socket I/O (reads
    release the runtime lock), while {e evaluation} is single-flight
    behind one dispatch mutex: an engine is not thread-safe (compiling
    grows its tables, and its sweep reuses one arena), and the
    registry's engine cache is shared. The answers a client reads are
    therefore byte-for-byte the answers a sequential daemon would have
    produced, in every interleaving. Each batch is swept on the
    worker thread that dispatches it.

    {b Time.} Every connection carries [SO_RCVTIMEO]/[SO_SNDTIMEO]
    silence bounds plus a per-request wall-clock budget
    ([request_budget_s], enforced between partial reads — the one thing
    a slow-loris drip defeats socket timers with). A peer that trips
    either gets a typed {!Error.Timeout} frame (best-effort) and is
    evicted; [daemon.timeouts] and [daemon.evicted] count it. The
    budget clock starts when the daemon begins waiting for the frame,
    so it also bounds how long an idle keep-alive connection may hold a
    worker: effectively [min recv_timeout_s request_budget_s].

    {b Load.} Admission control sheds work instead of queueing it
    unboundedly: accepted connections wait in a queue of at most
    [max_pending]; when it is full the daemon answers
    {!Error.Overloaded} with its [retry_after_ms] hint and closes
    ([daemon.shed]). Oversized requests are refused with
    {!Error.Admission} — frames above [max_frame_bytes] before their
    payload is even read, batches above [max_batch] before any query
    parses. Those are permanent refusals, deliberately distinct from
    [Overloaded] so {!Client.with_retry} does not spin on a request
    that can never succeed.

    {b Drain.} {!stop} (or a [Shutdown] frame) wakes the accept loop
    through a self-pipe, the listener closes (new connections are
    refused at the OS), queued-but-unserved connections are dropped,
    and in-flight requests finish under [drain_timeout_s]; past the
    deadline the remaining peers' sockets are shut down so workers fail
    fast. [daemon.drain_ms] records the wall time. A [Ping] request is
    answered with a [Health] frame (admitted synopses, total
    generations, queue depth, in-flight count, uptime, draining flag)
    at any point before its connection closes.

    {b Failure contract.} The daemon never exits on a per-request
    failure: unknown synopses, unparsable queries, estimates the
    degraded path could not give either, and internal evaluation
    errors are answered with typed error frames; a protocol violation
    on a connection (damaged frame, hostile length, CRC mismatch) is
    answered best-effort and the connection closes (framing cannot
    resync); accept failures are
    counted ([daemon.accept_error]) and backed off after repeated
    occurrence instead of busy-spinning on e.g. [EMFILE]. Corrupt
    artifacts at load/reload time are skipped and counted by the
    {!Registry}. Chaos reaches this plane through the
    {!Xc_util.Fault} sites [serve.accept], [serve.recv], [serve.send],
    and [serve.deadline]. The only ways out of {!run} are a [Shutdown]
    frame and {!stop}.

    Counters/timers: [daemon.conns], [daemon.requests],
    [daemon.request_error], [daemon.proto_error], [daemon.timeouts],
    [daemon.evicted], [daemon.shed], [daemon.accept_error], histogram
    [daemon.request_us], drain gauge [daemon.drain_ms]. *)

type config = {
  endpoint : Protocol.endpoint;
  max_batch : int;
      (** admission limit on queries per estimate request; a larger
          batch is refused with {!Error.Admission} (a permanent error —
          retrying the same batch cannot succeed, so it is deliberately
          {e not} {!Error.Overloaded}) *)
  max_frame_bytes : int;
      (** admission limit on one request frame's payload, clamped to
          the protocol ceiling ({!Protocol.max_payload}); a larger frame
          is refused with {!Error.Admission} before its payload is
          read *)
  workers : int;
      (** worker-thread pool size — the number of connections served
          concurrently; at least 1 *)
  backlog : int;  (** [listen] backlog *)
  max_pending : int;
      (** accepted connections waiting for a worker beyond which new
          ones are shed with {!Error.Overloaded} *)
  recv_timeout_s : float;  (** [SO_RCVTIMEO]: max silence within a read *)
  send_timeout_s : float;  (** [SO_SNDTIMEO]: max stall within a write *)
  request_budget_s : float;
      (** wall-clock budget for receiving one complete request frame —
          the slow-loris bound *)
  drain_timeout_s : float;
      (** how long {!stop} waits for in-flight requests before shutting
          the remaining sockets *)
  retry_after_ms : int;
      (** backoff hint carried by {!Error.Overloaded} shed frames *)
}

val default_config : config
(** Unix socket ["xcluster.sock"] in the working directory,
    [max_batch] 8192, [max_frame_bytes] 64 MiB, 4 workers,
    backlog 64, [max_pending] 64, 30 s socket timeouts and request
    budget, 5 s drain, 100 ms retry hint.
    Reads no environment: [xcluster serve] sets [workers] and
    [backlog] from its [--workers] and [--backlog] flags. *)

val run :
  ?config:config ->
  ?on_ready:(Protocol.endpoint -> unit) ->
  Registry.t ->
  unit
(** Load the registry (corrupt artifacts skipped and counted), bind,
    start the worker pool, call [on_ready] once the socket accepts
    connections, and serve until a [Shutdown] frame arrives or {!stop}
    is called — then drain gracefully and join every worker before
    returning. Blocks the calling domain. The engine LRU's bound is the
    registry's ({!Registry.create}).
    @raise Invalid_argument on a non-positive [max_batch] or
    [max_frame_bytes], before anything is loaded or bound.
    @raise Failure if the endpoint cannot be bound (that one is fatal:
    there is no daemon without a socket). *)

val stop : unit -> unit
(** Ask a daemon running in this process to begin its graceful drain.
    Wakes an accept loop blocked in [select] through a self-pipe, so it
    is safe (and effective) from another thread, another domain, or a
    signal handler. *)
