module Sealed = Xc_core.Synopsis.Sealed
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters
module Fault = Xc_util.Fault

type config = {
  endpoint : Protocol.endpoint;
  max_engines : int;
  options : Options.t;
  workers : int;
  backlog : int;
  max_pending : int;
  recv_timeout_s : float;
  send_timeout_s : float;
  request_budget_s : float;
  drain_timeout_s : float;
  retry_after_ms : int;
}

let default_config =
  {
    endpoint = Protocol.Unix_sock "xcluster.sock";
    max_engines = 8;
    options = Options.default;
    workers = 4;
    backlog = 64;
    max_pending = 64;
    recv_timeout_s = 30.0;
    send_timeout_s = 30.0;
    request_budget_s = 30.0;
    drain_timeout_s = 5.0;
    retry_after_ms = 100;
  }

(* ---- stop / self-pipe --------------------------------------------------
   [stop] must interrupt an accept loop blocked in [select] from
   another thread, another domain, or a signal handler. The flag alone
   cannot do that, so each running daemon registers the write end of a
   self-pipe; [stop] sets the flag and writes one byte, which makes the
   pipe's read end selectable and wakes the loop. The write end is
   non-blocking — if the pipe is already full the loop is already
   awake — and both operations are async-signal-safe. *)

let stop_requested = Atomic.make false
let stop_pipes : Unix.file_descr list Atomic.t = Atomic.make []

let rec add_stop_pipe fd =
  let old = Atomic.get stop_pipes in
  if not (Atomic.compare_and_set stop_pipes old (fd :: old)) then add_stop_pipe fd

let rec remove_stop_pipe fd =
  let old = Atomic.get stop_pipes in
  let now = List.filter (fun f -> f <> fd) old in
  if not (Atomic.compare_and_set stop_pipes old now) then remove_stop_pipe fd

let stop () =
  Atomic.set stop_requested true;
  List.iter
    (fun fd -> try ignore (Unix.write_substring fd "!" 0 1) with Unix.Unix_error (_, _, _) -> ())
    (Atomic.get stop_pipes)

(* ---- shared serving state ---------------------------------------------- *)

type state = {
  q_lock : Mutex.t;
  q_cond : Condition.t;  (* signaled on push and on drain *)
  queue : Unix.file_descr Queue.t;  (* accepted, not yet picked up *)
  mutable inflight : int;  (* workers currently serving a connection *)
  active : (int, Unix.file_descr) Hashtbl.t;  (* worker id -> its fd *)
  mutable stop_workers : bool;  (* drain: idle workers exit *)
  dispatch_lock : Mutex.t;
      (* serializes request evaluation. Batch engines keep per-domain
         arenas in [Domain.DLS]; two worker threads of one domain
         running them concurrently would share arenas mid-sweep and
         break bit-identity. Workers therefore overlap on I/O — reads,
         writes, timeouts, eviction — and take this lock only around
         dispatch. The registry and engine caches inherit its
         protection for free. *)
  started : float;
  draining : bool Atomic.t;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ---- socket setup ------------------------------------------------------ *)

let bind_endpoint ~backlog endpoint =
  match endpoint with
  | Protocol.Unix_sock path ->
    (match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
    | _ -> Fmt.failwith "daemon: %s exists and is not a socket" path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd backlog
     with Unix.Unix_error (e, _, _) ->
       Unix.close fd;
       Fmt.failwith "daemon: cannot bind %s: %s" path (Unix.error_message e));
    fd
  | Protocol.Tcp (host, port) ->
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          Fmt.failwith "daemon: unknown host %s" host
        | h -> h.Unix.h_addr_list.(0))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (addr, port));
       Unix.listen fd backlog
     with Unix.Unix_error (e, _, _) ->
       Unix.close fd;
       Fmt.failwith "daemon: cannot bind %s:%d: %s" host port
         (Unix.error_message e));
    fd

let close_quiet fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* bytes (or a hang-up) waiting on [fd] right now, without blocking *)
let readable_now fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | ready, _, _ -> ready <> []
  | exception Unix.Unix_error (_, _, _) -> false

let set_conn_timeouts config fd =
  (* per-read / per-write silence bounds; the request budget bounds the
     total. Both raise EAGAIN out of blocked syscalls, which the
     transport maps to Error.Timeout. *)
  try
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO config.recv_timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO config.send_timeout_s
  with Unix.Unix_error (_, _, _) -> ()

(* ---- request dispatch --------------------------------------------------
   Every arm is total: failures become error frames, never exceptions
   out of the dispatcher. *)

let listed_of registry name =
  match Registry.find registry name with
  | None -> None
  | Some syn ->
    Some
      {
        Protocol.l_name = name;
        l_nodes = Sealed.n_nodes syn;
        l_edges = Sealed.n_edges syn;
        l_bytes = Sealed.structural_bytes syn + Sealed.value_bytes syn;
      }

let error_frame e =
  Metrics.incr Meters.Daemon.request_error;
  let code, message = Error.to_wire e in
  Protocol.Error_frame { code; message }

let health st registry =
  let h_queue, h_inflight =
    locked st.q_lock (fun () -> (Queue.length st.queue, st.inflight))
  in
  Protocol.Health
    {
      Protocol.h_synopses = Registry.n_admitted registry;
      h_generations = Registry.generations_total registry;
      h_queue;
      h_inflight;
      h_uptime_s = Unix.gettimeofday () -. st.started;
      h_draining = Atomic.get st.draining;
    }

(* What one request is answered with: the first [n] entries of the
   connection's answer buffer, or a response. *)
type reply = Answers of int | Reply of Protocol.response

(* A connection's reusable request state: the slices an estimate
   frame's query texts are read as, and the buffer their answers are
   written to. *)
type conn = { texts : Xc_util.Slices.t; mutable answers : float array }

(* Both estimate frame kinds go through the registry's engine: a
   single [Estimate] is a one-text batch, so the LRU is the only engine
   cache the daemon fills and warm texts skip parse and compile. *)
let estimate_texts registry options synopsis conn =
  match Registry.engine registry synopsis with
  | Error e -> Reply (error_frame e)
  | Ok (syn, eng) -> (
    let n = Xc_util.Slices.length conn.texts in
    if Array.length conn.answers < n then
      conn.answers <- Array.make (max n (2 * Array.length conn.answers)) 0.0;
    match Engine.estimate_texts_with ~options ~into:conn.answers eng syn conn.texts with
    | Ok () -> Answers n
    | Error e -> Reply (error_frame e))

let dispatch st config registry conn incoming =
  match incoming with
  | Protocol.Estimates { synopsis; options = None } ->
    estimate_texts registry config.options synopsis conn
  | Protocol.Estimates { synopsis; options = Some options } ->
    (* the request's options win; a request that left [domains]
       unpinned inherits the daemon's default. The batch-size limit is
       the daemon's, not the request's — a client cannot talk its way
       past admission control. *)
    let n = Xc_util.Slices.length conn.texts in
    if n > config.options.Options.max_batch then
      Reply
        (error_frame
           (Error.Admission
              (Printf.sprintf "batch of %d queries exceeds the %d-query limit" n
                 config.options.Options.max_batch)))
    else
      let options =
        {
          options with
          Options.domains =
            (match options.Options.domains with
            | Some _ as d -> d
            | None -> config.options.Options.domains);
        }
      in
      estimate_texts registry options synopsis conn
  | Protocol.Request (Protocol.Estimate _ | Protocol.Estimate_batch _) ->
    (* [Protocol.recv_view] reads every estimate frame as [Estimates] *)
    assert false
  | Protocol.Request Protocol.List_synopses ->
    Reply
      (Protocol.Synopses
         (Array.of_list (List.filter_map (listed_of registry) (Registry.names registry))))
  | Protocol.Request Protocol.Stats ->
    Reply (Protocol.Stats_json (Metrics.to_json (Metrics.snapshot Metrics.global)))
  | Protocol.Request (Protocol.Update { synopsis; path }) -> (
    (* the generation swap: verify-load the repaired artifact, then
       commit it under the name. A corrupt artifact is an error frame —
       the previous good generation keeps serving (skip-and-count). *)
    let t0 = Unix.gettimeofday () in
    match Registry.swap_from registry ~name:synopsis ~path with
    | Ok generation ->
      Metrics.observe Meters.Serve.swap_us
        (1e6 *. (Unix.gettimeofday () -. t0));
      Reply (Protocol.Swapped { generation })
    | Error e -> Reply (error_frame e))
  | Protocol.Request Protocol.Reload ->
    let r = Registry.load registry in
    Reply (Protocol.Reloaded { loaded = r.Registry.loaded; skipped = r.Registry.skipped })
  | Protocol.Request Protocol.Ping -> Reply (health st registry)
  | Protocol.Request Protocol.Shutdown -> Reply Protocol.Done

(* a dispatch arm that slips an exception past its own guards must not
   kill the connection loop, let alone the daemon *)
let dispatch_guarded st config registry conn incoming =
  try dispatch st config registry conn incoming
  with exn -> Reply (error_frame (Error.Io (Printexc.to_string exn)))

(* ---- connection loop --------------------------------------------------- *)

type conn_outcome = Hung_up | Evicted | Shutdown_now

let send_response ?(out = Protocol.Frame.create ()) fd resp =
  Protocol.encode_response_into out resp;
  Protocol.send_frame ~site:"serve.send" fd out

let send_reply ~out conn fd = function
  | Answers n ->
    Protocol.encode_floats_into out conn.answers n;
    Protocol.send_frame ~site:"serve.send" fd out
  | Reply resp -> send_response ~out fd resp

(* Answer one connection's request stream until it hangs up, trips a
   deadline, breaks framing, or asks for shutdown. Runs on a worker
   thread; only the dispatch itself takes the global lock, so a peer
   stalled mid-frame costs one worker, not the daemon. The connection
   owns one read and one write frame buffer, the slices its query texts
   are read as and its answer buffer, all reused for every frame: once
   they have grown, a warm estimate request allocates nothing that
   grows with its size. *)
let serve_conn st config registry fd =
  let into = Protocol.Frame.create () and out = Protocol.Frame.create () in
  let conn = { texts = Xc_util.Slices.create (); answers = [||] } in
  let send_response = send_response ~out in
  let evict e =
    Metrics.incr Meters.Daemon.evicted;
    ignore (send_response fd (error_frame e));
    Evicted
  in
  let rec loop () =
    let deadline = Protocol.deadline_after config.request_budget_s in
    match
      Protocol.recv_view ~deadline
        ~limit:config.options.Options.max_frame_bytes ~into ~texts:conn.texts fd
    with
    | Ok None -> Hung_up (* client hung up at a frame boundary *)
    | Error (Error.Timeout _ as e) ->
      (* slow-loris or dead peer: a read stalled past SO_RCVTIMEO or
         the frame dribbled past the request budget *)
      Metrics.incr Meters.Daemon.timeouts;
      evict e
    | Error (Error.Admission _ as e) ->
      (* an over-limit frame was refused before its payload was read;
         the stream cannot resync, so answer and drop *)
      evict e
    | Error (Error.Protocol _ as e) ->
      (* a damaged or hostile frame: answer (best-effort) and drop the
         connection — framing cannot resync after a bad length *)
      Metrics.incr Meters.Daemon.proto_error;
      ignore (send_response fd (error_frame e));
      Evicted
    | Error _ -> Hung_up (* socket trouble; nothing to answer on *)
    | Ok (Some (Protocol.Request Protocol.Shutdown)) ->
      ignore (send_response fd Protocol.Done);
      Shutdown_now
    | Ok (Some req) -> (
      Metrics.incr Meters.Daemon.requests;
      let t0 = Unix.gettimeofday () in
      let reply =
        locked st.dispatch_lock (fun () -> dispatch_guarded st config registry conn req)
      in
      Metrics.observe Meters.Daemon.request_us
        (1e6 *. (Unix.gettimeofday () -. t0));
      match send_reply ~out conn fd reply with
      | Ok () ->
        (* draining: finish what is in flight, then close. A request
           already on the wire, or already read into the buffer past
           the last frame, counts as in flight — closing over it
           unread would reset the peer instead of answering it. *)
        if
          Atomic.get st.draining
          && Protocol.Frame.buffered into = 0
          && not (readable_now fd)
        then Hung_up
        else loop ()
      | Error (Error.Timeout _) ->
        (* the peer stopped draining its socket: writing would block
           forever, so the response is abandoned and the peer evicted *)
        Metrics.incr Meters.Daemon.timeouts;
        Metrics.incr Meters.Daemon.evicted;
        Evicted
      | Error _ -> Hung_up)
  in
  loop ()

(* ---- worker pool -------------------------------------------------------- *)

let worker st config registry wid =
  let rec next () =
    let job =
      locked st.q_lock (fun () ->
          let rec await () =
            if st.stop_workers then None
            else
              match Queue.take_opt st.queue with
              | Some fd ->
                st.inflight <- st.inflight + 1;
                Hashtbl.replace st.active wid fd;
                Some fd
              | None ->
                Condition.wait st.q_cond st.q_lock;
                await ()
          in
          await ())
    in
    match job with
    | None -> () (* drain: idle worker exits *)
    | Some fd ->
      let outcome =
        try serve_conn st config registry fd
        with exn ->
          (* nothing inside a connection is allowed to be fatal *)
          Metrics.incr Meters.Daemon.request_error;
          ignore (send_response fd (error_frame (Error.Io (Printexc.to_string exn))));
          Hung_up
      in
      close_quiet fd;
      locked st.q_lock (fun () ->
          st.inflight <- st.inflight - 1;
          Hashtbl.remove st.active wid);
      (match outcome with
      | Shutdown_now -> stop ()
      | Hung_up | Evicted -> ());
      next ()
  in
  next ()

(* ---- accept loop / admission ------------------------------------------- *)

(* Queue-full shedding: the peer gets a typed Overloaded frame with the
   daemon's backoff hint and the connection closes. The frame is a few
   dozen bytes — it fits the socket's send buffer, so this cannot wedge
   the accept loop even against a peer that never reads. *)
let shed config fd =
  Metrics.incr Meters.Daemon.shed;
  let e = Error.Overloaded { retry_after_ms = config.retry_after_ms } in
  let code, message = Error.to_wire e in
  ignore (send_response fd (Protocol.Error_frame { code; message }));
  close_quiet fd

let admit st config fd =
  Metrics.incr Meters.Daemon.conns;
  set_conn_timeouts config fd;
  let admitted =
    locked st.q_lock (fun () ->
        if Queue.length st.queue >= config.max_pending then false
        else begin
          Queue.push fd st.queue;
          Condition.signal st.q_cond;
          true
        end)
  in
  if not admitted then shed config fd

let accept_loop st config listener pipe_rd =
  let backoff consec =
    (* a persistent accept failure (EMFILE, ENFILE, injected storm)
       must not busy-spin the loop; after a few consecutive failures
       sleep briefly, growing to half a second *)
    if consec >= 3 then
      Unix.sleepf (Float.min 0.5 (0.01 *. Float.pow 2.0 (float_of_int (Int.min consec 9))))
  in
  let rec go consec =
    if Atomic.get stop_requested then ()
    else
      match Unix.select [ listener; pipe_rd ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go consec
      | exception Unix.Unix_error (_, _, _) ->
        Metrics.incr Meters.Daemon.accept_error;
        backoff (consec + 1);
        go (consec + 1)
      | ready, _, _ ->
        if Atomic.get stop_requested || List.mem pipe_rd ready then ()
        else (
          match
            Fault.raise_io ~site:"serve.accept";
            Unix.accept listener
          with
          | exception Fault.Injected _ ->
            (* the chaos harness refusing this accept: count it like a
               real transient accept failure *)
            Metrics.incr Meters.Daemon.accept_error;
            backoff (consec + 1);
            go (consec + 1)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go consec
          | exception Unix.Unix_error (_, _, _) ->
            Metrics.incr Meters.Daemon.accept_error;
            backoff (consec + 1);
            go (consec + 1)
          | fd, _ ->
            admit st config fd;
            go 0)
  in
  go 0

(* ---- run / drain -------------------------------------------------------- *)

let run ?(config = default_config) ?(on_ready = fun _ -> ()) registry =
  (* a client hanging up mid-response must be an EPIPE result, not a
     fatal signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  ignore (Registry.load registry);
  let config = { config with workers = Int.max 1 config.workers } in
  let listener = bind_endpoint ~backlog:(Int.max 1 config.backlog) config.endpoint in
  let pipe_rd, pipe_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_wr;
  Atomic.set stop_requested false;
  add_stop_pipe pipe_wr;
  let st =
    {
      q_lock = Mutex.create ();
      q_cond = Condition.create ();
      queue = Queue.create ();
      inflight = 0;
      active = Hashtbl.create 16;
      stop_workers = false;
      dispatch_lock = Mutex.create ();
      started = Unix.gettimeofday ();
      draining = Atomic.make false;
    }
  in
  let threads =
    List.init config.workers (fun wid ->
        Thread.create (fun () -> worker st config registry wid) ())
  in
  on_ready config.endpoint;
  accept_loop st config listener pipe_rd;
  (* ---- graceful drain: refuse, finish, then force ---- *)
  let t_drain = Unix.gettimeofday () in
  Atomic.set st.draining true;
  close_quiet listener;
  (match config.endpoint with
  | Protocol.Unix_sock path -> (
    try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | Protocol.Tcp _ -> ());
  (* connections accepted but never picked up have no request in
     flight — close them outright rather than holding the drain open *)
  locked st.q_lock (fun () ->
      st.stop_workers <- true;
      Queue.iter close_quiet st.queue;
      Queue.clear st.queue;
      Condition.broadcast st.q_cond);
  let drain_deadline = t_drain +. Float.max 0.0 config.drain_timeout_s in
  let rec await_idle () =
    let busy = locked st.q_lock (fun () -> st.inflight) in
    if busy > 0 && Unix.gettimeofday () < drain_deadline then begin
      Unix.sleepf 0.002;
      await_idle ()
    end
  in
  await_idle ();
  (* past the deadline: shut the remaining peers' sockets so their
     workers fail fast out of any blocked read or write *)
  locked st.q_lock (fun () ->
      Hashtbl.iter
        (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ())
        st.active);
  List.iter Thread.join threads;
  Metrics.observe Meters.Daemon.drain_ms
    (1000.0 *. (Unix.gettimeofday () -. t_drain));
  remove_stop_pipe pipe_wr;
  close_quiet pipe_rd;
  close_quiet pipe_wr
