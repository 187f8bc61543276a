module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters
module Fault = Xc_util.Fault

type t = {
  endpoint : Protocol.endpoint;
  timeout_s : float option;
  mutable fd : Unix.file_descr option; (* None once closed *)
  into : Protocol.Frame.t; (* responses are read into this buffer *)
  out : Protocol.Frame.t; (* requests are encoded into this one *)
}

let io fmt = Printf.ksprintf (fun m -> Error (Error.Io m)) fmt

(* Name resolution is a typed failure, mirroring the daemon's
   [bind_endpoint]: a host that does not resolve must not silently
   become the loopback address — estimates answered by whatever happens
   to listen there would be wrong with no error anywhere. *)
let resolve endpoint =
  match endpoint with
  | Protocol.Unix_sock path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Protocol.Tcp (host, port) -> (
    match Unix.inet_addr_of_string host with
    | inet -> Ok (Unix.PF_INET, Unix.ADDR_INET (inet, port))
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
        io "connect %s: unknown host %S" (Protocol.endpoint_to_string endpoint) host
      | h -> Ok (Unix.PF_INET, Unix.ADDR_INET (h.Unix.h_addr_list.(0), port))))

(* Connect with an optional budget: non-blocking connect, then select
   for writability under the budget, then the socket's own
   SO_RCVTIMEO/SO_SNDTIMEO take over for the request/response I/O.
   [client.connect] is the chaos harness's injection site. *)
let connect_fd endpoint timeout_s =
  match resolve endpoint with
  | Error _ as e -> e
  | Ok (domain, addr) -> (
    let ep = Protocol.endpoint_to_string endpoint in
    match Fault.raise_io ~site:"client.connect" with
    | exception Fault.Injected { kind; _ } ->
      Metrics.incr Meters.Client.connect_error;
      io "connect %s: injected %s" ep (Fault.kind_name kind)
    | () -> (
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      let fail e =
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        Metrics.incr Meters.Client.connect_error;
        io "connect %s: %s" ep (Unix.error_message e)
      in
      let finish () =
        (match timeout_s with
        | Some s -> (
          try
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
          with Unix.Unix_error (_, _, _) -> ())
        | None -> ());
        Ok fd
      in
      match timeout_s with
      | None -> (
        match Unix.connect fd addr with
        | () -> finish ()
        | exception Unix.Unix_error (e, _, _) -> fail e)
      | Some budget -> (
        Unix.set_nonblock fd;
        let connected =
          match Unix.connect fd addr with
          | () -> Ok true
          | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> Ok false
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            (* a Unix socket with a full backlog: the connect never
               started, so waiting for writability would lie. Typed
               transient failure — with_retry's backoff is the queue. *)
            Error Unix.ECONNREFUSED
          | exception Unix.Unix_error (e, _, _) -> Error e
        in
        match connected with
        | Error e -> fail e
        | Ok completed -> (
          let pending_ok =
            completed
            ||
            match Unix.select [] [ fd ] [] budget with
            | _, [ _ ], _ -> true
            | _ -> false
            | exception Unix.Unix_error (_, _, _) -> false
          in
          if not pending_ok then begin
            (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
            Metrics.incr Meters.Client.connect_error;
            Error (Error.Timeout { elapsed_ms = int_of_float (budget *. 1000.0) })
          end
          else
            match Unix.getsockopt_error fd with
            | Some e -> fail e
            | None ->
              Unix.clear_nonblock fd;
              finish ()))))

let connect ?timeout_s endpoint =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match connect_fd endpoint timeout_s with
  | Error _ as e -> e
  | Ok fd ->
    Ok
      {
        endpoint;
        timeout_s;
        fd = Some fd;
        into = Protocol.Frame.create ();
        out = Protocol.Frame.create ();
      }

(* the read buffer's carry-over belongs to the socket it was read
   from, so it goes with it *)
let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    Protocol.Frame.clear t.into;
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())

(* One round trip; a server-side error frame comes back through
   Error.of_wire so the caller matches the same variant everywhere. *)
let attempt t fd req =
  let deadline () = Option.map Protocol.deadline_after t.timeout_s in
  Protocol.encode_request_into t.out req;
  match Protocol.send_frame fd t.out with
  | Error send_err -> (
    (* the daemon may have answered-and-closed before the request was
       even written — a shed connection's Overloaded frame, an evicted
       peer's Timeout frame — which turns the write into EPIPE while
       the frame sits readable in the receive buffer. Surface the
       daemon's verdict, not the write's symptom. *)
    match Protocol.recv_response ?deadline:(deadline ()) ~into:t.into fd with
    | Ok (Protocol.Error_frame { code; message }) ->
      Error (Error.of_wire code message)
    | Ok _ | Error _ -> Error send_err)
  | Ok () -> (
    match Protocol.recv_response ?deadline:(deadline ()) ~into:t.into fd with
    | Error _ as e -> e
    | Ok (Protocol.Error_frame { code; message }) ->
      Error (Error.of_wire code message)
    | Ok resp -> Ok resp)

(* [idempotent] requests may transparently reconnect once when the
   connection turns out dead (the daemon evicts idle peers; a drain
   closes keep-alive connections between requests). Non-idempotent
   requests — Update, Shutdown — never do: the first attempt may have
   been applied before the connection died. *)
let round_trip ?(idempotent = false) t req =
  match t.fd with
  | None -> Error (Error.Io "client is closed")
  | Some fd -> (
    match attempt t fd req with
    | Error (Error.Io _ | Error.Protocol Error.Closed) when idempotent -> (
      Metrics.incr Meters.Client.reconnect;
      close t;
      match connect_fd t.endpoint t.timeout_s with
      | Error _ as e -> e
      | Ok fd ->
        t.fd <- Some fd;
        attempt t fd req)
    | r -> r)

let unexpected () = Error (Error.Io "unexpected response kind")

let estimate t ~synopsis ~query =
  match round_trip ~idempotent:true t (Protocol.Estimate { synopsis; query }) with
  | Ok (Protocol.Floats [| v |]) -> Ok v
  | Ok _ -> unexpected ()
  | Error _ as e -> e

let estimate_batch t ?(options = Options.default) ~synopsis queries =
  match
    round_trip ~idempotent:true t
      (Protocol.Estimate_batch { synopsis; queries; options })
  with
  | Ok (Protocol.Floats r) ->
    if Array.length r = Array.length queries then Ok r else unexpected ()
  | Ok _ -> unexpected ()
  | Error _ as e -> e

let list_synopses t =
  match round_trip ~idempotent:true t Protocol.List_synopses with
  | Ok (Protocol.Synopses ls) -> Ok ls
  | Ok _ -> unexpected ()
  | Error _ as e -> e

let stats t =
  match round_trip ~idempotent:true t Protocol.Stats with
  | Ok (Protocol.Stats_json json) -> Ok json
  | Ok _ -> unexpected ()
  | Error _ as e -> e

let ping t =
  match round_trip ~idempotent:true t Protocol.Ping with
  | Ok (Protocol.Health h) -> Ok h
  | Ok _ -> unexpected ()
  | Error _ as e -> e

let update t ~synopsis ~path =
  match round_trip t (Protocol.Update { synopsis; path }) with
  | Ok (Protocol.Swapped { generation }) -> Ok generation
  | Ok _ -> unexpected ()
  | Error _ as e -> e

let reload t =
  match round_trip ~idempotent:true t Protocol.Reload with
  | Ok (Protocol.Reloaded { loaded; skipped }) ->
    Ok { Registry.loaded; skipped }
  | Ok _ -> unexpected ()
  | Error _ as e -> e

let shutdown t =
  match round_trip t Protocol.Shutdown with
  | Ok Protocol.Done -> Ok ()
  | Ok _ -> unexpected ()
  | Error _ as e -> e

(* ---- retry policy ------------------------------------------------------- *)

let transient = function
  | Error.Overloaded _ | Error.Io _ | Error.Timeout _
  | Error.Protocol Error.Closed ->
    true
  | Error.Codec _ | Error.Protocol _ | Error.Admission _ | Error.Query _
  | Error.Unavailable _ ->
    false

let with_retry ?(attempts = 5) ?(base_delay_s = 0.01) ?(max_delay_s = 0.5)
    ?(seed = 0) ?timeout_s endpoint f =
  (* deterministic jitter: two clients sharing a seed replay the same
     backoff schedule, which is what the seeded chaos runs need *)
  let rng = Random.State.make [| seed; 0x9e37 |] in
  let backoff k hint_ms =
    let exp =
      Float.min max_delay_s (base_delay_s *. Float.pow 2.0 (float_of_int k))
    in
    let jittered = exp *. (0.5 +. Random.State.float rng 0.5) in
    (* the daemon's Overloaded hint is a floor, not a cap: it knows how
       long its queue needs to move *)
    Unix.sleepf (Float.max jittered (float_of_int hint_ms /. 1000.0))
  in
  let rec go k =
    let r =
      match connect ?timeout_s endpoint with
      | Error e -> Error e
      | Ok c -> Fun.protect ~finally:(fun () -> close c) (fun () -> f c)
    in
    match r with
    | Error e when k + 1 < attempts && transient e ->
      Metrics.incr Meters.Client.retry;
      let hint =
        match e with
        | Error.Overloaded { retry_after_ms } -> retry_after_ms
        | _ -> 0
      in
      backoff k hint;
      go (k + 1)
    | r -> r
  in
  go 0
