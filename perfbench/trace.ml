(* In-memory spans for the traced run.

   A span records its name, start, end, parent span and request id. The
   traced run wraps these around calls into each layer's public
   functions while it replays a request in the benchmark process; with
   recording off, [span] is a plain call. Spans are aggregated into
   per-request self times (a span's duration minus the time its children
   cover) and the first [keep] are written out as JSON lines at the end. *)

type span = { id : int; parent : int; req : int; name : string; t0 : float; t1 : float }

let on = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let req = ref 0

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Measure.now () in
    let finish () =
      let t1 = Measure.now () in
      stack := List.tl !stack;
      recorded := { id; parent; req = !req; name; t0; t1 } :: !recorded
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Run [f] as request [id] under a root span named "request". *)
let request id f =
  req := id;
  span "request" f

(* Per-request self time of every span name (seconds), summed within a
   request: [(name, [(req, self)])]. The "request" root is excluded — its
   self time is the replay's own glue. *)
let self_times () =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent) +. (s.t1 -. s.t0)))
    !recorded;
  let per = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name <> "request" then begin
        let self = s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
        let reqs = Option.value ~default:(Hashtbl.create 64) (Hashtbl.find_opt per s.name) in
        Hashtbl.replace reqs s.req (Option.value ~default:0.0 (Hashtbl.find_opt reqs s.req) +. self);
        Hashtbl.replace per s.name reqs
      end)
    !recorded;
  Hashtbl.fold (fun name reqs acc -> (name, Hashtbl.fold (fun r v l -> (r, v) :: l) reqs []) :: acc) per []

let write ~keep path =
  let oc = open_out path in
  let spans = List.rev !recorded in
  List.iteri
    (fun i s ->
      if i < keep then
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f}\n" s.id
          s.parent s.req s.name s.t0 s.t1)
    spans;
  close_out oc

(* Run [f] and drop the spans it records. *)
let discarding f =
  let saved = !recorded in
  f ();
  recorded := saved
