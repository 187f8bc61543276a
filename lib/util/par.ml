let max_domains = 64

let env_domains () =
  match Sys.getenv_opt "XC_DOMAINS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some d -> max 1 (min max_domains d)
    | None -> 1)

(* Below this many elements the dispatch overhead dwarfs the work; the
   sequential path is also what keeps tiny calls (e.g. the <= neighbor_k
   pairs of a push_neighbors) away from the worker pool. *)
let seq_cutoff = 64

let resolve domains =
  if domains <= 0 then env_domains () else max 1 (min max_domains domains)

(* ---- usage observation ------------------------------------------------
   High-water marks of what the pool actually did, updated from the
   coordinating domain only. Benchmarks reset these, run a parallel
   leg, and then compare the observed worker count against the
   requested one — the honest version of a "domains_used" figure, and
   the loud-failure hook when a requested width silently degrades. *)

let usage_used = ref 0   (* widest fan-out actually executed *)
let usage_batch = ref 0  (* largest input array seen *)

let reset_usage () =
  usage_used := 0;
  usage_batch := 0

let max_used () = !usage_used
let max_batch () = !usage_batch

let note_usage n d =
  if n > !usage_batch then usage_batch := n;
  if d > !usage_used then usage_used := d

(* ---- the persistent worker pool --------------------------------------
   Spawning a domain costs milliseconds (fresh minor heap, GC
   handshake), far too much to pay per scoring batch, so workers are
   spawned once on first use and then parked on a condition variable
   between jobs. Workers hold no job state across jobs and are never
   joined: they block in [Condition.wait] forever once the process stops
   submitting, which is safe to leave behind at exit. *)

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;  (* set by the caller, taken by the worker *)
  mutable busy : bool;  (* true from submit until the job finished *)
  mutable failed : exn option;  (* the job's exception, re-raised by [await] *)
}

let worker_loop w =
  let rec loop () =
    Mutex.lock w.mutex;
    while w.job = None do
      Condition.wait w.cond w.mutex
    done;
    let job = Option.get w.job in
    w.job <- None;
    Mutex.unlock w.mutex;
    (try job () with e -> w.failed <- Some e);
    Mutex.lock w.mutex;
    w.busy <- false;
    Condition.broadcast w.cond;
    Mutex.unlock w.mutex;
    loop ()
  in
  loop ()

(* grown on demand under [pool_mutex], only ever from the coordinating
   domain (callers of [map] must not overlap, which holds for the
   library: batch scoring runs in the build loop's domain) *)
let pool : worker list ref = ref []
let pool_mutex = Mutex.create ()

let acquire n =
  Mutex.lock pool_mutex;
  let have = List.length !pool in
  if have < n then begin
    let fresh =
      List.init (n - have) (fun _ ->
          let w =
            { mutex = Mutex.create ();
              cond = Condition.create ();
              job = None;
              busy = false;
              failed = None }
          in
          ignore (Domain.spawn (fun () -> worker_loop w));
          w)
    in
    pool := fresh @ !pool
  end;
  let ws = Array.of_list !pool in
  Mutex.unlock pool_mutex;
  Array.sub ws 0 n

let submit w job =
  Mutex.lock w.mutex;
  w.busy <- true;
  w.failed <- None;
  w.job <- Some job;
  Condition.broadcast w.cond;
  Mutex.unlock w.mutex

let await w =
  Mutex.lock w.mutex;
  while w.busy do
    Condition.wait w.cond w.mutex
  done;
  Mutex.unlock w.mutex;
  match w.failed with
  | Some e ->
    w.failed <- None;
    raise e
  | None -> ()

(* Run [chunk 0 .. chunk (d - 1)]: chunks 1.. on pool workers, chunk 0
   on the caller. Every worker is awaited before anything is raised, so
   no job outlives the call; then the exception of the lowest-numbered
   chunk that raised propagates (the caller's own chunk counts as 0). *)
let fork_join d chunk =
  let workers = acquire (d - 1) in
  Array.iteri (fun i w -> submit w (fun () -> chunk (i + 1))) workers;
  let first_exn = ref (match chunk 0 with () -> None | exception e -> Some e) in
  Array.iter
    (fun w -> try await w with e -> if Option.is_none !first_exn then first_exn := Some e)
    workers;
  Option.iter raise !first_exn

let map ?(domains = 0) f arr =
  let n = Array.length arr in
  let d = min (resolve domains) n in
  if d <= 1 || n < seq_cutoff then begin
    if n > 0 then note_usage n 1;
    Array.map f arr
  end
  else begin
    note_usage n d;
    (* contiguous chunks: worker i owns [bound i, bound (i+1)); results
       land at the input index, so the output order is independent of
       which domain computed what *)
    let bound i = i * n / d in
    let parts = Array.make d [||] in
    fork_join d (fun i ->
        let lo = bound i and hi = bound (i + 1) in
        parts.(i) <- Array.init (hi - lo) (fun k -> f arr.(lo + k)));
    Array.concat (Array.to_list parts)
  end
