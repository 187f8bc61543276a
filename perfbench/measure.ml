(* Clocks, sample buffers, order statistics and process probes shared by
   every workload. *)

(* CLOCK_MONOTONIC, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- growable float buffer -------------------------------------------- *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* Run [f] and record its duration in microseconds. *)
let push_time_us s f =
  let (), dt = time f in
  push s (1e6 *. dt)
let count s = s.len

(* ---- order statistics ------------------------------------------------- *)

(* Linear interpolation between closest ranks (the "type 7" estimator
   numpy and R default to); [nan] on no samples. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = Int.min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* ---- machine-speed calibration ---------------------------------------- *)

(* The shared host this benchmark runs on changes speed for seconds at a
   time: a batch that takes 1.6 ms in one second takes 2.5 ms in the
   next, and a fixed CPU workload slows in step. [calibrate] times such a
   workload, one that calls no repository code (hashing, string
   building, allocation and a float sort), so the timed figures can be
   scaled to a host on which it takes [reference_s]. *)
let calibration_work () =
  let h = Hashtbl.create 256 in
  let acc = ref 0 in
  for i = 0 to 2_000 do
    let k = string_of_int (i * 7919 mod 10_007) in
    Hashtbl.replace h k i;
    acc := !acc + String.length k
  done;
  let a = Array.init 2_000 (fun i -> float_of_int (i * 7919 mod 10_007)) in
  Array.sort Float.compare a;
  !acc + int_of_float a.(0) + Hashtbl.length h

let calibrate () = snd (time (fun () -> ignore (Sys.opaque_identity (calibration_work ()))))

(* Scaled figures read as on a host where [calibrate] takes 1 ms; on the
   2-vCPU virtual machine the benchmark was calibrated on it took
   0.85-1.5 ms. *)
let reference_s = 0.001

(* ---- /proc probes ----------------------------------------------------- *)

(* A "VmHWM:  12345 kB" style field of /proc/<pid>/status, in MB. *)
let status_mb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line ->
        let pre = field ^ ":" in
        let lp = String.length pre in
        if String.length line > lp && String.sub line 0 lp = pre then
          match
            String.split_on_char ' ' (String.trim (String.sub line lp (String.length line - lp)))
            |> List.filter (( <> ) "")
          with
          | kb :: _ -> (
            match float_of_string_opt kb with Some v -> v /. 1024.0 | None -> Float.nan)
          | [] -> Float.nan
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let peak_rss_mb pid = status_mb (string_of_int pid) "VmHWM"
let self_peak_rss_mb () = status_mb "self" "VmHWM"

(* ---- metric records --------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; n : int }
(** One reported figure; [n] is its sample count (0 for a count or a
    figure with no meaningful sample size). *)

let metric ?(n = 0) name unit_ value = { name; value; unit_; n }
