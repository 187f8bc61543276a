(* Handles are registered once and updated without the registry: a
   counter is an atomic int, a timer or histogram a record guarded by
   its own mutex. The registry's mutex guards only registration and
   the read side, so an update never contends with a snapshot for
   more than one handle's few scalar writes. *)

type kind = Counter | High_water | Timer | Histogram

let kind_name = function
  | Counter -> "counter"
  | High_water -> "high-water"
  | Timer -> "timer"
  | Histogram -> "histogram"

type counter = int Atomic.t

type timer = {
  tm_lock : Mutex.t;
  mutable tm_count : int;
  mutable tm_total : float;
  mutable tm_max : float;
}

type histogram = {
  hs_lock : Mutex.t;
  mutable hs_count : int;
  mutable hs_sum : float;
  mutable hs_min : float;
  mutable hs_max : float;
  hs_buckets : int array;  (* index i counts samples with 2^((i-1)/8) < v <= 2^(i/8) *)
}

type handle = C of counter | T of timer | H of histogram

type entry = { e_kind : kind; e_doc : string; e_handle : handle }

type t = {
  m_lock : Mutex.t;  (* guards [m_entries]; never taken by an update *)
  m_entries : (string, entry) Hashtbl.t;
}

let create () = { m_lock = Mutex.create (); m_entries = Hashtbl.create 128 }
let global = create ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* 8 sub-buckets per power-of-two octave: 512 buckets span (0, 2^64)
   with bucket edges a factor 2^(1/8) (~9%) apart. Whole-octave
   buckets made adjacent percentiles indistinguishable — any two
   quantiles landing in the same magnitude class (p95 and p99 of a
   latency distribution routinely do) interpolated inside the same
   factor-2 band and came out nearly equal regardless of the data. *)
let n_buckets = 512
let sub_per_octave = 8.0

let bucket_of v =
  if v <= 1.0 then 0
  else
    let b = int_of_float (Float.ceil (sub_per_octave *. Float.log2 v)) in
    min (n_buckets - 1) (max 1 b)

let bucket_le i = Float.pow 2.0 (float_of_int i /. sub_per_octave)

(* ---- registration ----------------------------------------------------- *)

let register ?(registry = global) ~doc kind name handle =
  locked registry.m_lock (fun () ->
      if Hashtbl.mem registry.m_entries name then
        invalid_arg (Printf.sprintf "Metrics: %S is already registered" name);
      Hashtbl.add registry.m_entries name { e_kind = kind; e_doc = doc; e_handle = handle })

let counter ?registry ~doc name =
  let c = Atomic.make 0 in
  register ?registry ~doc Counter name (C c);
  c

let high_water ?registry ~doc name =
  let c = Atomic.make 0 in
  register ?registry ~doc High_water name (C c);
  c

let timer ?registry ~doc name =
  let tm = { tm_lock = Mutex.create (); tm_count = 0; tm_total = 0.0; tm_max = 0.0 } in
  register ?registry ~doc Timer name (T tm);
  tm

let histogram ?registry ~doc name =
  let h =
    { hs_lock = Mutex.create (); hs_count = 0; hs_sum = 0.0; hs_min = infinity;
      hs_max = neg_infinity; hs_buckets = Array.make n_buckets 0 }
  in
  register ?registry ~doc Histogram name (H h);
  h

let sorted_entries t =
  locked t.m_lock (fun () -> Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.m_entries [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let catalogue t = List.map (fun (name, e) -> (name, e.e_kind, e.e_doc)) (sorted_entries t)

(* ---- recording ---------------------------------------------------------
   The timer and histogram updates cannot raise, so their mutex is
   released without a [Fun.protect] closure. *)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)

let rec record_max c v =
  let cur = Atomic.get c in
  if v > cur && not (Atomic.compare_and_set c cur v) then record_max c v

let observe h v =
  let b = bucket_of v in
  Mutex.lock h.hs_lock;
  h.hs_count <- h.hs_count + 1;
  h.hs_sum <- h.hs_sum +. v;
  if v < h.hs_min then h.hs_min <- v;
  if v > h.hs_max then h.hs_max <- v;
  Array.unsafe_set h.hs_buckets b (Array.unsafe_get h.hs_buckets b + 1);
  Mutex.unlock h.hs_lock

let add_time tm dt =
  Mutex.lock tm.tm_lock;
  tm.tm_count <- tm.tm_count + 1;
  tm.tm_total <- tm.tm_total +. dt;
  if dt > tm.tm_max then tm.tm_max <- dt;
  Mutex.unlock tm.tm_lock

let time tm f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  add_time tm (Unix.gettimeofday () -. t0);
  r

(* ---- snapshots -------------------------------------------------------- *)

type timer_stat = {
  t_count : int;
  t_total : float;
  t_max : float;
}

type hist_stat = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
}

type snapshot = {
  counters : (string * int) list;
  timers : (string * timer_stat) list;
  histograms : (string * hist_stat) list;
}

let timer_stat tm =
  locked tm.tm_lock (fun () ->
      { t_count = tm.tm_count; t_total = tm.tm_total; t_max = tm.tm_max })

let hist_stat h =
  locked h.hs_lock (fun () ->
      let buckets = ref [] in
      for i = n_buckets - 1 downto 0 do
        if h.hs_buckets.(i) > 0 then buckets := (bucket_le i, h.hs_buckets.(i)) :: !buckets
      done;
      { h_count = h.hs_count; h_sum = h.hs_sum; h_min = h.hs_min; h_max = h.hs_max;
        h_buckets = !buckets })

(* a stat with at least one sample since the last reset; an empty
   histogram's min and max are infinite *)
let sampled_timer tm = match timer_stat tm with { t_count = 0; _ } -> None | s -> Some s
let sampled_hist h = match hist_stat h with { h_count = 0; _ } -> None | s -> Some s

let snapshot t =
  let entries = sorted_entries t in
  let pick f = List.filter_map (fun (name, e) -> Option.map (fun v -> (name, v)) (f e.e_handle)) entries in
  { counters = pick (function C c -> Some (Atomic.get c) | T _ | H _ -> None);
    timers =
      pick (function T tm -> sampled_timer tm | C _ | H _ -> None);
    histograms =
      pick (function H h -> sampled_hist h | C _ | T _ -> None) }

let reset t =
  List.iter
    (fun (_, e) ->
      match e.e_handle with
      | C c -> Atomic.set c 0
      | T tm ->
        locked tm.tm_lock (fun () ->
            tm.tm_count <- 0;
            tm.tm_total <- 0.0;
            tm.tm_max <- 0.0)
      | H h ->
        locked h.hs_lock (fun () ->
            h.hs_count <- 0;
            h.hs_sum <- 0.0;
            h.hs_min <- infinity;
            h.hs_max <- neg_infinity;
            Array.fill h.hs_buckets 0 n_buckets 0))
    (sorted_entries t)

let find t name = locked t.m_lock (fun () -> Hashtbl.find_opt t.m_entries name)

let counter_value t name =
  match find t name with Some { e_handle = C c; _ } -> Atomic.get c | Some _ | None -> 0

(* ---- quantiles --------------------------------------------------------
   Histogram buckets are eighth-octave magnitude classes, so a
   quantile is located by a cumulative walk and interpolated linearly
   inside its bucket [(le/2^(1/8), le]] (bucket 0 covers (0, 1]). The
   answer is exact at bucket boundaries and within a ~9% band
   otherwise — tight enough that p95 and p99 of a real latency
   distribution land in distinct buckets. Clamped to the observed
   [min, max] so tiny samples do not report values no observation
   ever had. *)

let quantile_of_stat h q =
  if h.h_count = 0 then Float.nan
  else begin
    let target = q *. float_of_int h.h_count in
    let rec walk cum = function
      | [] -> h.h_max
      | (le, n) :: rest ->
        let cum' = cum +. float_of_int n in
        if cum' >= target && n > 0 then begin
          let lo = if le <= 1.0 then 0.0 else le /. Float.pow 2.0 0.125 in
          let frac = (target -. cum) /. float_of_int n in
          lo +. (frac *. (le -. lo))
        end
        else walk cum' rest
    in
    let v = walk 0.0 h.h_buckets in
    Float.min h.h_max (Float.max h.h_min v)
  end

let quantiles_of_stat h qs = List.map (fun q -> (q, quantile_of_stat h q)) qs

let quantiles t name qs =
  match find t name with
  | Some { e_handle = H h; _ } -> Option.map (fun s -> quantiles_of_stat s qs) (sampled_hist h)
  | Some _ | None -> None

(* ---- rendering -------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let obj fields = "{" ^ String.concat "," fields ^ "}"
let field name v = Printf.sprintf "\"%s\":%s" (json_escape name) v

let to_json s =
  let counters = List.map (fun (n, v) -> field n (string_of_int v)) s.counters in
  let timers =
    List.map
      (fun (n, tm) ->
        field n
          (obj
             [ field "count" (string_of_int tm.t_count);
               field "total_ms" (json_float (1000.0 *. tm.t_total));
               field "mean_us"
                 (json_float
                    (if tm.t_count = 0 then 0.0
                     else 1e6 *. tm.t_total /. float_of_int tm.t_count));
               field "max_ms" (json_float (1000.0 *. tm.t_max)) ]))
      s.timers
  in
  let hists =
    List.map
      (fun (n, h) ->
        let quant q =
          let v = quantile_of_stat h q in
          json_float (if Float.is_nan v then 0.0 else v)
        in
        field n
          (obj
             [ field "count" (string_of_int h.h_count);
               field "min" (json_float h.h_min);
               field "mean"
                 (json_float
                    (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count));
               field "max" (json_float h.h_max);
               field "p50" (quant 0.5);
               field "p95" (quant 0.95);
               field "p99" (quant 0.99);
               field "buckets"
                 ("["
                 ^ String.concat ","
                     (List.map
                        (fun (le, c) ->
                          obj [ field "le" (json_float le); field "n" (string_of_int c) ])
                        h.h_buckets)
                 ^ "]") ]))
      s.histograms
  in
  obj [ field "counters" (obj counters); field "timers" (obj timers);
        field "histograms" (obj hists) ]

let pp ppf s =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (n, v) -> Format.fprintf ppf "%-32s %12d@," n v) s.counters;
  List.iter
    (fun (n, tm) ->
      Format.fprintf ppf "%-32s %8d calls  %10.2f ms total  %8.1f us/call@," n
        tm.t_count (1000.0 *. tm.t_total)
        (if tm.t_count = 0 then 0.0 else 1e6 *. tm.t_total /. float_of_int tm.t_count))
    s.timers;
  List.iter
    (fun (n, h) ->
      Format.fprintf ppf "%-32s %8d obs    min %.3g  mean %.3g  max %.3g@," n h.h_count
        h.h_min
        (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count)
        h.h_max)
    s.histograms;
  Format.fprintf ppf "@]"
