(* Tests for Xc_util: the binary heap, the splitmix64 RNG, the
   Zipfian sampler, the CRC-32 checksum and byte slices. *)

module Crc32 = Xc_util.Crc32
module Heap = Xc_util.Heap
module Rng = Xc_util.Rng
module Zipf = Xc_util.Zipf

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ---- Heap ------------------------------------------------------------ *)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  check Alcotest.bool "is_empty" true (Heap.is_empty h);
  check Alcotest.int "length" 0 (Heap.length h);
  check Alcotest.bool "pop" true (Heap.pop h = None);
  check Alcotest.bool "peek" true (Heap.peek h = None);
  check Alcotest.bool "pop_max" true (Heap.pop_max h = None)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p (int_of_float p)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> snd (Option.get (Heap.pop h))) in
  check (Alcotest.list Alcotest.int) "ascending" [ 1; 2; 3; 4; 5 ] order

let test_heap_duplicates () =
  let h = Heap.create () in
  List.iter (fun x -> Heap.push h 1.0 x) [ 10; 20; 30 ];
  Heap.push h 0.5 0;
  check Alcotest.int "length" 4 (Heap.length h);
  check Alcotest.int "min first" 0 (snd (Option.get (Heap.pop h)));
  let rest = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  check (Alcotest.list Alcotest.int) "all present" [ 10; 20; 30 ]
    (List.sort Int.compare rest)

let test_heap_pop_max () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p (int_of_float p)) [ 5.0; 1.0; 9.0; 3.0 ];
  check Alcotest.int "max" 9 (snd (Option.get (Heap.pop_max h)));
  check Alcotest.int "len after" 3 (Heap.length h);
  check Alcotest.int "min still first" 1 (snd (Option.get (Heap.pop h)));
  check Alcotest.int "next max" 5 (snd (Option.get (Heap.pop_max h)));
  check Alcotest.int "last" 3 (snd (Option.get (Heap.pop h)))

let test_heap_growth () =
  let h = Heap.create ~capacity:2 () in
  for i = 999 downto 0 do
    Heap.push h (float_of_int i) i
  done;
  check Alcotest.int "length" 1000 (Heap.length h);
  for i = 0 to 999 do
    check Alcotest.int "ordered pop" i (snd (Option.get (Heap.pop h)))
  done

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 1;
  Heap.push h 2.0 2;
  Heap.clear h;
  check Alcotest.int "cleared" 0 (Heap.length h);
  Heap.push h 3.0 3;
  check Alcotest.int "reusable" 3 (snd (Option.get (Heap.pop h)))

let test_heap_iter () =
  let h = Heap.create () in
  List.iter (fun x -> Heap.push h (float_of_int x) x) [ 4; 2; 7 ];
  let seen = ref [] in
  Heap.iter (fun _ x -> seen := x :: !seen) h;
  check (Alcotest.list Alcotest.int) "iter covers all" [ 2; 4; 7 ]
    (List.sort Int.compare !seen)

let heap_property =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list (pair (float_range (-1000.0) 1000.0) small_int))
    (fun entries ->
      let h = Heap.create () in
      List.iter (fun (p, x) -> Heap.push h p x) entries;
      let popped = ref [] in
      let rec drain () =
        match Heap.pop h with
        | Some (p, _) ->
          popped := p :: !popped;
          drain ()
        | None -> ()
      in
      drain ();
      let prios = List.rev !popped in
      List.length prios = List.length entries
      && prios = List.sort Float.compare (List.map fst entries))

(* ---- Rng ------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let sa = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check Alcotest.bool "different seeds differ" true (sa <> sb)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of bounds: %d" v
  done;
  for _ = 1 to 10_000 do
    let v = Rng.int_range rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "int_range out of bounds: %d" v
  done;
  for _ = 1 to 1_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of bounds: %f" v
  done

let test_rng_invalid () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Rng.int_range: empty range") (fun () ->
      ignore (Rng.int_range rng 3 2));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let test_rng_uniformity () =
  (* coarse: each of 10 cells within 3x of the expected count *)
  let rng = Rng.create 99 in
  let cells = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let c = Rng.int rng 10 in
    cells.(c) <- cells.(c) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 1000 || c > 4000 then Alcotest.failf "cell %d badly skewed: %d" i c)
    cells

let test_rng_split_independent () =
  let rng = Rng.create 5 in
  let child = Rng.split rng in
  let a = List.init 10 (fun _ -> Rng.int rng 1000) in
  let b = List.init 10 (fun _ -> Rng.int child 1000) in
  check Alcotest.bool "split streams differ" true (a <> b)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_chance_extremes () =
  let rng = Rng.create 13 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=1 always true" true (Rng.chance rng 1.0)
  done;
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never true" false (Rng.chance rng 0.0)
  done

let test_rng_geometric () =
  let rng = Rng.create 17 in
  check Alcotest.int "p=1 is 0" 0 (Rng.geometric rng 1.0);
  let mean =
    let n = 5000 in
    let total = ref 0 in
    for _ = 1 to n do
      total := !total + Rng.geometric rng 0.5
    done;
    float_of_int !total /. float_of_int n
  in
  (* E[failures] = (1-p)/p = 1 *)
  if mean < 0.8 || mean > 1.2 then Alcotest.failf "geometric mean off: %f" mean

(* ---- Zipf ------------------------------------------------------------ *)

let test_zipf_uniform_when_flat () =
  let z = Zipf.create ~n:4 ~skew:0.0 in
  List.iter (fun k -> checkf "uniform prob" 0.25 (Zipf.prob z k)) [ 0; 1; 2; 3 ]

let test_zipf_probs_sum_to_one () =
  let z = Zipf.create ~n:100 ~skew:1.0 in
  let total = List.fold_left (fun s k -> s +. Zipf.prob z k) 0.0 (List.init 100 Fun.id) in
  checkf "sums to 1" 1.0 total

let test_zipf_monotone () =
  let z = Zipf.create ~n:50 ~skew:1.2 in
  for k = 0 to 48 do
    if Zipf.prob z k < Zipf.prob z (k + 1) -. 1e-12 then
      Alcotest.failf "prob not decreasing at %d" k
  done

let test_zipf_out_of_range () =
  let z = Zipf.create ~n:5 ~skew:1.0 in
  checkf "below" 0.0 (Zipf.prob z (-1));
  checkf "above" 0.0 (Zipf.prob z 5)

let test_zipf_sampling_skew () =
  let z = Zipf.create ~n:1000 ~skew:1.0 in
  let rng = Rng.create 23 in
  let head = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Zipf.sample z rng < 10 then incr head
  done;
  (* with skew 1, the top-10 ranks carry ~39% of the mass for n=1000 *)
  let frac = float_of_int !head /. float_of_int n in
  if frac < 0.25 || frac > 0.55 then Alcotest.failf "head mass off: %f" frac

let test_zipf_sample_in_range =
  QCheck.Test.make ~name:"zipf samples in range" ~count:100
    QCheck.(pair (int_range 1 500) (float_range 0.0 2.0))
    (fun (n, skew) ->
      let z = Zipf.create ~n ~skew in
      let rng = Rng.create (n + int_of_float (skew *. 100.0)) in
      List.for_all
        (fun _ ->
          let s = Zipf.sample z rng in
          s >= 0 && s < n)
        (List.init 50 Fun.id))

(* ---- Crc32 ------------------------------------------------------------ *)

(* the plain one-table, one-byte-at-a-time CRC that Crc32 must
   reproduce *)
let crc_reference crc s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc_known_answer () =
  check Alcotest.int "check value" 0xCBF43926 (Crc32.digest "123456789");
  check Alcotest.int "empty" 0 (Crc32.digest "");
  (* long enough for zlib's main loop plus a ragged tail *)
  let s = String.init 1003 (fun i -> Char.chr ((i * 131) land 0xFF)) in
  check Alcotest.int "long string" (crc_reference 0 s ~pos:0 ~len:1003) (Crc32.digest s);
  Alcotest.check_raises "range checked" (Invalid_argument "Crc32.update: range out of bounds")
    (fun () -> ignore (Crc32.sub "abc" ~pos:2 ~len:2))

let show_slice (s, pos, len, crc) = Printf.sprintf "%S pos=%d len=%d crc=%#x" s pos len crc

(* zlib folds bytes one at a time below 47 bytes and runs its main loop
   above, so lengths mix short ones with long ones up to ~70 KB *)
let gen_crc_len = QCheck.Gen.(frequency [ (3, int_range 0 64); (1, int_range 65 70_000) ])

let crc_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 0 31 >>= fun pos ->
      gen_crc_len >>= fun len ->
      int_range 0 9 >>= fun extra ->
      int_range 0 0xFFFFFFFF >>= fun crc ->
      string_size ~gen:char (return (pos + len + extra)) >|= fun s -> (s, pos, len, crc))
  in
  let print (s, pos, len, crc) =
    if String.length s <= 80 then show_slice (s, pos, len, crc)
    else Printf.sprintf "<%d bytes> pos=%d len=%d crc=%#x" (String.length s) pos len crc
  in
  QCheck.Test.make ~name:"crc32 = bytewise reference at any offset" ~count:1000
    (QCheck.make ~print gen)
    (fun (s, pos, len, crc) ->
      Crc32.sub s ~pos ~len = crc_reference 0 s ~pos ~len
      && Crc32.update crc s ~pos ~len = crc_reference crc s ~pos ~len)

let crc_update_concat =
  let str = QCheck.Gen.(string_size gen_crc_len) in
  QCheck.Test.make ~name:"update (digest a) b = digest (a ^ b)" ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "<%d + %d bytes>" (String.length a) (String.length b))
       QCheck.Gen.(pair str str))
    (fun (a, b) ->
      Crc32.update (Crc32.digest a) b ~pos:0 ~len:(String.length b) = Crc32.digest (a ^ b))

(* a fixed, seeded 1 MiB string and its checksum, pinned: a change of
   implementation that altered any artifact or frame CRC fails here *)
let test_crc_golden () =
  let rng = Rng.create 2006 in
  let s = String.init (1 lsl 20) (fun _ -> Char.chr (Rng.int rng 256)) in
  check Alcotest.int "reference" (crc_reference 0 s ~pos:0 ~len:(String.length s))
    (Crc32.digest s);
  check Alcotest.int "pinned" 0x5aa97c4c (Crc32.digest s)

(* ---- slices -------------------------------------------------------------- *)

module Slices = Xc_util.Slices

(* short texts over a small alphabet, so that equal texts, shared
   prefixes and hash-slot collisions all come up *)
let gen_texts =
  QCheck.(
    list_of_size (Gen.int_range 0 120)
      (string_gen_of_size (Gen.int_range 0 20) (Gen.oneofl [ 'a'; 'b'; ' ' ])))

(* a slice hashes and compares like the string it spells: the table
   answers every slice exactly as a Hashtbl keyed by strings does, and
   both hold the same number of texts *)
let slices_table_matches_hashtbl =
  QCheck.Test.make ~name:"slice table = Hashtbl on strings" ~count:300
    (QCheck.pair gen_texts gen_texts)
    (fun (stored, probed) ->
      let table = Slices.Table.create () and model = Hashtbl.create 16 in
      List.iteri
        (fun i s ->
          if not (Hashtbl.mem model s) then begin
            Hashtbl.add model s i;
            Slices.Table.add table s i
          end)
        stored;
      let probes = Slices.of_strings (Array.of_list (stored @ probed)) in
      let src = Slices.source probes in
      let agrees i =
        let s = Slices.to_string probes i in
        Slices.hash_range src (Slices.off probes i) (Slices.len probes i)
        = Slices.hash_range (Bytes.of_string s) 0 (String.length s)
        &&
        match Slices.Table.find table src (Slices.off probes i) (Slices.len probes i) with
        | v -> Hashtbl.find_opt model s = Some v
        | exception Not_found -> not (Hashtbl.mem model s)
      in
      Slices.Table.length table = Hashtbl.length model
      && List.for_all agrees (List.init (Slices.length probes) Fun.id))

let test_slices_reuse () =
  let t = Slices.of_strings [| "//a"; ""; "//b/c" |] in
  check Alcotest.int "three slices" 3 (Slices.length t);
  check Alcotest.string "middle slice is empty" "" (Slices.to_string t 1);
  check Alcotest.string "last slice" "//b/c" (Slices.to_string t 2);
  (* a reset keeps the arrays and starts over on a new source *)
  let src = Bytes.of_string "xx//dyy" in
  Slices.reset t src;
  Slices.add t 2 3;
  check Alcotest.int "one slice after the reset" 1 (Slices.length t);
  check Alcotest.string "slice of the new source" "//d" (Slices.to_string t 0);
  (match Slices.off t 1 with
  | _ -> Alcotest.fail "a slice past the end was readable"
  | exception Invalid_argument _ -> ());
  let cleared = Slices.Table.create () in
  Slices.Table.add cleared "//d" 1;
  Slices.Table.clear cleared;
  check Alcotest.int "cleared table is empty" 0 (Slices.Table.length cleared);
  match Slices.Table.find cleared src 2 3 with
  | _ -> Alcotest.fail "a cleared text was found"
  | exception Not_found -> ()

(* Texts whose length is a multiple of 8 and that differ only in their
   last two bytes (a family like [//movie/titleXY]) differ only in the
   high bits of the last word hashed; they must still spread over the
   slots of a 2^16-slot table rather than share one probe cluster. *)
let test_hash_tail_spread () =
  List.iter
    (fun prefix ->
      let texts =
        List.concat_map
          (fun x -> List.init 26 (fun y -> Printf.sprintf "%s%c%c" prefix x (Char.chr (97 + y))))
          (List.init 26 (fun x -> Char.chr (97 + x)))
      in
      let slots = Hashtbl.create 1024 in
      List.iter
        (fun s ->
          check Alcotest.int "length is a multiple of 8" 0 (String.length s mod 8);
          Hashtbl.replace slots (Slices.hash_range (Bytes.of_string s) 0 (String.length s) land 0xFFFF) ())
        texts;
      if Hashtbl.length slots < List.length texts / 2 then
        Alcotest.failf "%d texts ending in two varying bytes after %S fill only %d slots"
          (List.length texts) prefix (Hashtbl.length slots))
    [ "//movies/title"; "//open_auction[bid > 1"; "//item" ]

let seeded test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 12 |]) test

let () =
  Alcotest.run "xc_util"
    [ ( "heap",
        [ Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "pop_max" `Quick test_heap_pop_max;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "iter" `Quick test_heap_iter;
          QCheck_alcotest.to_alcotest heap_property ] );
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "geometric" `Quick test_rng_geometric ] );
      ( "zipf",
        [ Alcotest.test_case "flat is uniform" `Quick test_zipf_uniform_when_flat;
          Alcotest.test_case "probs sum to 1" `Quick test_zipf_probs_sum_to_one;
          Alcotest.test_case "monotone" `Quick test_zipf_monotone;
          Alcotest.test_case "out of range" `Quick test_zipf_out_of_range;
          Alcotest.test_case "sampling skew" `Quick test_zipf_sampling_skew;
          QCheck_alcotest.to_alcotest test_zipf_sample_in_range ] );
      ( "crc32",
        [ Alcotest.test_case "known answers" `Quick test_crc_known_answer;
          Alcotest.test_case "golden 1 MiB digest" `Quick test_crc_golden;
          seeded crc_matches_reference;
          seeded crc_update_concat ] );
      ( "slices",
        [ Alcotest.test_case "reuse and bounds" `Quick test_slices_reuse;
          Alcotest.test_case "hash spreads the last bytes" `Quick test_hash_tail_spread;
          seeded slices_table_matches_hashtbl ] ) ]
