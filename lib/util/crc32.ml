(* CRC-32, reflected, polynomial 0xEDB88320 (zlib/IEEE), computed
   slicing-by-8: eight 256-entry tables, one flat array, where table
   [k] advances a byte through k further zero bytes. The main loop
   folds eight bytes per step with two little-endian 32-bit reads; the
   tail (and any input shorter than 8 bytes) runs bytewise on table 0.
   Checksums live in non-negative ints (the unsigned 32-bit value fits
   any 63-bit OCaml int).

   The tables are a Bigarray, outside the OCaml heap, at the same
   lookup speed as an OCaml array. As a 2048-word OCaml array they
   shifted the daemon's major-GC pacing enough to raise its peak RSS by
   ~2 MB (~8%) on the point-skew benchmark workload (2-vCPU x86-64 VM). *)

type tables = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let tables =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (8 * 256) in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.{n} <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.{((k - 1) * 256) + n} in
         t.{(k * 256) + n} <- (prev lsr 8) lxor t.{prev land 0xFF}
       done
     done;
     t)

let[@inline] get32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

(* entry [b] of table [k] *)
let[@inline] tb (t : tables) k b = Bigarray.Array1.unsafe_get t ((k lsl 8) lor b)

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update: range out of bounds";
  let t = Lazy.force tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor get32 s !i and hi = get32 s (!i + 4) in
    c :=
      tb t 7 (lo land 0xFF)
      lxor tb t 6 ((lo lsr 8) land 0xFF)
      lxor tb t 5 ((lo lsr 16) land 0xFF)
      lxor tb t 4 ((lo lsr 24) land 0xFF)
      lxor tb t 3 (hi land 0xFF)
      lxor tb t 2 ((hi lsr 8) land 0xFF)
      lxor tb t 1 ((hi lsr 16) land 0xFF)
      lxor tb t 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := tb t 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let sub s ~pos ~len = update 0 s ~pos ~len
let digest s = sub s ~pos:0 ~len:(String.length s)
