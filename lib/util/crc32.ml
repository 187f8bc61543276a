(* CRC-32, reflected, polynomial 0xEDB88320 (zlib/IEEE), computed by
   zlib's crc32_z in crc32_stubs.c. Checksums live in non-negative ints
   (the unsigned 32-bit value fits any 63-bit OCaml int). *)

external crc32_z :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "xc_crc32_update_byte" "xc_crc32_update"
[@@noalloc]

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update: range out of bounds";
  crc32_z crc s pos len

let sub s ~pos ~len = update 0 s ~pos ~len
let digest s = sub s ~pos:0 ~len:(String.length s)
