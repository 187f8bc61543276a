(** CRC-32 (the IEEE 802.3 / zlib polynomial, reflected).

    The synopsis codec frames its on-disk sections, and the wire
    protocol its frames, with a CRC so that a flipped bit or truncated
    write is detected before any decoding work. The checksum is
    computed by zlib's [crc32_z] through a small C stub that neither
    allocates nor enters the OCaml runtime; the range check runs in
    OCaml first. Checksums are returned as non-negative OCaml [int]s
    holding the unsigned 32-bit value, which keeps them trivially
    comparable and serializable through the codec's 8-byte integer
    fields. *)

val digest : string -> int
(** CRC-32 of the whole string. *)

val sub : string -> pos:int -> len:int -> int
(** CRC-32 of [len] bytes starting at [pos].
    @raise Invalid_argument if the range is out of bounds. *)

val update : int -> string -> pos:int -> len:int -> int
(** Extend a running checksum: [update (digest a) b ~pos:0
    ~len:(String.length b) = digest (a ^ b)]. *)
