(** Texts as byte ranges of one buffer, held in reusable arrays.

    A slice set names [n] texts as [(offset, length)] pairs into one
    source buffer without building a string for any of them. Its arrays
    grow by doubling and are reused across {!reset}s, so refilling a
    warm slice set with as many texts as before allocates nothing. The
    daemon reads the query texts of an estimate frame this way — the
    slices point into the connection's read buffer — and the batch
    engine's text index ({!Table}) resolves them in place.

    A slice set does not own its source: the slices stay valid only
    until the buffer they point into is rewritten. *)

type t

val create : unit -> t
(** An empty slice set over an empty buffer. *)

val reset : t -> Bytes.t -> unit
(** Drop every slice and make the buffer the source of the next ones. *)

val add : t -> int -> int -> unit
(** [add t off len] appends the source's [len] bytes at [off]. The
    range is the caller's to check. *)

val length : t -> int
(** Number of slices. *)

val source : t -> Bytes.t
val off : t -> int -> int
val len : t -> int -> int

val to_string : t -> int -> string
(** Slice [i] as a fresh string. *)

val of_strings : string array -> t
(** A slice set with one slice per string, over a fresh buffer holding
    the strings end to end. *)

val hash_range : Bytes.t -> int -> int -> int
(** A non-negative hash of [len] bytes at [off], read eight bytes at a
    time. It depends on the bytes only, so a slice hashes like the
    string it spells. *)

(** A table from texts to values, probed by a byte range in place.

    Open addressing with linear probing over a power-of-two slot array
    kept at most half full. Each entry stores its key's hash, so a
    probe compares bytes (eight at a time) only on a hash match, and
    neither a probe nor a hit allocates. Not thread-safe. *)
module Table : sig
  type 'a t

  val create : unit -> 'a t

  val length : 'a t -> int
  (** Entries held. *)

  val find : 'a t -> Bytes.t -> int -> int -> 'a
  (** [find t src off len] is the value stored under the text spelled
      by those bytes.
      @raise Not_found when there is none. *)

  val add : 'a t -> string -> 'a -> unit
  (** Store a value under a text the table does not hold yet. *)

  val clear : 'a t -> unit
  (** Drop every entry and shrink back to the initial capacity. *)
end
