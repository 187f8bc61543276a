type t = {
  mutable src : Bytes.t;
  mutable offs : int array;
  mutable lens : int array;
  mutable n : int;
}

let create () = { src = Bytes.empty; offs = Array.make 16 0; lens = Array.make 16 0; n = 0 }

let reset t src =
  t.src <- src;
  t.n <- 0

let add t off len =
  if t.n = Array.length t.offs then begin
    let grow a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.offs <- grow t.offs;
    t.lens <- grow t.lens
  end;
  Array.unsafe_set t.offs t.n off;
  Array.unsafe_set t.lens t.n len;
  t.n <- t.n + 1

let length t = t.n
let source t = t.src

let off t i =
  if i < 0 || i >= t.n then invalid_arg "Slices.off";
  Array.unsafe_get t.offs i

let len t i =
  if i < 0 || i >= t.n then invalid_arg "Slices.len";
  Array.unsafe_get t.lens i

let to_string t i = Bytes.sub_string t.src (off t i) (len t i)

let of_strings strings =
  let t = create () in
  reset t (Bytes.unsafe_of_string (String.concat "" (Array.to_list strings)));
  ignore
    (Array.fold_left
       (fun pos s ->
         add t pos (String.length s);
         pos + String.length s)
       0 strings);
  t

(* Eight bytes per step, native order: hashes and comparisons never
   leave the process, so byte order does not matter. Called on the
   primitive directly so the loads stay unboxed. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] mix h =
  let h = h * 0x100000001b3 in
  h lxor (h lsr 29)

let hash_range src off len =
  let h = ref (mix (len + 0x2545F491)) in
  let i = ref off and stop = off + len in
  while !i + 8 <= stop do
    h := mix (!h lxor Int64.to_int (get64u src !i));
    i := !i + 8
  done;
  while !i < stop do
    h := mix (!h lxor Char.code (Bytes.unsafe_get src !i));
    incr i
  done;
  (* a product's bit k depends only on bits 0..k of its input, so the
     last step's high bits reach the low (slot) bits only through a
     second round *)
  mix !h land max_int

(* [key] spells the [len] bytes of [src] at [off]; the caller has
   checked the lengths agree *)
let same_bytes key src off len =
  let k = Bytes.unsafe_of_string key in
  let i = ref 0 and same = ref true in
  while !same && !i + 8 <= len do
    same := get64u k !i = get64u src (off + !i);
    i := !i + 8
  done;
  while !same && !i < len do
    same := Bytes.unsafe_get k !i = Bytes.unsafe_get src (off + !i);
    incr i
  done;
  !same

module Table = struct
  type 'a entry = Empty | Entry of { hash : int; key : string; value : 'a }
  type 'a t = { mutable slots : 'a entry array; mutable count : int }

  let initial_capacity = 64
  let create () = { slots = Array.make initial_capacity Empty; count = 0 }
  let length t = t.count

  let clear t =
    t.slots <- Array.make initial_capacity Empty;
    t.count <- 0

  let find t src off len =
    let h = hash_range src off len in
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let i = ref (h land mask) and found = ref Empty in
    while
      match Array.unsafe_get slots !i with
      | Empty -> false
      | Entry e as entry ->
        if e.hash = h && String.length e.key = len && same_bytes e.key src off len then begin
          found := entry;
          false
        end
        else true
    do
      i := (!i + 1) land mask
    done;
    match !found with Entry e -> e.value | Empty -> raise_notrace Not_found

  (* the slot an entry of hash [h] goes to: the first empty one *)
  let insert slots entry h =
    let mask = Array.length slots - 1 in
    let i = ref (h land mask) in
    while Array.unsafe_get slots !i != Empty do
      i := (!i + 1) land mask
    done;
    Array.unsafe_set slots !i entry

  let add t key value =
    if 2 * (t.count + 1) > Array.length t.slots then begin
      let slots = Array.make (2 * Array.length t.slots) Empty in
      Array.iter (function Empty -> () | Entry e as entry -> insert slots entry e.hash) t.slots;
      t.slots <- slots
    end;
    let hash = hash_range (Bytes.unsafe_of_string key) 0 (String.length key) in
    insert t.slots (Entry { hash; key; value }) hash;
    t.count <- t.count + 1
end
