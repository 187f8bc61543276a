type kind = Truncate | Bit_flip | Short_write | Enospc | Eio

let kind_name = function
  | Truncate -> "truncate"
  | Bit_flip -> "bitflip"
  | Short_write -> "short"
  | Enospc -> "enospc"
  | Eio -> "eio"

type config = {
  seed : int;
  prob : float;
  kinds : kind list;
  sites : string list;
}

exception Injected of { site : string; kind : kind }

(* ---- state ------------------------------------------------------------- *)

let state : (config * Rng.t) option ref = ref None

let configure cfg = state := Option.map (fun c -> (c, Rng.create c.seed)) cfg
let current () = Option.map fst !state

(* ---- injection points --------------------------------------------------- *)

let fires (cfg, rng) ~site kind =
  List.mem kind cfg.kinds
  && (cfg.sites = [] || List.mem site cfg.sites)
  && Rng.chance rng cfg.prob

let record () = Metrics.incr Meters.Fault.injected

(* [len] bytes at [pos] are the payload; the result is its visible
   length after the fault. [mutate] runs this over a copy, so the two
   forms draw the same values and replay a seeded storm identically. *)
let mutate_sub ~site b ~pos ~len =
  match !state with
  | None -> len
  | Some active ->
    if fires active ~site Truncate then begin
      record ();
      Rng.int (snd active) (len + 1)
    end
    else if fires active ~site Bit_flip && len > 0 then begin
      record ();
      let rng = snd active in
      let i = pos + Rng.int rng len in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
      len
    end
    else len

let mutate ~site payload =
  if Option.is_none !state then payload
  else
    let b = Bytes.of_string payload in
    let len = mutate_sub ~site b ~pos:0 ~len:(Bytes.length b) in
    if len = Bytes.length b then Bytes.unsafe_to_string b else Bytes.sub_string b 0 len

let raise_io ~site =
  match !state with
  | None -> ()
  | Some active ->
    if fires active ~site Enospc then begin
      record ();
      raise (Injected { site; kind = Enospc })
    end
    else if fires active ~site Eio then begin
      record ();
      raise (Injected { site; kind = Eio })
    end

let short_write ~site len =
  match !state with
  | None -> len
  | Some active ->
    if len > 0 && fires active ~site Short_write then begin
      record ();
      Rng.int (snd active) len
    end
    else len
