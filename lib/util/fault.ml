type kind = Truncate | Bit_flip | Short_write | Enospc | Eio

let kind_name = function
  | Truncate -> "truncate"
  | Bit_flip -> "bitflip"
  | Short_write -> "short"
  | Enospc -> "enospc"
  | Eio -> "eio"

let all_kinds = [ Truncate; Bit_flip; Short_write; Enospc; Eio ]

type config = {
  seed : int;
  prob : float;
  kinds : kind list;
  sites : string list;
}

exception Injected of { site : string; kind : kind }

(* ---- configuration ----------------------------------------------------- *)

let kind_of_string = function
  | "truncate" -> Some Truncate
  | "bitflip" -> Some Bit_flip
  | "short" -> Some Short_write
  | "enospc" -> Some Enospc
  | "eio" -> Some Eio
  | _ -> None

let config_of_string spec =
  let default = { seed = 1; prob = 0.1; kinds = all_kinds; sites = [] } in
  let parse_kinds s =
    if String.equal s "all" then Ok all_kinds
    else
      let names = String.split_on_char '+' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
          match kind_of_string name with
          | Some k -> go (k :: acc) rest
          | None -> Error (Printf.sprintf "unknown fault kind %S" name))
      in
      go [] names
  in
  let parse_field cfg field =
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" field)
    | Some i -> (
      let key = String.sub field 0 i in
      let v = String.sub field (i + 1) (String.length field - i - 1) in
      match key with
      | "seed" -> (
        match int_of_string_opt v with
        | Some seed -> Ok { cfg with seed }
        | None -> Error (Printf.sprintf "bad seed %S" v))
      | "p" | "prob" -> (
        match float_of_string_opt v with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok { cfg with prob = p }
        | _ -> Error (Printf.sprintf "bad probability %S" v))
      | "kinds" -> (
        match parse_kinds v with
        | Ok kinds -> Ok { cfg with kinds }
        | Error _ as e -> e)
      | "sites" -> Ok { cfg with sites = String.split_on_char '+' v }
      | _ -> Error (Printf.sprintf "unknown XC_FAULTS key %S" key))
  in
  let fields =
    List.filter (fun s -> String.length s > 0) (String.split_on_char ',' spec)
  in
  List.fold_left
    (fun acc field -> Result.bind acc (fun cfg -> parse_field cfg field))
    (Ok default) fields

(* ---- state ------------------------------------------------------------- *)

let state : (config * Rng.t) option ref = ref None
let initialized = ref false
let injected = ref 0

let ensure () =
  if not !initialized then begin
    initialized := true;
    match Sys.getenv_opt "XC_FAULTS" with
    | None | Some "" -> ()
    | Some spec -> (
      match config_of_string spec with
      | Ok cfg -> state := Some (cfg, Rng.create cfg.seed)
      | Error msg ->
        Printf.eprintf "xcluster: ignoring malformed XC_FAULTS (%s)\n%!" msg)
  end

let configure cfg =
  initialized := true;
  state := Option.map (fun c -> (c, Rng.create c.seed)) cfg

let current () =
  ensure ();
  Option.map fst !state

let enabled () =
  ensure ();
  Option.is_some !state

let injections () = !injected

(* ---- injection points --------------------------------------------------- *)

let fires (cfg, rng) ~site kind =
  List.mem kind cfg.kinds
  && (cfg.sites = [] || List.mem site cfg.sites)
  && Rng.chance rng cfg.prob

let record ~site kind =
  incr injected;
  ignore site;
  ignore kind;
  Metrics.incr Metrics.global "fault.injected"

(* [len] bytes at [pos] are the payload; the result is its visible
   length after the fault. [mutate] runs this over a copy, so the two
   forms draw the same values and replay a seeded storm identically. *)
let mutate_sub ~site b ~pos ~len =
  ensure ();
  match !state with
  | None -> len
  | Some active ->
    if fires active ~site Truncate then begin
      record ~site Truncate;
      Rng.int (snd active) (len + 1)
    end
    else if fires active ~site Bit_flip && len > 0 then begin
      record ~site Bit_flip;
      let rng = snd active in
      let i = pos + Rng.int rng len in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
      len
    end
    else len

let mutate ~site payload =
  if not (enabled ()) then payload
  else
    let b = Bytes.of_string payload in
    let len = mutate_sub ~site b ~pos:0 ~len:(Bytes.length b) in
    if len = Bytes.length b then Bytes.unsafe_to_string b else Bytes.sub_string b 0 len

let raise_io ~site =
  ensure ();
  match !state with
  | None -> ()
  | Some active ->
    if fires active ~site Enospc then begin
      record ~site Enospc;
      raise (Injected { site; kind = Enospc })
    end
    else if fires active ~site Eio then begin
      record ~site Eio;
      raise (Injected { site; kind = Eio })
    end

let short_write ~site len =
  ensure ();
  match !state with
  | None -> len
  | Some active ->
    if len > 0 && fires active ~site Short_write then begin
      record ~site Short_write;
      Rng.int (snd active) len
    end
    else len
