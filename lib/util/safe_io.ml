type error =
  | No_space of string
  | Io of string

let pp_error ppf = function
  | No_space step -> Format.fprintf ppf "no space left on device (%s)" step
  | Io msg -> Format.fprintf ppf "%s" msg

let error_to_string e = Format.asprintf "%a" pp_error e

(* [Sys_error] names the path when opening fails but not when a later
   read does (a directory opens, then fails to read): name it once *)
let naming path msg =
  if String.starts_with ~prefix:(path ^ ": ") msg then msg else path ^ ": " ^ msg

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok (Fault.mutate ~site:"safe_io.read" s)
  | exception Sys_error msg -> Error (Io (naming path msg))
  | exception End_of_file -> Error (Io (path ^ ": unexpected end of file"))

(* Durability of the rename itself: fsync the containing directory.
   Best-effort — some filesystems refuse fsync on a directory fd, and
   the atomicity guarantee does not depend on it. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let write_atomic path data =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.tmp.%d" (Filename.basename path) (Unix.getpid ()))
  in
  let result =
    try
      Fault.raise_io ~site:"safe_io.open";
      let fd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
      in
      let closed = ref false in
      let close_noerr () =
        if not !closed then begin
          closed := true;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
      in
      (try
         let bytes = Bytes.unsafe_of_string data in
         let len = Bytes.length bytes in
         let pos = ref 0 in
         while !pos < len do
           Fault.raise_io ~site:"safe_io.write";
           let want = len - !pos in
           let grant = Fault.short_write ~site:"safe_io.write" want in
           if grant > 0 then pos := !pos + Unix.write fd bytes !pos grant;
           (* a simulated device that accepted only part of the write
              is out of space; a real [Unix.write] retries via the loop *)
           if grant < want then
             raise (Fault.Injected { site = "safe_io.write"; kind = Fault.Enospc })
         done;
         Fault.raise_io ~site:"safe_io.fsync";
         Unix.fsync fd;
         close_noerr ();
         Fault.raise_io ~site:"safe_io.rename";
         Unix.rename tmp path;
         fsync_dir dir;
         Ok ()
       with e ->
         close_noerr ();
         raise e)
    with
    | Fault.Injected { site; kind = Fault.Enospc } -> Error (No_space site)
    | Fault.Injected { site; kind } ->
      Error (Io (Printf.sprintf "injected %s fault at %s" (Fault.kind_name kind) site))
    | Unix.Unix_error (Unix.ENOSPC, fn, _) -> Error (No_space fn)
    | Unix.Unix_error (e, fn, arg) ->
      Error (Io (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))
    | Sys_error msg -> Error (Io msg)
  in
  (match result with
  | Ok () -> ()
  | Error _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
  result
