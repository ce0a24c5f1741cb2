(* Durable, crash-resilient snapshots.

   A checkpoint file is a small self-describing container:

     line 1   BVF-CHECKPOINT <format> <tag>\n     (ASCII header)
     line 2   <md5 hex of header and payload>\n (integrity digest)
     rest     payload (marshalled OCaml value)

   The [tag] names the payload schema (e.g. "campaign/1") so a reader
   never unmarshals bytes written by a different producer or an older
   schema; the digest catches truncation and corruption from a crash
   mid-write, and it covers the header too, so one file's header
   spliced onto another file's payload is corrupt rather than a value
   unmarshalled at the wrong type.  Writes are atomic against a killed
   process: the file is assembled at [path ^ ".tmp"], flushed and
   closed, then renamed over [path], so a campaign killed at any
   instant leaves either the previous checkpoint or the new one —
   never a torn file.  Nothing is fsynced, so the write is not durable
   against power loss or a kernel crash: the rename may reach the disk
   before the data.  That is the write-then-rename pattern of corpus
   databases in long-lived fuzzers (syzkaller's corpus.db, AFL's
   queue); the same {!atomic_write} primitive also publishes the
   supervisor's per-iteration heartbeats, where an fsync per write
   would cost more than the iteration. *)

let magic = "BVF-CHECKPOINT"
(* 2: the digest covers the header line as well as the payload *)
let format_version = 2

type error =
  | Io of string                 (* open/read/write/rename failure *)
  | Bad_magic                    (* not a checkpoint file *)
  | Tag_mismatch of { expected : string; found : string }
  | Corrupt of string            (* digest mismatch, truncation, ... *)

let error_to_string = function
  | Io msg -> Printf.sprintf "i/o error: %s" msg
  | Bad_magic -> "not a BVF checkpoint file"
  | Tag_mismatch { expected; found } ->
    Printf.sprintf "checkpoint holds %S, expected %S" found expected
  | Corrupt msg -> Printf.sprintf "corrupt checkpoint: %s" msg

let valid_tag (tag : string) : bool =
  tag <> ""
  && String.for_all
       (fun c -> c <> ' ' && c <> '\n' && c <> '\r')
       tag

(* -- Writing ----------------------------------------------------------- *)

(* The one write-then-rename in the tree: readers only ever observe
   complete files.  A failure removes the temporary and re-raises. *)
let atomic_write (path : string) (contents : string) : unit =
  let tmp = path ^ ".tmp" in
  try
    (* flush inside: the closing close_out_noerr would swallow a
       short write *)
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc contents;
        Out_channel.flush oc);
    Sys.rename tmp path
  with Sys_error _ as e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let digest ~(header : string) (payload : string) : string =
  Digest.to_hex (Digest.string (header ^ "\n" ^ payload))

let save ~(path : string) ~(tag : string) (value : 'a) :
  (unit, error) result =
  if not (valid_tag tag) then
    invalid_arg "Checkpoint.save: tag must be non-empty and spaceless";
  let payload = Marshal.to_string value [] in
  let header = Printf.sprintf "%s %d %s" magic format_version tag in
  match
    atomic_write path
      (Printf.sprintf "%s\n%s\n%s" header (digest ~header payload) payload)
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Io msg)

(* -- Reading ----------------------------------------------------------- *)

let read_file (path : string) : (string, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Ok contents
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Corrupt "truncated while reading")

let load ~(path : string) ~(tag : string) : ('a, error) result =
  match read_file path with
  | Error _ as e -> e
  | Ok contents ->
    match String.index_opt contents '\n' with
    | None -> Error Bad_magic
    | Some nl1 ->
      let header = String.sub contents 0 nl1 in
      (match String.split_on_char ' ' header with
       | [ m; v; found_tag ] when m = magic ->
         if v <> string_of_int format_version then
           Error
             (Corrupt (Printf.sprintf "format version %s, expected %d" v
                         format_version))
         else if found_tag <> tag then
           Error (Tag_mismatch { expected = tag; found = found_tag })
         else begin
           match String.index_from_opt contents (nl1 + 1) '\n' with
           | None -> Error (Corrupt "missing digest line")
           | Some nl2 ->
             let found = String.sub contents (nl1 + 1) (nl2 - nl1 - 1) in
             let payload =
               String.sub contents (nl2 + 1)
                 (String.length contents - nl2 - 1)
             in
             if digest ~header payload <> found then
               Error (Corrupt "digest mismatch")
             else begin
               (* a digest collision or a file written by a different
                  build can still hand Marshal undecodable bytes; any
                  exception here is a corrupt file, never a crash *)
               match Marshal.from_string payload 0 with
               | v -> Ok v
               | exception e -> Error (Corrupt (Printexc.to_string e))
             end
         end
       | _ -> Error Bad_magic)
