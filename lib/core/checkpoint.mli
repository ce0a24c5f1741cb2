(** Durable, crash-resilient snapshots.

    A checkpoint file is a self-describing container: an ASCII header
    naming the payload schema ([tag]), an MD5 integrity digest over the
    header and the payload, and a marshalled payload.  Writes are
    atomic (write to [path ^ ".tmp"], then rename), so a process killed
    at any instant leaves either the previous checkpoint or the new one
    — never a torn file.  They are not fsynced: atomic against a killed
    process, not durable against power loss.

    The payload type is the caller's contract: a value saved under a
    [tag] must always be loaded at the same type under the same [tag].
    Bump the tag (e.g. ["campaign/1"] → ["campaign/2"]) whenever the
    payload schema changes; stale files then fail with
    [Tag_mismatch] instead of unmarshalling garbage. *)

type error =
  | Io of string
  | Bad_magic                  (** not a checkpoint file *)
  | Tag_mismatch of { expected : string; found : string }
  | Corrupt of string          (** digest mismatch, truncation, ... *)

val error_to_string : error -> string

val atomic_write : string -> string -> unit
(** [atomic_write path contents] writes [contents] to [path ^ ".tmp"]
    and renames it over [path].  The tree's one write-then-rename:
    checkpoints and the supervisor's protocol files go through it.
    @raise Sys_error on failure, after removing the temporary. *)

val save : path:string -> tag:string -> 'a -> (unit, error) result
(** Atomically persist [value] under [tag].
    @raise Invalid_argument when [tag] is empty or contains spaces or
    newlines. *)

val load : path:string -> tag:string -> ('a, error) result
(** Read back a value saved with the same [tag].  The annotated result
    type must match the saved type — enforce this by pairing each tag
    with exactly one type at the call sites. *)
