(** The on-disk index artifact that [eppi construct -o] writes.

    Layout: the 8-byte {!magic} [\x89EPPIDX\n], then an {!Index_codec}
    payload, unchanged.  The payload leads with its own codec version
    byte, so a file minus its magic is exactly the payload of a
    {!Wire.Republish_binary} frame, and republishing a file ships its
    bytes without decoding them.

    The format is told by the file's content, never by its name.  A CSV
    index ({!Eppi.Index.to_csv}, recognised by its [# eppi-index] header)
    was the on-disk format before this one; it is refused with its own
    error, naming [eppi construct] to rebuild and [eppi export --csv] as
    the way CSV is produced now.

    Reading and writing record [artifact.read] and [artifact.write] trace
    spans, each with a [bytes] argument (the file size). *)

val magic : string
(** ["\x89EPPIDX\n"].  The non-ASCII first byte keeps a text file from
    ever matching; the trailing newline catches newline translation. *)

type error =
  | Bad_magic  (** Neither an index file nor a CSV index. *)
  | Csv_index  (** A CSV index, the superseded on-disk format. *)
  | Codec of Index_codec.error
      (** The payload after the magic: an unknown version, truncation
          (a file shorter than the magic included) or malformed bytes. *)

val error_to_string : error -> string

val write : out_channel -> Eppi.Index.t -> int
(** Write the artifact (magic, then {!Index_codec.encode}) and flush;
    returns the bytes written. *)

val payload : string -> (string, error) result
(** The codec payload of a file's contents.  Checks the magic and the
    version byte only: whether the rest is a valid index is for
    {!Index_codec.decode} (or a daemon's) to judge. *)

val decode : string -> (Eppi.Index.t, error) result
(** A file's contents as an index.  Total: any input is [Ok] or a typed
    [Error]. *)

val read : string -> (Eppi.Index.t, error) result
(** {!decode} of the file at a path.
    @raise Sys_error when the file cannot be read. *)

val read_payload : string -> (string, error) result
(** {!payload} of the file at a path.
    @raise Sys_error when the file cannot be read. *)
