(** Framed, checksummed record logs: the one on-disk format behind the
    campaign checkpoint, the verdict store and the serve ledger, and the
    record body of every serve socket frame.

    A journal file is an 8-byte caller-supplied magic followed by records

    {v
      4 bytes   payload length, u32le (1 <= len <= max_payload)
      len bytes payload (opaque to this module)
      8 bytes   checksum, u64le: Hash64.mix (of_string payload) (of_int len)
    v}

    This module owns the framing only.  What to keep after a crash is each
    caller's recovery policy: {!load} reports every record it could frame
    ([None] where the checksum failed) and whether a torn tail was cut off,
    and the caller decides which prefix or subset survives, then compacts
    with {!replace} — a temp file and a [rename], so a kill during recovery
    leaves either the old file or the new one, never an empty one.

    {!append} passes the caller's {!Failpoint} sites, in order, before it
    writes: [Raise] raises {!Failpoint.Injected}, [Io_error] raises
    [Sys_error], [Partial_write] writes the first half of the record,
    flushes and raises [Sys_error] (the torn tail of a kill mid-append),
    [Delay] sleeps and then writes. *)

val max_payload : int
(** Largest payload, [2^26] bytes: a longer length prefix is corruption,
    never an allocation request. *)

val overhead : int
(** Framing bytes per record (length prefix plus checksum). *)

val encode : string -> string
(** One framed record.
    @raise Invalid_argument when the payload is empty or longer than
    {!max_payload}. *)

type parsed =
  | Record of string * int  (** payload, offset of the next record *)
  | Corrupt of int          (** framing intact, checksum bad; next offset *)
  | Bad_length              (** length prefix of 0 or above {!max_payload} *)
  | Short                   (** the record runs past the end of the string *)

val parse : string -> int -> parsed
(** [parse s off] reads the record starting at [off].  Shared by {!load}
    and the serve socket decoder. *)

type loaded =
  | Missing  (** no file, or an empty one *)
  | Foreign  (** the file does not start with the expected magic *)
  | Records of { records : string option list; torn : bool }
      (** every framed record in file order, [None] where the checksum
          failed; [torn] when bytes after the last framed record (a bad
          length or a truncated record) were cut off.  The file is clean
          when [torn] is false and no record is [None]. *)

val load : magic:string -> string -> loaded
(** Read a whole journal.  A checksum failure does not stop the scan; a
    bad length or a short record ends it.  Never raises on bad content.
    @raise Sys_error when the file exists but cannot be read. *)

val replace : magic:string -> string -> string list -> unit
(** [replace ~magic path payloads] atomically rewrites [path] to hold
    exactly the magic and these records. *)

type t
(** A journal open for appending. *)

val open_append : string -> t
(** Open an existing journal (written by {!replace}) for appending. *)

val append : ?sites:string list -> t -> string -> unit
(** Append one record after checking the failpoint [sites] in order.
    Buffered: the caller chooses when to {!flush}. *)

val flush : t -> unit

val close : t -> unit
(** Flush (best effort) and close. *)
