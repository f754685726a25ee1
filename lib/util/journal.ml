let max_payload = 1 lsl 26
let overhead = 4 + 8

let checksum ~len payload = Hash64.mix (Hash64.of_string payload) (Hash64.of_int len)

let encode payload =
  let len = String.length payload in
  if len < 1 || len > max_payload then invalid_arg "Journal.encode: payload length out of range";
  let b = Bytes.create (len + overhead) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.set_int64_le b (4 + len) (checksum ~len payload);
  Bytes.unsafe_to_string b

type parsed = Record of string * int | Corrupt of int | Bad_length | Short

let parse s off =
  let avail = String.length s - off in
  if avail < 4 then Short
  else
    let len = Int32.to_int (String.get_int32_le s off) land 0xffff_ffff in
    if len < 1 || len > max_payload then Bad_length
    else if avail < len + overhead then Short
    else
      let payload = String.sub s (off + 4) len and next = off + len + overhead in
      if Int64.equal (String.get_int64_le s (off + 4 + len)) (checksum ~len payload) then
        Record (payload, next)
      else Corrupt next

type loaded = Missing | Foreign | Records of { records : string option list; torn : bool }

let load ~magic path =
  if not (Sys.file_exists path) then Missing
  else
    let s = In_channel.with_open_bin path In_channel.input_all in
    let m = String.length magic in
    if s = "" then Missing
    else if String.length s < m || String.sub s 0 m <> magic then Foreign
    else
      let rec scan off acc =
        if off = String.length s then Records { records = List.rev acc; torn = false }
        else
          match parse s off with
          | Record (p, next) -> scan next (Some p :: acc)
          | Corrupt next -> scan next (None :: acc)
          | Bad_length | Short -> Records { records = List.rev acc; torn = true }
      in
      scan m []

let replace ~magic path payloads =
  Dfm_obs.Export.write_atomic path (String.concat "" (magic :: List.map encode payloads))

type t = out_channel

let open_append path = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

let fire oc record site =
  match Failpoint.check site with
  | None -> ()
  | Some Failpoint.Raise -> raise (Failpoint.Injected site)
  | Some Failpoint.Io_error -> raise (Sys_error ("failpoint: " ^ site))
  | Some Failpoint.Partial_write ->
      output_substring oc record 0 (String.length record / 2);
      Stdlib.flush oc;
      raise (Sys_error ("failpoint: " ^ site ^ " (partial write)"))
  | Some (Failpoint.Delay s) -> Unix.sleepf s

let append ?(sites = []) oc payload =
  let record = encode payload in
  List.iter (fire oc record) sites;
  output_string oc record

let flush = Stdlib.flush
let close = close_out_noerr
