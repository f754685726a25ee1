(* Tests for Dfm_util.Journal, the framed record log under the campaign
   checkpoint, the verdict store, the serve ledger and the socket frames.

   The crash matrix kills an append at every record boundary with each
   failure mode the failpoint sites inject (clean raise, I/O error, torn
   write) and recovers with the prefix policy the checkpoint and the
   ledger use; the per-module suites test each caller's own policy. *)

module Journal = Dfm_util.Journal
module Failpoint = Dfm_util.Failpoint

let magic = "DFMTEST\n"
let site = "journal.test"

let fresh_path () =
  let p = Filename.temp_file "dfm_journal" ".bin" in
  Sys.remove p;
  p

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_raw path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* Payload sizes straddle the interesting cases: one byte (a torn write of
   it keeps only part of the length prefix and payload), short, and long. *)
let payloads = [ "a"; "second record"; String.make 300 'x'; "\x00\xff\x00"; "fifth"; "z" ]

let records path =
  match Journal.load ~magic path with
  | Journal.Records { records; torn } -> (records, torn)
  | Journal.Missing -> Alcotest.fail "journal missing"
  | Journal.Foreign -> Alcotest.fail "journal has a foreign magic"

let check_clean label path expected =
  let recs, torn = records path in
  Alcotest.(check bool) (label ^ ": no torn tail") false torn;
  Alcotest.(check (list (option string))) label (List.map Option.some expected) recs

(* The prefix policy: keep records up to the first bad one and compact when
   anything was dropped. *)
let recover path =
  let recs, torn = records path in
  let rec prefix acc = function
    | Some p :: tl -> prefix (p :: acc) tl
    | None :: _ | [] -> List.rev acc
  in
  let kept = prefix [] recs in
  if torn || List.length kept <> List.length recs then Journal.replace ~magic path kept;
  kept

let test_crash_matrix () =
  let n = List.length payloads in
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  for kill_at = 0 to n do
    List.iter
      (fun (name, action) ->
        let label = Printf.sprintf "%s@%d" name kill_at in
        let path = fresh_path () in
        Journal.replace ~magic path [];
        let j = Journal.open_append path in
        Failpoint.enable ~after:kill_at ~times:1 site action;
        (try
           List.iter
             (fun p ->
               Journal.append ~sites:[ site ] j p;
               Journal.flush j)
             payloads
         with Failpoint.Injected _ | Sys_error _ -> ());
        Journal.close j;
        Failpoint.clear ();
        let expected = List.filteri (fun i _ -> i < kill_at) payloads in
        let _, torn = records path in
        Alcotest.(check bool)
          (label ^ ": torn iff the write was torn")
          (action = Failpoint.Partial_write && kill_at < n)
          torn;
        Alcotest.(check (list string)) (label ^ ": surviving prefix") expected (recover path);
        check_clean (label ^ ": rewritten file") path expected;
        let j = Journal.open_append path in
        Journal.append j "after recovery";
        Journal.close j;
        check_clean (label ^ ": append after recovery") path (expected @ [ "after recovery" ]);
        Sys.remove path)
      [ ("raise", Failpoint.Raise); ("io", Failpoint.Io_error); ("torn", Failpoint.Partial_write) ]
  done

let write_records path ps =
  Journal.replace ~magic path [];
  let j = Journal.open_append path in
  List.iter (Journal.append j) ps;
  Journal.close j

(* A flipped payload byte fails that record's checksum only: the framing
   is intact, so the scan continues and later records still load. *)
let test_bit_flip_continues () =
  let path = fresh_path () in
  write_records path payloads;
  let b = Bytes.of_string (read_file path) in
  let second = String.length magic + String.length (Journal.encode "a") in
  let off = second + 4 + 3 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let recs, torn = records path in
  Alcotest.(check bool) "no torn tail" false torn;
  Alcotest.(check (list (option string)))
    "only the flipped record fails"
    (List.mapi (fun i p -> if i = 1 then None else Some p) payloads)
    recs;
  (match Journal.parse (Bytes.to_string b) second with
  | Journal.Corrupt next ->
      Alcotest.(check int) "corrupt record reports the next offset"
        (second + String.length (Journal.encode "second record"))
        next
  | _ -> Alcotest.fail "expected Corrupt");
  Sys.remove path

let u32le n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

let test_bad_length () =
  Alcotest.(check bool) "zero length" true
    (Journal.parse (u32le 0 ^ "payload") 0 = Journal.Bad_length);
  (* an oversized prefix fails before any body arrives *)
  Alcotest.(check bool) "oversized length" true
    (Journal.parse (u32le (Journal.max_payload + 1)) 0 = Journal.Bad_length);
  let path = fresh_path () in
  write_records path [ "kept" ];
  append_raw path (u32le 0 ^ Journal.encode "after a bad length");
  let recs, torn = records path in
  Alcotest.(check bool) "bad length ends the scan as a torn tail" true torn;
  Alcotest.(check (list (option string))) "records before it survive" [ Some "kept" ] recs;
  Sys.remove path

let test_garbage_tail () =
  let path = fresh_path () in
  write_records path payloads;
  append_raw path "\xff\xff\xff\xffgarbage";
  let recs, torn = records path in
  Alcotest.(check bool) "garbage is a torn tail" true torn;
  Alcotest.(check (list (option string)))
    "valid records intact" (List.map Option.some payloads) recs;
  Alcotest.(check (list string)) "prefix policy keeps them all" payloads (recover path);
  check_clean "compacted" path payloads;
  Sys.remove path

(* Every strict prefix of a record is [Short], never an error or a payload:
   the socket decoder waits on exactly this. *)
let test_cut_matrix () =
  let r = Journal.encode "cut matrix payload" in
  for cut = 0 to String.length r - 1 do
    if Journal.parse (String.sub r 0 cut) 0 <> Journal.Short then
      Alcotest.failf "a %d-byte prefix is not Short" cut
  done;
  match Journal.parse ("xx" ^ r) 2 with
  | Journal.Record (p, next) ->
      Alcotest.(check string) "payload at an offset" "cut matrix payload" p;
      Alcotest.(check int) "next offset" (2 + String.length r) next
  | _ -> Alcotest.fail "expected a record"

let test_missing_foreign_and_encode () =
  let path = fresh_path () in
  Alcotest.(check bool) "missing" true (Journal.load ~magic path = Journal.Missing);
  Out_channel.with_open_bin path (fun _ -> ());
  Alcotest.(check bool) "empty file counts as missing" true
    (Journal.load ~magic path = Journal.Missing);
  write_records path [ "p" ];
  Alcotest.(check bool) "another magic is foreign" true
    (Journal.load ~magic:"DFMOTHR\n" path = Journal.Foreign);
  Out_channel.with_open_bin path (fun oc -> output_string oc "DFM");
  Alcotest.(check bool) "a file shorter than the magic is foreign" true
    (Journal.load ~magic path = Journal.Foreign);
  (* replace swaps the whole file in and leaves no temp file behind *)
  Journal.replace ~magic path [ "one"; "two" ];
  check_clean "replaced" path [ "one"; "two" ];
  Alcotest.(check bool) "no temp file" false (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check int) "framed size" (8 + 3 + 3 + (2 * Journal.overhead))
    (String.length (read_file path));
  (match Journal.encode "" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty payload must be rejected");
  Sys.remove path

let suite =
  [
    Alcotest.test_case "crash matrix at every record boundary" `Quick test_crash_matrix;
    Alcotest.test_case "bit flip: corrupt record, scan continues" `Quick test_bit_flip_continues;
    Alcotest.test_case "bad length ends the scan" `Quick test_bad_length;
    Alcotest.test_case "garbage tail dropped" `Quick test_garbage_tail;
    Alcotest.test_case "every strict prefix is short" `Quick test_cut_matrix;
    Alcotest.test_case "missing, foreign, replace, encode" `Quick test_missing_foreign_and_encode;
  ]
