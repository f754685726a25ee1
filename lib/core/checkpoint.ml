module Journal = Dfm_util.Journal

type event = {
  q : int;
  phase : int;
  cell : string option;
  action : string;
  u : int;
  u_internal : int;
  smax : int;
  delay : float;
  power : float;
  cache_hits : int;
}

type accept = {
  ev : event;
  netlist : string;
  accepted : int;
  implements : int;
  sat_queries : int;
  run_cache_hits : int;
  run_conflicts : int;
  run_decisions : int;
  run_propagations : int;
  p2 : float;
}

type entry = Header of string | Event of event | Accept of accept

exception Error of string

type t = { mutable chan : Journal.t option }

(* v2 added the run-attributed solver-effort counters to [accept].  The
   bump makes v1 journals fail the magic check, so [attach] restarts them
   fresh instead of unmarshalling a mismatched record layout. *)
let magic = "DFMCK02\n"

let m_frames =
  Dfm_obs.Metrics.counter ~help:"Checkpoint journal frames written"
    "dfm_checkpoint_frames_total"

(* Entries are pure data (ints, floats, strings, options), so [Marshal] is a
   faithful and exact encoding; the journal checksum, not Marshal, is what
   defends against torn writes. *)
let encode entry = Marshal.to_string (entry : entry) []

(* Recovery policy: keep the prefix before the first record that fails its
   checksum or does not unmarshal — everything after it may belong to a
   different, torn history.  [clean] is false when anything was dropped. *)
let decode_prefix records =
  let rec go acc = function
    | Some p :: tl -> (
        match (Marshal.from_string p 0 : entry) with
        | e -> go (e :: acc) tl
        | exception _ -> (List.rev acc, false))
    | None :: _ -> (List.rev acc, false)
    | [] -> (List.rev acc, true)
  in
  go [] records

(* Keep the prefix up to and including the last Accept: the dropped tail is
   exactly the work the resumed campaign re-derives deterministically. *)
let truncate_to_last_accept entries =
  let rec last i best = function
    | [] -> best
    | Accept _ :: tl -> last (i + 1) (i + 1) tl
    | (Header _ | Event _) :: tl -> last (i + 1) best tl
  in
  let n = last 0 0 entries in
  List.filteri (fun i _ -> i < n) entries

let reopen path entries =
  Journal.replace ~magic path (List.map encode entries);
  { chan = Some (Journal.open_append path) }

let attach ?(resume = true) ~header path =
  let fresh () = (reopen path [ Header header ], []) in
  if not resume then fresh ()
  else
    match Journal.load ~magic path with
    | Journal.Records { records; torn } -> (
        match decode_prefix records with
        | Header h :: rest, clean ->
            if h <> header then
              raise
                (Error
                   (Printf.sprintf
                      "checkpoint %s was written by a different run configuration" path));
            let kept = truncate_to_last_accept rest in
            if torn || (not clean) || List.length kept <> List.length rest then
              (reopen path (Header header :: kept), kept)
            else ({ chan = Some (Journal.open_append path) }, kept)
        | _ ->
            (* empty or headerless journal: nothing usable, start fresh *)
            fresh ())
    | Journal.Missing | Journal.Foreign -> fresh ()

let append t entry =
  match t.chan with
  | None -> raise (Error "checkpoint: journal is closed")
  | Some j ->
      Journal.append ~sites:[ "checkpoint.append" ] j (encode entry);
      Journal.flush j;
      Dfm_obs.Metrics.incr m_frames

let append_event t ev = append t (Event ev)
let append_accept t a = append t (Accept a)

let close t =
  match t.chan with
  | None -> ()
  | Some j ->
      Journal.close j;
      t.chan <- None
