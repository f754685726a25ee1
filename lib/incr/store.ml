module H = Dfm_util.Hash64
module Journal = Dfm_util.Journal

(* Registry-level cache metrics, aggregated across every store instance.
   The per-instance [stats] record below stays the source of truth for
   caller-visible accounting; these feed the Prometheus exposition. *)
let m_hits =
  Dfm_obs.Metrics.attributed_counter ~help:"Verdict-cache lookups that hit"
    "dfm_cache_hits_total"

let m_misses =
  Dfm_obs.Metrics.attributed_counter ~help:"Verdict-cache lookups that missed"
    "dfm_cache_misses_total"

let m_evictions =
  Dfm_obs.Metrics.counter ~help:"Verdict-cache FIFO evictions" "dfm_cache_evictions_total"

let m_disk_bytes =
  Dfm_obs.Metrics.counter ~help:"Bytes appended to the verdict-cache disk tier"
    "dfm_cache_disk_bytes_total"

let m_degraded =
  Dfm_obs.Metrics.gauge
    ~help:"1 when a verdict-store disk tier has degraded to memory-only"
    "dfm_store_degraded"

type verdict = Detected | Undetectable

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  disk_loaded : int;
  disk_dropped : int;
  degraded : bool;
}

type t = {
  lock : Mutex.t;
      (* Serializes every public entry point.  The engine still consults
         the store from its coordinating domain only, but the serve daemon
         reads [stats] from its network thread while the executor thread
         runs jobs — cross-thread reads of the mutable counters must not
         tear.  Uncontended in the one-shot CLI, so the cost is noise. *)
  tbl : (int64, verdict * bool) Hashtbl.t;  (* verdict, certified *)
  order : int64 Queue.t;  (* insertion order, for FIFO eviction *)
  capacity : int;
  mutable chan : Journal.t option;
  log : string -> unit;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable disk_loaded : int;
  mutable disk_dropped : int;
  mutable degraded : bool;
}

(* Degrade to memory-only: log once, close the channel best-effort, keep
   serving lookups and stores from the memory tier.  A failing disk tier
   (ENOSPC, EACCES, a closed fd, a yanked mount) must never raise out of a
   campaign — losing persistence is recoverable, losing hours of
   resynthesis is not. *)
let disable_disk t reason =
  (match t.chan with
  | None -> ()
  | Some j ->
      t.log (Printf.sprintf "cache: disk tier disabled (%s) — continuing memory-only" reason);
      Journal.close j;
      t.chan <- None);
  t.degraded <- true;
  Dfm_obs.Metrics.set m_degraded 1

(* ---- disk format ----------------------------------------------------
   A [Dfm_util.Journal] under magic DFMVC02.  The payload of a plain record
   is u64le signature + 1 verdict byte; a certified record appends a u64le
   certificate mark — a keyed digest over the signature and the verdict,
   recomputed and compared on load, so a corrupted or hand-edited certified
   entry degrades to a miss rather than a wrongly trusted verdict.  The
   journal's length prefix is what lets both kinds coexist in one log.
   DFMVC01 files (u16 length prefixes) fail the magic check and are
   rebuilt: they hold only recomputable verdicts.  Recovery policy: keep
   every record whose checksum holds, drop the rest, and compact when
   anything was dropped. *)

let magic = "DFMVC02\n"
let payload_len = 9
let payload_len_certified = 17

let verdict_code = function Detected -> 0 | Undetectable -> 1

let cert_mark sg v =
  H.finalize (H.mix (H.mix (H.of_string "DFMCERTv2") sg) (H.of_int (verdict_code v)))

let encode ?(certified = false) sg v =
  let b = Bytes.create (if certified then payload_len_certified else payload_len) in
  Bytes.set_int64_le b 0 sg;
  Bytes.set_uint8 b 8 (verdict_code v);
  if certified then Bytes.set_int64_le b 9 (cert_mark sg v);
  Bytes.unsafe_to_string b

(* A payload that checksummed clean can still be unusable: an unknown
   verdict byte, or a certificate mark that does not match — the writer
   disagreed with us about the certificate scheme, so the record is
   dropped entirely rather than demoted to an uncertified verdict. *)
let decode p =
  let len = String.length p in
  if len <> payload_len && len <> payload_len_certified then None
  else
    let sg = String.get_int64_le p 0 in
    match String.get_uint8 p 8 with
    | (0 | 1) as c ->
        let v = if c = 0 then Detected else Undetectable in
        if len = payload_len then Some (sg, v, false)
        else if Int64.equal (String.get_int64_le p 9) (cert_mark sg v) then
          Some (sg, v, true)
        else None
    | _ -> None

(* ---- store ---------------------------------------------------------- *)

(* Returns whether the entry needs a disk append: a fresh signature always
   does; a known signature only when this add upgrades it from uncertified
   to certified (the verdict itself never changes — same signature, same
   semantic fact). *)
let adopt t ~certified sg v =
  match Hashtbl.find_opt t.tbl sg with
  | None ->
      Hashtbl.replace t.tbl sg (v, certified);
      Queue.push sg t.order;
      if Hashtbl.length t.tbl > t.capacity then begin
        Hashtbl.remove t.tbl (Queue.pop t.order);
        t.evictions <- t.evictions + 1;
        Dfm_obs.Metrics.incr m_evictions
      end;
      true
  | Some (v0, false) when certified && v0 = v ->
      Hashtbl.replace t.tbl sg (v0, true);
      true
  | Some _ -> false

let create ?(capacity = 1_000_000) ?path ?(log = fun m -> Dfm_obs.Log.warn m) () =
  let t =
    {
      lock = Mutex.create ();
      tbl = Hashtbl.create 4096;
      order = Queue.create ();
      capacity = max 1 capacity;
      chan = None;
      log;
      hits = 0;
      misses = 0;
      stores = 0;
      evictions = 0;
      disk_loaded = 0;
      disk_dropped = 0;
      degraded = false;
    }
  in
  (match path with
  | None -> ()
  | Some path -> (
      try
        let records, dropped, fresh =
          match Journal.load ~magic path with
          | Journal.Missing -> ([], 0, true)
          | Journal.Foreign -> ([], 1, false)
          | Journal.Records { records; torn } ->
              let kept = List.filter_map (fun r -> Option.bind r decode) records in
              (kept, List.length records - List.length kept + Bool.to_int torn, false)
        in
        List.iter
          (fun (sg, v, certified) ->
            if adopt t ~certified sg v then t.disk_loaded <- t.disk_loaded + 1)
          records;
        t.disk_dropped <- dropped;
        if dropped > 0 then
          log
            (Printf.sprintf
               "cache: recovered %s — kept %d record(s), dropped %d corrupted/truncated" path
               (List.length records) dropped);
        if fresh || dropped > 0 then
          Journal.replace ~magic path
            (List.map (fun (sg, v, certified) -> encode ~certified sg v) records);
        t.chan <- Some (Journal.open_append path)
      with Sys_error e ->
        log (Printf.sprintf "cache: disk tier disabled (%s) — continuing memory-only" e);
        t.chan <- None;
        t.degraded <- true));
  t

let find t sg =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.tbl sg with
  | Some (v, _) ->
      t.hits <- t.hits + 1;
      Dfm_obs.Metrics.incr_attr m_hits;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      Dfm_obs.Metrics.incr_attr m_misses;
      None

(* Certified lookup: only entries published by a certified run (and whose
   on-disk certificate mark validated on load) are visible; an uncertified
   entry is a miss, so certified campaigns recompute rather than trust it. *)
let find_certified t sg =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.tbl sg with
  | Some (v, true) ->
      t.hits <- t.hits + 1;
      Dfm_obs.Metrics.incr_attr m_hits;
      Some v
  | Some (_, false) | None ->
      t.misses <- t.misses + 1;
      Dfm_obs.Metrics.incr_attr m_misses;
      None

(* [store.append] models an append dying mid-call (exception, OS error,
   torn write); [store.enospc] models the disk filling up — same
   degradation path, named separately so the chaos matrix can target
   disk-full specifically. *)
let sites = [ "store.enospc"; "store.append" ]

let add ?(certified = false) t sg v =
  Mutex.protect t.lock @@ fun () ->
  if adopt t ~certified sg v then begin
    t.stores <- t.stores + 1;
    match t.chan with
    | None -> ()
    | Some j -> (
        try
          let p = encode ~certified sg v in
          Journal.append ~sites j p;
          Dfm_obs.Metrics.incr ~by:(String.length p + Journal.overhead) m_disk_bytes
        with e -> disable_disk t (Printexc.to_string e))
  end

let mem_size t = Mutex.protect t.lock @@ fun () -> Hashtbl.length t.tbl

let stats t =
  Mutex.protect t.lock @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    stores = t.stores;
    evictions = t.evictions;
    disk_loaded = t.disk_loaded;
    disk_dropped = t.disk_dropped;
    degraded = t.degraded;
  }

let hit_rate t =
  Mutex.protect t.lock @@ fun () ->
  let n = t.hits + t.misses in
  if n = 0 then 0.0 else float_of_int t.hits /. float_of_int n

let flush t =
  Mutex.protect t.lock @@ fun () ->
  match t.chan with
  | None -> ()
  | Some j -> ( try Journal.flush j with e -> disable_disk t (Printexc.to_string e))

let close t =
  Mutex.protect t.lock @@ fun () ->
  match t.chan with
  | None -> ()
  | Some j ->
      Journal.close j;
      t.chan <- None
