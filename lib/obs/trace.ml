open Eppi_prelude

type kind = Span_begin | Span_end | Instant | Counter
type event = { kind : kind; name : string; ts : int; args : (string * int) list }

(* The GC snapshot taken at span begin, so the matching end can attach
   allocation/collection deltas.  Words are floats in [Gc.quick_stat];
   deltas are reported as ints (a span never allocates 2^62 words). *)
type frame = {
  minor0 : float;
  major0 : float;
  promoted0 : float;
  minor_gcs0 : int;
  major_gcs0 : int;
}

type buffer = {
  domain : int;
  label : string;
  session : int;
  events : event array;
  mutable len : int;
  mutable dropped : int;
  mutable stack : frame list;
}

type track = {
  track_domain : int;
  track_label : string;
  track_events : event list;
  track_dropped : int;
}

let dummy_event = { kind = Instant; name = ""; ts = 0; args = [] }

(* Global tracing state.  [enabled_flag] is the single branch every
   disabled-path call pays; [session] invalidates the per-domain buffers
   cached in domain-local storage whenever tracing is (re)enabled or
   reset, so stale buffers from a previous session can never receive
   events.  The registry is only locked when a domain records its first
   event of a session — never on the per-event path. *)
let enabled_flag = Atomic.make false
let session = Atomic.make 0
let capacity = Atomic.make 65_536
let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let dls_key : buffer option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let enabled () = Atomic.get enabled_flag

let enable ?(capacity_per_domain = 65_536) () =
  if capacity_per_domain < 1 then invalid_arg "Trace.enable: capacity must be >= 1";
  Mutex.lock registry_lock;
  registry := [];
  Mutex.unlock registry_lock;
  Atomic.set capacity capacity_per_domain;
  Atomic.incr session;
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let reset () =
  Atomic.set enabled_flag false;
  Mutex.lock registry_lock;
  registry := [];
  Mutex.unlock registry_lock;
  Atomic.incr session

(* The recording domain's buffer: cached in DLS, re-created (and
   re-registered) when the session moved on since it was cached.  Each
   buffer has exactly one writer — the domain that owns it — which is the
   same no-lock single-writer discipline the serve shards use. *)
let buffer_for_domain () =
  let slot = Domain.DLS.get dls_key in
  let current = Atomic.get session in
  match !slot with
  | Some b when b.session = current -> b
  | _ ->
      let domain = (Domain.self () :> int) in
      let b =
        {
          domain;
          label = (if domain = 0 then "main" else Printf.sprintf "domain-%d" domain);
          session = current;
          events = Array.make (Atomic.get capacity) dummy_event;
          len = 0;
          dropped = 0;
          stack = [];
        }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      slot := Some b;
      b

let record b ev =
  if b.len < Array.length b.events then begin
    b.events.(b.len) <- ev;
    b.len <- b.len + 1
  end
  else b.dropped <- b.dropped + 1

let begin_span name =
  if Atomic.get enabled_flag then begin
    let b = buffer_for_domain () in
    let s = Gc.quick_stat () in
    b.stack <-
      {
        minor0 = s.minor_words;
        major0 = s.major_words;
        promoted0 = s.promoted_words;
        minor_gcs0 = s.minor_collections;
        major_gcs0 = s.major_collections;
      }
      :: b.stack;
    record b { kind = Span_begin; name; ts = Clock.monotonic_ns (); args = [] }
  end

let end_span ?(args = []) name =
  if Atomic.get enabled_flag then begin
    let b = buffer_for_domain () in
    let ts = Clock.monotonic_ns () in
    match b.stack with
    | [] -> () (* unbalanced end: tracing was enabled mid-span; drop it *)
    | f :: rest ->
        b.stack <- rest;
        let s = Gc.quick_stat () in
        let gc_args =
          [
            ("minor_words", int_of_float (s.minor_words -. f.minor0));
            ("major_words", int_of_float (s.major_words -. f.major0));
            ("promoted_words", int_of_float (s.promoted_words -. f.promoted0));
            ("minor_gcs", s.minor_collections - f.minor_gcs0);
            ("major_gcs", s.major_collections - f.major_gcs0);
          ]
        in
        record b { kind = Span_end; name; ts; args = args @ gc_args }
  end

let span ?(args = []) ?args_of name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    begin_span name;
    match f () with
    | v ->
        let args = match args_of with None -> args | Some g -> args @ g v in
        end_span ~args name;
        v
    | exception e ->
        end_span ~args:[ ("raised", 1) ] name;
        raise e
  end

let instant ?(args = []) name =
  if Atomic.get enabled_flag then begin
    let b = buffer_for_domain () in
    record b { kind = Instant; name; ts = Clock.monotonic_ns (); args }
  end

let counter name args =
  if Atomic.get enabled_flag then begin
    let b = buffer_for_domain () in
    record b { kind = Counter; name; ts = Clock.monotonic_ns (); args }
  end

let dropped_events () =
  Mutex.lock registry_lock;
  let buffers = !registry in
  Mutex.unlock registry_lock;
  (* [dropped] is a plain field owned by the recording domain; a live read
     here is a monitoring-grade approximation, same as the serve shard
     counters. *)
  List.fold_left (fun acc b -> acc + b.dropped) 0 buffers

let tracks () =
  Mutex.lock registry_lock;
  let buffers = !registry in
  Mutex.unlock registry_lock;
  buffers
  |> List.map (fun b ->
         {
           track_domain = b.domain;
           track_label = b.label;
           track_events = Array.to_list (Array.sub b.events 0 b.len);
           track_dropped = b.dropped;
         })
  |> List.sort (fun a b -> compare a.track_domain b.track_domain)
