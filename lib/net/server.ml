module Trace = Eppi_obs.Trace
module Serve = Eppi_serve.Serve
module Clock = Eppi_prelude.Clock

type config = {
  max_connections : int;
  idle_timeout : float;
  max_payload : int;
  max_pending_bytes : int;
  workers : int;
  max_inflight : int;
  telemetry : bool;
  peers : string list;
}

let default_config =
  {
    max_connections = 64;
    idle_timeout = 300.0;
    max_payload = Wire.default_max_payload;
    max_pending_bytes = 8 * 1024 * 1024;
    workers = 1;
    max_inflight = 1024;
    telemetry = true;
    peers = [];
  }

type t = {
  engine : Serve.t;
  config : config;
  telemetry : Telemetry.t;
  (* (id, queue_depth, busy_ns, served) per worker domain; installed by
     [run] so the stats/telemetry paths (which run before the worker type
     is even defined) can read the pool without a cycle. *)
  mutable worker_info : unit -> (int * int * int * int) list;
}

let create ?(config = default_config) engine =
  if config.max_connections < 1 then invalid_arg "Server: max_connections must be >= 1";
  if config.max_pending_bytes < 1 then invalid_arg "Server: max_pending_bytes must be >= 1";
  if config.workers < 1 then invalid_arg "Server: workers must be >= 1";
  if config.max_inflight < 1 then invalid_arg "Server: max_inflight must be >= 1";
  { engine; config; telemetry = Telemetry.create (); worker_info = (fun () -> []) }

let engine t = t.engine

(* ---- request handling (transport-independent) ---- *)

let rec request_code = function
  | Wire.Query _ -> 1
  | Wire.Batch _ -> 2
  | Wire.Audit _ -> 3
  | Wire.Stats -> 4
  | Wire.Republish _ -> 5
  | Wire.Ping -> 6
  | Wire.Shutdown -> 7
  | Wire.Republish_binary _ -> 8
  | Wire.Query_fuzzy _ -> 9
  | Wire.Telemetry -> 10
  | Wire.Cluster_status -> 11
  | Wire.Traced { request; _ } -> request_code request

(* Splice extra top-level fields into a flat JSON object string. *)
let splice_json json extra =
  match String.rindex_opt json '}' with
  | Some i -> String.sub json 0 i ^ ", " ^ extra ^ String.sub json i (String.length json - i)
  | None -> json

let workers_json t =
  let b = Buffer.create 64 in
  Buffer.add_char b '[';
  List.iteri
    (fun i (id, depth, busy_ns, served) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "{\"id\": %d, \"queue_depth\": %d, \"busy_us\": %d, \"served\": %d}" id depth
        (busy_ns / 1000) served)
    (t.worker_info ());
  Buffer.add_char b ']';
  Buffer.contents b

(* The Stats reply: the engine's merged metrics plus the per-worker
   counters and the trace session's drop count, so backpressure is
   visible without a trace session. *)
let stats_json t =
  splice_json
    (Eppi_serve.Metrics.to_json (Serve.metrics t.engine))
    (Printf.sprintf "\"workers\": %s, \"trace_dropped\": %d" (workers_json t)
       (Trace.dropped_events ()))

let telemetry_json t =
  let m = Serve.metrics t.engine in
  let extra =
    Printf.sprintf
      "\"workers\": %s, \"generation\": %d, \"swaps\": %d, \"trace\": {\"enabled\": %b, \
       \"dropped\": %d}, \"telemetry_enabled\": %b"
      (workers_json t) m.Eppi_serve.Metrics.generation m.Eppi_serve.Metrics.swaps
      (Trace.enabled ()) (Trace.dropped_events ()) t.config.telemetry
  in
  Telemetry.to_json ~extra t.telemetry ~now_ns:(Clock.monotonic_ns ())

(* Reads only the published generation, merged metrics and static config —
   safe from any domain, which is why the multicore mux answers it inline. *)
let cluster_status t =
  Wire.Cluster_status_reply
    {
      generation = Serve.generation t.engine;
      swaps = (Serve.metrics t.engine).Eppi_serve.Metrics.swaps;
      peers = t.config.peers;
    }

let rec handle_request t (request : Wire.request) : Wire.response =
  match request with
  | Query { owner } ->
      let generation, reply = Serve.query_tagged t.engine ~owner in
      Reply { generation; reply }
  | Batch owners ->
      (* One frame, many lookups; the tagged generation is the one the
         last lookup served from (a republish may land mid-batch). *)
      let generation = ref (Serve.generation t.engine) in
      let replies =
        Array.map
          (fun owner ->
            let g, reply = Serve.query_tagged t.engine ~owner in
            generation := g;
            reply)
          owners
      in
      Batch_reply { generation = !generation; replies }
  | Audit { provider } ->
      Audit_reply
        { generation = Serve.generation t.engine; owners = Serve.audit t.engine ~provider }
  | Stats -> Stats_json (stats_json t)
  | Telemetry -> Telemetry_json (telemetry_json t)
  | Cluster_status -> cluster_status t
  | Traced { request; _ } -> handle_request t request
  | Republish { index_csv } -> (
      match Eppi.Index.of_csv index_csv with
      | index -> Republished { generation = Serve.republish_index t.engine index }
      | exception Failure msg -> Server_error ("republish: " ^ msg))
  | Republish_binary { data } -> (
      match Index_codec.decode data with
      | Ok index -> Republished { generation = Serve.republish_index t.engine index }
      | Error e -> Server_error ("republish: " ^ Index_codec.error_to_string e))
  | Query_fuzzy { probe; k } ->
      let generation, result = Serve.query_fuzzy ~k t.engine probe in
      Fuzzy_reply { generation; result }
  | Ping -> Pong
  | Shutdown -> Shutting_down

(* [trace_id] is the propagated client trace context (from a [Traced]
   envelope), attached to the server-side span so the client's and the
   daemon's tracks join in one exported trace. *)
let rec handle ?(trace_id = -1) t request =
  match request with
  | Wire.Traced { trace_id; request } -> handle ~trace_id t request
  | _ ->
      if not (Trace.enabled ()) then handle_request t request
      else begin
        let args = [ ("tag", request_code request) ] in
        let args = if trace_id >= 0 then ("trace_id", trace_id) :: args else args in
        Trace.span "net.request" ~args (fun () -> handle_request t request)
      end

(* ---- listening ---- *)

let listen address =
  (match address with
  | Addr.Unix_socket path when Sys.file_exists path -> (
      match (Unix.stat path).st_kind with
      | Unix.S_SOCK -> Unix.unlink path (* a dead server's leftover *)
      | _ -> failwith (Printf.sprintf "Server.listen: %s exists and is not a socket" path))
  | _ -> ());
  let domain = match address with Addr.Unix_socket _ -> Unix.PF_UNIX | Addr.Tcp _ -> Unix.PF_INET in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match address with
  | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Addr.Unix_socket _ -> ());
  (try
     Unix.bind fd (Addr.sockaddr address);
     Unix.listen fd 128
   with e ->
     Unix.close fd;
     raise e);
  fd

(* ---- engine domains ----

   Two kinds of domain call the engine off the I/O loop.

   The install lane is one domain that runs every Republish and
   Republish_binary, for any worker count: it decodes the payload,
   compiles the postings and installs them with the engine's CAS.  One
   lane serializes installs in arrival order, and the mux never stops
   answering while an index is built — other connections keep being
   served from the old generation until the CAS lands.

   With [workers > 1] the mux also stops calling the engine for reads; it
   assigns each request a per-connection sequence number and hands it to
   a worker domain.  Shard-affine requests (Query, Audit) go to worker
   [shard mod workers], which preserves the engine's
   single-writer-per-shard contract: shard state is only ever touched
   from the one domain that owns it.  Batch frames split into one part
   per owning worker; the last part to finish assembles the reply.

   Workers and the lane push finished, pre-encoded response frames onto
   the daemon's lock-free Treiber stack and write one byte down a
   self-pipe so [select] wakes.  The mux drains the stack, slots each
   frame into its connection's reorder buffer, and flushes in sequence
   order — so the wire keeps the strict one-response-per-request-in-order
   contract no matter how the domains interleave. *)

type batch_acc = {
  b_conn : int;
  b_seq : int;
  b_replies : Serve.reply array;
  b_generation : int Atomic.t;  (* max generation over all parts *)
  b_remaining : int Atomic.t;  (* parts still running *)
  b_error : string option Atomic.t;  (* first part failure, if any *)
  b_trace : int;  (* propagated trace id, -1 = none *)
  b_record : Telemetry.record option;
  b_started : int Atomic.t;  (* first part's dequeue stamp (CAS from 0) *)
}

type job =
  | Job of {
      conn_id : int;
      seq : int;
      request : Wire.request;
      trace_id : int;
      j_record : Telemetry.record option;
    }
  | Part of { acc : batch_acc; positions : int array; owners : int array }
      (* [owners.(k)] is the batch entry at index [positions.(k)]. *)
  | Stop

type completion = {
  c_conn : int;
  c_seq : int;
  frame : string;  (* the whole response frame, encoded off the mux *)
  c_record : Telemetry.record option;
}

(* Where engine domains hand finished frames back to the mux. *)
type completions = {
  stack : completion list Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

type worker = {
  w_id : int;  (* -1 for the install lane *)
  inbox : job Queue.t;  (* guarded by [w_lock] *)
  w_lock : Mutex.t;
  w_ready : Condition.t;
  w_depth : int Atomic.t;  (* inbox length, sampled for counters *)
  w_track : string;  (* counter track name, e.g. "net.worker-0" *)
  w_served : int Atomic.t;  (* atomics: the mux reads these for stats *)
  w_busy_ns : int Atomic.t;
}

let make_worker w_id w_track =
  {
    w_id;
    inbox = Queue.create ();
    w_lock = Mutex.create ();
    w_ready = Condition.create ();
    w_depth = Atomic.make 0;
    w_track;
    w_served = Atomic.make 0;
    w_busy_ns = Atomic.make 0;
  }

let enqueue w job =
  Mutex.lock w.w_lock;
  Queue.push job w.inbox;
  Condition.signal w.w_ready;
  Mutex.unlock w.w_lock;
  Atomic.incr w.w_depth

let wake_byte = Bytes.make 1 '!'

let rec wake fd =
  match Unix.write fd wake_byte 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> wake fd
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      (* Pipe full: a wakeup is already pending, which is all we need. *)
      ()

let open_completions () =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { stack = Atomic.make []; wake_r; wake_w }

let close_completions cs =
  (try Unix.close cs.wake_r with Unix.Unix_error _ -> ());
  try Unix.close cs.wake_w with Unix.Unix_error _ -> ()

let push_completion cs comp =
  let rec push () =
    let old = Atomic.get cs.stack in
    if not (Atomic.compare_and_set cs.stack old (comp :: old)) then push ()
  in
  push ();
  wake cs.wake_w

let encode_frame response =
  let b = Buffer.create 128 in
  Wire.encode_response b response;
  Buffer.contents b

let rec store_max_generation a g =
  let old = Atomic.get a in
  if g > old && not (Atomic.compare_and_set a old g) then store_max_generation a g

let worker_counters w =
  if Trace.enabled () then
    Trace.counter w.w_track
      [
        ("queue_depth", Atomic.get w.w_depth);
        ("busy_us", Atomic.get w.w_busy_ns / 1000);
        ("served", Atomic.get w.w_served);
      ]

(* Exception barrier: nothing a job raises may escape the worker loop.
   An escaped exception would silently kill the domain at [Domain.join]
   time — every shard pinned to it stops answering, stalled connections
   never resume, and shutdown hangs.  Instead the failure becomes a
   [Server_error] completion so the sequence hole is filled and the
   connection keeps making progress. *)
let worker_failed w e =
  let msg = "worker: " ^ Printexc.to_string e in
  if Trace.enabled () then Trace.instant "net.worker_error" ~args:[ ("worker", w.w_id) ];
  msg

(* The lane's step before each install: finish the current major GC
   cycle, so the generation the previous install retired is swept before
   the next one is built.  Without it three postings generations can be
   live at the peak.  One cycle, not [Gc.full_major]: the extra cycles
   reclaim a little more but stall the other domains for longer. *)
let reclaim () = Trace.span "net.reclaim" Gc.major

(* [before_job] runs at the start of each [Job]'s execute stage, behind
   the same exception barrier. *)
let worker_loop t cs ~before_job w =
  let running = ref true in
  while !running do
    Mutex.lock w.w_lock;
    while Queue.is_empty w.inbox do
      Condition.wait w.w_ready w.w_lock
    done;
    let job = Queue.pop w.inbox in
    Mutex.unlock w.w_lock;
    Atomic.decr w.w_depth;
    (match job with
    | Stop -> running := false
    | Job { conn_id; seq; request; trace_id; j_record } ->
        let t0 = Clock.monotonic_ns () in
        (match j_record with Some r -> r.Telemetry.t_started <- t0 | None -> ());
        let frame =
          try
            before_job ();
            encode_frame (handle ~trace_id t request)
          with e -> encode_frame (Wire.Server_error (worker_failed w e))
        in
        let t1 = Clock.monotonic_ns () in
        (match j_record with Some r -> r.Telemetry.t_done <- t1 | None -> ());
        push_completion cs { c_conn = conn_id; c_seq = seq; frame; c_record = j_record };
        Atomic.incr w.w_served;
        ignore (Atomic.fetch_and_add w.w_busy_ns (t1 - t0))
    | Part { acc; positions; owners } ->
        let t0 = Clock.monotonic_ns () in
        (* The record's queue-wait stage ends at the FIRST part's dequeue;
           only the winning CAS stamps it. *)
        (match acc.b_record with
        | Some _ -> ignore (Atomic.compare_and_set acc.b_started 0 t0)
        | None -> ());
        let work () =
          let generation = ref 0 in
          Array.iteri
            (fun k position ->
              let g, reply = Serve.query_tagged t.engine ~owner:owners.(k) in
              if g > !generation then generation := g;
              acc.b_replies.(position) <- reply)
            positions;
          store_max_generation acc.b_generation !generation
        in
        (try
           if Trace.enabled () then begin
             let args = [ ("requests", Array.length owners) ] in
             let args = if acc.b_trace >= 0 then ("trace_id", acc.b_trace) :: args else args in
             Trace.span "net.batch_part" ~args work
           end
           else work ()
         with e -> Atomic.set acc.b_error (Some (worker_failed w e)));
        (* The finisher observes every other part's plain writes to
           [b_replies]: each part's stores happen before its decrement,
           and all decrements precede the final fetch-and-add. *)
        if Atomic.fetch_and_add acc.b_remaining (-1) = 1 then begin
          (match acc.b_record with
          | Some r ->
              r.Telemetry.t_started <- Atomic.get acc.b_started;
              r.Telemetry.t_done <- Clock.monotonic_ns ()
          | None -> ());
          push_completion cs
            {
              c_conn = acc.b_conn;
              c_seq = acc.b_seq;
              frame =
                encode_frame
                  (match Atomic.get acc.b_error with
                  | Some msg -> Wire.Server_error msg
                  | None ->
                      Wire.Batch_reply
                        { generation = Atomic.get acc.b_generation; replies = acc.b_replies });
              c_record = acc.b_record;
            }
        end;
        Atomic.incr w.w_served;
        ignore (Atomic.fetch_and_add w.w_busy_ns (Clock.monotonic_ns () - t0)));
    worker_counters w
  done

(* Mirror the engine's owner → shard mapping (owner mod shards, folded
   into range for negative ids), then pin shard i to worker i mod d. *)
let worker_for_owner engine pool owner =
  let shards = Serve.shards engine in
  let shard = owner mod shards in
  let shard = if shard < 0 then shard + shards else shard in
  pool.(shard mod Array.length pool)

(* ---- the select loop ---- *)

type conn = {
  fd : Unix.file_descr;
  decoder : Wire.Decoder.t;
  mutable out : Bytes.t;  (* [out_off, out_len) is queued for the socket *)
  mutable out_off : int;
  mutable out_len : int;
  mutable last_activity : float;
  mutable closing : bool;  (* no more reads; close once the buffer drains *)
  id : int;
  mutable next_seq : int;  (* sequence assigned to the next request *)
  mutable next_flush : int;  (* next sequence to append to [out] *)
  replies : (int, string * Telemetry.record option) Hashtbl.t;
      (* completed frames awaiting flush, with their stage records *)
  mutable stall_seq : int;  (* seq of an in-flight republish, or -1 *)
  mutable appended : int;  (* bytes ever appended to [out] (monotone) *)
  mutable written : int;  (* bytes ever written to the socket (monotone) *)
  watch : (int * Telemetry.record) Queue.t;
      (* (appended watermark, record): the record's flush stage ends when
         [written] passes the watermark.  FIFO because [appended] only
         grows. *)
}

let pending c = c.out_len - c.out_off
let inflight c = c.next_seq - c.next_flush

(* Queue [frame] behind the pending bytes.  When the tail is full the
   pending slice moves to the front (doubling the buffer only if it
   still does not fit), so each byte is copied O(1) times on average no
   matter how long a slow reader lets the backlog grow. *)
let append_out c frame =
  let len = String.length frame in
  if c.out_len + len > Bytes.length c.out then begin
    let live = pending c in
    let cap = ref (Bytes.length c.out) in
    while live + len > !cap do
      cap := 2 * !cap
    done;
    let out = if !cap = Bytes.length c.out then c.out else Bytes.create !cap in
    Bytes.blit c.out c.out_off out 0 live;
    c.out <- out;
    c.out_off <- 0;
    c.out_len <- live
  end;
  Bytes.blit_string frame 0 c.out c.out_len len;
  c.out_len <- c.out_len + len

let instant_conn name c =
  if Trace.enabled () then Trace.instant name ~args:[ ("conn", c.id) ]

let run t listener =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Unix.set_nonblock listener;
  let cs = open_completions () in
  let conns = ref [] in
  let conn_tbl : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  let engine_domains = ref [] in
  let spawn ~before_job w =
    let d = Domain.spawn (fun () -> worker_loop t cs ~before_job w) in
    engine_domains := (w, d) :: !engine_domains
  in
  (* Every exit, exceptions included: close the clients, then stop and
     join the engine domains (an install in flight finishes first), and
     only then close the pipe they wake the mux through. *)
  let shut_down () =
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
    conns := [];
    Hashtbl.reset conn_tbl;
    List.iter (fun (w, _) -> enqueue w Stop) !engine_domains;
    List.iter (fun (_, d) -> Domain.join d) !engine_domains;
    close_completions cs;
    try Unix.close listener with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:shut_down @@ fun () ->
  let lane = make_worker (-1) "net.install" in
  spawn ~before_job:reclaim lane;
  let pool =
    if t.config.workers = 1 then None
    else begin
      let pool =
        Array.init t.config.workers (fun i -> make_worker i (Printf.sprintf "net.worker-%d" i))
      in
      Array.iter (spawn ~before_job:ignore) pool;
      t.worker_info <-
        (fun () ->
          Array.to_list
            (Array.map
               (fun w ->
                 (w.w_id, Atomic.get w.w_depth, Atomic.get w.w_busy_ns, Atomic.get w.w_served))
               pool));
      Some pool
    end
  in
  let next_id = ref 0 in
  let shutting = ref false in
  let readbuf = Bytes.create 65536 in
  let close_conn c =
    instant_conn "net.close" c;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove conn_tbl c.id;
    conns := List.filter (fun c' -> c'.id <> c.id) !conns
  in
  (* Append every frame whose turn has come.  Frames complete out of
     order across domains; the wire stays in request order.  Appending
     closes a record's reorder-dwell stage and opens its flush stage. *)
  let flush_replies c =
    let continue = ref true in
    let now = ref 0 in
    while !continue do
      match Hashtbl.find_opt c.replies c.next_flush with
      | None -> continue := false
      | Some (frame, record) ->
          Hashtbl.remove c.replies c.next_flush;
          c.next_flush <- c.next_flush + 1;
          append_out c frame;
          c.appended <- c.appended + String.length frame;
          (match record with
          | Some r ->
              if !now = 0 then now := Clock.monotonic_ns ();
              r.Telemetry.t_flushed <- !now;
              Queue.push (c.appended, r) c.watch
          | None -> ())
    done
  in
  let complete c seq frame record =
    Hashtbl.replace c.replies seq (frame, record);
    flush_replies c
  in
  (* Route one decoded request.  A republish goes to the install lane.
     Otherwise, inline (workers = 1): call the engine here.  With a pool,
     dispatch to the worker that owns the request's shard.
     [t_read]/[t_decoded] bound the decode stage (0 when telemetry is
     off); a [Traced] envelope is peeled here so routing sees the inner
     request and the record keeps the id. *)
  let route c request ~t_read ~t_decoded =
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    let trace_id, request =
      match request with
      | Wire.Traced { trace_id; request } -> (trace_id, request)
      | request -> (-1, request)
    in
    let record =
      if t.config.telemetry then
        Some (Telemetry.make ~kind:(request_code request) ~trace_id ~t_read ~t_decoded)
      else None
    in
    (* A request the mux answers itself: queue-wait collapses to zero,
       the handler's time lands in dispatch and execute covers the frame
       encode. *)
    let inline () =
      let response = handle ~trace_id t request in
      (match record with
      | Some r ->
          let now = Clock.monotonic_ns () in
          r.Telemetry.t_dispatched <- now;
          r.Telemetry.t_started <- now
      | None -> ());
      if response = Wire.Shutting_down then shutting := true;
      let frame = encode_frame response in
      (match record with Some r -> r.Telemetry.t_done <- Clock.monotonic_ns () | None -> ());
      complete c seq frame record
    in
    let dispatched () =
      match record with
      | Some r -> r.Telemetry.t_dispatched <- Clock.monotonic_ns ()
      | None -> ()
    in
    let dispatch w =
      dispatched ();
      enqueue w (Job { conn_id = c.id; seq; request; trace_id; j_record = record })
    in
    match (request, pool) with
    | (Wire.Republish _ | Wire.Republish_binary _), _ ->
        (* Stall this connection until the swap lands, so a request
           pipelined behind it cannot answer from the old generation
           after the republish reply. *)
        c.stall_seq <- seq;
        dispatch lane
    | Wire.Query { owner }, Some pool -> dispatch (worker_for_owner t.engine pool owner)
    | Wire.Query_fuzzy { probe; _ }, Some pool ->
        (* Fuzzy metrics/admission land on Serve.fuzzy_shard's shard;
           route to that shard's worker so the single-writer contract
           holds for fuzzy exactly as for exact queries. *)
        dispatch pool.(Serve.fuzzy_shard t.engine probe mod Array.length pool)
    | Wire.Audit _, Some pool ->
        (* Audit walks every shard's postings but records its metrics
           on shard 0, so it must run on shard 0's worker. *)
        dispatch pool.(0)
    | Wire.Batch owners, Some pool when Array.length owners > 0 ->
        let nworkers = Array.length pool in
        let counts = Array.make nworkers 0 in
        Array.iter
          (fun owner ->
            let w = worker_for_owner t.engine pool owner in
            counts.(w.w_id) <- counts.(w.w_id) + 1)
          owners;
        let parts = Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0 counts in
        let acc =
          {
            b_conn = c.id;
            b_seq = seq;
            b_replies = Array.make (Array.length owners) Serve.Unknown_owner;
            b_generation = Atomic.make 0;
            b_remaining = Atomic.make parts;
            b_error = Atomic.make None;
            b_trace = trace_id;
            b_record = record;
            b_started = Atomic.make 0;
          }
        in
        let positions = Array.map (fun n -> Array.make (max n 1) 0) counts in
        let part_owners = Array.map (fun n -> Array.make (max n 1) 0) counts in
        let fill = Array.make nworkers 0 in
        Array.iteri
          (fun position owner ->
            let w = (worker_for_owner t.engine pool owner).w_id in
            positions.(w).(fill.(w)) <- position;
            part_owners.(w).(fill.(w)) <- owner;
            fill.(w) <- fill.(w) + 1)
          owners;
        dispatched ();
        Array.iteri
          (fun w n ->
            if n > 0 then
              enqueue pool.(w) (Part { acc; positions = positions.(w); owners = part_owners.(w) }))
          counts
    | ( ( Wire.Batch _ | Wire.Stats | Wire.Telemetry | Wire.Cluster_status | Wire.Ping
        | Wire.Shutdown ),
        Some _ )
    | _, None ->
        (* Without a pool the mux is the only domain that reads the
           engine.  With one, these read only the published generation,
           merged metrics, atomics and static config, and the telemetry
           store's single writer is this domain — all safe from the mux. *)
        inline ()
    | Wire.Traced _, Some _ -> assert false (* peeled above; envelopes never nest *)
  in
  let respond_error c msg =
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    complete c seq (encode_frame (Wire.Server_error msg)) None;
    c.closing <- true
  in
  (* Drain every complete frame the connection has buffered.  A decode
     error answers [Server_error] and flags the connection for close; the
     error is sticky, so no further frame can be misread from the wreck.
     Draining pauses while a republish is in flight ([stall_seq]) or the
     connection has [max_inflight] unanswered requests — the bytes stay
     buffered in the decoder. *)
  let drain c =
    let continue = ref true in
    while
      !continue && (not c.closing) && c.stall_seq < 0 && inflight c < t.config.max_inflight
    do
      let t_read = if t.config.telemetry then Clock.monotonic_ns () else 0 in
      match Wire.Decoder.next c.decoder with
      | Ok None -> continue := false
      | Ok (Some (Wire.Request request)) ->
          let t_decoded = if t.config.telemetry then Clock.monotonic_ns () else 0 in
          route c request ~t_read ~t_decoded
      | Ok (Some (Wire.Response _)) -> respond_error c "protocol: response frame sent to server"
      | Error e -> respond_error c (Wire.error_to_string e)
    done
  in
  let read_from c =
    match Unix.read c.fd readbuf 0 (Bytes.length readbuf) with
    | 0 -> close_conn c
    | n ->
        c.last_activity <- Clock.seconds ();
        Wire.Decoder.feed c.decoder readbuf ~off:0 ~len:n;
        drain c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> close_conn c
  in
  let write_to c =
    match Unix.write c.fd c.out c.out_off (pending c) with
    | n ->
        c.out_off <- c.out_off + n;
        c.written <- c.written + n;
        c.last_activity <- Clock.seconds ();
        (* Every record whose frame is now fully on the socket is done:
           close its flush stage and fold it into the aggregates. *)
        if not (Queue.is_empty c.watch) then begin
          let t_written = Clock.monotonic_ns () in
          let continue = ref true in
          while !continue && not (Queue.is_empty c.watch) do
            let watermark, record = Queue.peek c.watch in
            if watermark <= c.written then begin
              ignore (Queue.pop c.watch);
              Telemetry.finish t.telemetry record ~t_written
            end
            else continue := false
          done
        end;
        if pending c = 0 then begin
          c.out_off <- 0;
          c.out_len <- 0;
          if c.closing && inflight c = 0 then close_conn c
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> close_conn c
  in
  let process_completions () =
    match Atomic.exchange cs.stack [] with
    | [] -> ()
    | batch ->
        List.iter
          (fun { c_conn; c_seq; frame; c_record } ->
            match Hashtbl.find_opt conn_tbl c_conn with
            | None -> () (* connection died while the job was in flight *)
            | Some c ->
                complete c c_seq frame c_record;
                if c.stall_seq = c_seq then c.stall_seq <- -1;
                (* Resume decoding: this completion may have cleared a
                   republish stall or dropped [inflight] back below the
                   cap while surplus frames sit buffered in the decoder.
                   [select] alone would never notice — it only fires on
                   NEW bytes — so a client that pipelines past the cap
                   and then waits would hang.  [drain] is a no-op when
                   the decoder holds nothing. *)
                if (not c.closing) && c.stall_seq < 0 && inflight c < t.config.max_inflight
                then drain c)
          batch
  in
  let drain_wake_pipe () =
    let continue = ref true in
    while !continue do
      match Unix.read cs.wake_r readbuf 0 (Bytes.length readbuf) with
      | 0 -> continue := false
      | _ -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  let accept_one () =
    match Unix.accept listener with
    | fd, _ ->
        Unix.set_nonblock fd;
        incr next_id;
        let c =
          {
            fd;
            decoder = Wire.Decoder.create ~max_payload:t.config.max_payload ();
            out = Bytes.create 1024;
            out_off = 0;
            out_len = 0;
            last_activity = Clock.seconds ();
            closing = false;
            id = !next_id;
            next_seq = 0;
            next_flush = 0;
            replies = Hashtbl.create 8;
            stall_seq = -1;
            appended = 0;
            written = 0;
            watch = Queue.create ();
          }
        in
        conns := c :: !conns;
        Hashtbl.replace conn_tbl c.id c;
        instant_conn "net.accept" c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) -> ()
  in
  let stalled c =
    c.stall_seq >= 0 || inflight c >= t.config.max_inflight
    || pending c >= t.config.max_pending_bytes
  in
  let last_stalled = ref (-1) in
  let mux_counters () =
    if Trace.enabled () then begin
      let n = List.fold_left (fun acc c -> if stalled c then acc + 1 else acc) 0 !conns in
      if n <> !last_stalled then begin
        last_stalled := n;
        Trace.counter "net.mux" [ ("stalled_conns", n) ]
      end
    end
  in
  let finished () =
    !shutting && List.for_all (fun c -> pending c = 0 && inflight c = 0) !conns
  in
  while not (finished ()) do
    let accepting = (not !shutting) && List.length !conns < t.config.max_connections in
    let reads =
      (if accepting then [ listener ] else [])
      @ (cs.wake_r
        :: List.filter_map
             (fun c ->
               if (not c.closing) && (not !shutting) && not (stalled c) then Some c.fd else None)
             !conns)
    in
    let writes = List.filter_map (fun c -> if pending c > 0 then Some c.fd else None) !conns in
    (match Unix.select reads writes [] 0.5 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
        if List.memq cs.wake_r readable then drain_wake_pipe ();
        process_completions ();
        List.iter
          (fun c -> if List.memq c.fd writable then write_to c)
          !conns;
        List.iter
          (fun c -> if List.memq c.fd readable then read_from c)
          !conns;
        if accepting && List.memq listener readable then accept_one ();
        if t.config.idle_timeout > 0.0 && not !shutting then begin
          let now = Clock.seconds () in
          List.iter
            (fun c ->
              if pending c = 0 && inflight c = 0 && now -. c.last_activity > t.config.idle_timeout
              then close_conn c)
            !conns
        end);
    mux_counters ()
  done

let serve t address =
  let listener = listen address in
  let cleanup () =
    match address with
    | Addr.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Addr.Tcp _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () -> run t listener)

(* ---- stdio transport ---- *)

let write_all fd bytes =
  let len = Bytes.length bytes in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write fd bytes !sent (len - !sent) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let run_stdio t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let decoder = Wire.Decoder.create ~max_payload:t.config.max_payload () in
  let readbuf = Bytes.create 65536 in
  let out = Buffer.create 1024 in
  let running = ref true in
  (* Stage records for the frames encoded this iteration; with one
     blocking transport the dispatch/queue/reorder stages are zero and
     the flush stage closes when [write_all] returns. *)
  let batch_records = ref [] in
  while !running do
    (match Unix.read Unix.stdin readbuf 0 (Bytes.length readbuf) with
    | 0 -> running := false
    | n -> Wire.Decoder.feed decoder readbuf ~off:0 ~len:n
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    let continue = ref !running in
    while !continue do
      let t_read = if t.config.telemetry then Clock.monotonic_ns () else 0 in
      match Wire.Decoder.next decoder with
      | Ok None -> continue := false
      | Ok (Some (Wire.Request request)) ->
          let record =
            if t.config.telemetry then begin
              let t_decoded = Clock.monotonic_ns () in
              let trace_id, inner =
                match request with
                | Wire.Traced { trace_id; request } -> (trace_id, request)
                | request -> (-1, request)
              in
              let r =
                Telemetry.make ~kind:(request_code inner) ~trace_id ~t_read ~t_decoded
              in
              r.Telemetry.t_dispatched <- t_decoded;
              r.Telemetry.t_started <- t_decoded;
              Some r
            end
            else None
          in
          let response = handle t request in
          Wire.encode_response out response;
          (match record with
          | Some r ->
              let now = Clock.monotonic_ns () in
              r.Telemetry.t_done <- now;
              r.Telemetry.t_flushed <- now;
              batch_records := r :: !batch_records
          | None -> ());
          if response = Wire.Shutting_down then begin
            running := false;
            continue := false
          end
      | Ok (Some (Wire.Response _)) ->
          Wire.encode_response out (Wire.Server_error "protocol: response frame sent to server");
          running := false;
          continue := false
      | Error e ->
          Wire.encode_response out (Wire.Server_error (Wire.error_to_string e));
          running := false;
          continue := false
    done;
    if Buffer.length out > 0 then begin
      write_all Unix.stdout (Buffer.to_bytes out);
      Buffer.clear out;
      match !batch_records with
      | [] -> ()
      | records ->
          let t_written = Clock.monotonic_ns () in
          List.iter (fun r -> Telemetry.finish t.telemetry r ~t_written) (List.rev records);
          batch_records := []
    end
  done
