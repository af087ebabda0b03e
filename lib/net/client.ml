module Trace = Eppi_obs.Trace
module Rng = Eppi_prelude.Rng

type t = {
  mutable fd : Unix.file_descr;
  mutable decoder : Wire.Decoder.t;
  readbuf : Bytes.t;
  mutable closed : bool;
  address : Addr.t;
  max_payload : int option;
  request_timeout : float option;
  reconnect : bool;
  max_reconnects : int;
  retry_delay : float;
  trace_context : bool;
  rng : Rng.t;  (* jitters the reconnect backoff; seeded per client *)
}

(* Trace ids need only be unique within a trace session; folding the pid
   in keeps ids from two processes tracing against one daemon distinct. *)
let trace_ids = Atomic.make 0

let next_trace_id () =
  ((Unix.getpid () land 0xFFFF) lsl 24) lor (Atomic.fetch_and_add trace_ids 1 land 0xFFFFFF)

type error = Timed_out | Connection_lost of string

exception Protocol_error of string

(* Raised internally when the transport dies mid-exchange; converted to
   [Connection_lost] or a reconnect at the call boundary. *)
exception Conn_lost of string

let backoff_cap = 2.0

(* The jittered reconnect schedule, pure so the bound is testable: the
   k-th delay is the capped exponential [min (base * 2^(k-1)) cap] scaled
   by [0.5 + u/2] with [u] uniform in [0, 1).  Full jitter would be
   [u] alone; the half-floor keeps the schedule's back-off property (a
   run of zeros cannot hammer a recovering server) while still spreading
   N failed-over clients across half the window instead of a lockstep
   thundering herd. *)
let backoff_delay ~base ~attempt ~u =
  if attempt < 1 then invalid_arg "Client.backoff_delay: attempt must be >= 1";
  if not (u >= 0.0 && u < 1.0) then invalid_arg "Client.backoff_delay: u outside [0, 1)";
  let full = Float.min (base *. (2.0 ** float_of_int (attempt - 1))) backoff_cap in
  full *. (0.5 +. (0.5 *. u))

(* Default backoff seeds: distinct per client within a process (the
   counter) and across processes (the pid), so a fleet of clients that
   lost the same server never shares a jitter stream. *)
let client_counter = Atomic.make 0

let default_backoff_seed () =
  (Unix.getpid () lsl 20) lxor Atomic.fetch_and_add client_counter 1

let ignore_sigpipe () =
  (* A server that dies between our write and its read turns the next write
     into SIGPIPE; we want EPIPE instead so the reconnect path can run.
     Unsupported on some platforms (e.g. Windows) — then writes already
     fail with an error, not a signal. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let connect_fd ~retries ~retry_delay address =
  let sockaddr = Addr.sockaddr address in
  let domain = Unix.domain_of_sockaddr sockaddr in
  let rec attempt remaining =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when remaining > 0 ->
        Unix.close fd;
        Unix.sleepf retry_delay;
        attempt (remaining - 1)
    | exception e ->
        Unix.close fd;
        raise e
  in
  attempt retries

let connect ?(retries = 0) ?(retry_delay = 0.05) ?max_payload ?request_timeout
    ?(reconnect = false) ?(max_reconnects = 5) ?(trace_context = true) ?backoff_seed address =
  ignore_sigpipe ();
  let fd = connect_fd ~retries ~retry_delay address in
  let seed = match backoff_seed with Some s -> s | None -> default_backoff_seed () in
  {
    fd;
    decoder = Wire.Decoder.create ?max_payload ();
    readbuf = Bytes.create 65536;
    closed = false;
    address;
    max_payload;
    request_timeout;
    reconnect;
    max_reconnects;
    retry_delay;
    trace_context;
    rng = Rng.create seed;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Tear down the dead socket and dial the stored address again, with capped
   exponential backoff between attempts.  On success the decoder is replaced
   — any half-received frame from the old connection is garbage. *)
let reestablish t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  let rec attempt k =
    if k > t.max_reconnects then false
    else
      match connect_fd ~retries:0 ~retry_delay:t.retry_delay t.address with
      | fd ->
          t.fd <- fd;
          t.decoder <- Wire.Decoder.create ?max_payload:t.max_payload ();
          true
      | exception Unix.Unix_error _ ->
          Unix.sleepf (backoff_delay ~base:t.retry_delay ~attempt:k ~u:(Rng.float t.rng 1.0));
          attempt (k + 1)
  in
  attempt 1

let write_all fd bytes off len =
  let sent = ref off in
  while !sent < off + len do
    match Unix.write fd bytes !sent (off + len - !sent) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
        raise (Conn_lost "connection lost mid-request")
  done

(* Wait for the socket to become readable, or for [deadline] to pass.
   Returns false only on timeout; EINTR retries. *)
let rec wait_readable t deadline =
  let timeout =
    match deadline with
    | None -> -1.0
    | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
  in
  match Unix.select [ t.fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (EINTR, _, _) -> wait_readable t deadline

(* Block until one response frame is decodable, honouring the per-request
   timeout. *)
let recv_result t =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) t.request_timeout in
  let rec next () =
    match Wire.Decoder.next t.decoder with
    | Ok (Some (Wire.Response response)) -> Ok response
    | Ok (Some (Wire.Request _)) -> raise (Protocol_error "server sent a request frame")
    | Error e -> raise (Protocol_error (Wire.error_to_string e))
    | Ok None ->
        if not (wait_readable t deadline) then Error Timed_out
        else begin
          match Unix.read t.fd t.readbuf 0 (Bytes.length t.readbuf) with
          | 0 -> raise (Conn_lost "connection closed mid-response")
          | n ->
              Wire.Decoder.feed t.decoder t.readbuf ~off:0 ~len:n;
              next ()
          | exception Unix.Unix_error (EINTR, _, _) -> next ()
          | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
              raise (Conn_lost "connection reset")
        end
  in
  next ()

let send_request t request =
  let b = Buffer.create 64 in
  Wire.encode_request b request;
  let bytes = Buffer.to_bytes b in
  write_all t.fd bytes 0 (Bytes.length bytes)

let call_result t request =
  (* Trace-context propagation: with tracing on (and the peer known to
     speak the [Traced] tag — [trace_context]), wrap the request with a
     fresh trace id and mirror it on a client-side span, so the client's
     and the daemon's tracks join in one exported trace. *)
  let request, trace_id =
    match request with
    | Wire.Traced { trace_id; _ } -> (request, trace_id)
    | _ when t.trace_context && Trace.enabled () ->
        let id = next_trace_id () in
        (Wire.Traced { trace_id = id; request }, id)
    | _ -> (request, -1)
  in
  let rec attempt reconnects_left =
    match
      send_request t request;
      recv_result t
    with
    | outcome -> outcome
    | exception Conn_lost msg ->
        if t.reconnect && reconnects_left > 0 && reestablish t then
          attempt (reconnects_left - 1)
        else Error (Connection_lost msg)
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
        Error (Connection_lost "connection refused")
  in
  if trace_id >= 0 then
    Trace.span "client.request" ~args:[ ("trace_id", trace_id) ] (fun () ->
        attempt t.max_reconnects)
  else attempt t.max_reconnects

let call t request =
  match call_result t request with
  | Ok response -> response
  | Error Timed_out -> raise (Protocol_error "request timed out")
  | Error (Connection_lost msg) -> raise (Protocol_error msg)

let pipeline t requests =
  let expected = List.length requests in
  if expected = 0 then []
  else begin
    let reqs = Array.of_list requests in
    let responses = ref [] in
    let received = ref 0 in
    let reconnects = ref 0 in
    (* One pass over the not-yet-answered tail.  On connection loss with
       reconnect enabled, the tail is re-encoded from [!received] and the
       pass restarts on the fresh socket (requests whose responses were in
       flight are re-sent — same at-least-once semantics as call_result). *)
    let rec go () =
      let b = Buffer.create (64 * (expected - !received)) in
      for i = !received to expected - 1 do
        Wire.encode_request b reqs.(i)
      done;
      let bytes = Buffer.to_bytes b in
      let total = Bytes.length bytes in
      let sent = ref 0 in
      match
        Unix.set_nonblock t.fd;
        Fun.protect
          ~finally:(fun () -> try Unix.clear_nonblock t.fd with Unix.Unix_error _ -> ())
          (fun () ->
            while !received < expected do
              let drain () =
                let continue = ref true in
                while !continue do
                  match Wire.Decoder.next t.decoder with
                  | Ok (Some (Wire.Response response)) ->
                      responses := response :: !responses;
                      incr received
                  | Ok (Some (Wire.Request _)) ->
                      raise (Protocol_error "server sent a request frame")
                  | Error e -> raise (Protocol_error (Wire.error_to_string e))
                  | Ok None -> continue := false
                done
              in
              drain ();
              if !received < expected then begin
                let writes = if !sent < total then [ t.fd ] else [] in
                (* Interleave: keep pushing request bytes whenever the socket
                   accepts them, keep draining responses as they arrive.
                   Reading while still writing is what prevents the
                   distributed-buffer deadlock (client blocked in write,
                   server blocked in write, nobody reads).  The timeout is an
                   inactivity bound: it resets every time the socket makes
                   progress. *)
                let timeout =
                  match t.request_timeout with None -> -1.0 | Some s -> s
                in
                match Unix.select [ t.fd ] writes [] timeout with
                | exception Unix.Unix_error (EINTR, _, _) -> ()
                | [], [], _ -> raise (Protocol_error "pipeline timed out")
                | readable, writable, _ ->
                    if writable <> [] then begin
                      match Unix.write t.fd bytes !sent (total - !sent) with
                      | n -> sent := !sent + n
                      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
                        ->
                          ()
                      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
                          raise (Conn_lost "connection lost mid-pipeline")
                    end;
                    if readable <> [] then begin
                      match Unix.read t.fd t.readbuf 0 (Bytes.length t.readbuf) with
                      | 0 -> raise (Conn_lost "connection closed mid-pipeline")
                      | n -> Wire.Decoder.feed t.decoder t.readbuf ~off:0 ~len:n
                      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
                        ->
                          ()
                      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
                          raise (Conn_lost "connection reset")
                    end
              end
            done)
      with
      | () -> ()
      | exception Conn_lost msg ->
          if t.reconnect && !reconnects < t.max_reconnects && reestablish t then begin
            incr reconnects;
            go ()
          end
          else raise (Protocol_error msg)
    in
    go ();
    List.rev !responses
  end

(* ---- typed wrappers ---- *)

let unexpected what (response : Wire.response) =
  let kind =
    match response with
    | Reply _ -> "reply"
    | Batch_reply _ -> "batch reply"
    | Audit_reply _ -> "audit reply"
    | Stats_json _ -> "stats"
    | Republished _ -> "republished"
    | Pong -> "pong"
    | Shutting_down -> "shutting down"
    | Server_error msg -> Printf.sprintf "server error: %s" msg
    | Fuzzy_reply _ -> "fuzzy reply"
    | Telemetry_json _ -> "telemetry"
    | Cluster_status_reply _ -> "cluster status"
  in
  raise (Protocol_error (Printf.sprintf "%s answered with %s" what kind))

let query t ~owner =
  match call t (Wire.Query { owner }) with
  | Reply { generation; reply } -> (generation, reply)
  | other -> unexpected "query" other

let batch t owners =
  match call t (Wire.Batch owners) with
  | Batch_reply { generation; replies } ->
      if Array.length replies <> Array.length owners then
        raise (Protocol_error "batch reply length mismatch");
      (generation, replies)
  | other -> unexpected "batch" other

let query_fuzzy ?(k = 10) t probe =
  match call t (Wire.Query_fuzzy { probe; k }) with
  | Fuzzy_reply { generation; result } -> (generation, result)
  | other -> unexpected "fuzzy query" other

let audit t ~provider =
  match call t (Wire.Audit { provider }) with
  | Audit_reply { generation; owners } -> (generation, owners)
  | other -> unexpected "audit" other

let stats_json t =
  match call t Wire.Stats with
  | Stats_json json -> json
  | other -> unexpected "stats" other

let telemetry_json t =
  match call t Wire.Telemetry with
  | Telemetry_json json -> json
  | other -> unexpected "telemetry" other

let cluster_status t =
  match call t Wire.Cluster_status with
  | Cluster_status_reply status -> status
  | other -> unexpected "cluster status" other

let republish t ~index_csv =
  match call t (Wire.Republish { index_csv }) with
  | Republished { generation } -> Ok generation
  | Server_error msg -> Error msg
  | other -> unexpected "republish" other

let republish_payload t data =
  match call t (Wire.Republish_binary { data }) with
  | Republished { generation } -> Ok generation
  | Server_error msg -> Error msg
  | other -> unexpected "republish" other

let republish_index t index = republish_payload t (Index_codec.encode index)

let ping t =
  match call t Wire.Ping with
  | Pong -> ()
  | other -> unexpected "ping" other

let shutdown t =
  match call t Wire.Shutdown with
  | Shutting_down -> ()
  | other -> unexpected "shutdown" other
