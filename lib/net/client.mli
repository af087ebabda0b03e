(** Blocking client for the locator daemon.

    One socket, strict request/response ordering (the server's guarantee),
    so {!pipeline} can keep N requests in flight and match replies by
    position — the throughput lever the [bench -- net] depth sweep
    measures.  Not thread-safe: one [t] per domain.

    Every returned generation is the index generation the server computed
    the reply from; after a {!republish} returns generation [g], every
    later reply on any connection carries a generation [>= g]. *)

type t

type error =
  | Timed_out
      (** No response within [request_timeout].  The connection is kept (the
          response may still be in flight); the caller decides whether to
          retry or {!close}.  Never triggers a reconnect. *)
  | Connection_lost of string
      (** The transport died and — if reconnect was enabled — every
          re-dial attempt failed too. *)

exception Protocol_error of string
(** The server broke the framing or answered with the wrong frame kind —
    or sent [Server_error] for a request that admits no typed failure. *)

val unexpected : string -> Wire.response -> 'a
(** [unexpected what response] raises {!Protocol_error} naming the frame
    kind [what] got instead of what it wanted — for callers matching raw
    {!pipeline} responses. *)

val connect :
  ?retries:int ->
  ?retry_delay:float ->
  ?max_payload:int ->
  ?request_timeout:float ->
  ?reconnect:bool ->
  ?max_reconnects:int ->
  ?trace_context:bool ->
  ?backoff_seed:int ->
  Addr.t ->
  t
(** Connect, retrying a refused/absent endpoint [retries] times (default 0)
    with [retry_delay] seconds between attempts (default 0.05) — the
    just-started-daemon race.  SIGPIPE is set to ignore (once, globally) so
    a dead peer surfaces as [EPIPE] rather than killing the process.

    [request_timeout] bounds every subsequent request: a call whose response
    does not arrive within that many seconds returns {!Timed_out} (for
    {!pipeline} it is an inactivity bound — reset whenever the socket makes
    progress).  Default: wait forever.

    [reconnect] (default false) makes {!call_result}, {!call} and
    {!pipeline} transparently re-dial the same address when the connection
    drops mid-exchange, with jittered capped exponential backoff (see
    {!backoff_delay}) and at most [max_reconnects] (default 5) attempts,
    then re-send the unanswered request(s) on the fresh socket —
    at-least-once semantics: a request whose response was lost in flight is
    executed again.  [backoff_seed] seeds the jitter stream; the default
    mixes the pid with a process-global counter so clients that lost the
    same server never reconnect in lockstep.

    [trace_context] (default true): while {!Eppi_obs.Trace} tracing is
    enabled, {!call_result}/{!call} wrap each request in a [Wire.Traced]
    envelope carrying a fresh trace id and mirror that id on a
    [client.request] span, so the client's and the daemon's tracks join in
    one exported trace.  Set it to false when talking to a daemon that
    predates the envelope tag (it would reject the frame as an unknown
    tag); with tracing disabled the wire is byte-identical either way.
    {!pipeline} never wraps.  @raise Unix.Unix_error once connect retries
    are exhausted. *)

val backoff_delay : base:float -> attempt:int -> u:float -> float
(** The reconnect schedule, exposed pure so its bound is testable:
    attempt [k] (1-based) sleeps [min (base * 2^(k-1)) 2.0] scaled by
    [0.5 + u/2] with [u] uniform in [0, 1) — always within
    [[full/2, full)] of the capped exponential [full], so a fleet of
    clients spreads over half the window instead of reconnecting in
    lockstep, while a run of small draws can never collapse the delay to
    zero and hammer a recovering server.
    @raise Invalid_argument when [attempt < 1] or [u] is outside
    [[0, 1)]. *)

val close : t -> unit
(** Idempotent. *)

val call_result : t -> Wire.request -> (Wire.response, error) result
(** Send one request, block for its response; transport failures come back
    as [Error] instead of an exception.  Framing violations still raise
    {!Protocol_error}. *)

val call : t -> Wire.request -> Wire.response
(** Send one request, block for its response.  @raise Protocol_error on
    timeout ("request timed out") or connection loss, after any configured
    reconnect attempts. *)

val pipeline : t -> Wire.request list -> Wire.response list
(** Send every request over the socket while concurrently reading replies
    (interleaved with [select], so an arbitrarily long batch cannot
    deadlock against the server's backpressure), returning the responses
    in request order. *)

(* Typed wrappers; each raises {!Protocol_error} on a mismatched response. *)

val query : t -> owner:int -> int * Eppi_serve.Serve.reply
(** (generation, reply). *)

val query_fuzzy : ?k:int -> t -> Eppi_fuzzy.Probe.t -> int * Eppi_serve.Serve.fuzzy_reply
(** Approximate-identity lookup: at most [k] (default 10) candidates,
    each with its ε-PPI row, tagged with the generation of the
    (postings, resolver) pair that answered.  Build the probe locally
    with {!Eppi_fuzzy.Probe.of_demographic} under the shared linkage
    seed — only Bloom filters and keyed blocking hashes go on the
    wire. *)

val batch : t -> int array -> int * Eppi_serve.Serve.reply array

val audit : t -> provider:int -> int * int list option

val stats_json : t -> string
(** The engine's merged {!Eppi_serve.Metrics} snapshot as JSON, with the
    server's per-worker counters ([workers]) and trace-drop count
    ([trace_dropped]) spliced in. *)

val telemetry_json : t -> string
(** The daemon's live telemetry snapshot as JSON ({!Telemetry.to_json}):
    rolling-window p50/p99/throughput per request class, per-stage
    histograms with their conservation check, the slow-request ring,
    per-worker counters and generation/trace info. *)

val cluster_status : t -> Wire.cluster_status
(** The daemon's replication observables: current index generation,
    applied-swap count, and the replica set it was started with
    ({!Server.config.peers}).  Works against any daemon; a standalone one
    reports an empty peer list. *)

val republish : t -> index_csv:string -> (int, string) result
(** Install a new index on the server ({!Eppi.Index.to_csv} payload);
    [Ok generation] on success, [Error message] when the server rejects
    the CSV. *)

val republish_index : t -> Eppi.Index.t -> (int, string) result
(** {!republish} with the compact {!Index_codec} payload — an order of
    magnitude smaller on the wire than the CSV form, and decoded off the
    server's I/O loop.  Prefer this unless the peer predates the binary
    codec. *)

val republish_payload : t -> string -> (int, string) result
(** {!republish_index} with the payload already encoded — e.g. the bytes
    of an {!Index_file} past its magic — shipped as is.  The server's
    total decoder is the judge of whether they are a valid index; a
    rejection comes back as [Error message]. *)

val ping : t -> unit

val shutdown : t -> unit
(** Ask the server to stop; returns once [Shutting_down] is acknowledged. *)
