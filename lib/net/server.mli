(** The locator daemon: a persistent RPC front-end over {!Eppi_serve.Serve}.

    One [Unix.select] loop (the mux) owns the listening socket and every
    client connection.  Beside it runs one {e install lane}: a dedicated
    domain that executes every [Republish]/[Republish_binary] — decode
    (CSV or the compact {!Index_codec} form), postings compile, and the
    engine's CAS install ({!Eppi_serve.Serve.republish}) — one at a time,
    in arrival order.  The mux never stops answering for an install, for
    any worker count.

    With [workers = 1] the mux is the only domain that answers reads: it
    calls the engine inline.  With [workers = d > 1] the loop becomes a
    pure I/O mux: it decodes frames, stamps each request with a
    per-connection sequence number, and routes it to one of [d] worker
    domains.  Shard-affine requests (Query, Audit) are pinned to worker
    [shard mod d], so every shard keeps exactly one writing domain and
    {!Eppi_serve.Serve.query}'s single-writer-per-shard contract holds
    without locks.  Batch frames split into per-worker parts served in
    parallel.  Workers and the lane return pre-encoded response frames
    over the daemon's lock-free completion stack with a self-pipe wakeup,
    and the mux flushes them in sequence order, preserving the wire
    contract of exactly one response per request, in request order, per
    connection.

    Flow control and hygiene:
    - a connection whose write buffer exceeds [max_pending_bytes] stops
      being read until the client drains it (backpressure, not buffering
      without bound); one with [max_inflight] unanswered requests stops
      being read until workers catch up;
    - connections idle longer than [idle_timeout] are closed;
    - a framing error poisons only its connection: the server replies
      [Server_error] and closes after flushing, other clients are
      untouched;
    - a [Republish]/[Republish_binary] frame hot-swaps the engine's index
      generation on the install lane ({!Eppi_serve.Serve.republish_index})
      — every other connection keeps being answered from the old
      generation, no drain, caches invalidate per shard.  Before each
      install the lane finishes the current major GC cycle, so the
      generation the previous install retired is reclaimed before the
      next one is built.  Requests pipelined {e behind} a republish on
      the same connection wait for the swap, so a reply that follows a
      [Republished {generation}] on the wire never carries an older
      generation;
    - a [Shutdown] frame stops accepting, flushes every pending reply
      (an install in flight answers first), closes all connections, joins
      the lane and the worker domains and returns from {!run}.

    With tracing enabled ({!Eppi_obs.Trace}), every request is a
    [net.request] span tagged with its frame kind, recorded on the
    domain that executed it (a republish's, with its
    [serve.postings_compile] span, on the lane's track), accepted/closed
    connections are instant events, each worker domain samples a
    [net.worker-<i>] counter track and the lane a [net.install] track
    (queue depth, busy µs, requests served), and the mux samples
    [net.mux] stalled-connection counts.
    A request that arrived in a [Traced] envelope carries the client's
    trace id on its server-side spans, so both processes' tracks join in
    one exported trace.

    Telemetry ({!Telemetry}) is on by default and independent of tracing:
    every request is stamped through decode → dispatch → queue-wait →
    execute → reorder-dwell → write-flush, aggregated into per-stage
    histograms whose sums satisfy an exact conservation law, a rolling
    ~10 s window per request class, and a worst-N slow-request ring — all
    served by the [Telemetry] wire command.  The [Stats] reply carries the
    per-worker counters and the trace session's drop count on top of the
    engine metrics. *)

type config = {
  max_connections : int;  (** Accepted clients beyond this are refused. *)
  idle_timeout : float;  (** Seconds; 0 disables the idle sweep. *)
  max_payload : int;  (** Per-frame payload bound fed to {!Wire.Decoder}. *)
  max_pending_bytes : int;
      (** Per-connection write-buffer bound before backpressure. *)
  workers : int;
      (** Engine-calling domains. 1 = serve inline on the I/O loop (no
          worker domains spawned); d > 1 = mux + d worker domains with
          shard i pinned to worker i mod d.  The install lane runs
          either way. *)
  max_inflight : int;
      (** Per-connection bound on routed-but-unanswered requests before
          the mux stops reading that connection. *)
  telemetry : bool;
      (** Per-request stage timing ({!Telemetry}).  On by default; the
          cost is a handful of monotonic-clock reads per request.  The
          [Telemetry] wire command still answers when off (with empty
          aggregates) — the switch exists mainly so the bench can measure
          the instrumentation's own overhead. *)
  peers : string list;
      (** The replica set this daemon belongs to, as address strings
          ([serve --peers]).  Purely descriptive: the daemon never
          contacts its peers (fan-out is driven by the coordinator,
          {!Eppi_cluster}); the list is echoed in [Cluster_status]
          replies so clients and operators can discover the set from any
          one member.  Empty = standalone. *)
}

val default_config : config
(** 64 connections, 300 s idle timeout, {!Wire.default_max_payload},
    8 MiB pending bound, 1 worker (inline), 1024 in-flight requests,
    telemetry on, no peers. *)

type t

val create : ?config:config -> Eppi_serve.Serve.t -> t
(** Wrap an engine.  The server does not own the engine: it can be shared
    with in-process readers (e.g. a metrics poller).
    @raise Invalid_argument on a non-positive bound in [config]. *)

val engine : t -> Eppi_serve.Serve.t

val listen : Addr.t -> Unix.file_descr
(** Bind and listen.  A stale Unix-socket file left by a dead server is
    removed first; a path occupied by a non-socket file is an error.
    The returned descriptor is ready for {!run} — clients may already
    connect (the backlog holds them), which is how tests and the CLI avoid
    start-up races.
    @raise Unix.Unix_error as [bind]/[listen] do;
    @raise Failure when a Unix-socket path exists and is not a socket. *)

val run : t -> Unix.file_descr -> unit
(** Serve until a [Shutdown] frame arrives, then flush and return.  Closes
    the listener and every connection, and joins the install lane and any
    worker domains — on every exit, exceptions included; does not unlink
    socket files. *)

val serve : t -> Addr.t -> unit
(** {!listen} + {!run}, unlinking a Unix-socket path on the way out (also
    on exception) so no stray socket file survives the daemon. *)

val run_stdio : t -> unit
(** The [--stdio] transport: frames on stdin, responses on stdout, until
    EOF or a [Shutdown] frame.  Always inline (single-domain, republish
    included), regardless of [workers] — one blocking transport has
    nothing to overlap.  For inetd-style supervision and tests without
    socket plumbing. *)
