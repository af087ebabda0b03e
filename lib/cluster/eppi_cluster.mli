(** Replicated locator cluster: republish fan-out and client failover.

    The availability story of the ε-PPI locator is deliberately simple:
    the index is read-only between republishes, so N daemons serving the
    same generation are interchangeable and need no consensus protocol.
    Replication is therefore two independent halves:

    - {b coordinator side} ({!Fanout}): one process pushes the same
      {!Eppi_net.Index_codec} payload to every replica, retries transient
      failures per replica with jittered backoff, and reports partial
      success honestly — a dead replica does not block the others, it
      just shows up as [Error] in the report.  Convergence is checked
      observationally: after a fan-out round, every reachable replica's
      [Cluster_status] reports the same generation.
    - {b client side} ({!Client}): a thin wrapper over N
      {!Eppi_net.Client}s with per-endpoint health, a pluggable pick
      policy, and transparent failover — a window of pipelined queries
      whose replica dies mid-flight is re-issued in full on another
      replica (at-least-once, like single-client reconnect).

    Consistency caveat, stated rather than hidden: a replica's generation
    is a {e republish counter}, incremented once per applied swap — not a
    CAS-max of a coordinator-supplied value.  Convergence of the counter
    means every replica applied the same {e number} of rounds; with a
    single coordinator pushing the same payload each round (the supported
    topology) that implies identical content.  A retried round that was
    actually applied twice skews the counter without skewing content; two
    concurrent coordinators can disagree on content while agreeing on the
    counter.  Run one coordinator. *)

module Addr = Eppi_net.Addr
module Wire = Eppi_net.Wire

(** {1 Replica sets} *)

module Replica_set : sig
  type t
  (** A static, ordered, duplicate-free list of replica addresses.  Order
      matters: round-robin and tie-breaks follow it. *)

  val of_addrs : Addr.t list -> t
  (** @raise Invalid_argument on an empty list or a duplicate address. *)

  val parse : string -> (t, string) result
  (** Parse a comma-separated address list ([a.sock,host:9001,:9002]),
      trimming whitespace around each element.  Every element goes
      through {!Addr.parse}; the error message names the offending
      element. *)

  val of_string : string -> t
  (** {!parse}, raising [Invalid_argument] on rejection — for call sites
      that validated earlier. *)

  val addrs : t -> Addr.t list

  val size : t -> int

  val to_string : t -> string
  (** Canonical comma-separated form ({!parse}'s inverse up to
      whitespace and loopback spelling). *)
end

(** {1 Coordinator-side republish fan-out} *)

module Fanout : sig
  type replica_result = {
    addr : Addr.t;
    outcome : (int, string) result;
        (** [Ok generation] the replica installed; [Error message] after
            retries were exhausted or the replica rejected the payload. *)
    attempts : int;  (** Connect/send attempts made (>= 1). *)
    seconds : float;  (** Wall time spent on this replica, retries included. *)
  }

  type report = {
    results : replica_result list;  (** In replica-set order. *)
    succeeded : int;
    failed : int;
    generation : int option;
        (** The generation every successful replica reports, when they
            all agree; [None] on zero successes or disagreement (replicas
            that missed earlier rounds). *)
    wall_seconds : float;
        (** Whole-round wall time — the slowest replica, since replicas
            are pushed concurrently. *)
  }

  val republish :
    ?retries:int ->
    ?retry_delay:float ->
    ?request_timeout:float ->
    ?seed:int ->
    Replica_set.t ->
    Eppi.Index.t ->
    report
  (** Push [index] to every replica concurrently (one domain per
      replica), as a single {!Eppi_net.Index_codec} payload encoded once
      and shared.  Per replica: transient failures — connect refusal,
      timeout, connection loss — retry up to [retries] (default 3) more
      times with jittered exponential backoff starting at [retry_delay]
      (default 0.05 s, see {!Eppi_net.Client.backoff_delay}); a
      [Server_error] or a mis-typed reply is fatal immediately (retrying
      a rejected payload cannot help).  [request_timeout] (default 30 s)
      bounds each attempt.  [seed] makes the backoff jitter
      deterministic for tests.  Never raises on replica failure — that
      is what [report.failed] is for. *)

  val republish_payload :
    ?retries:int ->
    ?retry_delay:float ->
    ?request_timeout:float ->
    ?seed:int ->
    Replica_set.t ->
    string ->
    report
  (** {!republish} with the {!Eppi_net.Index_codec} payload already
      encoded (e.g. read from an index file), pushed as is: each
      replica's decoder validates it, and a replica that rejects it
      fails fatally, without retries. *)

  val status :
    ?request_timeout:float ->
    Replica_set.t ->
    (Addr.t * (Wire.cluster_status, string) result) list
  (** One [Cluster_status] probe per replica, in set order; unreachable
      replicas report [Error] rather than raising. *)

  val converged : (Addr.t * (Wire.cluster_status, string) result) list -> int option
  (** [Some generation] when {e every} probed replica answered and all
      report that generation — the post-fan-out convergence check.
      [None] on any error or disagreement (or an empty list). *)
end

(** {1 Client-side failover} *)

module Client : sig
  type policy =
    | Round_robin  (** Rotate through healthy replicas per window. *)
    | Least_inflight
        (** Pick the healthy replica with the fewest unanswered
            requests; ties break to the lowest index. *)

  exception No_replica of string
  (** Every replica is down or cooling down — the cluster-level analogue
      of {!Eppi_net.Client.Connection_lost}. *)

  exception Stale_generation of { newest : int; got : int }
  (** Read-consistency guard: {!query} answered from a replica whose
      generation is behind the newest this client has ever observed —
      i.e. the reply could predate a republish the client already saw
      take effect elsewhere.  The lagging replica is put on a short
      cooldown; retrying the query lands on a fresher one. *)

  type t

  val create :
    ?policy:policy ->
    ?request_timeout:float ->
    ?cooldown:float ->
    ?seed:int ->
    Replica_set.t ->
    t
  (** Build a cluster client; connections are dialed lazily, per replica,
      on first use.  [policy] defaults to [Round_robin].
      [request_timeout] (default 30 s) bounds each request on the
      underlying clients.  A replica marked down is not retried until a
      jittered [cooldown] (default 1 s) elapses; [seed] makes the jitter
      deterministic. *)

  val select : policy -> rr:int -> (bool * int) array -> int option
  (** The pick function, exposed pure for table-driven tests:
      [slots.(i) = (selectable, inflight)].  [Round_robin] returns the
      first selectable index at or after [rr] (mod length);
      [Least_inflight] the selectable index with minimal inflight,
      lowest index on ties.  [None] when nothing is selectable. *)

  val pipeline : t -> Wire.request list -> Wire.response list
  (** Issue one window of pipelined requests on a replica chosen by the
      policy.  If the replica fails mid-window (connection loss, framing
      error), it is marked down and the {e whole window} is re-issued on
      another replica — at-least-once semantics, same contract as
      single-client reconnect.  Observes generations in the replies to
      advance the staleness floor, but never raises {!Stale_generation}
      itself (raw windows may legitimately mix replicas across calls).
      @raise No_replica when every replica has been tried and marked
      down. *)

  val query : t -> owner:int -> int * Eppi_serve.Serve.reply
  (** One QueryPPI with the read-consistency guard: @raise
      Stale_generation when the answering replica's generation is behind
      the newest observed.  @raise No_replica as {!pipeline}. *)

  type summary = {
    requests : int;
    served : int;
    unknown : int;
    shed : int;
    providers_listed : int;
    failovers : int;  (** Failovers that occurred during the replay. *)
    wall_seconds : float;
  }

  type stats = {
    dispatched : int array;  (** Per replica, replica-set order. *)
    answered : int array;
    failures : int array;  (** Times each replica was marked down. *)
    failovers : int;
        (** Windows that succeeded on a fallback replica after a
            detected failure. *)
    failover_seconds : float list;
        (** Failure-detection → first-success latency per failover,
            newest first. *)
    max_generation : int;  (** The staleness floor; -1 before any reply. *)
  }

  val stats : t -> stats

  val replay : ?depth:int -> t -> int array -> summary
  (** Drive a workload ({!Eppi_serve.Workload} array) through the
      cluster as windows of [depth] (default 32) pipelined queries —
      {!Eppi_net.Replay.run}, but failover-aware.  Conservation holds:
      [served + unknown + shed = requests].
      @raise No_replica when the whole cluster dies mid-replay. *)

  val close : t -> unit
  (** Close every underlying connection.  Idempotent. *)
end
