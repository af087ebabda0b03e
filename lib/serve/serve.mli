(** The online locator query engine — QueryPPI as a service.

    Layered on a published {!Eppi.Index}: requests are routed by owner id to
    one of [shards] independent shard states, each holding its own result
    cache (LRU of materialized posting lists), negative cache of unknown
    owner ids, token bucket and metrics.  All shared data (the compiled
    {!Postings} store) is read-only, and each shard's mutable state has a
    single writer, so batch replay across an {!Eppi_prelude.Pool} of
    domains runs without locks or contention.

    The published store sits behind a generation-tagged atomic slot:
    {!republish} installs a freshly constructed index while the shards keep
    serving (no drain), and each shard invalidates its caches the first
    time it observes the new generation.  An optional
    {!Eppi_fuzzy.Resolver} rides in the same slot, so approximate-identity
    lookups ({!query_fuzzy}) always score against signatures of the same
    vintage as the postings they fan out into.

    Correctness contract: for every in-range owner, the engine's reply
    (cached or not) is exactly [Eppi.Index.query index ~owner]; every
    request is answered with an explicit {!reply} — shed requests are
    reported, never silently dropped. *)

open Eppi_prelude

type config = {
  shards : int;  (** Independent shard states (>= 1). *)
  cache_capacity : int;  (** Result-cache entries per shard; 0 disables. *)
  negative_capacity : int;  (** Negative-cache entries per shard; 0 disables. *)
  admission : Admission.config option;  (** [None]: admit everything. *)
  latency_sample_every : int;
      (** Record the latency of every k-th query per shard (1 = all).
          Sampling keeps the clock calls off the common path. *)
}

val default_config : config
(** 1 shard, 4096-entry cache, 1024-entry negative cache, no admission
    control, latency sampled every 16th query. *)

type reply =
  | Providers of int list  (** The QueryPPI answer, ascending provider ids. *)
  | Unknown_owner  (** The owner id is outside the published index. *)
  | Shed_rate_limit  (** Rejected by the shard's token bucket. *)
  | Shed_queue_full  (** Rejected by the bounded per-shard queue (batch). *)

type t

val create : ?config:config -> ?resolver:Eppi_fuzzy.Resolver.t -> Eppi.Index.t -> t
(** Compile the index into the read-optimized store (traced as a
    [serve.postings_compile] span) and set up shard state.  [resolver],
    when given, enables {!query_fuzzy} against the roster it was built
    from.  @raise Invalid_argument on a non-positive shard count,
    negative capacities or a non-positive sample interval. *)

val of_postings : ?config:config -> ?resolver:Eppi_fuzzy.Resolver.t -> Postings.t -> t
(** Reuse an already-compiled store (e.g. shared across engines). *)

val postings : t -> Postings.t
(** The currently published store (the latest generation's). *)

val resolver : t -> Eppi_fuzzy.Resolver.t option
(** The currently published resolver, same generation as {!postings}. *)

val shards : t -> int

val generation : t -> int
(** The current index generation: 1 at {!create}, +1 per {!republish}. *)

val republish : ?resolver:Eppi_fuzzy.Resolver.t -> t -> Postings.t -> int
(** Atomically install a new published store without draining the shards
    and return its generation.  Requests already past their generation
    check complete against the index they started on; every later request
    (on any shard) serves from the new one.  Each shard drops its result
    and negative caches the first time it sees the new generation
    (counted in {!Metrics} as [swaps]).  The resolver swaps in the same
    atomic store as the postings; omitted, the currently installed one is
    carried over — either way readers see a consistent
    (postings, resolver) pair.  Safe to call from any domain while
    {!query}/{!run}/{!replay} execute. *)

val republish_index : ?resolver:Eppi_fuzzy.Resolver.t -> t -> Eppi.Index.t -> int
(** {!republish} after compiling the index ({!Postings.of_index}, traced
    as a [serve.postings_compile] span on the calling domain). *)

val query : ?now:float -> t -> owner:int -> reply
(** Serve one request.  [now] (seconds, default {!Clock.seconds}) drives the
    token bucket and latency measurement.  Concurrent callers must not share
    a shard; use {!run} for parallel replay. *)

val query_tagged : ?now:float -> t -> owner:int -> int * reply
(** Like {!query}, also naming the index generation the reply was computed
    from — the tag the RPC server stamps on every response so clients can
    tell pre- from post-swap answers. *)

type candidate = {
  owner : int;  (** Resolved owner id, valid in the reply's generation. *)
  score : float;  (** Weighted Dice match score in [0, 1], quantized to 1e-4. *)
  providers : int list;  (** The owner's ε-PPI row — {!reply} [Providers]. *)
}

type fuzzy_reply =
  | Candidates of candidate list
      (** Best matches first (score desc, owner asc), at most [k]; possibly
          empty when nothing cleared the resolver's threshold. *)
  | No_resolver  (** The published generation carries no resolver. *)
  | Probe_mismatch
      (** The probe's filter geometry (bits/hashes) differs from the
          resolver's — client and daemon disagree on linkage parameters. *)
  | Fuzzy_shed  (** Rejected by the routed shard's token bucket. *)

val fuzzy_shard : t -> Eppi_fuzzy.Probe.t -> int
(** The shard a probe's metrics and admission are accounted on — a stable
    function of the probe content ({!Eppi_fuzzy.Probe.routing_hash}). *)

val query_fuzzy : ?now:float -> ?k:int -> t -> Eppi_fuzzy.Probe.t -> int * fuzzy_reply
(** Resolve an approximate-identity probe against the published resolver,
    then fan each candidate out to its ε-PPI row — all against the single
    atomically published (postings, resolver) pair, whose generation tags
    the reply.  [k] (default 10) caps the candidate list.  Admission uses
    the {!fuzzy_shard} shard's token bucket; [now] as in {!query}.
    Concurrent callers must not share a shard.
    @raise Invalid_argument when [k <= 0]. *)

val audit : t -> provider:int -> int list option
(** Provider-side audit: the owners the published index lists at
    [provider]; [None] when the provider id is out of range. *)

type report = {
  replies : reply array;  (** One per request, in request order. *)
  wall_seconds : float;
}

val run : ?pool:Pool.t -> ?clock:(unit -> float) -> t -> int array -> report
(** Replay a workload (owner id per request).  Requests are partitioned by
    shard, preserving request order within each shard, and shards execute in
    parallel across the pool's domains; replies land at their request's
    position.  With admission control configured, each shard queues at most
    [queue_capacity] requests per batch — the overflow is answered
    [Shed_queue_full] — and its token bucket is consulted per request. *)

type tally = {
  served : int;
  unknown : int;
  shed_rate : int;
  shed_queue : int;
  providers_listed : int;  (** Sum of reply list lengths (response volume). *)
  tally_wall_seconds : float;
}

val replay : ?pool:Pool.t -> ?clock:(unit -> float) -> t -> int array -> tally
(** Like {!run}, but replies are consumed (counted) as they are produced
    instead of being retained — the streaming-server shape.  Use this for
    throughput measurement: {!run} keeps every materialized posting list
    live, which charges the measurement with the caller's retention, not
    the engine's work. *)

val metrics : t -> Metrics.snapshot
(** Merged view over all shards.  Reading while {!run} executes on other
    domains yields a consistent-enough approximation (plain int reads). *)
