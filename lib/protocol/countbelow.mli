(** The CountBelow stage: generic MPC among the c coordinators
    (paper Algorithm 2 and Section IV-B.2).

    The coordinators feed their SecSumShare output vectors into the compiled
    {!Eppi_sfdl.Programs.count_below} circuit, which reconstructs each
    identity's frequency {i inside the circuit}, compares it against a
    public per-identity threshold, and reveals only: the common bit, the
    frequency of non-common identities (deemed non-sensitive by the paper's
    threat model — high frequency is what makes an identity attackable), and
    the count of common identities for the λ computation.

    The integer thresholds are derived from the β policy so that
    "frequency >= threshold" is {i exactly} "β* >= 1": the protocol and the
    centralized reference classify identities identically (tested).

    {!run_ft} is the one body over every transport; {!run} is its
    projection under the cost model. *)

open Eppi_prelude

type result = {
  common : bool array;
  frequencies : int option array;  (** [Some f] for non-common identities. *)
  n_common : int;
  circuit_stats : Eppi_circuit.Circuit.stats;
  comm : Eppi_mpc.Gmw.comm_stats;
  time : float;
      (** Simulated MPC execution time: the cost model's estimate by
          default, or the emergent completion time when running over the
          simulated network (see [transport]). *)
}

(** How the MPC stage runs: [`Cost_model] executes the in-process engine
    and prices it with {!Eppi_mpc.Cost}; [`Simnet t] runs the protocol
    round-by-round over the simulated network ({!Mpcnet}) on transport [t]
    — bare, or reliable under a fault plan — so the time emerges from
    message passing. *)
type transport = [ `Cost_model | `Simnet of Eppi_simnet.Transport.t ]

(** How the count-below computation is organized:

    - [`Monolithic] — the paper-literal formulation: one circuit over all n
      identities, walked sequentially.  Always used under the [`Simnet]
      transport (the network simulation replays a single protocol instance).
    - [`Sharded] — the multicore pipeline (default under [`Cost_model]):
      one comparator circuit per identity, memo-compiled per distinct
      [(c, q, threshold)], evaluated on the domain pool with a per-shard
      {!Rng.split}.  Classification outputs are bit-identical to
      [`Monolithic] (GMW outputs are deterministic given the inputs); the
      reported [circuit_stats]/[comm] sum the shards, with the
      multiplicative depth taken as the max — shards batch into common
      broadcast rounds. *)
type strategy = [ `Monolithic | `Sharded ]

val integer_threshold : policy:Eppi.Policy.t -> epsilon:float -> m:int -> int
(** Smallest frequency count at which the policy's raw β reaches 1; [m + 1]
    when no frequency is common (ε = 0). *)

(** The outcome of one run, with the reliable transport's counters (all
    zero on the other transports). *)
type ft_result = {
  outcome : [ `Done of result | `Coordinators_failed of int list ];
      (** [`Done r]: all rounds completed; [r.common]/[r.frequencies] are
          bit-identical on every transport, strategy and pool size.
          [`Coordinators_failed dead]: the MPC stalled and the failure
          detector blamed [dead]. *)
  retransmissions : int;
  duplicates : int;
  retried_rounds : int;
}

val run_ft :
  ?network:Eppi_mpc.Cost.network ->
  ?transport:transport ->
  ?pool:Pool.t ->
  ?strategy:strategy ->
  Rng.t ->
  shares:int array array ->
  q:Modarith.modulus ->
  thresholds:int array ->
  ft_result
(** [shares] is the c x n coordinator matrix from {!Secsumshare};
    [thresholds.(j)] is the count above which identity j is common (values
    above [q - 1] are clamped to [q - 1], which is unreachable by any sum of
    memberships since q > m).

    [pool] (default {!Pool.sequential}) supplies the domains the sharded
    strategy evaluates on; it is ignored by [`Monolithic] and [`Simnet]
    runs.  [strategy] defaults to [`Sharded] under [`Cost_model] and is
    forced to [`Monolithic] under [`Simnet].  Outputs ([common],
    [frequencies], [n_common]) are identical for every strategy and pool
    size.
    @raise Invalid_argument on shape violations or zero identities. *)

val run :
  ?network:Eppi_mpc.Cost.network ->
  ?pool:Pool.t ->
  ?strategy:strategy ->
  Rng.t ->
  shares:int array array ->
  q:Modarith.modulus ->
  thresholds:int array ->
  result
(** {!run_ft} under the cost model, which always completes.
    @raise Invalid_argument as {!run_ft}. *)
