(** The SecSumShare protocol (paper Section IV-B, Figure 3).

    Given m providers each holding a private vector of values in Z_q (the
    membership bits, one per identity), the protocol produces c share
    vectors, held by c coordinator providers, whose element-wise sum mod q
    equals the element-wise sum of all private inputs — without any party
    learning anything beyond its own inputs (collusion below c reveals
    nothing; Theorem 4.1).

    The four steps, run over the simulated network with all identities
    batched into one message per edge:

    + {b Generate}: provider i splits each private value into c additive
      shares;
    + {b Distribute}: the k-th share goes to the k-th ring successor
      p_((i+k) mod m); the 0-th stays local;
    + {b Sum}: each provider adds the shares it received into a
      super-share vector;
    + {b Aggregate}: provider i sends its super-shares to coordinator
      (i mod c); coordinator r accumulates them into the output vector
      s(r, ·).

    Requires m >= c >= 2.

    There is one protocol body, {!run_ft}; the {!Eppi_simnet.Transport} it
    runs on decides how it meets faults.  On the bare transport (the
    default) a lost share stalls the run, which is reported incomplete
    rather than corrupting the sum.  On the reliable transport every
    message is acknowledged and resent until it arrives, and a failure
    detector blames the providers it has direct evidence against.  {!run}
    is the strict projection on the bare transport: it raises when the run
    does not complete. *)

open Eppi_prelude

val default_reliability : Eppi_simnet.Transport.reliability
(** 10 ms initial timeout, x2 backoff capped at 80 ms, 25 retries: survives
    heavy simulated loss on a LAN.  The 0.25 s deadline is the failure
    detector's horizon: providers check for missing shares at [deadline],
    coordinators for missing super-shares at [2 * deadline]. *)

type ft_result = {
  shares : int array array option;
      (** [Some] iff every coordinator received every expected
          super-share: c x n, s(r, j). *)
  stalled : int list;
      (** Live victims: providers that missed their deadline because a
          predecessor failed.  Never blamed without direct evidence —
          excluding them would punish survivors. *)
  report : Eppi_simnet.Transport.stats;
      (** [suspects] are the providers blamed with direct evidence: an
          exhausted retransmission budget toward them, their share vectors
          missing at a provider's deadline, or their super-share missing at
          a coordinator's deadline while they themselves were not
          stalled. *)
}

val run_ft :
  ?transport:Eppi_simnet.Transport.t ->
  Rng.t ->
  inputs:int array array ->
  c:int ->
  q:Modarith.modulus ->
  ft_result
(** [inputs.(i).(j)] is provider i's private value for identity j (all
    providers must supply equally long vectors with values in [0, q)).
    [transport] defaults to {!Eppi_simnet.Transport.bare}.
    @raise Invalid_argument on shape violations, [m < c] or [c < 2]. *)

type result = {
  coordinator_shares : int array array;  (** c x n: s(r, j). *)
  net : Eppi_simnet.Simnet.metrics;
}

val run : Rng.t -> inputs:int array array -> c:int -> q:Modarith.modulus -> result
(** {!run_ft} on the bare transport, required to complete.
    @raise Invalid_argument as {!run_ft}.
    @raise Failure if a coordinator is missing super-shares. *)

val reconstruct : q:Modarith.modulus -> int array array -> int array
(** Element-wise sum of the coordinator share vectors — the plain sums the
    protocol secretly computes.  Exposed for tests and for the CountBelow
    stage's reference path. *)
