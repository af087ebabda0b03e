(** GMW executed over the simulated network, round by round.

    {!Eppi_mpc.Gmw.execute} evaluates the protocol in-process and reports
    closed-form communication statistics; the Fig. 6 experiments then price
    those with the {!Eppi_mpc.Cost} model.  This module instead {i runs} the
    protocol on {!Eppi_simnet.Simnet}: each party is a network node holding
    XOR shares, every AND layer is a broadcast round of masked bits, and the
    execution time {i emerges} from the latency/bandwidth/compute model
    rather than being estimated.  The test suite uses it to validate both
    the functional agreement with the in-process engine and the cost
    model's round structure (measured rounds = AND depth + output round).

    Beaver triples are pre-distributed by the dealer before time zero, as
    in the in-process engine (the offline phase is out of scope).

    There is one protocol body, {!execute_ft}; the
    {!Eppi_simnet.Transport} it runs on decides how it meets faults.  On
    the bare transport (the default) a lost message stalls the run.  On the
    reliable transport every message is acknowledged and resent until it
    arrives, and a party still missing contributions a round deadline after
    entering the round blames the parties that owe them.  Because the
    dealer draws all randomness before the network exists, a run that
    completes produces outputs bit-identical to the lossless run with the
    same rng.  {!execute} is the strict projection on the bare transport. *)

open Eppi_prelude
open Eppi_circuit

val default_reliability : Eppi_simnet.Transport.reliability
(** 5 ms initial timeout, x2 backoff capped at 80 ms, 12 retries, 250 ms
    round deadline — sized for {!Eppi_simnet.Simnet.default_config}
    latency. *)

type outcome =
  | Outputs of bool array  (** All rounds completed. *)
  | Parties_failed of int list
      (** The run stalled; the listed parties were blamed by the failure
          detector (retransmissions exhausted, or missing at a deadline).
          Empty on the bare transport, which detects nothing. *)

type ft_result = {
  outcome : outcome;
  rounds : int;  (** Broadcast rounds: one per AND layer plus the output round. *)
  retried_rounds : int;  (** Rounds in which at least one retransmission happened. *)
  report : Eppi_simnet.Transport.stats;
      (** [suspects] may be non-empty even on [Outputs] — a deadline that
          fired late is a false alarm, not a failure. *)
}

val execute_ft :
  ?transport:Eppi_simnet.Transport.t -> Rng.t -> Circuit.t -> inputs:bool array array -> ft_result
(** Run GMW over [transport] (default {!Eppi_simnet.Transport.bare}).
    @raise Invalid_argument on missing input bits or fewer than 2 parties. *)

type result = {
  outputs : bool array;
  rounds : int;
  net : Eppi_simnet.Simnet.metrics;
}

val execute : Rng.t -> Circuit.t -> inputs:bool array array -> result
(** {!execute_ft} on the bare transport, required to complete.
    @raise Invalid_argument as {!execute_ft}.
    @raise Failure if the run stalls. *)
