(** The network a protocol layer runs on: {!Simnet} bare, or {!Simnet}
    under a stop-and-wait reliability sublayer.

    A protocol is written once against this module and behaves according
    to the transport it is given:

    - the {b bare} transport ([reliability = None]) hands each data message
      to {!Simnet} and nothing else: no acks, no timers, no deadline
      events, so message counts, bytes and simulated times are those of the
      protocol alone.  A lost message simply never arrives, and the
      protocol reports the run incomplete;
    - the {b reliable} transport acknowledges every data message, resends
      an unacknowledged one with exponential backoff, blames a destination
      whose retry budget runs out, and runs the layer's failure-detector
      checks at its deadlines.

    Both deliver each message key to the protocol at most once (a
    duplicating fault plan never double-counts a contribution), and neither
    draws protocol randomness: a run that completes computes the same
    values on either. *)

type reliability = {
  timeout : float;  (** Seconds before the first resend. *)
  backoff : float;  (** Timeout multiplier per resend. *)
  max_timeout : float;  (** Cap on the backed-off timeout. *)
  max_retries : int;  (** Resends before the destination is blamed. *)
  deadline : float;
      (** Failure-detector horizon, seconds: see {!on_deadline}. *)
}

type t = {
  plan : Simnet.fault_plan option;  (** Faults injected into the network. *)
  reliability : reliability option;  (** [None] is the bare transport. *)
}

val bare : t
(** No faults, no reliability. *)

(** {1 Running a protocol} *)

type ('key, 'msg) net
(** One protocol run.  Data messages carry a ['key] naming them; a protocol
    sends each key at most once (the transport's resends reuse it). *)

val create : t -> nodes:int -> ('key, 'msg) net
(** A fresh {!Simnet} network of [nodes] nodes on
    {!Simnet.default_config}. *)

val on_receive : ('key, 'msg) net -> int -> (src:int -> 'key -> 'msg -> unit) -> unit
(** Install a node's handler.  It sees each key once; copies are counted
    as duplicates and dropped. *)

val send : ('key, 'msg) net -> src:int -> dst:int -> size:int -> 'key -> 'msg -> unit

val at : ('key, 'msg) net -> delay:float -> int -> (unit -> unit) -> unit
(** A local timer on a node (see {!Simnet.at}). *)

val on_deadline : ('key, 'msg) net -> stage:int -> int -> (unit -> unit) -> unit
(** [on_deadline net ~stage node check] runs [check] on [node] at
    [stage * deadline] from now, unless the run has completed by then.
    No-op on the bare transport. *)

val blame : ('key, 'msg) net -> int -> unit
(** Record direct evidence that a node failed. *)

val delivered : ('key, 'msg) net -> 'key -> bool
(** Whether the message with this key has reached its destination. *)

val complete : ('key, 'msg) net -> unit
(** The protocol has its result: record the instant; pending resends and
    deadline checks become no-ops. *)

val work : ('key, 'msg) net -> int -> float -> unit
(** {!Simnet.work}. *)

val run : ('key, 'msg) net -> unit

type stats = {
  retransmissions : int;  (** Data messages resent. *)
  duplicates : int;  (** Received copies suppressed. *)
  suspects : int list;  (** Every node blamed, sorted. *)
  protocol_time : float;
      (** When the protocol finished.  Bare: {!Simnet.metrics}'s
          [completion_time], which includes work charged after the last
          delivery.  Reliable: the {!complete} instant, or the last fresh
          delivery when incomplete; trailing resend and deadline timers
          are excluded. *)
  net : Simnet.metrics;
}

val stats : ('key, 'msg) net -> stats

val retried : ('key, 'msg) net -> 'key list
(** Keys that needed at least one resend. *)
