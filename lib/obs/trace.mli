(** Low-overhead structured tracing: spans, instants and counters.

    Every subsystem of the pipeline records into this layer — construction
    phases, per-shard MPC circuit evaluations, GMW interpreter runs, the
    simulated network's event loop, pool workers and serve shards — and
    the result exports as one Chrome trace-event file ({!Chrome}) or an
    aggregate table ({!Summary}).

    Discipline: each domain records into its own ring buffer held in
    domain-local storage (the same single-writer/no-lock scheme as the
    serve shards), so recording never contends across cores; in the
    exported trace each domain becomes its own track.  Tracing is globally
    off by default and every recording call starts with a single atomic
    load — the only cost hot loops pay when tracing is disabled.  Buffers
    are bounded: once a domain's buffer is full, further events are
    counted as dropped rather than recorded.

    Spans carry resource deltas: begin snapshots [Gc.quick_stat], end
    attaches [minor_words]/[major_words]/[promoted_words]/[minor_gcs]/
    [major_gcs] deltas to the closing event (on OCaml 5 these are
    process-wide counters, so treat them as attribution under a
    single-writer phase, not a per-domain truth).

    Not reentrant with respect to sessions: [enable]/[reset] while another
    domain is mid-record is a programming error (quiesce pools first). *)

type kind = Span_begin | Span_end | Instant | Counter

type event = {
  kind : kind;
  name : string;
  ts : int;  (** CLOCK_MONOTONIC nanoseconds. *)
  args : (string * int) list;
}

type track = {
  track_domain : int;  (** The recording domain's id. *)
  track_label : string;  (** ["main"] or ["domain-<id>"]. *)
  track_events : event list;  (** In recording order. *)
  track_dropped : int;  (** Events lost to the buffer bound. *)
}

val enabled : unit -> bool
(** One atomic load; the guard every instrumentation site checks first. *)

val enable : ?capacity_per_domain:int -> unit -> unit
(** Start a fresh tracing session (discarding any previous one).  Each
    domain that records gets its own buffer of [capacity_per_domain]
    events (default 65536).
    @raise Invalid_argument on a non-positive capacity. *)

val disable : unit -> unit
(** Stop recording; buffers are kept so the session can be exported. *)

val reset : unit -> unit
(** Stop recording and discard all buffers. *)

val span :
  ?args:(string * int) list ->
  ?args_of:('a -> (string * int) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span name f] runs [f] inside a [name] span; [args], then [args_of]
    applied to [f]'s result (for arguments known only once [f] returns),
    are attached to the closing event along with the GC deltas.  If [f]
    raises, the span is closed with a [raised] marker and the exception
    rethrown.  When tracing is disabled this is one atomic load plus a
    call to [f]. *)

val begin_span : string -> unit
(** Open a span manually (no closure).  Must be balanced by {!end_span}
    on the same domain; spans nest per-domain. *)

val end_span : ?args:(string * int) list -> string -> unit
(** Close the innermost open span.  An unbalanced end (e.g. tracing was
    enabled mid-span) is silently dropped. *)

val instant : ?args:(string * int) list -> string -> unit
(** A zero-duration marker event. *)

val counter : string -> (string * int) list -> unit
(** Sample a named counter track: each key becomes a series in that track
    (Chrome renders one stacked counter chart per distinct name). *)

val dropped_events : unit -> int
(** Total events lost to full buffers across every domain in the current
    session.  Safe to call while recording continues — the count is a
    monitoring-grade approximation, not a linearizable read.  0 when no
    session has recorded. *)

val tracks : unit -> track list
(** Snapshot of the current session, one track per recording domain,
    sorted by domain id.  Call with recording quiesced (after {!disable}
    or between pool jobs). *)
