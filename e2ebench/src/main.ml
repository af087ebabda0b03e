(* End-to-end locator benchmark.

     run.sh --workload NAME --seed N --seconds S --trace 0|1

   Drives the real [eppi] CLI and daemon as child processes: generate the
   workload's dataset(s), then rotate through builds ([eppi construct]),
   daemon sessions ([eppi serve] until the first Pong, open-loop reads,
   three [eppi republish] swaps under reads, shutdown) and bare daemon
   restarts until the run's time is used.  Every reply is checked
   against an in-process reference index built from the same dataset and
   seed; a wrong answer makes the run exit 1.  The index artifact is
   opaque here: it is only handed to [serve -i], [republish -i],
   [evaluate] and [query -i] and compared byte for byte with other
   builds.

   With --trace 0 the last stdout line carries the end-to-end metrics.
   With --trace 1 one rotation runs, the session adds pipelined reads,
   heavy reads and a capacity ladder, and the traced in-process pipeline
   ([Layers]) adds the per-layer metrics, a Chrome trace and a per-layer
   table under e2ebench/_out/.  See e2ebench/README.md. *)

open Eppi_prelude
module M = E2ebench.Measure
module Wire = Eppi_net.Wire
module Client = Eppi_net.Client
module Serve = Eppi_serve.Serve
module Postings = Eppi_serve.Postings

type workload = {
  name : string;
  generate : string list;  (** Sizing flags of [eppi generate]. *)
  construct : string list;  (** Extra flags of [eppi construct]. *)
  secure : bool;
  other_dataset : bool;  (** Republish the index of a second dataset (seed + 1). *)
  light : float;  (** Offered read rates, requests/s. *)
  heavy : float;
}

(* Rates are fixed numbers, frozen when the benchmark was defined: light
   is about a fifth and heavy about three fifths of the capacity measured
   then. *)
let workloads =
  [
    {
      name = "secure-build";
      generate = [ "--owners"; "5000"; "--providers"; "1000" ];
      construct = [ "--secure"; "-c"; "3"; "--domains"; "2" ];
      secure = true;
      other_dataset = false;
      light = 2500.0;
      heavy = 7500.0;
    };
    {
      name = "serve-read";
      generate = [ "--owners"; "25000"; "--providers"; "1000"; "--epsilon"; "0.5" ];
      construct = [];
      secure = false;
      other_dataset = true;
      light = 22000.0;
      heavy = 66000.0;
    };
  ]

let setups = 3
let min_rotations = 2
let max_steps = 60
let republishes = 3
let warmup_s = 0.3
let light_s = 0.5
let pipeline_s = 0.5
let pipeline_depth = 16
let cpu_window_s = 0.1
let heavy_s = 1.5
let probe_s = 0.3
let settle_s = 0.2
(* Capacity ladder: fixed rungs 4% apart, searched by bisection; a rung
   passes when p99 stays within the limit and the backlog does not grow.
   The limit sits above the millisecond-scale pauses (collector, scheduler)
   that a shared two-core host shows even at light load, so a rung fails
   on overload, not on a stray pause; a failing rung is probed twice. *)
let ladder = M.ladder ~lo:2000.0 ~hi:250000.0 ~step:1.04
let latency_limit_ns = 10_000_000
let lag_limit_ns = 1_000_000
let phase_attempts = 2
let row_sample_every = 61

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("e2ebench: " ^ s)) fmt
let now_ns = Proc.now_ns

type run = {
  wl : workload;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
  out_dir : string;
  mutable attempted : int;
  mutable failed : int;
  mutable requests : int array;  (** The read sequence, Zipf over the owners. *)
  mutable cursor : int;  (** Next position in [requests]. *)
}

(* ---- CLI steps ---- *)

let tail_of path =
  match Proc.read_file path with
  | s ->
      let n = String.length s in
      String.trim (if n > 400 then String.sub s (n - 400) 400 else s)
  | exception Sys_error _ -> ""

(* Run one CLI step to completion; its wall time in seconds.  A step that
   fails is counted and aborts the run: nothing after it can be
   measured. *)
let cli_spawn r ~step args =
  r.attempted <- r.attempted + 1;
  let t0 = now_ns () in
  let pid = Proc.spawn ~exe:r.exe ~args ~stdout:(step ^ ".out") ~stderr:(step ^ ".err") in
  fun () ->
  match Proc.wait pid with
  | Proc.Exited 0 -> Proc.seconds_since t0
  | Proc.Exited c ->
      r.failed <- r.failed + 1;
      failwith (Printf.sprintf "eppi %s exited %d: %s" step c (tail_of (step ^ ".err")))
  | Proc.Killed why ->
      r.failed <- r.failed + 1;
      failwith (Printf.sprintf "eppi %s killed (%s)" step why)

let cli r ~step args = cli_spawn r ~step args ()

let same_bytes a b = Proc.file_size a = Proc.file_size b && Proc.read_file a = Proc.read_file b

(* ---- reference ---- *)

type reference = {
  dataset : Eppi_dataset.Dataset.t;
  index : Eppi.Index.t;
  postings : Postings.t;
}

let reference r ~seed csv_path =
  let dataset = Eppi_dataset.Dataset.of_csv (Proc.read_file csv_path) in
  let rng = Rng.create seed in
  let policy = Layers.policy in
  let index =
    if r.wl.secure then
      (Eppi_protocol.Construct.run ~c:Layers.coordinators rng ~membership:dataset.membership
         ~epsilons:dataset.epsilons ~policy)
        .index
    else
      (Eppi.Construct.run rng ~membership:dataset.membership ~epsilons:dataset.epsilons ~policy)
        .index
  in
  { dataset; index; postings = Postings.of_index index }

(* ---- daemon sessions ---- *)

type daemon = {
  pid : int;
  admin : Client.t;
  ready_s : float;
}

let start_daemon r ~index ~sock =
  r.attempted <- r.attempted + 1;
  let t0 = now_ns () in
  let pid =
    Proc.spawn ~exe:r.exe
      ~args:[ "serve"; "-i"; index; "--listen"; sock; "--domains"; "1" ]
      ~stdout:"serve.out" ~stderr:"serve.err"
  in
  let rec wait_pong () =
    (match Proc.poll pid with
    | Some _ ->
        r.failed <- r.failed + 1;
        failwith ("eppi serve ended before answering: " ^ tail_of "serve.err")
    | None -> ());
    if Proc.seconds_since t0 > 150.0 then failwith "eppi serve: not ready after 150 s";
    match Client.connect ~request_timeout:30.0 (Eppi_net.Addr.of_string sock) with
    | admin ->
        Client.ping admin;
        { pid; admin; ready_s = Proc.seconds_since t0 }
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.002;
        wait_pong ()
  in
  wait_pong ()

let stop_daemon d =
  (try Client.shutdown d.admin with _ -> ());
  Client.close d.admin;
  match Proc.wait ~timeout:30.0 d.pid with
  | Proc.Exited 0 -> ()
  | Proc.Exited c -> failwith (Printf.sprintf "eppi serve exited %d at shutdown" c)
  | Proc.Killed why -> failwith ("eppi serve killed at shutdown: " ^ why)

(* A daemon start that serves nothing: one more [ready_s] sample. *)
let restart r ~index ~sock =
  let d = start_daemon r ~index ~sock in
  Fun.protect
    ~finally:(fun () ->
      if Hashtbl.mem Proc.live d.pid then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        Proc.reap d.pid
      end)
    (fun () ->
      stop_daemon d;
      d.ready_s)

(* ---- reads ---- *)

type samples = { lat : Loadgen.Ints.t; lag : Loadgen.Ints.t }

let owner_of r =
  let reqs = r.requests in
  let base = r.cursor in
  fun i -> reqs.((base + i) mod Array.length reqs)

(* Check one reply against the reference of the generation it names;
   returns that generation, or -1 for a reply that is a failure but not a
   wrong answer. *)
let check_reply r ~(refs : int -> reference option) (rp : Loadgen.reply) =
  match rp.response with
  | Wire.Reply { generation; reply } -> (
      let reference =
        match refs generation with
        | Some x -> x
        | None -> wrong "owner %d answered from unexpected generation %d" rp.owner generation
      in
      let n = Postings.owners reference.postings in
      match reply with
      | Serve.Providers l ->
          if rp.owner >= n then wrong "unknown owner %d answered with providers" rp.owner;
          let expected = Postings.query_count reference.postings ~owner:rp.owner in
          if List.length l <> expected then
            wrong "owner %d (generation %d): %d providers, reference has %d" rp.owner generation
              (List.length l) expected;
          if
            rp.index mod row_sample_every = 0
            && l <> Postings.query reference.postings ~owner:rp.owner
          then wrong "owner %d (generation %d): row differs from the reference" rp.owner generation;
          generation
      | Serve.Unknown_owner ->
          if rp.owner < n then wrong "known owner %d answered Unknown" rp.owner;
          generation
      | Serve.Shed_rate_limit | Serve.Shed_queue_full ->
          r.failed <- r.failed + 1;
          -1)
  | _ ->
      r.failed <- r.failed + 1;
      -1

type conn = { mutable c : Loadgen.conn; sock_path : string }

(* Finish a phase: wait for its replies; a reply that never comes is a
   failure, and the connection is replaced so a straggler cannot be
   matched to a later request. *)
let finish r conn lg =
  let unanswered = Loadgen.drain lg ~timeout:5.0 in
  r.attempted <- r.attempted + Loadgen.sent lg;
  r.failed <- r.failed + unanswered;
  r.cursor <- r.cursor + Loadgen.sent lg;
  if unanswered > 0 then begin
    Loadgen.close conn.c;
    conn.c <- Loadgen.connect conn.sock_path
  end

(* A timed read phase.  A phase whose own sends ran late (lateness p99
   above [lag_limit_ns]) did not offer the intended load, so it is invalid
   and is run again, up to [attempts] times in all; the attempt whose sends
   ran closest to the schedule is kept.  Returns how many reads were sent
   over all attempts. *)
let timed_phase ?(attempts = phase_attempts) r conn ~rate ~seconds ~refs ~(into : samples) =
  let attempt () =
    let lat = Loadgen.Ints.create () in
    let on_reply (rp : Loadgen.reply) =
      if check_reply r ~refs rp >= 0 then Loadgen.Ints.push lat (rp.recv - rp.due)
    in
    let lg = Loadgen.start conn.c ~rate ~owner_of:(owner_of r) ~on_reply in
    Loadgen.run_until lg ~until_ns:(now_ns () + int_of_float (seconds *. 1e9));
    finish r conn lg;
    let lag_p99 = M.percentile (Loadgen.Ints.to_floats lg.lag) 99.0 in
    let xs = Loadgen.Ints.to_floats lat in
    if Array.length xs > 0 then
      log "%.0f q/s: latency %s, block p90 %.1f us; lateness p99 %.3f ms" rate
        (M.pp_summary ~scale:1e-3 ~unit:"us" (M.summarize xs))
        (M.block_p ~p:90.0 xs /. 1e3) (lag_p99 /. 1e6);
    (lag_p99, lat, lg.lag, Loadgen.sent lg)
  in
  let rec best k sent ((lag_p99, _, _, _) as kept) =
    if lag_p99 <= float_of_int lag_limit_ns || k >= attempts then (kept, sent)
    else begin
      log "  the generator lagged: phase run again";
      let ((next_lag, _, _, n) as next) = attempt () in
      best (k + 1) (sent + n) (if next_lag < lag_p99 then next else kept)
    end
  in
  let first = attempt () in
  let (_, lat, lag, _), sent = best 1 (let _, _, _, n = first in n) first in
  for i = 0 to lat.n - 1 do
    Loadgen.Ints.push into.lat lat.a.(i)
  done;
  for i = 0 to lag.n - 1 do
    Loadgen.Ints.push into.lag lag.a.(i)
  done;
  sent

(* Daemon CPU per read with [pipeline_depth] reads always in flight (a
   closed loop): one value per [cpu_window_s] window, the daemon's CPU
   time in the window over the replies received in it.  Batches amortise
   the per-wakeup costs that make CPU per read at a light open-loop rate
   swing with the host's timer behaviour, so this follows the cost of the
   read path itself. *)
let pipelined_cpu r conn ~refs ~cpu =
  let replies = ref 0 in
  let on_reply (rp : Loadgen.reply) = if check_reply r ~refs rp >= 0 then incr replies in
  let lg =
    Loadgen.start ~window:pipeline_depth conn.c ~rate:1e9 ~owner_of:(owner_of r) ~on_reply
  in
  let until_ns = now_ns () + int_of_float (pipeline_s *. 1e9) in
  let step = int_of_float (cpu_window_s *. 1e9) in
  let rec go acc cpu0 n0 =
    if now_ns () >= until_ns then List.rev acc
    else begin
      Loadgen.run_until lg ~until_ns:(min until_ns (now_ns () + step));
      let cpu1 = cpu () and n1 = !replies in
      let acc =
        if n1 > n0 then (cpu1 -. cpu0) /. float_of_int (n1 - n0) *. 1e6 :: acc else acc
      in
      go acc cpu1 n1
    end
  in
  let windows = go [] (cpu ()) 0 in
  finish r conn lg;
  windows

(* One capacity probe: [probe_s] of offered load at [rate]. *)
let probe r conn ~rate ~refs =
  let lat = Loadgen.Ints.create () in
  let on_reply (rp : Loadgen.reply) =
    if check_reply r ~refs rp >= 0 then Loadgen.Ints.push lat (rp.recv - rp.due)
  in
  let lg = Loadgen.start conn.c ~rate ~owner_of:(owner_of r) ~on_reply in
  let t0 = lg.t0 in
  let span = int_of_float (probe_s *. 1e9) in
  let slack = int_of_float (rate *. float_of_int latency_limit_ns /. 1e9) in
  (* An overloaded rung is abandoned once its backlog holds several
     latency limits' worth of requests, so it cannot bury the daemon. *)
  let stop () = Loadgen.backlog lg > 4 * slack in
  Loadgen.run_until lg ~stop ~until_ns:(t0 + (span / 2));
  let backlog_mid = Loadgen.backlog lg in
  Loadgen.run_until lg ~stop ~until_ns:(t0 + span);
  let backlog_end = Loadgen.backlog lg in
  let failed_before = r.failed in
  finish r conn lg;
  let ok =
    (not (stop ()))
    && r.failed = failed_before
    && lat.n > 0
    && M.rung_ok
         ~p99_ns:(int_of_float (M.block_p ~p:99.0 (Loadgen.Ints.to_floats lat)))
         ~limit_ns:latency_limit_ns ~backlog_mid ~backlog_end ~slack
  in
  log "ladder %.0f q/s: %s (backlog %d -> %d)" rate (if ok then "pass" else "fail") backlog_mid
    backlog_end;
  Unix.sleepf 0.05;
  ok

(* ---- builds and daemon sessions ---- *)

type session = {
  ready_s : float;
  cpu_us_per_read : float list;
      (** Traced run only: daemon CPU per read, one per window of pipelined reads. *)
  republish_s : float list;  (** One per republish... *)
  swap_p99_ns : float list;  (** ...and the p99 of the reads due in its window. *)
  rss_bytes : int;
  capacity : float;  (** Traced run only. *)
  stages_us : (string * float) list;  (** Daemon stage means over the light reads. *)
  cache_hit_rate : float;
  cpu_busy : float;  (** Daemon CPU / wall over the heavy reads. *)
}

let stage_means ~before ~after =
  let get json stage key =
    match Json.parse json with
    | Ok v -> Option.value ~default:0 (Json.find_int v [ "stages"; stage; key ])
    | Error e -> failwith ("telemetry: " ^ e)
  in
  List.map
    (fun stage ->
      let d key = get after stage key - get before stage key in
      let count = d "count" in
      (stage, if count = 0 then 0.0 else float_of_int (d "sum_ns") /. float_of_int count /. 1e3))
    [ "decode"; "dispatch"; "execute"; "reorder"; "flush" ]

type state = {
  light_lat : samples;
  heavy_lat : samples;  (** Traced run only. *)
}

(* One build: a fresh artifact, byte-identical to every other build. *)
let build r ~k ~dataset ~artifact =
  let fresh = "build.idx" in
  let build_s =
    cli r ~step:"construct"
      ([ "construct"; "-d"; dataset; "--seed"; string_of_int r.seed ]
      @ r.wl.construct @ [ "-o"; fresh ])
  in
  if not (Sys.file_exists artifact) then Sys.rename fresh artifact
  else begin
    if not (same_bytes fresh artifact) then
      wrong "construct build %d differs byte-wise from the reference artifact" k;
    Sys.remove fresh
  end;
  build_s

(* One republish under light reads: [eppi republish -i artifact] takes
   the daemon from generation [gen - 1] to [gen].  Replies may come from
   either generation but never go back, and every read sent after the
   acknowledgement must come from [gen].  Returns the time from spawning
   the CLI to the first reply from [gen], and the p99 latency of the reads
   that fell due between the spawn and the acknowledgement. *)
let republish_under_reads r conn ~sock ~gen ~artifact ~refs =
  let last_gen = ref 0 and first_new = ref None and ack = ref None in
  let window = ref [] in
  let on_reply (rp : Loadgen.reply) =
    let g = check_reply r ~refs rp in
    if g >= 0 then begin
      if g < !last_gen then wrong "generation went back from %d to %d" !last_gen g;
      last_gen := g;
      if g = gen && !first_new = None then first_new := Some rp.recv;
      (match !ack with
      | Some t when rp.sent > t && g <> gen ->
          wrong "read sent after the Republished ack answered from generation %d, not %d" g gen
      | _ -> ());
      window := (rp.due, rp.recv - rp.due) :: !window
    end
  in
  let t_spawn = now_ns () in
  r.attempted <- r.attempted + 1;
  let pid =
    Proc.spawn ~exe:r.exe
      ~args:[ "republish"; "--connect"; sock; "-i"; artifact ]
      ~stdout:"republish.out" ~stderr:"republish.err"
  in
  let lg = Loadgen.start conn.c ~rate:r.wl.light ~owner_of:(owner_of r) ~on_reply in
  let poll () =
    if !ack = None then
      match Proc.poll pid with
      | None -> ()
      | Some (Proc.Exited 0) -> ack := Some (now_ns ())
      | Some _ ->
          r.failed <- r.failed + 1;
          failwith ("eppi republish failed: " ^ tail_of "republish.err")
  in
  let deadline = t_spawn + int_of_float (120.0 *. 1e9) in
  while !ack = None && now_ns () < deadline do
    Loadgen.run_until lg ~poll ~until_ns:(now_ns () + 1_000_000)
  done;
  let t_ack =
    match !ack with Some t -> t | None -> failwith "eppi republish: no ack in 120 s"
  in
  Loadgen.run_until lg ~until_ns:(t_ack + int_of_float (settle_s *. 1e9));
  finish r conn lg;
  let acked = String.trim (Proc.read_file "republish.out") in
  if acked <> Printf.sprintf "generation %d" gen then
    wrong "republish acknowledged %S, expected generation %d" acked gen;
  let republish_s =
    match !first_new with
    | Some t -> float_of_int (t - t_spawn) /. 1e9
    | None -> wrong "no read was answered from the republished generation %d" gen
  in
  let in_window =
    List.filter_map
      (fun (due, lat) -> if due >= t_spawn && due <= t_ack then Some (float_of_int lat) else None)
      !window
  in
  if in_window = [] then failwith "no read fell due inside the republish window";
  (republish_s, M.percentile (Array.of_list in_window) 99.0)

(* One daemon session: start, warm up, light reads, [republishes] swaps
   under reads (alternately to the other index and back: generation [g]
   serves [ref_a] when [g] is odd and [ref_b] when it is even), and in a
   traced run the heavy reads and the capacity ladder. *)
let serve_round r st ~k ~ref_a ~ref_b ~artifact_a ~artifact_b =
  let sock = Printf.sprintf "d%d.sock" k in
  let d = start_daemon r ~index:artifact_a ~sock in
  Fun.protect
    ~finally:(fun () ->
      if Hashtbl.mem Proc.live d.pid then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        Proc.reap d.pid
      end)
    (fun () ->
      let conn = { c = Loadgen.connect sock; sock_path = sock } in
      let ref_of g = if g mod 2 = 1 then ref_a else ref_b in
      let only g g' = if g' = g then Some (ref_of g) else None in
      (* Warm-up: fill the caches and let start-up garbage be collected
         before anything is timed. *)
      ignore
        (timed_phase ~attempts:1 r conn ~rate:r.wl.light ~seconds:warmup_s ~refs:(only 1)
           ~into:{ lat = Loadgen.Ints.create (); lag = Loadgen.Ints.create () });
      let tel0 = if r.trace then Client.telemetry_json d.admin else "" in
      ignore
        (timed_phase r conn ~rate:r.wl.light ~seconds:light_s ~refs:(only 1) ~into:st.light_lat);
      let stages_us, cache_hit_rate =
        if r.trace then
          let tel1 = Client.telemetry_json d.admin in
          let stats = Client.stats_json d.admin in
          ( stage_means ~before:tel0 ~after:tel1,
            Option.value ~default:0.0 (Json.find_num (Json.parse_exn stats) [ "cache_hit_rate" ]) )
        else ([], 0.0)
      in
      let cpu_us_per_read =
        if r.trace then pipelined_cpu r conn ~refs:(only 1) ~cpu:(fun () -> Proc.cpu_seconds d.pid)
        else []
      in
      let swaps =
        List.init republishes (fun i ->
            let gen = i + 2 in
            let artifact = if gen mod 2 = 0 then artifact_b else artifact_a in
            let refs g = if g = gen - 1 || g = gen then Some (ref_of g) else None in
            republish_under_reads r conn ~sock ~gen ~artifact ~refs)
      in
      let last = republishes + 1 in
      let capacity, cpu_busy =
        if r.trace then begin
          let cpu0 = Proc.cpu_seconds d.pid and w0 = now_ns () in
          ignore
            (timed_phase r conn ~rate:r.wl.heavy ~seconds:heavy_s ~refs:(only last)
               ~into:st.heavy_lat);
          let cpu_busy = (Proc.cpu_seconds d.pid -. cpu0) /. Proc.seconds_since w0 in
          let probe i = probe r conn ~rate:ladder.(i) ~refs:(only last) in
          let best = M.bisect_ladder ~rungs:(Array.length ladder) (fun i -> probe i || probe i) in
          if best < 0 then failwith "capacity ladder: even the lowest rung failed";
          (ladder.(best), cpu_busy)
        end
        else (0.0, 0.0)
      in
      let rss_bytes = Proc.vm_hwm_bytes d.pid in
      Loadgen.close conn.c;
      stop_daemon d;
      {
        ready_s = d.ready_s;
        cpu_us_per_read;
        republish_s = List.map fst swaps;
        swap_p99_ns = List.map snd swaps;
        rss_bytes;
        capacity;
        stages_us;
        cache_hit_rate;
        cpu_busy;
      })

(* ---- the run ---- *)

type step = Build | Session | Restart

let rotation = [| Build; Session; Restart |]

let generate r ~seed ~out =
  cli r ~step:"generate"
    ([ "generate"; "--seed"; string_of_int seed ] @ r.wl.generate @ [ "-o"; out ])

(* Generate every dataset [setups] times (the set-up a user pays before
   anything can be built), checking that generation is deterministic. *)
let set_up r ~datasets =
  let times =
    Array.init setups (fun k ->
        List.fold_left
          (fun acc (seed, path) ->
            let out = if k = 0 then path else path ^ ".again" in
            let t = generate r ~seed ~out in
            if k > 0 then begin
              if not (same_bytes out path) then
                wrong "eppi generate is not deterministic (%s)" path;
              Sys.remove out
            end;
            acc +. t)
          0.0 datasets)
  in
  Stats.median times

type outcome = {
  e2e : (string * float * string) list;  (** name, value, unit *)
  per_layer : (string * float * string) list;
}

let parse_success_ratio out =
  let line =
    List.find_opt
      (fun l -> String.length l > 13 && String.sub l 0 13 = "success ratio")
      (String.split_on_char '\n' out)
  in
  match line with
  | Some l -> Scanf.sscanf l "success ratio (fp_j >= eps_j): %f" Fun.id
  | None -> failwith "eppi evaluate printed no success ratio"

let run r =
  let wl = r.wl in
  let datasets =
    (r.seed, "a.csv") :: (if wl.other_dataset then [ (r.seed + 1, "b.csv") ] else [])
  in
  let setup_s = set_up r ~datasets in
  log "set-up %.3f s (median of %d)" setup_s setups;
  (* The artifact to republish is built by the CLI while the bench builds
     its in-process references (one core each); nothing is timed here.
     On secure-build it is the sequential build that every parallel build
     must match byte for byte. *)
  let artifact_b, build_b =
    if wl.secure then
      ( "a.idx",
        Some
          (cli_spawn r ~step:"construct-reference"
             ([ "construct"; "-d"; "a.csv"; "--seed"; string_of_int r.seed ]
             @ [ "--secure"; "-c"; "3"; "--domains"; "1"; "-o"; "a.idx" ])) )
    else if wl.other_dataset then
      ( "b.idx",
        Some
          (cli_spawn r ~step:"construct-next"
             [ "construct"; "-d"; "b.csv"; "--seed"; string_of_int (r.seed + 1); "-o"; "b.idx" ]) )
    else ("a.idx", None)
  in
  let ref_a = reference r ~seed:r.seed "a.csv" in
  let ref_b = if wl.other_dataset then reference r ~seed:(r.seed + 1) "b.csv" else ref_a in
  Option.iter (fun finish -> ignore (finish ())) build_b;
  (* Zipf(1.1) reads with 5% unknown ids, from the bench seed. *)
  r.requests <-
    Eppi_serve.Workload.zipf ~exponent:1.1 ~unknown_fraction:0.05
      (Rng.create (r.seed + 0x5eed))
      ~n:ref_a.dataset.owners ~count:(1 lsl 20);
  let st =
    {
      light_lat = { lat = Loadgen.Ints.create (); lag = Loadgen.Ints.create () };
      heavy_lat = { lat = Loadgen.Ints.create (); lag = Loadgen.Ints.create () };
    }
  in
  (* The measured part rotates through a build, a daemon session and a
     bare restart, so each metric's samples spread over the whole run.
     The first [min_rotations] rotations always run (one in a traced run).
     After them a step runs only when the longest step of its kind so far
     still fits before the end of the run; a step that does not fit gives
     way to the next kind, and the run ends when no kind fits. *)
  let t_measure = now_ns () in
  let builds = ref [] and sessions = ref [] and readies = ref [] in
  let longest = Array.make (Array.length rotation) 0.0 in
  let fits j = Proc.seconds_since t_measure +. longest.(j) <= r.seconds in
  let forced = (if r.trace then 1 else min_rotations) * Array.length rotation in
  let run_step k j =
    let t0 = now_ns () in
    (match rotation.(j) with
    | Build ->
        let b = build r ~k ~dataset:"a.csv" ~artifact:"a.idx" in
        log "step %d: build %.3f s" k b;
        builds := b :: !builds
    | Session ->
        let c = serve_round r st ~k ~ref_a ~ref_b ~artifact_a:"a.idx" ~artifact_b in
        let ms l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
        log "step %d: session ready %.3f s, republish %s s, swap p99 %s ms, rss %d MB" k c.ready_s
          (ms c.republish_s)
          (ms (List.map (fun ns -> ns /. 1e6) c.swap_p99_ns))
          (c.rss_bytes lsr 20);
        sessions := c :: !sessions;
        readies := c.ready_s :: !readies
    | Restart ->
        let t = restart r ~index:"a.idx" ~sock:(Printf.sprintf "r%d.sock" k) in
        log "step %d: restart ready %.3f s" k t;
        readies := t :: !readies);
    longest.(j) <- Float.max longest.(j) (Proc.seconds_since t0)
  in
  let n = Array.length rotation in
  let rec go k pos =
    if k < forced then begin
      run_step k pos;
      go (k + 1) ((pos + 1) mod n)
    end
    else if (not r.trace) && k < max_steps then
      match List.find_opt fits (List.init n (fun i -> (pos + i) mod n)) with
      | Some j ->
          run_step k j;
          go (k + 1) ((j + 1) mod n)
      | None -> ()
  in
  go 0 0;
  let builds = Array.of_list (List.rev !builds) in
  let readies = Array.of_list (List.rev !readies) in
  let sessions = Array.of_list (List.rev !sessions) in
  let first = sessions.(0) in
  (* The privacy outcome, through the CLI, checked against the reference. *)
  ignore
    (cli r ~step:"evaluate"
       [ "evaluate"; "-d"; "a.csv"; "-i"; "a.idx"; "--seed"; string_of_int r.seed ]);
  let reported = parse_success_ratio (Proc.read_file "evaluate.out") in
  let membership = ref_a.dataset.membership in
  let published = Eppi.Index.matrix ref_a.index in
  let ratio = Eppi.Metrics.success_ratio ~membership ~published ~epsilons:ref_a.dataset.epsilons in
  if Printf.sprintf "%.4f" ratio <> Printf.sprintf "%.4f" reported then
    wrong "eppi evaluate reports success ratio %.4f, reference %.4f" reported ratio;
  if wl.secure then begin
    (* Sample rows through [eppi query -i], and recall for every owner. *)
    let n = ref_a.dataset.owners in
    let owners = List.init 16 (fun i -> i * (n - 1) / 15) in
    ignore
      (cli r ~step:"query"
         ("query" :: "-i" :: "a.idx"
         :: List.concat_map (fun o -> [ "--owner"; string_of_int o ]) owners));
    let lines = String.split_on_char '\n' (String.trim (Proc.read_file "query.out")) in
    if List.length lines <> List.length owners then
      wrong "eppi query printed %d lines" (List.length lines);
    List.iter2
      (fun owner line ->
        let expected =
          String.concat "," (List.map string_of_int (Eppi.Index.query ref_a.index ~owner))
        in
        if line <> expected then
          wrong "eppi query -i: owner %d row differs from the protocol's" owner)
      owners lines;
    for owner = 0 to n - 1 do
      if not (Eppi.Index.recall_ok ~membership ref_a.index ~owner) then
        wrong "owner %d: a true provider is missing from the published row" owner
    done
  end;
  let floats f = Array.map f sessions in
  let ms_of_ns = 1e-6 and us_of_ns = 1e-3 in
  let light = M.summarize (Loadgen.Ints.to_floats st.light_lat.lat) in
  (* Blockwise percentiles need at least one whole block, so that every
     block has ten samples beyond its p99. *)
  let block_p p (s : samples) =
    let xs = Loadgen.Ints.to_floats s.lat in
    if Array.length xs < 1000 then
      failwith (Printf.sprintf "too few reads (%d) for a blockwise p%g" (Array.length xs) p);
    M.block_p ~p xs
  in
  let report name (s : M.summary) ~scale ~unit =
    Printf.printf "%-22s %s\n" name (M.pp_summary ~scale ~unit s)
  in
  let all f = Array.of_list (List.concat_map f (Array.to_list sessions)) in
  let republish_s = all (fun c -> c.republish_s) and swap_p99_ns = all (fun c -> c.swap_p99_ns) in
  report "setup_s" (M.summarize [| setup_s |]) ~scale:1.0 ~unit:"s";
  report "build_s" (M.summarize builds) ~scale:1.0 ~unit:"s";
  report "ready_s" (M.summarize readies) ~scale:1.0 ~unit:"s";
  report "republish_s" (M.summarize republish_s) ~scale:1.0 ~unit:"s";
  report "swap_read_p99_ms" (M.summarize swap_p99_ns) ~scale:ms_of_ns ~unit:"ms";
  report "reads.light" light ~scale:us_of_ns ~unit:"us";
  if st.heavy_lat.lat.n > 0 then
    report "reads.heavy" (M.summarize (Loadgen.Ints.to_floats st.heavy_lat.lat)) ~scale:us_of_ns
      ~unit:"us";
  report "loadgen.lag"
    (M.summarize (Loadgen.Ints.to_floats st.light_lat.lag))
    ~scale:ms_of_ns ~unit:"ms";
  let med f = Stats.median (floats f) in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("build_s", Stats.median builds, "s");
      ("ready_s", Stats.median readies, "s");
      ("republish_s", Stats.median republish_s, "s");
      ("swap_read_p99_ms", Stats.median swap_p99_ns *. ms_of_ns, "ms");
      ("daemon_rss_mb", med (fun c -> float_of_int c.rss_bytes) /. 1048576.0, "MB");
      ("eps_success_ratio", ratio, "ratio");
    ]
  in
  let lag = Loadgen.Ints.to_floats st.light_lat.lag in
  let per_layer =
    if not r.trace then []
    else begin
      let input =
        {
          Layers.dataset_csv = Proc.read_file "a.csv";
          next_index = ref_b.index;
          seed = r.seed;
          secure = wl.secure;
          requests = Array.sub r.requests 0 200_000;
        }
      in
      let res = Layers.run input in
      let value name =
        match List.find_opt (fun (n, _, _) -> n = name) res.values with
        | Some (_, v, _) -> v
        | None -> failwith ("no layer value " ^ name)
      in
      let residue ~wall spans = M.residue_share ~wall_s:wall ~spans_s:(List.map value spans) in
      let construct_span = if wl.secure then "protocol.construct_s" else "core.construct_s" in
      let extra =
        [
          ("core.artifact_bytes", float_of_int (Proc.file_size "a.idx"), "bytes");
          ("serve.cache_hit_rate", first.cache_hit_rate, "ratio");
          ("net.capacity_qps", first.capacity, "1/s");
          ("net.daemon_cpu_busy", first.cpu_busy, "ratio");
          ( "net.daemon_cpu_us_per_read",
            Stats.median (Array.of_list first.cpu_us_per_read),
            "us" );
          ("loadgen.lag_ms.p99", M.percentile lag 99.0 *. ms_of_ns, "ms");
          ("loadgen.read_p50_us.light", light.p50 *. us_of_ns, "us");
          ("loadgen.read_p90_us.light", block_p 90.0 st.light_lat *. us_of_ns, "us");
          ("loadgen.read_p99_us.light", block_p 99.0 st.light_lat *. us_of_ns, "us");
          ("loadgen.read_p99_us.heavy", block_p 99.0 st.heavy_lat *. us_of_ns, "us");
          ("obs.trace_overhead", res.overhead, "ratio");
          ( "bin.untraced_residue_share.construct",
            residue ~wall:builds.(0) [ "dataset.of_csv_s"; construct_span; "core.index_to_csv_s" ],
            "ratio" );
          ( "bin.untraced_residue_share.ready",
            residue ~wall:first.ready_s [ "core.index_of_csv_s"; "serve.postings_compile_s" ],
            "ratio" );
          ( "bin.untraced_residue_share.republish",
            residue ~wall:(List.hd first.republish_s)
              [
                "core.index_of_csv_s";
                "net.codec_encode_s";
                "net.codec_decode_s";
                "serve.republish_s";
              ],
            "ratio" );
        ]
        @ List.map (fun (stage, us) -> ("net.stage." ^ stage ^ "_us", us, "us")) first.stages_us
      in
      let layer_values = res.values @ extra in
      (* Chrome trace and the per-layer table. *)
      let out = Filename.concat r.out_dir (Printf.sprintf "%s-seed%d" wl.name r.seed) in
      Eppi_obs.Chrome.write (out ^ ".trace.json");
      let table = Buffer.create 4096 in
      Printf.bprintf table "%-40s %6s %12s %12s\n" "span" "calls" "total_ms" "self_ms";
      List.iter
        (fun (row : M.span_row) ->
          Printf.bprintf table "%-40s %6d %12.3f %12.3f\n" row.name row.calls
            (float_of_int row.total_ns /. 1e6) (float_of_int row.self_ns /. 1e6))
        res.rows;
      Printf.bprintf table "\n%-40s %16s %s\n" "metric" "value" "unit";
      List.iter (fun (n, v, u) -> Printf.bprintf table "%-40s %16.6g %s\n" n v u) layer_values;
      Proc.write_file (out ^ ".layers.txt") (Buffer.contents table);
      print_string (Buffer.contents table);
      Printf.printf "trace: %s.trace.json  table: %s.layers.txt\n" out out;
      layer_values
    end
  in
  { e2e; per_layer }

(* ---- output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct r metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    (max 1 r.attempted) r.failed body

let () =
  (* A large minor heap: decoded replies die young instead of being
     promoted, which keeps the bench's own collector pauses out of the
     send schedule. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 lsl 20; space_overhead = 200 };
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  secure-build or serve-read");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  add builds, daemon sessions and restarts while the longest of each kind so far \
         still fits in S seconds; at least two of each" );
      ("--trace", Arg.Set_int trace, "0|1  1 adds the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.sh --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("e2ebench: unknown workload " ^ !workload);
        exit 2
  in
  let root = Sys.getcwd () in
  let exe = Filename.concat root "_build/default/bin/eppi_cli.exe" in
  if not (Sys.file_exists exe) then begin
    prerr_endline "e2ebench: eppi is not built (run e2ebench/run.sh from the repository root)";
    exit 2
  end;
  let bench_dir = Filename.concat root "e2ebench" in
  let tmp = Filename.concat bench_dir (Printf.sprintf "_tmp/run-%d" (Unix.getpid ())) in
  let out_dir = Filename.concat bench_dir "_out" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
    [ Filename.concat bench_dir "_tmp"; tmp; out_dir ];
  at_exit (fun () ->
      Proc.kill_all ();
      Sys.chdir root;
      Proc.rm_rf tmp);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Sys.chdir tmp;
  let r =
    {
      wl;
      seed = !seed;
      seconds = !seconds;
      trace = !trace <> 0;
      exe;
      out_dir;
      attempted = 0;
      failed = 0;
      requests = [||];
      cursor = 0;
    }
  in
  match run r with
  | o ->
      print_result ~correct:true r (if r.trace then o.per_layer else o.e2e);
      exit 0
  | exception Wrong msg ->
      Printf.eprintf "e2ebench: WRONG ANSWER: %s\n%!" msg;
      print_result ~correct:false r [];
      exit 1
  | exception e ->
      Printf.eprintf "e2ebench: run failed: %s\n%s%!" (Printexc.to_string e)
        (Printexc.get_backtrace ());
      exit 2
