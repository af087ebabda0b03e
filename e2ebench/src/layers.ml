(* The traced in-process pipeline: the work the CLI and the daemon do for
   a workload, called through each layer's public functions, every call
   wrapped in a bench-side [Eppi_obs.Trace] span.  Nothing here reads the
   CLI's artifact: indexes are rebuilt from the dataset. *)

open Eppi_prelude
module M = E2ebench.Measure
module Trace = Eppi_obs.Trace

type input = {
  dataset_csv : string;  (** The workload's dataset, as [eppi generate] wrote it. *)
  next_index : Eppi.Index.t;  (** The index the workload republishes. *)
  seed : int;
  secure : bool;
  requests : int array;  (** The workload's own read sequence. *)
}

type result = {
  values : (string * float * string) list;  (** Per-layer metric: name, value, unit. *)
  rows : M.span_row list;
  overhead : float;  (** Traced wall / untraced wall of the same steps. *)
}

let policy = Eppi.Policy.Chernoff 0.9
let coordinators = 3

(* The MPC of a plain-construct workload is timed on its first
   [protocol_slice] owners: at full size it would run for minutes. *)
let protocol_slice = 1000

let slice (d : Eppi_dataset.Dataset.t) k =
  if k >= d.owners then (d.membership, d.epsilons)
  else begin
    let m = Bitmatrix.create ~rows:k ~cols:d.providers in
    for j = 0 to k - 1 do
      for i = 0 to d.providers - 1 do
        if Bitmatrix.get d.membership ~row:j ~col:i then Bitmatrix.set m ~row:j ~col:i true
      done
    done;
    (m, Array.sub d.epsilons 0 k)
  end

(* What [eppi serve] uses by default. *)
let daemon_config = { Eppi_serve.Serve.default_config with shards = 4; cache_capacity = 4096 }

let timed f =
  let t0 = Clock.monotonic_ns () in
  let v = f () in
  (v, float_of_int (Clock.monotonic_ns () - t0) /. 1e9)

(* [span] wraps one layer call; it is the identity in the untraced pass. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let traced = { span = (fun name f -> Trace.span name f) }
let untraced = { span = (fun _ f -> f ()) }

let dataset_steps { span } input =
  let (dataset : Eppi_dataset.Dataset.t) =
    span "dataset.of_csv" (fun () -> Eppi_dataset.Dataset.of_csv input.dataset_csv)
  in
  let plain =
    span "core.construct" (fun () ->
        Eppi.Construct.run (Rng.create input.seed) ~membership:dataset.membership
          ~epsilons:dataset.epsilons ~policy)
  in
  (dataset, plain)

let index_steps { span } index requests =
  let csv = span "core.index_to_csv" (fun () -> Eppi.Index.to_csv index) in
  ignore (span "core.index_of_csv" (fun () -> Eppi.Index.of_csv csv));
  let postings = span "serve.postings_compile" (fun () -> Eppi_serve.Postings.of_index index) in
  let encoded = span "net.codec_encode" (fun () -> Eppi_net.Index_codec.encode index) in
  (match span "net.codec_decode" (fun () -> Eppi_net.Index_codec.decode encoded) with
  | Ok _ -> ()
  | Error e -> failwith ("codec decode: " ^ Eppi_net.Index_codec.error_to_string e));
  let engine = Eppi_serve.Serve.of_postings ~config:daemon_config postings in
  let ns = Array.make (Array.length requests) 0 in
  let replies =
    span "serve.query" (fun () ->
        Array.mapi
          (fun i owner ->
            let t0 = Clock.monotonic_ns () in
            let r = Eppi_serve.Serve.query engine ~owner in
            ns.(i) <- Clock.monotonic_ns () - t0;
            r)
          requests)
  in
  let buf = Buffer.create (1 lsl 20) in
  span "net.reply_encode" (fun () ->
      Array.iter
        (fun reply ->
          Eppi_net.Wire.encode_response buf (Eppi_net.Wire.Reply { generation = 1; reply }))
        replies);
  let frames = Buffer.contents buf in
  let dec = Eppi_net.Wire.Decoder.create () in
  span "net.reply_decode" (fun () ->
      Eppi_net.Wire.Decoder.feed_string dec frames;
      let rec go k =
        match Eppi_net.Wire.Decoder.next dec with
        | Ok (Some _) -> go (k + 1)
        | Ok None -> k
        | Error e -> failwith (Eppi_net.Wire.error_to_string e)
      in
      if go 0 <> Array.length replies then failwith "reply decode: frame count");
  (postings, engine, ns, String.length frames, String.length encoded)

(* CountBelow memoizes compiled circuits process-wide, so the protocol
   stage runs once, traced, and stays out of the overhead comparison. *)
let protocol_stage { span } ~seed ~membership ~epsilons =
  let m = Bitmatrix.cols membership and n = Bitmatrix.rows membership in
  Pool.with_pool ~size:2 (fun pool ->
      let before = Pool.stats pool in
      let r, wall =
        timed (fun () ->
            span "protocol.construct" (fun () ->
                Eppi_protocol.Construct.run ~pool ~c:coordinators (Rng.create seed) ~membership
                  ~epsilons ~policy))
      in
      let busy_ns =
        Array.fold_left ( + ) 0
          (Array.mapi
             (fun i (a : Pool.worker_stat) -> a.busy_ns - before.(i).busy_ns)
             (Pool.stats pool))
      in
      (* The same inputs, stage by stage: the construction splits its rng
         into the sss, mpc, release and publish streams in that order. *)
      let rng = Rng.create seed in
      let rng_sss = Rng.split rng in
      let rng_mpc = Rng.split rng in
      let q = Eppi_protocol.Construct.modulus_for m in
      let inputs =
        Array.init m (fun i ->
            Array.init n (fun j -> if Bitmatrix.get membership ~row:j ~col:i then 1 else 0))
      in
      let sss =
        span "protocol.secsumshare" (fun () ->
            Eppi_protocol.Secsumshare.run rng_sss ~inputs ~c:coordinators ~q)
      in
      let thresholds =
        Array.map
          (fun epsilon -> Eppi_protocol.Countbelow.integer_threshold ~policy ~epsilon ~m)
          epsilons
      in
      let cb =
        span "protocol.countbelow" (fun () ->
            Eppi_protocol.Countbelow.run ~pool rng_mpc ~shares:sss.coordinator_shares ~q
              ~thresholds)
      in
      if cb.common <> r.common then failwith "protocol stages disagree with the construction";
      let qi = Modarith.to_int q in
      ignore
        (span "sfdl.compile" (fun () ->
             Eppi_sfdl.Compile.compile_source
               (Eppi_sfdl.Programs.count_below ~c:coordinators ~q:qi
                  ~thresholds:[| min thresholds.(0) (qi - 1) |])));
      (r, float_of_int busy_ns /. 1e9 /. (wall *. float_of_int (Pool.size pool))))

let run input =
  Trace.enable ~capacity_per_domain:(1 lsl 18) ();
  let (dataset, plain), traced_a = timed (fun () -> dataset_steps traced input) in
  let membership, epsilons =
    if input.secure then (dataset.membership, dataset.epsilons) else slice dataset protocol_slice
  in
  let proto, busy_share = protocol_stage traced ~seed:input.seed ~membership ~epsilons in
  let index = if input.secure then proto.index else plain.index in
  let (postings, engine, ns, reply_bytes, codec_bytes), traced_b =
    timed (fun () -> index_steps traced index input.requests)
  in
  ignore
    (Trace.span "serve.republish" (fun () ->
         Eppi_serve.Serve.republish_index engine input.next_index));
  Trace.disable ();
  let rows = M.span_rows (Trace.tracks ()) in
  (* Untraced pass over the same steps. *)
  let _, untraced_a = timed (fun () -> dataset_steps untraced input) in
  let _, untraced_b = timed (fun () -> index_steps untraced index input.requests) in
  let mean name =
    match List.find_opt (fun (r : M.span_row) -> r.name = name) rows with
    | Some r -> float_of_int r.total_ns /. float_of_int r.calls /. 1e9
    | None -> failwith ("no span " ^ name)
  in
  let query_ns = Array.map float_of_int ns in
  (* Mean over blocks of 10,000 queries of each block's percentile: the
     clock reads whole nanoseconds, and a single order statistic of them
     would often repeat exactly from run to run. *)
  let block_mean xs p =
    let blocks = max 1 (Array.length xs / 10_000) in
    let size = Array.length xs / blocks in
    let sum = ref 0.0 in
    for b = 0 to blocks - 1 do
      sum := !sum +. M.percentile (Array.sub xs (b * size) size) p
    done;
    !sum /. float_of_int blocks
  in
  let per_reply name = mean name *. 1e9 /. float_of_int (Array.length input.requests) in
  let values =
    [
      ("dataset.of_csv_s", mean "dataset.of_csv", "s");
      ("core.construct_s", mean "core.construct", "s");
      ("core.index_to_csv_s", mean "core.index_to_csv", "s");
      ("core.index_of_csv_s", mean "core.index_of_csv", "s");
      ("protocol.construct_s", mean "protocol.construct", "s");
      ("protocol.secsumshare_s", mean "protocol.secsumshare", "s");
      ("protocol.countbelow_s", mean "protocol.countbelow", "s");
      ("sfdl.compile_s", mean "sfdl.compile", "s");
      ("protocol.sim_messages", float_of_int proto.metrics.messages, "count");
      ("protocol.sim_bytes", float_of_int proto.metrics.bytes, "bytes");
      ("protocol.sim_time_s", proto.metrics.total_time, "sim_s");
      ("circuit.gates", float_of_int proto.metrics.circuit_stats.size, "count");
      ("prelude.pool_busy_share", busy_share, "ratio");
      ("serve.postings_compile_s", mean "serve.postings_compile", "s");
      ("serve.postings_bytes", float_of_int (Eppi_serve.Postings.memory_bytes postings), "bytes");
      ("serve.query_ns.p50", block_mean query_ns 50.0, "ns");
      ("serve.query_ns.p99", block_mean query_ns 99.0, "ns");
      ("serve.republish_s", mean "serve.republish", "s");
      ("net.reply_encode_ns", per_reply "net.reply_encode", "ns");
      ("net.reply_decode_ns", per_reply "net.reply_decode", "ns");
      ( "net.reply_bytes",
        float_of_int reply_bytes /. float_of_int (Array.length input.requests),
        "bytes" );
      ("net.codec_encode_s", mean "net.codec_encode", "s");
      ("net.codec_decode_s", mean "net.codec_decode", "s");
      ("net.codec_bytes", float_of_int codec_bytes, "bytes");
    ]
  in
  { values; rows; overhead = (traced_a +. traced_b) /. (untraced_a +. untraced_b) }
