open Eppi_prelude
module Simnet = Eppi_simnet.Simnet
module Transport = Eppi_simnet.Transport
module Circuit = Eppi_circuit.Circuit
module Cost = Eppi_mpc.Cost
module Gmw = Eppi_mpc.Gmw
module Trace = Eppi_obs.Trace

type metrics = {
  secsumshare_time : float;
  mpc_time : float;
  publication_time : float;
  total_time : float;
  messages : int;
  bytes : int;
  circuit_stats : Circuit.stats;
  mpc_comm : Gmw.comm_stats;
}

type result = {
  index : Eppi.Index.t;
  betas : float array;
  common : bool array;
  mixed : bool array;
  lambda : float;
  xi : float;
  metrics : metrics;
}

let modulus_for m = Modarith.modulus (Modarith.next_prime (m + 1))

(* Publication is a local scan of each provider's n bits. *)
let publication_cost ~n = 2e-8 *. float_of_int n

(* Release phase (public computation at a designated coordinator) followed
   by local randomized publication.  The rng draw order here is
   load-bearing for bit-identical replays. *)
let release_and_publish ~rng_release ~rng_publish ~mixing ~policy ~epsilons ~membership ~m
    ~(cb : Countbelow.result) ~metrics =
  let n = Bitmatrix.rows membership in
  Trace.begin_span "phase.mixing";
  let xi =
    let acc = ref 0.0 in
    Array.iteri (fun j is_common -> if is_common then acc := Float.max !acc epsilons.(j)) cb.common;
    Float.min !acc 0.999
  in
  let lambda = Eppi.Mixing.lambda ~xi ~n_common:cb.n_common ~n_total:n in
  let mixed = Array.make n false in
  let candidates =
    Array.of_list (List.filteri (fun j _ -> not cb.common.(j)) (List.init n Fun.id))
  in
  let decoys = Eppi.Mixing.select_decoys rng_release ~mode:mixing ~lambda ~candidates in
  Array.iteri (fun slot j -> if decoys.(slot) then mixed.(j) <- true) candidates;
  let betas =
    Array.init n (fun j ->
        if cb.common.(j) || mixed.(j) then 1.0
        else begin
          match cb.frequencies.(j) with
          | None -> 1.0 (* unreachable: non-common identities carry a frequency *)
          | Some f ->
              Eppi.Policy.beta policy
                ~sigma:(float_of_int f /. float_of_int m)
                ~epsilon:epsilons.(j) ~m
        end)
  in
  let n_mixed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mixed in
  Trace.end_span "phase.mixing" ~args:[ ("n_common", cb.n_common); ("decoys", n_mixed) ];
  (* Phase 2: local randomized publication at every provider. *)
  Trace.begin_span "phase.publish";
  let published = Eppi.Publish.publish_matrix rng_publish ~betas membership in
  let index = Eppi.Index.of_matrix published in
  Trace.end_span "phase.publish" ~args:[ ("owners", n); ("providers", m) ];
  { index; betas; common = cb.common; mixed; lambda; xi; metrics }

type fault_report = {
  excluded : int list;
  survivors : int list;
  attempts : int;
  sss_retransmissions : int;
  mpc_retransmissions : int;
  duplicates : int;
  retried_rounds : int;
}

type outcome =
  | Complete of result * fault_report
  | Degraded of result * fault_report
  | Failed of string * fault_report

(* Project a fault plan expressed in original provider ids onto the id space
   of an attempt's net: survivors (in increasing original id order) become
   nodes 0..m'-1, and entries touching excluded providers — or providers
   beyond the net's node count, for the c-coordinator MPC net — vanish. *)
let remap_plan (plan : Simnet.fault_plan) ~survivors ~nodes =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun k p -> Hashtbl.replace tbl p k) survivors;
  let map p =
    match Hashtbl.find_opt tbl p with Some k when k < nodes -> Some k | _ -> None
  in
  {
    plan with
    Simnet.links =
      List.filter_map
        (fun ((s, d), lf) ->
          match (map s, map d) with Some s, Some d -> Some ((s, d), lf) | _ -> None)
        plan.Simnet.links;
    crashes =
      List.filter_map (fun (t, p) -> Option.map (fun p -> (t, p)) (map p)) plan.Simnet.crashes;
    partitions =
      List.map
        (fun pt -> { pt with Simnet.islands = List.map (List.filter_map map) pt.Simnet.islands })
        plan.Simnet.partitions;
    slow = List.filter_map (fun (p, f) -> Option.map (fun p -> (p, f)) (map p)) plan.Simnet.slow;
  }

(* A stage under a fault plan runs on the reliable transport, with the
   plan projected onto the attempt's survivors. *)
let reliable plan reliability ~survivors ~nodes =
  { Transport.plan = Some (remap_plan plan ~survivors ~nodes); reliability = Some reliability }

(* Survivor-column view of the membership matrix. *)
let submatrix membership survivors =
  let n = Bitmatrix.rows membership in
  let sub = Bitmatrix.create ~rows:n ~cols:(List.length survivors) in
  List.iteri
    (fun k p ->
      for j = 0 to n - 1 do
        if Bitmatrix.get membership ~row:j ~col:p then Bitmatrix.set sub ~row:j ~col:k true
      done)
    survivors;
  sub

(* Per-domain pool accounting across the construction: a zero sample opens
   each worker's counter track, the closing sample carries the busy delta —
   one counter track per pool domain in the exported trace. *)
let with_pool_counters pool f =
  if not (Trace.enabled ()) then f ()
  else begin
    let before = Pool.stats pool in
    let sample i busy_us jobs =
      Trace.counter (Printf.sprintf "pool/worker-%d" i) [ ("busy_us", busy_us); ("jobs", jobs) ]
    in
    Array.iteri (fun i _ -> sample i 0 0) before;
    let r = f () in
    Array.iteri
      (fun i (a : Pool.worker_stat) ->
        let b = before.(i) in
        sample i ((a.busy_ns - b.busy_ns) / 1000) (a.jobs - b.jobs))
      (Pool.stats pool);
    r
  end

let run_ft ?sss_plan ?mpc_plan ?(max_attempts = 3) ?network ?transport ?pool ?strategy
    ?(c = 3) ?(mixing = Eppi.Mixing.Bernoulli) rng ~membership ~epsilons ~policy =
  let n = Bitmatrix.rows membership in
  let m = Bitmatrix.cols membership in
  if Array.length epsilons <> n then
    invalid_arg "Protocol.Construct.run: epsilons length mismatch";
  if c < 2 then invalid_arg "Protocol.Construct.run: need c >= 2";
  if m < c then invalid_arg "Protocol.Construct.run: need at least c providers";
  let the_pool = match pool with Some p -> p | None -> Pool.sequential in
  let sss_retrans = ref 0 in
  let mpc_retrans = ref 0 in
  let duplicates = ref 0 in
  let retried_rounds = ref 0 in
  let alive = Array.make m true in
  let report ~survivors ~attempts =
    {
      excluded = List.filter (fun p -> not alive.(p)) (List.init m Fun.id);
      survivors;
      attempts;
      sss_retransmissions = !sss_retrans;
      mpc_retransmissions = !mpc_retrans;
      duplicates = !duplicates;
      retried_rounds = !retried_rounds;
    }
  in
  let rec attempt k survivors =
    let m' = List.length survivors in
    if k > max_attempts then
      Failed
        ( Printf.sprintf "gave up after %d attempts" max_attempts,
          report ~survivors ~attempts:(k - 1) )
    else if m' < c then
      Failed
        ( Printf.sprintf "only %d providers survive, need at least c = %d" m' c,
          report ~survivors ~attempts:(k - 1) )
    else begin
      Trace.begin_span "construct.attempt";
      (* Each phase draws from its own child stream: how many draws one
         phase makes (which varies with the CountBelow strategy, circuit
         shapes and transport) can never perturb the next, so the output is
         bit-identical across strategies, domain counts and lossy runs that
         complete.  The first attempt splits the seed's streams directly; a
         retry is a brand-new protocol run over the survivor set, on a
         fresh child stream. *)
      let arng = if k = 1 then rng else Rng.split rng in
      let rng_sss = Rng.split arng in
      let rng_mpc = Rng.split arng in
      let rng_release = Rng.split arng in
      let rng_publish = Rng.split arng in
      let q = modulus_for m' in
      let sub = if m' = m then membership else submatrix membership survivors in
      Trace.begin_span "phase.beta";
      (* Providers' private inputs: their own membership column, one bit per
         identity. *)
      let inputs =
        Array.init m' (fun i ->
            Array.init n (fun j -> if Bitmatrix.get sub ~row:j ~col:i then 1 else 0))
      in
      let sss_transport =
        Option.map
          (fun p -> reliable p Secsumshare.default_reliability ~survivors ~nodes:m')
          sss_plan
      in
      let sss = Secsumshare.run_ft ?transport:sss_transport rng_sss ~inputs ~c ~q in
      sss_retrans := !sss_retrans + sss.report.retransmissions;
      duplicates := !duplicates + sss.report.duplicates;
      let stop excluded =
        Trace.end_span "phase.beta" ~args:[ ("excluded", excluded) ];
        Trace.end_span "construct.attempt"
          ~args:[ ("attempt", k); ("providers", m'); ("excluded", excluded) ]
      in
      (* A stalled stage excludes the providers its failure detector
         blamed (attempt-local node ids, translated back) and retries. *)
      let retry stage blamed =
        stop (List.length blamed);
        if blamed = [] then
          Failed (stage ^ " stalled with no identified culprit", report ~survivors ~attempts:k)
        else begin
          let orig = Array.of_list survivors in
          List.iter (fun i -> alive.(orig.(i)) <- false) blamed;
          attempt (k + 1) (List.filter (fun p -> alive.(p)) survivors)
        end
      in
      match sss.shares with
      | None -> retry "SecSumShare" sss.report.suspects
      | Some shares -> (
          let thresholds =
            Array.map
              (fun epsilon -> Countbelow.integer_threshold ~policy ~epsilon ~m:m')
              epsilons
          in
          let transport =
            match mpc_plan with
            | None -> transport
            | Some p -> Some (`Simnet (reliable p Mpcnet.default_reliability ~survivors ~nodes:c))
          in
          let cb =
            Countbelow.run_ft ?network ?transport ~pool:the_pool ?strategy rng_mpc ~shares ~q
              ~thresholds
          in
          mpc_retrans := !mpc_retrans + cb.retransmissions;
          duplicates := !duplicates + cb.duplicates;
          retried_rounds := !retried_rounds + cb.retried_rounds;
          match cb.outcome with
          | `Coordinators_failed dead -> retry "CountBelow" dead
          | `Done cb ->
              let sss_time = sss.report.protocol_time in
              let messages = sss.report.net.messages_sent + cb.comm.messages in
              let bytes = sss.report.net.bytes_sent + cb.comm.bytes in
              Trace.end_span "phase.beta"
                ~args:
                  [
                    ("messages", messages);
                    ("bytes", bytes);
                    ("sim_us", int_of_float ((sss_time +. cb.time) *. 1e6));
                  ];
              let publication_time = publication_cost ~n in
              let result =
                release_and_publish ~rng_release ~rng_publish ~mixing ~policy ~epsilons
                  ~membership:sub ~m:m' ~cb
                  ~metrics:
                    {
                      secsumshare_time = sss_time;
                      mpc_time = cb.time;
                      publication_time;
                      total_time = sss_time +. cb.time +. publication_time;
                      messages;
                      bytes;
                      circuit_stats = cb.circuit_stats;
                      mpc_comm = cb.comm;
                    }
              in
              let rep = report ~survivors ~attempts:k in
              Trace.end_span "construct.attempt"
                ~args:
                  [
                    ("attempt", k);
                    ("providers", m');
                    ("sss_retransmissions", rep.sss_retransmissions);
                    ("mpc_retransmissions", rep.mpc_retransmissions);
                  ];
              if rep.excluded = [] then Complete (result, rep) else Degraded (result, rep))
    end
  in
  with_pool_counters the_pool (fun () -> attempt 1 (List.init m Fun.id))

let run ?network ?transport ?pool ?strategy ?c ?mixing rng ~membership ~epsilons ~policy =
  match
    run_ft ?network ?transport ?pool ?strategy ?c ?mixing rng ~membership ~epsilons ~policy
  with
  | Complete (r, _) -> r
  | Degraded _ -> failwith "Protocol.Construct.run: providers were excluded"
  | Failed (reason, _) -> failwith ("Protocol.Construct.run: " ^ reason)

let beta_phase_time_estimate ?(network = Cost.lan) ~m ~identities ~c () =
  if m < c || c < 2 then invalid_arg "beta_phase_time_estimate: need m >= c >= 2";
  (* SecSumShare: constant rounds; each provider sends c-1 share messages
     plus one super-share, so the per-provider latency path is short and the
     dominant term is serialization of the n-residue vectors. *)
  let message_bytes = float_of_int ((4 * identities) + 16) in
  let per_provider_traffic = float_of_int c *. message_bytes in
  let sss_time =
    (3.0 *. network.latency)
    +. (per_provider_traffic /. network.bandwidth)
    +. (2e-8 *. float_of_int (identities * c) *. 2.0)
  in
  (* CountBelow among c parties, circuit scaled per identity. *)
  let q = Modarith.to_int (modulus_for m) in
  let thresholds = Array.make identities ((q - 1) / 2) in
  let compiled = Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.count_below ~c ~q ~thresholds) in
  let stats = Circuit.stats compiled.circuit in
  let outputs = Array.length (Circuit.outputs compiled.circuit) in
  sss_time +. Cost.estimate ~network ~parties:c ~outputs stats
