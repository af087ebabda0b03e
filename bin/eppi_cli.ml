(* eppi: the command-line interface to the library.

   Subcommands:
     generate   synthesize an information-network dataset (CSV)
     construct  build an e-PPI over a dataset (centralized or secure path)
     export     write an index file out as CSV, for inspection
     query      look up owners in a local index file or a running daemon
     serve      replay a workload in-process, or run the persistent daemon
     republish  hot-swap a running daemon's index
     stats      metrics snapshot of a running daemon (JSON, --watch for deltas)
     top        live request-stage telemetry of a running daemon
     shutdown   gracefully stop a running daemon
     evaluate   success ratio and attack confidences of an index
     inspect    dataset statistics

   Example session:
     eppi generate --providers 2000 --owners 500 -o net.csv
     eppi construct -d net.csv --policy chernoff --gamma 0.9 -o index.eppi
     eppi query -i index.eppi --owner 42
     eppi serve -i index.eppi --listen /tmp/eppi.sock &
     eppi query --connect /tmp/eppi.sock --owner 42 --owner 7
     eppi republish --connect /tmp/eppi.sock -i index2.eppi
     eppi shutdown --connect /tmp/eppi.sock
     eppi evaluate -d net.csv -i index.eppi
     eppi export --csv -i index.eppi -o index.csv *)

open Cmdliner
open Eppi_prelude

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_output path content =
  match path with
  | None -> print_string content
  | Some path ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc content)

(* ---- common args ---- *)

let seed_arg =
  let doc = "Seed for all randomness (deterministic output)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc)

let dataset_arg =
  let doc = "Dataset CSV produced by $(b,eppi generate)." in
  Arg.(required & opt (some file) None & info [ "d"; "dataset" ] ~docv:"FILE" ~doc)

let index_arg =
  let doc =
    "Published-index file ($(i,index.eppi)) produced by $(b,eppi construct).  The format is \
     recognised by content, not by name; a CSV index is refused (see $(b,eppi export))."
  in
  Arg.(required & opt (some file) None & info [ "i"; "index" ] ~docv:"FILE" ~doc)

let output_arg =
  let doc = "Write to $(docv) instead of standard output." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let linkage_seed_arg =
  let doc =
    "Shared linkage secret keying the fuzzy resolver's Bloom encodings and blocking hashes.  \
     Daemon and clients must agree on it; there is deliberately no default — a well-known seed \
     would let anyone replay dictionary probes (docs/FUZZY.md)."
  in
  Arg.(value & opt (some int) None & info [ "linkage-seed" ] ~docv:"INT" ~doc)

let trace_arg =
  let doc =
    "Record a trace of the run and write it to $(docv) as Chrome trace-event JSON \
     (loadable in Perfetto or chrome://tracing: one track per domain, spans with GC \
     deltas, counter tracks for the pool workers).  A per-phase summary table is \
     printed to standard error.  See docs/OBSERVABILITY.md."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Run [f] under a tracing session when [--trace FILE] was given: the
   Chrome export and the summary table are emitted even if [f] raises, so
   a crashed run still leaves its trace behind. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some file ->
      Eppi_obs.Trace.enable ();
      let finish () =
        Eppi_obs.Trace.disable ();
        Eppi_obs.Chrome.write file;
        Eppi_obs.Summary.print Format.err_formatter
          (Eppi_obs.Summary.compute (Eppi_obs.Trace.tracks ()));
        Printf.eprintf "trace written to %s\n" file
      in
      Fun.protect ~finally:finish f

(* ---- the index artifact ----

   Every command that reads an index loads it through [load_index] (or
   [load_index_payload], which stops at the magic and version byte).  A
   bad file — wrong magic, an old CSV index, an unknown version, a
   truncated or malformed payload, or an unreadable path — is reported on
   stderr with exit status 1. *)

let index_error path msg =
  Printf.eprintf "%s: %s\n" path msg;
  exit 1

let load_with read path =
  match read path with
  | Ok v -> v
  | Error e -> index_error path (Eppi_net.Index_file.error_to_string e)
  | exception Sys_error msg -> index_error path msg

let load_index = load_with Eppi_net.Index_file.read
let load_index_payload = load_with Eppi_net.Index_file.read_payload

let write_index output index =
  match output with
  | None ->
      set_binary_mode_out stdout true;
      ignore (Eppi_net.Index_file.write stdout index)
  | Some path ->
      Out_channel.with_open_bin path (fun oc -> ignore (Eppi_net.Index_file.write oc index))

let policy_term =
  let policy_name =
    let doc = "Beta policy: $(b,basic), $(b,inc-exp) or $(b,chernoff)." in
    Arg.(value & opt string "chernoff" & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let delta =
    let doc = "Delta for the inc-exp policy." in
    Arg.(value & opt float 0.02 & info [ "delta" ] ~docv:"FLOAT" ~doc)
  in
  let gamma =
    let doc = "Target success ratio for the chernoff policy." in
    Arg.(value & opt float 0.9 & info [ "gamma" ] ~docv:"FLOAT" ~doc)
  in
  let build name delta gamma =
    match name with
    | "basic" -> Ok Eppi.Policy.Basic
    | "inc-exp" -> Ok (Eppi.Policy.Inc_exp delta)
    | "chernoff" -> Ok (Eppi.Policy.Chernoff gamma)
    | other -> Error (Printf.sprintf "unknown policy %S" other)
  in
  Term.(term_result' (const build $ policy_name $ delta $ gamma))

(* ---- generate ---- *)

let generate_cmd =
  let providers =
    Arg.(value & opt int 2500 & info [ "providers" ] ~docv:"INT" ~doc:"Provider count m.")
  in
  let owners =
    Arg.(value & opt int 1000 & info [ "owners" ] ~docv:"INT" ~doc:"Owner/identity count n.")
  in
  let common_fraction =
    Arg.(
      value
      & opt float 0.0
      & info [ "common-fraction" ] ~docv:"FLOAT"
          ~doc:"Fraction of owners planted as common (near-ubiquitous) identities.")
  in
  let epsilon =
    Arg.(
      value
      & opt (some float) None
      & info [ "epsilon" ] ~docv:"FLOAT"
          ~doc:"Constant privacy degree for every owner (default: uniform random).")
  in
  let roster =
    Arg.(
      value
      & opt (some string) None
      & info [ "roster" ] ~docv:"FILE"
          ~doc:
            "Also write a demographic roster CSV: one identity per owner id, the ground truth \
             the serving daemon's fuzzy resolver is built from ($(b,eppi serve --roster)).")
  in
  let run seed providers owners common_fraction epsilon output roster =
    let rng = Rng.create seed in
    let profile = { Eppi_dataset.Dataset.default_profile with common_fraction } in
    let dataset = Eppi_dataset.Dataset.generate ~profile rng ~providers ~owners in
    let dataset =
      match epsilon with
      | Some e -> Eppi_dataset.Dataset.constant_epsilons dataset e
      | None -> Eppi_dataset.Dataset.uniform_epsilons rng dataset
    in
    write_output output (Eppi_dataset.Dataset.to_csv dataset);
    (match roster with
    | None -> ()
    | Some path ->
        let people = Eppi_fuzzy.Roster.generate rng ~n:owners in
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Eppi_fuzzy.Roster.to_csv people));
        Printf.eprintf "roster: %d identities written to %s\n" owners path);
    Printf.eprintf "%s\n" (Eppi_dataset.Dataset.stats_summary dataset)
  in
  let term =
    Term.(
      const run $ seed_arg $ providers $ owners $ common_fraction $ epsilon $ output_arg $ roster)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Synthesize an information-network dataset") term

(* ---- construct ---- *)

let construct_cmd =
  let secure =
    Arg.(
      value & flag
      & info [ "secure" ]
          ~doc:
            "Run the distributed secure construction (SecSumShare + MPC over a simulated \
             network) instead of the centralized reference path.  Prints protocol metrics.")
  in
  let c_arg =
    Arg.(value & opt int 3 & info [ "c" ] ~docv:"INT" ~doc:"Coordinator count (secure path).")
  in
  let domains_arg =
    Arg.(
      value
      & opt int 0
      & info [ "domains" ] ~docv:"INT"
          ~doc:
            "Domain-pool size for the secure construction's sharded MPC stage: 1 forces the \
             sequential fallback, 0 (default) uses the runtime's recommended domain count.  \
             The constructed index is identical at every setting (see docs/PERF.md).")
  in
  let drop_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "drop" ] ~docv:"RATE"
          ~doc:
            "Secure path only: per-message drop probability injected on every simulated \
             link.  A nonzero rate engages the fault-tolerant construction \
             (reliability sublayer + failure detector); the output stays bit-identical \
             to the fault-free run.  See docs/ROBUSTNESS.md.")
  in
  let crash_arg =
    Arg.(
      value
      & opt_all (pair ~sep:':' float int) []
      & info [ "crash" ] ~docv:"TIME:PROVIDER"
          ~doc:
            "Secure path only: fail-stop the given provider at the given simulated time \
             (repeatable).  The construction degrades gracefully, excluding the dead \
             provider and recomputing every guarantee over the survivors.")
  in
  let run seed dataset_path policy secure c domains drop crashes trace output =
    let dataset = Eppi_dataset.Dataset.of_csv (read_file dataset_path) in
    let rng = Rng.create seed in
    let faulty = drop > 0.0 || crashes <> [] in
    if faulty && not secure then begin
      Printf.eprintf "--drop/--crash need --secure\n";
      exit 2
    end;
    with_trace trace @@ fun () ->
    let index =
      if secure && faulty then begin
        let open Eppi_simnet in
        let plan =
          {
            Simnet.no_faults with
            fault_seed = seed;
            default_link = { Simnet.perfect_link with drop };
            crashes;
          }
        in
        match
          Eppi_protocol.Construct.run_ft ~sss_plan:plan ~mpc_plan:plan ~c rng
            ~membership:dataset.membership ~epsilons:dataset.epsilons ~policy
        with
        | Failed (reason, rep) ->
            Printf.eprintf "construction failed after %d attempts: %s\n" rep.attempts reason;
            exit 1
        | (Complete (r, rep) | Degraded (r, rep)) as outcome ->
            let verdict =
              match outcome with
              | Eppi_protocol.Construct.Degraded _ -> "degraded"
              | _ -> "complete"
            in
            Printf.eprintf
              "secure construction (%s): %d/%d providers, %d attempts, %d+%d \
               retransmissions, %d duplicates suppressed, lambda=%.4f\n"
              verdict
              (List.length rep.survivors)
              (Eppi_prelude.Bitmatrix.cols dataset.membership)
              rep.attempts rep.sss_retransmissions rep.mpc_retransmissions rep.duplicates
              r.lambda;
            if rep.excluded <> [] then
              Printf.eprintf "excluded dead providers: %s\n"
                (String.concat ", " (List.map string_of_int rep.excluded));
            r.index
      end
      else if secure then begin
        let size = if domains <= 0 then None else Some domains in
        let r =
          Eppi_prelude.Pool.with_pool ?size (fun pool ->
              Eppi_protocol.Construct.run ~pool ~c rng ~membership:dataset.membership
                ~epsilons:dataset.epsilons ~policy)
        in
        Printf.eprintf
          "secure construction: %.4fs simulated (secsumshare %.4fs + mpc %.4fs), %d \
           messages, %d bytes, circuit %d gates, lambda=%.4f\n"
          r.metrics.total_time r.metrics.secsumshare_time r.metrics.mpc_time
          r.metrics.messages r.metrics.bytes r.metrics.circuit_stats.size r.lambda;
        r.index
      end
      else begin
        let r =
          Eppi.Construct.run rng ~membership:dataset.membership ~epsilons:dataset.epsilons
            ~policy
        in
        let commons =
          Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 r.common
        in
        Printf.eprintf "constructed: %d common identities, lambda=%.4f, xi=%.2f\n" commons
          r.lambda r.xi;
        r.index
      end
    in
    write_index output index
  in
  let term =
    Term.(
      const run $ seed_arg $ dataset_arg $ policy_term $ secure $ c_arg $ domains_arg
      $ drop_arg $ crash_arg $ trace_arg $ output_arg)
  in
  Cmd.v (Cmd.info "construct" ~doc:"Build an e-PPI over a dataset") term

(* ---- query ---- *)

let connect_opt_arg =
  let doc =
    "Address of a running $(b,eppi serve --listen) daemon: a Unix-socket path or $(i,HOST:PORT).  \
     A comma-separated list ($(i,A,B,C)) addresses a replica set: queries fail over to another \
     replica when one dies."
  in
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)

(* Connect (tolerating a daemon that is still starting up), run [f], close.
   Reconnects transparently if the daemon restarts mid-session; a request
   that gets no answer for 30 s is reported instead of hanging forever. *)
let with_client addr f =
  let client =
    Eppi_net.Client.connect ~retries:100 ~reconnect:true ~request_timeout:30.0
      (Eppi_net.Addr.of_string addr)
  in
  Fun.protect ~finally:(fun () -> Eppi_net.Client.close client) (fun () -> f client)

(* A comma in an address argument selects the cluster path: A,B,C is a
   replica set, a single address keeps the plain client. *)
let is_cluster addr = String.contains addr ','

let replica_set_of_string ~what addrs =
  match Eppi_cluster.Replica_set.parse addrs with
  | Ok set -> set
  | Error msg ->
      Printf.eprintf "%s: bad replica set %S: %s\n" what addrs msg;
      exit 2

let with_cluster ~what addrs f =
  let set = replica_set_of_string ~what addrs in
  let client = Eppi_cluster.Client.create ~request_timeout:30.0 set in
  Fun.protect ~finally:(fun () -> Eppi_cluster.Client.close client) (fun () -> f client)

let query_cmd =
  let owners =
    Arg.(
      value & opt_all int []
      & info [ "owner" ] ~docv:"INT" ~doc:"Owner identity (repeatable: one reply line each).")
  in
  let index_path =
    let doc = "Published-index CSV produced by $(b,eppi construct) (local mode)." in
    Arg.(value & opt (some file) None & info [ "i"; "index" ] ~docv:"FILE" ~doc)
  in
  let replay_log =
    let doc =
      "With $(b,--connect): replay a request log (CSV or JSONL, see docs/SERVE.md) through the \
       daemon as pipelined queries and print a JSON summary instead of per-owner replies."
    in
    Arg.(value & opt (some file) None & info [ "replay-log" ] ~docv:"FILE" ~doc)
  in
  let depth =
    Arg.(
      value & opt int 32
      & info [ "depth" ] ~docv:"INT" ~doc:"Pipeline depth for $(b,--replay-log).")
  in
  let print_reply = function
    | Eppi_serve.Serve.Providers providers ->
        Printf.printf "%s\n" (String.concat "," (List.map string_of_int providers))
    | Eppi_serve.Serve.Unknown_owner -> print_endline "unknown"
    | Eppi_serve.Serve.Shed_rate_limit | Eppi_serve.Serve.Shed_queue_full -> print_endline "shed"
  in
  let usage_error msg =
    Printf.eprintf "query: %s\n" msg;
    exit 2
  in
  let parse_dob s =
    if s = "" then (0, 0, 0)
    else
      match String.split_on_char '-' s with
      | [ y; m; d ] -> (
          match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
          | Some y, Some m, Some d when y > 0 && m >= 1 && m <= 12 && d >= 1 && d <= 31 ->
              (y, m, d)
          | _ -> usage_error (Printf.sprintf "bad --dob %S (want YYYY-MM-DD)" s))
      | _ -> usage_error (Printf.sprintf "bad --dob %S (want YYYY-MM-DD)" s)
  in
  let run_fuzzy addr ~linkage_seed ~first ~last ~dob ~zip ~k =
    let seed =
      match linkage_seed with
      | Some s -> s
      | None -> usage_error "--fuzzy requires --linkage-seed (the daemon's shared secret)"
    in
    if first = "" && last = "" && dob = "" && zip = "" then
      usage_error "--fuzzy needs at least one of --first/--last/--dob/--zip";
    let record : Eppi_linkage.Demographic.t =
      {
        first = String.lowercase_ascii first;
        last = String.lowercase_ascii last;
        dob = parse_dob dob;
        zip;
        gender = Eppi_linkage.Demographic.Other (* not encoded in probes *);
      }
    in
    let config = Eppi_fuzzy.Resolver.default_config ~seed in
    (* Encoding happens here, client-side: only the Bloom filters and
       keyed blocking hashes leave this process. *)
    let probe = Eppi_fuzzy.Probe.of_demographic config.params record in
    let _generation, result = with_client addr (fun c -> Eppi_net.Client.query_fuzzy ~k c probe) in
    match (result : Eppi_serve.Serve.fuzzy_reply) with
    | Candidates [] ->
        Printf.eprintf "no match above threshold\n";
        exit 1
    | Candidates candidates ->
        List.iter
          (fun (cand : Eppi_serve.Serve.candidate) ->
            Printf.printf "%d %.4f %s\n" cand.owner cand.score
              (String.concat "," (List.map string_of_int cand.providers)))
          candidates
    | No_resolver ->
        Printf.eprintf "daemon has no fuzzy resolver (start it with --roster)\n";
        exit 1
    | Probe_mismatch ->
        Printf.eprintf "probe geometry rejected: linkage parameters disagree with the daemon\n";
        exit 1
    | Fuzzy_shed ->
        Printf.eprintf "shed\n";
        exit 1
  in
  let run index_path connect owners replay_log depth fuzzy first last dob zip k linkage_seed =
    if fuzzy then begin
      if owners <> [] then usage_error "--fuzzy excludes --owner";
      if replay_log <> None then usage_error "--fuzzy excludes --replay-log";
      if k < 1 then usage_error "--k must be positive";
      match (index_path, connect) with
      | None, Some addr -> run_fuzzy addr ~linkage_seed ~first ~last ~dob ~zip ~k
      | _ -> usage_error "--fuzzy needs --connect (fuzzy resolution lives in the daemon)"
    end
    else if first <> "" || last <> "" || dob <> "" || zip <> "" then
      usage_error "--first/--last/--dob/--zip need --fuzzy"
    else
    match (index_path, connect) with
    | Some _, Some _ | None, None -> usage_error "give exactly one of --index or --connect"
    | Some path, None ->
        if replay_log <> None then usage_error "--replay-log needs --connect";
        if owners = [] then usage_error "--owner required";
        let index = load_index path in
        List.iter
          (fun owner ->
            if owner < 0 || owner >= Eppi.Index.owners index then begin
              Printf.eprintf "owner %d out of range [0, %d)\n" owner (Eppi.Index.owners index);
              exit 1
            end;
            print_reply (Eppi_serve.Serve.Providers (Eppi.Index.query index ~owner)))
          owners
    | None, Some addr when is_cluster addr -> (
        (* Replica set: same commands, failover-aware transport. *)
        match replay_log with
        | Some log ->
            if owners <> [] then usage_error "--replay-log excludes --owner";
            let workload = Eppi_net.Replay.load log in
            let s =
              with_cluster ~what:"query" addr (fun cluster ->
                  Eppi_cluster.Client.replay ~depth cluster workload)
            in
            Printf.printf
              "{\"requests\": %d, \"served\": %d, \"unknown\": %d, \"shed\": %d, \
               \"providers_listed\": %d, \"failovers\": %d, \"wall_seconds\": %.6f, \
               \"qps\": %.0f}\n"
              s.requests s.served s.unknown s.shed s.providers_listed s.failovers s.wall_seconds
              (float_of_int s.requests /. Float.max 1e-9 s.wall_seconds)
        | None ->
            if owners = [] then usage_error "--owner required";
            let requests = List.map (fun owner -> Eppi_net.Wire.Query { owner }) owners in
            with_cluster ~what:"query" addr (fun cluster ->
                List.iter
                  (function
                    | Eppi_net.Wire.Reply { reply; _ } -> print_reply reply
                    | other -> Eppi_net.Client.unexpected "query" other)
                  (Eppi_cluster.Client.pipeline cluster requests)))
    | None, Some addr -> (
        match replay_log with
        | Some log ->
            if owners <> [] then usage_error "--replay-log excludes --owner";
            let workload = Eppi_net.Replay.load log in
            let s = with_client addr (fun client -> Eppi_net.Replay.run ~depth client workload) in
            Printf.printf
              "{\"requests\": %d, \"served\": %d, \"unknown\": %d, \"shed\": %d, \
               \"providers_listed\": %d, \"first_generation\": %d, \"last_generation\": %d, \
               \"wall_seconds\": %.6f, \"qps\": %.0f}\n"
              s.requests s.served s.unknown s.shed s.providers_listed s.first_generation
              s.last_generation s.wall_seconds
              (float_of_int s.requests /. Float.max 1e-9 s.wall_seconds)
        | None ->
            if owners = [] then usage_error "--owner required";
            let requests = List.map (fun owner -> Eppi_net.Wire.Query { owner }) owners in
            with_client addr (fun client ->
                List.iter
                  (function
                    | Eppi_net.Wire.Reply { reply; _ } -> print_reply reply
                    | other -> Eppi_net.Client.unexpected "query" other)
                  (Eppi_net.Client.pipeline client requests)))
  in
  let fuzzy =
    let doc =
      "Approximate-identity lookup: resolve the demographics given with \
       $(b,--first)/$(b,--last)/$(b,--dob)/$(b,--zip) against the daemon's roster, then print \
       one line per candidate: owner id, match score, provider list.  Demographics are \
       Bloom-encoded locally under $(b,--linkage-seed); plaintext never crosses the wire."
    in
    Arg.(value & flag & info [ "fuzzy" ] ~doc)
  in
  let first =
    Arg.(value & opt string "" & info [ "first" ] ~docv:"NAME" ~doc:"First name (fuzzy probe).")
  in
  let last =
    Arg.(value & opt string "" & info [ "last" ] ~docv:"NAME" ~doc:"Last name (fuzzy probe).")
  in
  let dob =
    Arg.(
      value & opt string ""
      & info [ "dob" ] ~docv:"YYYY-MM-DD" ~doc:"Date of birth (fuzzy probe).")
  in
  let zip =
    Arg.(value & opt string "" & info [ "zip" ] ~docv:"ZIP" ~doc:"Zip code (fuzzy probe).")
  in
  let k =
    Arg.(
      value & opt int 10 & info [ "k" ] ~docv:"INT" ~doc:"Candidate limit for $(b,--fuzzy).")
  in
  let term =
    Term.(
      const run $ index_path $ connect_opt_arg $ owners $ replay_log $ depth $ fuzzy $ first
      $ last $ dob $ zip $ k $ linkage_seed_arg)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "QueryPPI: list candidate providers for an owner, from a local index file or a running \
          daemon")
    term

(* ---- evaluate ---- *)

let evaluate_cmd =
  let run seed dataset_path index_path =
    let dataset = Eppi_dataset.Dataset.of_csv (read_file dataset_path) in
    let index = load_index index_path in
    let membership = dataset.membership in
    let published = Eppi.Index.matrix index in
    let ratio =
      Eppi.Metrics.success_ratio ~membership ~published ~epsilons:dataset.epsilons
    in
    Printf.printf "owners: %d  providers: %d\n" dataset.owners dataset.providers;
    Printf.printf "success ratio (fp_j >= eps_j): %.4f\n" ratio;
    let worst = ref 0.0 and total = ref 0.0 in
    for j = 0 to dataset.owners - 1 do
      let conf = Eppi.Attack.primary_confidence ~membership ~published ~owner:j in
      worst := Float.max !worst conf;
      total := !total +. conf
    done;
    Printf.printf "primary attack confidence: mean %.4f, worst %.4f\n"
      (!total /. float_of_int dataset.owners)
      !worst;
    let rng = Rng.create seed in
    let sampled = Rng.sample_without_replacement rng ~k:(min 5 dataset.owners) ~n:dataset.owners in
    Array.iter
      (fun j ->
        Printf.printf
          "  owner %d: eps=%.2f freq=%d published=%d fp=%.3f recall=%b\n" j
          dataset.epsilons.(j)
          (Eppi_prelude.Bitmatrix.row_count membership j)
          (Eppi.Index.query_count index ~owner:j)
          (Eppi.Metrics.false_positive_rate ~membership ~published ~owner:j)
          (Eppi.Index.recall_ok ~membership index ~owner:j))
      sampled
  in
  let term = Term.(const run $ seed_arg $ dataset_arg $ index_arg) in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Measure privacy metrics of a published index against its dataset")
    term

(* ---- attack ---- *)

let attack_cmd =
  let colluders =
    Arg.(
      value & opt int 0
      & info [ "colluders" ] ~docv:"INT"
          ~doc:"Number of colluding providers (chosen at random) for the collusion analysis.")
  in
  let sigma_threshold =
    Arg.(
      value & opt float 0.5
      & info [ "sigma-threshold" ] ~docv:"FLOAT"
          ~doc:"Frequency fraction above which an identity counts as common.")
  in
  let run seed dataset_path index_path colluders sigma_threshold =
    let dataset = Eppi_dataset.Dataset.of_csv (read_file dataset_path) in
    let index = load_index index_path in
    let membership = dataset.membership in
    let published = Eppi.Index.matrix index in
    let rng = Rng.create seed in
    (* Primary attack over all owners. *)
    let confidences =
      Array.init dataset.owners (fun j ->
          Eppi.Attack.primary_confidence ~membership ~published ~owner:j)
    in
    let s = Stats.summary confidences in
    Format.printf "primary attack confidence: %a@." Stats.pp_summary s;
    (* Common-identity attack. *)
    let common =
      Eppi.Attack.common_identity_attack ~membership ~published ~sigma_threshold
    in
    Printf.printf
      "common-identity attack (sigma' = %.2f): %d suspects, %d truly common, confidence %.4f\n"
      sigma_threshold (List.length common.suspected) common.truly_common common.confidence;
    (* Collusion refinement on the worst owner. *)
    if colluders > 0 then begin
      let worst = ref 0 in
      Array.iteri (fun j c -> if c > confidences.(!worst) then worst := j) confidences;
      let chosen =
        Array.to_list (Rng.sample_without_replacement rng ~k:colluders ~n:dataset.providers)
      in
      Printf.printf
        "with %d random colluders, confidence against the most exposed owner (%d): %.4f\n"
        colluders !worst
        (Eppi.Attack.colluding_confidence ~membership ~published ~owner:!worst
           ~colluders:chosen)
    end
  in
  let term = Term.(const run $ seed_arg $ dataset_arg $ index_arg $ colluders $ sigma_threshold) in
  Cmd.v (Cmd.info "attack" ~doc:"Run the threat-model attacks against a published index") term

(* ---- link ---- *)

let link_cmd =
  let persons =
    Arg.(value & opt int 200 & info [ "persons" ] ~docv:"INT" ~doc:"Ground-truth patients.")
  in
  let providers =
    Arg.(value & opt int 20 & info [ "providers" ] ~docv:"INT" ~doc:"Hospitals.")
  in
  let bloom =
    Arg.(
      value & flag
      & info [ "bloom" ]
          ~doc:"Use privacy-preserving Bloom-filter field encodings instead of plaintext.")
  in
  let run seed persons providers bloom output =
    let rng = Rng.create seed in
    let registrations =
      Eppi_linkage.Demographic.population rng ~persons ~providers ~max_registrations:4
    in
    let config =
      if bloom then
        {
          Eppi_linkage.Linkage.mode =
            Eppi_linkage.Linkage.Bloom { Eppi_linkage.Bloom.default_params with bits = 256 };
          match_threshold = 0.82;
        }
      else Eppi_linkage.Linkage.default_config
    in
    let linked = Eppi_linkage.Linkage.link config registrations in
    let quality = Eppi_linkage.Linkage.evaluate linked registrations in
    Printf.eprintf
      "%d registrations -> %d entities (truth %d); precision %.3f recall %.3f f1 %.3f\n"
      (Array.length registrations) linked.entities persons quality.precision quality.recall
      quality.f1;
    (* Emit a dataset CSV so the result chains into `eppi construct`. *)
    let membership = Eppi_linkage.Linkage.to_membership linked registrations ~providers in
    let dataset =
      {
        Eppi_dataset.Dataset.providers;
        owners = linked.entities;
        membership;
        epsilons = Array.make linked.entities 0.5;
      }
    in
    write_output output (Eppi_dataset.Dataset.to_csv dataset)
  in
  let term = Term.(const run $ seed_arg $ persons $ providers $ bloom $ output_arg) in
  Cmd.v
    (Cmd.info "link"
       ~doc:
         "Generate a messy multi-provider patient population, link it (optionally \
          privacy-preservingly), and emit the linked dataset for `construct`")
    term

(* ---- serve ---- *)

let serve_cmd =
  let queries =
    Arg.(value & opt int 100_000 & info [ "queries" ] ~docv:"INT" ~doc:"Workload size to replay.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"INT" ~doc:"Independent shard states.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"INT"
          ~doc:
            "Engine-calling domains: worker domains for the daemon ($(b,--listen)), the \
             domain-pool size for in-process replay.  1 serves inline on a single domain.")
  in
  let cache =
    Arg.(
      value & opt int 4096
      & info [ "cache" ] ~docv:"INT" ~doc:"Result-cache capacity per shard; 0 disables caching.")
  in
  let zipf_exponent =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"FLOAT" ~doc:"Zipf exponent of the synthetic workload.")
  in
  let unknown_fraction =
    Arg.(
      value & opt float 0.0
      & info [ "unknown-fraction" ] ~docv:"FLOAT"
          ~doc:"Fraction of requests targeting unknown owner ids (negative-cache traffic).")
  in
  let rate =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"FLOAT"
          ~doc:
            "Enable admission control: token-bucket refill rate per shard (requests/s).  \
             Off by default.")
  in
  let burst =
    Arg.(
      value & opt int 1000
      & info [ "burst" ] ~docv:"INT" ~doc:"Token-bucket burst capacity (with $(b,--rate)).")
  in
  let queue =
    Arg.(
      value & opt int 100_000
      & info [ "queue" ] ~docv:"INT" ~doc:"Bounded per-shard queue (with $(b,--rate)).")
  in
  let listen =
    let doc =
      "Run as a persistent daemon on $(docv) (a Unix-socket path or $(i,HOST:PORT)) instead of \
       replaying a synthetic workload.  Serves until an $(b,eppi shutdown) frame arrives; \
       $(b,eppi republish) hot-swaps the index without a restart."
    in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let stdio =
    let doc =
      "Run the daemon over standard input/output (inetd-style framing) instead of a socket."
    in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let peers =
    let doc =
      "Comma-separated replica set this daemon belongs to (with $(b,--listen)).  Descriptive, \
       not connective: the daemon never dials its peers, it only echoes the set in \
       cluster-status replies so clients and $(b,eppi top) can discover the other replicas \
       from any one member."
    in
    Arg.(value & opt (some string) None & info [ "peers" ] ~docv:"ADDRS" ~doc)
  in
  let replay_log =
    let doc =
      "Replay this request log (CSV or JSONL, see docs/SERVE.md) instead of the synthetic Zipf \
       workload (in-process replay mode only)."
    in
    Arg.(value & opt (some file) None & info [ "replay-log" ] ~docv:"FILE" ~doc)
  in
  let roster =
    let doc =
      "Roster CSV ($(b,eppi generate --roster)) naming each owner id's demographics.  Builds \
       the approximate-identity resolver, enabling $(b,eppi query --fuzzy) against the daemon.  \
       Requires $(b,--linkage-seed)."
    in
    Arg.(value & opt (some file) None & info [ "roster" ] ~docv:"FILE" ~doc)
  in
  let run seed index_path queries shards domains cache zipf_exponent unknown_fraction rate burst
      queue listen stdio peers replay_log roster linkage_seed trace =
    (* One trace covers the whole run, so startup (artifact read, postings
       compile) shows beside the serving it precedes. *)
    with_trace trace @@ fun () ->
    let index = load_index index_path in
    let n = Eppi.Index.owners index in
    let admission =
      Option.map (fun rate -> { Eppi_serve.Admission.rate; burst; queue_capacity = queue }) rate
    in
    let config =
      { Eppi_serve.Serve.default_config with shards; cache_capacity = cache; admission }
    in
    let resolver =
      match (roster, linkage_seed) with
      | None, _ -> None
      | Some _, None ->
          Printf.eprintf
            "serve: --roster requires --linkage-seed (the shared linkage secret; never a \
             built-in default on a network path)\n";
          exit 2
      | Some path, Some seed ->
          let people = Eppi_fuzzy.Roster.of_csv (read_file path) in
          if Array.length people <> n then begin
            Printf.eprintf "serve: roster names %d identities but the index has %d owners\n"
              (Array.length people) n;
            exit 2
          end;
          Printf.eprintf "roster: %d identities, fuzzy resolver enabled\n" (Array.length people);
          Some (Eppi_fuzzy.Resolver.build (Eppi_fuzzy.Resolver.default_config ~seed) people)
    in
    let engine = Eppi_serve.Serve.create ~config ?resolver index in
    let postings = Eppi_serve.Serve.postings engine in
    Printf.eprintf "index: %d owners, %d providers; postings store %d bytes\n" n
      (Eppi.Index.providers index)
      (Eppi_serve.Postings.memory_bytes postings);
    match (listen, stdio) with
    | Some _, true ->
        Printf.eprintf "serve: --listen and --stdio are mutually exclusive\n";
        exit 2
    | Some addr, false ->
        let peer_list =
          match peers with
          | None -> []
          | Some addrs ->
              (* Validate eagerly — a typo should fail startup, not every
                 later Cluster_status consumer — but store the strings
                 verbatim, as the operator wrote them. *)
              ignore (replica_set_of_string ~what:"serve" addrs);
              String.split_on_char ',' addrs |> List.map String.trim
        in
        let config =
          { Eppi_net.Server.default_config with workers = max 1 domains; peers = peer_list }
        in
        let server = Eppi_net.Server.create ~config engine in
        Printf.eprintf "listening on %s (%d shards, %d worker domains, generation %d%s)\n" addr
          shards config.workers
          (Eppi_serve.Serve.generation engine)
          (if peer_list = [] then ""
           else Printf.sprintf ", replica set of %d" (List.length peer_list));
        Eppi_net.Server.serve server (Eppi_net.Addr.of_string addr);
        Printf.eprintf "daemon stopped; final metrics:\n";
        print_endline (Eppi_serve.Metrics.to_json (Eppi_serve.Serve.metrics engine))
    | None, true ->
        let server = Eppi_net.Server.create engine in
        Eppi_net.Server.run_stdio server
    | None, false ->
        let workload =
          match replay_log with
          | Some log -> Eppi_net.Replay.load log
          | None ->
              Eppi_serve.Workload.zipf ~exponent:zipf_exponent ~unknown_fraction
                (Rng.create seed) ~n ~count:queries
        in
        let queries = Array.length workload in
        let tally =
          if domains > 1 then
            Eppi_prelude.Pool.with_pool ~size:domains (fun pool ->
                Eppi_serve.Serve.replay ~pool engine workload)
          else Eppi_serve.Serve.replay engine workload
        in
        Printf.eprintf
          "replayed %d queries in %.4f s (%.0f q/s): %d served, %d unknown, %d shed (rate), %d \
           shed (queue)\n"
          queries tally.tally_wall_seconds
          (float_of_int queries /. tally.tally_wall_seconds)
          tally.served tally.unknown tally.shed_rate tally.shed_queue;
        print_endline (Eppi_serve.Metrics.to_json (Eppi_serve.Serve.metrics engine))
  in
  let term =
    Term.(
      const run $ seed_arg $ index_arg $ queries $ shards $ domains $ cache $ zipf_exponent
      $ unknown_fraction $ rate $ burst $ queue $ listen $ stdio $ peers $ replay_log $ roster
      $ linkage_seed_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Compile a published index into the read-optimized serving engine and either replay a \
          workload in-process (default) or serve it as a persistent daemon ($(b,--listen), \
          $(b,--stdio))")
    term

(* ---- republish / stats / shutdown: daemon administration ---- *)

let connect_required_arg =
  let doc =
    "Address of a running $(b,eppi serve --listen) daemon: a Unix-socket path or $(i,HOST:PORT)."
  in
  Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)

let republish_cmd =
  let csv_arg =
    let doc =
      "Ship the index as the legacy CSV payload instead of the compact binary codec — for \
       daemons that predate the binary republish frame.  Single-daemon mode only."
    in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let cluster_arg =
    let doc =
      "Fan the republish out to a comma-separated replica set instead of one daemon: the index \
       is encoded once and pushed to every replica concurrently, transient failures retry with \
       jittered backoff, and the per-replica outcome is reported — a dead replica never blocks \
       the others."
    in
    Arg.(value & opt (some string) None & info [ "cluster" ] ~docv:"ADDRS" ~doc)
  in
  let require_arg =
    let doc =
      "With $(b,--cluster): exit non-zero unless at least $(docv) replicas installed the index \
       (default: all of them)."
    in
    Arg.(value & opt (some int) None & info [ "require" ] ~docv:"K" ~doc)
  in
  let usage_error msg =
    Printf.eprintf "republish: %s\n" msg;
    exit 2
  in
  let run_cluster addrs index_path require =
    let set = replica_set_of_string ~what:"republish" addrs in
    let report = Eppi_cluster.Fanout.republish_payload set (load_index_payload index_path) in
    List.iter
      (fun (r : Eppi_cluster.Fanout.replica_result) ->
        match r.outcome with
        | Ok generation ->
            Printf.printf "%s: generation %d (%d attempt%s, %.3fs)\n"
              (Eppi_net.Addr.to_string r.addr) generation r.attempts
              (if r.attempts = 1 then "" else "s")
              r.seconds
        | Error msg ->
            Printf.printf "%s: failed after %d attempt%s: %s\n"
              (Eppi_net.Addr.to_string r.addr) r.attempts
              (if r.attempts = 1 then "" else "s")
              msg)
      report.results;
    Printf.printf "republished %d/%d replicas%s in %.3fs\n" report.succeeded
      (Eppi_cluster.Replica_set.size set)
      (match report.generation with
      | Some g -> Printf.sprintf " at generation %d" g
      | None -> "")
      report.wall_seconds;
    let require = Option.value ~default:(Eppi_cluster.Replica_set.size set) require in
    if report.succeeded < require then exit 1
  in
  let run connect index_path csv cluster require =
    match (connect, cluster) with
    | Some _, Some _ | None, None -> usage_error "give exactly one of --connect or --cluster"
    | None, Some addrs ->
        if csv then usage_error "--csv is single-daemon only (fan-out ships the binary codec)";
        run_cluster addrs index_path require
    | Some addr, None -> (
        if require <> None then usage_error "--require needs --cluster";
        if is_cluster addr then usage_error "use --cluster (not --connect) for a replica set";
        (* The binary payload ships as the file holds it; the daemon's
           decoder judges it.  --csv converts the loaded index. *)
        let send =
          if csv then
            let index_csv = Eppi.Index.to_csv (load_index index_path) in
            fun client -> Eppi_net.Client.republish client ~index_csv
          else
            let payload = load_index_payload index_path in
            fun client -> Eppi_net.Client.republish_payload client payload
        in
        with_client addr (fun client ->
            match send client with
            | Ok generation -> Printf.printf "generation %d\n" generation
            | Error msg ->
                Printf.eprintf "republish rejected: %s\n" msg;
                exit 1))
  in
  let term =
    Term.(const run $ connect_opt_arg $ index_arg $ csv_arg $ cluster_arg $ require_arg)
  in
  Cmd.v
    (Cmd.info "republish"
       ~doc:
         "Hot-swap the index of a running daemon: queries keep flowing, the new generation \
          takes effect atomically, per-shard caches invalidate.  The index file's payload \
          travels as it is, without being decoded here, unless $(b,--csv) asks for the legacy \
          CSV payload.  \
          $(b,--cluster A,B,C) fans the swap out to a whole replica set")
    term

(* Seconds → a human-sized unit.  Telemetry spans ns..s; a fixed unit
   would drown either end in zeros. *)
let fmt_duration s =
  if s <= 0.0 then "-"
  else if s < 1e-6 then Printf.sprintf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

(* One `stats --watch` line: per-interval counter deltas with rates, plus
   the point-in-time fields that don't diff (generation, percentiles). *)
let stats_delta_line ~dt ?prev cur =
  let get v k = Option.value ~default:0 (Json.find_int v [ k ]) in
  let getf v k = Option.value ~default:0.0 (Json.find_num v [ k ]) in
  let d k = get cur k - match prev with Some p -> get p k | None -> 0 in
  let rate k = float_of_int (d k) /. dt in
  Printf.sprintf
    "queries %6d (%8.1f/s)  served %6d  hits %6d  shed %4d  fuzzy %5d  audits %4d  gen %d  \
     swaps %d  p50 %s  p99 %s"
    (d "queries") (rate "queries") (d "served") (d "cache_hits")
    (d "shed_rate" + d "shed_queue")
    (d "fuzzy_queries") (d "audits") (get cur "generation") (get cur "swaps")
    (fmt_duration (getf cur "p50"))
    (fmt_duration (getf cur "p99"))

let stats_cmd =
  let watch_arg =
    let doc =
      "Refresh every $(docv) seconds, printing one line of per-interval counter deltas (with \
       rates) per refresh instead of a one-shot snapshot.  The first line is the delta from \
       zero, i.e. the daemon's lifetime totals.  Interrupt with Ctrl-C."
    in
    Arg.(value & opt (some float) None & info [ "watch" ] ~docv:"SECS" ~doc)
  in
  let json_arg =
    let doc =
      "Print the raw JSON snapshot on every refresh instead of the delta line — for scripting.  \
       Without $(b,--watch) this is already the default output."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let iterations_arg =
    let doc = "With $(b,--watch): stop after $(docv) refreshes (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let run addr watch json iterations =
    with_client addr (fun client ->
        match watch with
        | None -> print_endline (Eppi_net.Client.stats_json client)
        | Some interval ->
            let interval = if interval <= 0.0 then 1.0 else interval in
            let prev = ref None in
            (* Absolute-deadline cadence: the time spent fetching and
               printing no longer drifts the schedule. *)
            Eppi_prelude.Clock.periodic ~sleep:Unix.sleepf ~interval
              ?iterations:(if iterations <= 0 then None else Some iterations)
              (fun _tick ->
                let raw = Eppi_net.Client.stats_json client in
                (if json then print_endline raw
                 else
                   match Json.parse raw with
                   | Error e -> Printf.eprintf "stats: unparseable reply: %s\n" e
                   | Ok cur ->
                       print_endline (stats_delta_line ~dt:interval ?prev:!prev cur);
                       prev := Some cur);
                flush stdout;
                true))
  in
  let term = Term.(const run $ connect_required_arg $ watch_arg $ json_arg $ iterations_arg) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print a running daemon's metrics snapshot (JSON, one line), or watch it live: \
          $(b,--watch SECS) prints per-interval counter deltas, $(b,--json) keeps the raw \
          snapshot for scripting")
    term

(* ---- top: live request-stage telemetry ---- *)

(* Render one Telemetry reply ({!Eppi_net.Telemetry.to_json}) as the
   `eppi top` screen: window rates per request class, the six-stage
   latency decomposition with its conservation check, worker counters,
   and the slow-request ring. *)
let render_top v =
  let b = Buffer.create 1024 in
  let geti path = Option.value ~default:0 (Json.find_int v path) in
  let getf path = Option.value ~default:0.0 (Json.find_num v path) in
  let getb path = match Json.find v path with Some (Json.Bool x) -> x | _ -> false in
  Printf.bprintf b
    "eppi top — %d requests  gen %d  swaps %d  telemetry %s  trace %s (dropped %d)\n"
    (geti [ "requests" ]) (geti [ "generation" ]) (geti [ "swaps" ])
    (if getb [ "telemetry_enabled" ] then "on" else "off")
    (if getb [ "trace"; "enabled" ] then "on" else "off")
    (geti [ "trace"; "dropped" ]);
  Printf.bprintf b "\nwindow (last %.0fs)   count      rate      p50      p99\n"
    (getf [ "window"; "span_s" ]);
  List.iter
    (fun cls ->
      let path k = [ "window"; cls; k ] in
      let count = geti (path "count") in
      if count > 0 || cls = "query" then
        Printf.bprintf b "  %-11s %9d %7.1f/s %8s %8s\n" cls count
          (getf (path "rate"))
          (fmt_duration (getf (path "p50_s")))
          (fmt_duration (getf (path "p99_s"))))
    [ "query"; "batch"; "fuzzy"; "audit"; "republish"; "admin" ];
  Printf.bprintf b "\nstage           count       sum      mean      p50      p99\n";
  List.iter
    (fun st ->
      let path k = [ "stages"; st; k ] in
      Printf.bprintf b "  %-11s %7d %9s %9s %8s %8s\n" st (geti (path "count"))
        (fmt_duration (float_of_int (geti (path "sum_ns")) /. 1e9))
        (fmt_duration (getf (path "mean_s")))
        (fmt_duration (getf (path "p50_s")))
        (fmt_duration (getf (path "p99_s"))))
    [ "decode"; "dispatch"; "queue"; "execute"; "reorder"; "flush" ];
  let stage_sum = geti [ "conservation"; "stage_sum_ns" ] in
  let total = geti [ "conservation"; "total_ns" ] in
  Printf.bprintf b "  %-11s %7d %9s%s\n" "= total"
    (geti [ "stages"; "total"; "count" ])
    (fmt_duration (float_of_int total /. 1e9))
    (if getb [ "conservation"; "exact" ] then "  (conservation: exact)"
     else Printf.sprintf "  (conservation: off by %dns)" (total - stage_sum));
  (match Json.find v [ "workers" ] with
  | Some (Json.List (_ :: _ as ws)) ->
      Buffer.add_string b "\nworker   queue      busy    served\n";
      List.iter
        (fun w ->
          let g k = Option.value ~default:0 (Json.find_int w [ k ]) in
          Printf.bprintf b "  %-6d %5d %9s %9d\n" (g "id") (g "queue_depth")
            (fmt_duration (float_of_int (g "busy_us") /. 1e6))
            (g "served"))
        ws
  | _ -> ());
  (match Json.find v [ "slow" ] with
  | Some (Json.List (_ :: _ as ss)) ->
      Buffer.add_string b
        "\nslowest       total   decode dispatch    queue  execute  reorder    flush\n";
      List.iteri
        (fun i w ->
          if i < 8 then begin
            let g k = Option.value ~default:0 (Json.find_int w [ k ]) in
            let f k = fmt_duration (float_of_int (g k) /. 1e9) in
            Printf.bprintf b "  %-9s %7s %8s %8s %8s %8s %8s %8s\n"
              (Option.value ~default:"?" (Json.find_str w [ "kind" ]))
              (f "total_ns") (f "decode_ns") (f "dispatch_ns") (f "queue_ns") (f "execute_ns")
              (f "reorder_ns") (f "flush_ns")
          end)
        ss
  | _ -> ());
  Buffer.contents b

(* Probe one replica for the cluster top view: generation/swaps from
   Cluster_status plus lifetime query count and p99 from the stats
   snapshot, on one short-lived connection.  A dead replica is a row, not
   an error. *)
let probe_replica addr =
  match Eppi_net.Client.connect ~retries:0 ~request_timeout:5.0 addr with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | client -> (
      match
        Fun.protect
          ~finally:(fun () -> Eppi_net.Client.close client)
          (fun () -> (Eppi_net.Client.cluster_status client, Eppi_net.Client.stats_json client))
      with
      | probe -> Ok probe
      | exception Eppi_net.Client.Protocol_error msg -> Error msg
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let render_cluster_top set =
  let probes =
    List.map (fun addr -> (addr, probe_replica addr)) (Eppi_cluster.Replica_set.addrs set)
  in
  let generations =
    List.map
      (function
        | _, Ok ((s : Eppi_net.Wire.cluster_status), _) -> Some s.generation | _, Error _ -> None)
      probes
  in
  let converged =
    match generations with
    | Some g :: rest when List.for_all (Option.equal Int.equal (Some g)) rest -> Some g
    | _ -> None
  in
  let b = Buffer.create 512 in
  Printf.bprintf b "eppi top — cluster of %d  %s\n\n" (List.length probes)
    (match converged with
    | Some g -> Printf.sprintf "converged at generation %d" g
    | None -> "NOT converged");
  Printf.bprintf b "replica                           gen  swaps   queries      p99\n";
  List.iter
    (fun (addr, probe) ->
      let name = Eppi_net.Addr.to_string addr in
      match probe with
      | Error msg -> Printf.bprintf b "  %-30s down: %s\n" name msg
      | Ok ((s : Eppi_net.Wire.cluster_status), stats_raw) ->
          let queries, p99 =
            match Json.parse stats_raw with
            | Ok v ->
                ( Option.value ~default:0 (Json.find_int v [ "queries" ]),
                  Option.value ~default:0.0 (Json.find_num v [ "p99" ]) )
            | Error _ -> (0, 0.0)
          in
          Printf.bprintf b "  %-30s %4d %6d %9d %8s\n" name s.generation s.swaps queries
            (fmt_duration p99))
    probes;
  Buffer.contents b

let cluster_top_json set =
  let b = Buffer.create 512 in
  Buffer.add_char b '[';
  List.iteri
    (fun i (addr, probe) ->
      if i > 0 then Buffer.add_string b ", ";
      let name = String.concat "\\\"" (String.split_on_char '"' (Eppi_net.Addr.to_string addr)) in
      match probe with
      | Error msg ->
          let msg = String.concat "\\\"" (String.split_on_char '"' msg) in
          Printf.bprintf b "{\"addr\": \"%s\", \"up\": false, \"error\": \"%s\"}" name msg
      | Ok ((s : Eppi_net.Wire.cluster_status), _) ->
          Printf.bprintf b
            "{\"addr\": \"%s\", \"up\": true, \"generation\": %d, \"swaps\": %d, \"peers\": %d}"
            name s.generation s.swaps (List.length s.peers))
    (List.map (fun addr -> (addr, probe_replica addr)) (Eppi_cluster.Replica_set.addrs set));
  Buffer.add_char b ']';
  Buffer.contents b

let top_cmd =
  let interval_arg =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECS" ~doc)
  in
  let once_arg =
    let doc = "Render one snapshot and exit instead of refreshing." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let json_arg =
    let doc = "Print the raw telemetry JSON once and exit — for scripting (implies $(b,--once))." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let iterations_arg =
    let doc = "Stop after $(docv) refreshes (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let watch ~interval ~iterations one =
    (* Clear + home per refresh: a live top-style screen without a TUI
       dep.  Absolute-deadline cadence — probe time does not drift it. *)
    Eppi_prelude.Clock.periodic ~sleep:Unix.sleepf ~interval
      ?iterations:(if iterations <= 0 then None else Some iterations)
      (fun _tick ->
        print_string "\027[2J\027[H";
        one ();
        flush stdout;
        true)
  in
  let run addr interval once json iterations =
    let interval = if interval <= 0.0 then 1.0 else interval in
    if is_cluster addr then begin
      (* Replica set: one aggregated row per replica, probed per refresh
         over short-lived connections so a dead replica shows as "down"
         instead of wedging the screen. *)
      let set = replica_set_of_string ~what:"top" addr in
      let one () =
        if json then print_endline (cluster_top_json set)
        else print_string (render_cluster_top set)
      in
      if once || json then one () else watch ~interval ~iterations one
    end
    else
      with_client addr (fun client ->
          let one () =
            let raw = Eppi_net.Client.telemetry_json client in
            if json then print_endline raw
            else
              match Json.parse raw with
              | Error e ->
                  Printf.eprintf "top: unparseable reply: %s\n" e;
                  exit 1
              | Ok v -> print_string (render_top v)
          in
          if once || json then one () else watch ~interval ~iterations one)
  in
  let term =
    Term.(const run $ connect_required_arg $ interval_arg $ once_arg $ json_arg $ iterations_arg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Watch a running daemon's live telemetry: rolling-window p50/p99/throughput per \
          request class, the decode/dispatch/queue/execute/reorder/flush stage decomposition \
          with its conservation check, per-worker queue depth and busy time, and the \
          slowest-request ring.  $(b,--json) dumps the raw snapshot for scripting.  With a \
          comma-separated replica set ($(b,--connect A,B,C)): one row per replica — \
          generation, swaps, query count, p99 — plus a convergence verdict")
    term

let shutdown_cmd =
  let run addr =
    with_client addr (fun client -> Eppi_net.Client.shutdown client);
    Printf.eprintf "daemon stopped\n"
  in
  let term = Term.(const run $ connect_required_arg) in
  Cmd.v (Cmd.info "shutdown" ~doc:"Gracefully stop a running daemon") term

(* ---- export ---- *)

let export_cmd =
  let csv =
    let doc =
      "Write the index as CSV ($(b,Eppi.Index.to_csv): a dimension header, then one \
       $(i,owner,provider) line per published cell).  The only export format; required."
    in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let run index_path csv output =
    if not csv then begin
      Printf.eprintf "export: give --csv (the only export format)\n";
      exit 2
    end;
    write_output output (Eppi.Index.to_csv (load_index index_path))
  in
  let term = Term.(const run $ index_arg $ csv $ output_arg) in
  Cmd.v
    (Cmd.info "export" ~doc:"Write an index file out in another format, for inspection")
    term

(* ---- inspect ---- *)

let inspect_cmd =
  let run dataset_path =
    let dataset = Eppi_dataset.Dataset.of_csv (read_file dataset_path) in
    print_endline (Eppi_dataset.Dataset.stats_summary dataset)
  in
  let term = Term.(const run $ dataset_arg) in
  Cmd.v (Cmd.info "inspect" ~doc:"Print dataset statistics") term

let () =
  let doc = "e-PPI: locator service with personalized privacy preservation" in
  let info = Cmd.info "eppi" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            construct_cmd;
            export_cmd;
            query_cmd;
            serve_cmd;
            republish_cmd;
            stats_cmd;
            top_cmd;
            shutdown_cmd;
            evaluate_cmd;
            attack_cmd;
            link_cmd;
            inspect_cmd;
          ]))
