(* Chaos harness: the fault-tolerant construction under injected faults.

   Three campaigns, each asserting the robustness contract rather than just
   timing it (a chaos run that silently produced a wrong index would be
   worse than a crash):

   + {b loss sweep} — construction at increasing drop rates.  Every
     completed run must be bit-identical to the fault-free construction
     ([Construct.run], the path [eppi construct --secure] takes: the
     reliable transport masks loss, and protocol randomness is pre-split so
     retransmissions consume no protocol state), and a second run with the
     same fault seed must reproduce the first exactly.
   + {b provider crash} — a provider fail-stops mid-SecSumShare.  The
     outcome must be [Degraded], excluding exactly that provider, and every
     surviving owner's published row must still satisfy its ε guarantee
     over the survivor set: common/mixed rows published everywhere, other
     rows' β matching the policy recomputed for m', and recall intact.
   + {b coordinator crash} — a CountBelow coordinator dies mid-MPC; same
     contract, exercised through the reliable GMW transport.

   Writes BENCH_chaos.json.

   Environment knobs: CHAOS_N (identities, default 60), CHAOS_M (providers,
   default 12), CHAOS_DROPS (comma list of drop rates, default
   0.02,0.05,0.1), CHAOS_SEED (fault seed, default 2014). *)

open Eppi_prelude
module Construct = Eppi_protocol.Construct
module Simnet = Eppi_simnet.Simnet

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let drop_rates () =
  match Sys.getenv_opt "CHAOS_DROPS" with
  | None -> [ 0.02; 0.05; 0.1 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun tok -> float_of_string_opt (String.trim tok))
      |> List.filter (fun d -> d >= 0.0 && d < 1.0)

let drop_plan ~seed drop =
  {
    Simnet.no_faults with
    fault_seed = seed;
    default_link = { Simnet.perfect_link with drop };
  }

(* The ε contract over whatever provider set the run ended with: common and
   mixed identities are published by everyone, the rest at the policy's β
   for the survivor count; recall must be intact either way. *)
let check_epsilon_invariant ~what (r : Construct.result) (rep : Construct.fault_report)
    ~membership ~epsilons ~policy =
  let n = Array.length epsilons in
  let m' = List.length rep.survivors in
  let sub = Bitmatrix.create ~rows:n ~cols:m' in
  List.iteri
    (fun k p ->
      for j = 0 to n - 1 do
        if Bitmatrix.get membership ~row:j ~col:p then Bitmatrix.set sub ~row:j ~col:k true
      done)
    rep.survivors;
  Array.iteri
    (fun j epsilon ->
      let f = Bitmatrix.row_count sub j in
      let sigma = float_of_int f /. float_of_int m' in
      if r.common.(j) || r.mixed.(j) then begin
        if r.betas.(j) <> 1.0 then
          failwith (Printf.sprintf "%s: identity %d common/mixed but beta <> 1" what j);
        if Eppi.Index.query_count r.index ~owner:j <> m' then
          failwith
            (Printf.sprintf "%s: identity %d common/mixed but not published at all %d" what j m')
      end
      else begin
        let expected = Eppi.Policy.beta policy ~sigma ~epsilon ~m:m' in
        if Float.abs (r.betas.(j) -. expected) > 1e-9 then
          failwith
            (Printf.sprintf "%s: identity %d beta %.6f, policy says %.6f for m'=%d" what j
               r.betas.(j) expected m')
      end;
      if not (Eppi.Index.recall_ok ~membership:sub r.index ~owner:j) then
        failwith (Printf.sprintf "%s: identity %d lost a true positive" what j))
    epsilons

let run () =
  let n = getenv_int "CHAOS_N" 60 in
  let m = getenv_int "CHAOS_M" 12 in
  let seed = getenv_int "CHAOS_SEED" 2014 in
  Bench_util.heading
    (Printf.sprintf "Chaos: fault-tolerant construction (n=%d identities, m=%d providers)" n m);
  let rng = Rng.create 4242 in
  let freqs = Array.init n (fun j -> 1 + (j mod m)) in
  let membership = Bench_util.matrix_of_frequencies rng ~m ~freqs in
  let epsilons = Array.init n (fun j -> 0.05 +. (0.1 *. float_of_int (j mod 5) /. 4.0)) in
  let policy = Eppi.Policy.Chernoff 0.9 in
  let construct ?sss_plan ?mpc_plan () =
    Construct.run_ft ?sss_plan ?mpc_plan (Rng.create 99) ~membership ~epsilons ~policy
  in
  let complete what = function
    | Construct.Complete (r, rep) -> (r, rep)
    | Construct.Degraded (_, rep) ->
        failwith
          (Printf.sprintf "%s: degraded (excluded %s) where loss alone must be masked" what
             (String.concat "," (List.map string_of_int rep.excluded)))
    | Construct.Failed (reason, _) -> failwith (Printf.sprintf "%s: failed: %s" what reason)
  in
  let degraded what = function
    | Construct.Degraded (r, rep) -> (r, rep)
    | Construct.Complete _ -> failwith (Printf.sprintf "%s: crash went undetected" what)
    | Construct.Failed (reason, _) -> failwith (Printf.sprintf "%s: failed: %s" what reason)
  in

  (* Campaign 1: loss sweep, bit-identity against the fault-free
     construction. *)
  let baseline = Construct.run (Rng.create 99) ~membership ~epsilons ~policy in
  (* At lambda = 1 every identity is common or mixed, every beta is 1 and
     the index is all ones whatever the streams: the comparison would be
     vacuous. *)
  if baseline.lambda >= 1.0 then
    failwith "baseline: lambda = 1 publishes everything; lower the epsilons";
  Bench_util.note "fault-free baseline: lambda=%.3f" baseline.lambda;
  let sweep =
    List.map
      (fun drop ->
        let what = Printf.sprintf "drop %.2f" drop in
        let plan = drop_plan ~seed drop in
        let r, rep = complete what (construct ~sss_plan:plan ~mpc_plan:plan ()) in
        if r.betas <> baseline.betas then failwith (what ^ ": betas diverged from fault-free");
        if not (Bitmatrix.equal (Eppi.Index.matrix r.index) (Eppi.Index.matrix baseline.index))
        then failwith (what ^ ": published index diverged from fault-free");
        let r2, rep2 = complete what (construct ~sss_plan:plan ~mpc_plan:plan ()) in
        if
          not (Bitmatrix.equal (Eppi.Index.matrix r2.index) (Eppi.Index.matrix r.index))
          || rep2.sss_retransmissions <> rep.sss_retransmissions
          || rep2.mpc_retransmissions <> rep.mpc_retransmissions
        then failwith (what ^ ": same fault seed did not reproduce the run");
        Bench_util.note
          "%s: bit-identical to fault-free (retransmissions sss=%d mpc=%d, duplicates=%d)" what
          rep.sss_retransmissions rep.mpc_retransmissions rep.duplicates;
        (drop, rep))
      (drop_rates ())
  in

  (* Campaign 2: a provider fail-stops mid-SecSumShare, under loss. *)
  let victim = m - 2 in
  let crash_plan =
    { (drop_plan ~seed 0.02) with crashes = [ (0.0, victim) ] }
  in
  let r_crash, rep_crash = degraded "provider crash" (construct ~sss_plan:crash_plan ()) in
  if rep_crash.excluded <> [ victim ] then
    failwith
      (Printf.sprintf "provider crash: excluded [%s], wanted [%d]"
         (String.concat ";" (List.map string_of_int rep_crash.excluded))
         victim);
  check_epsilon_invariant ~what:"provider crash" r_crash rep_crash ~membership ~epsilons ~policy;
  Bench_util.note "provider %d crashed: Degraded, %d attempts, epsilon contract holds over %d survivors"
    victim rep_crash.attempts
    (List.length rep_crash.survivors);

  (* Campaign 3: a CountBelow coordinator dies mid-MPC. *)
  let mpc_crash = { Simnet.no_faults with fault_seed = seed; crashes = [ (0.002, 1) ] } in
  let r_mpc, rep_mpc = degraded "coordinator crash" (construct ~mpc_plan:mpc_crash ()) in
  if rep_mpc.excluded <> [ 1 ] then failwith "coordinator crash: wrong exclusion";
  check_epsilon_invariant ~what:"coordinator crash" r_mpc rep_mpc ~membership ~epsilons ~policy;
  Bench_util.note "coordinator 1 crashed mid-MPC: Degraded, %d attempts, epsilon contract holds"
    rep_mpc.attempts;

  let out = open_out "BENCH_chaos.json" in
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"chaos\",\n";
  Buffer.add_string b (Printf.sprintf "  \"n_identities\": %d,\n" n);
  Buffer.add_string b (Printf.sprintf "  \"m_providers\": %d,\n" m);
  Buffer.add_string b (Printf.sprintf "  \"fault_seed\": %d,\n" seed);
  Buffer.add_string b "  \"loss_sweep\": [\n";
  List.iteri
    (fun i (drop, (rep : Construct.fault_report)) ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"drop\": %.3f, \"bit_identical\": true, \"sss_retransmissions\": %d, \
            \"mpc_retransmissions\": %d, \"duplicates\": %d, \"retried_rounds\": %d }%s\n"
           drop rep.sss_retransmissions rep.mpc_retransmissions rep.duplicates
           rep.retried_rounds
           (if i = List.length sweep - 1 then "" else ",")))
    sweep;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"provider_crash\": { \"victim\": %d, \"outcome\": \"degraded\", \"attempts\": %d, \
        \"survivors\": %d, \"epsilon_contract\": true },\n"
       victim rep_crash.attempts
       (List.length rep_crash.survivors));
  Buffer.add_string b
    (Printf.sprintf
       "  \"coordinator_crash\": { \"victim\": 1, \"outcome\": \"degraded\", \"attempts\": %d, \
        \"epsilon_contract\": true }\n"
       rep_mpc.attempts);
  Buffer.add_string b "}\n";
  output_string out (Buffer.contents b);
  close_out out;
  Bench_util.note "wrote BENCH_chaos.json"
