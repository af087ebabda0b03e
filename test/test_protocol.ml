(* Tests for the distributed construction protocol: SecSumShare correctness
   and traffic shape, the CountBelow MPC stage, the pure-MPC baseline's
   fixed-point pipeline, and agreement between the secure path and the
   centralized reference. *)

open Eppi_prelude
open Eppi_protocol
module Simnet = Eppi_simnet.Simnet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let q97 = Modarith.modulus 97

let random_inputs rng ~m ~n ~max =
  Array.init m (fun _ -> Array.init n (fun _ -> Rng.int rng max))

(* ---------- SecSumShare ---------- *)

let test_secsumshare_sums () =
  let rng = Rng.create 1 in
  let m = 12 and n = 7 in
  let inputs = random_inputs rng ~m ~n ~max:2 in
  let r = Secsumshare.run rng ~inputs ~c:3 ~q:q97 in
  check_int "three share vectors" 3 (Array.length r.coordinator_shares);
  let sums = Secsumshare.reconstruct ~q:q97 r.coordinator_shares in
  for j = 0 to n - 1 do
    let expected = Array.fold_left (fun acc row -> acc + row.(j)) 0 inputs in
    check_int (Printf.sprintf "identity %d" j) expected sums.(j)
  done

let test_secsumshare_figure3_scale () =
  (* The paper's worked example: 5 providers, c = 3, q = 5, one identity
     with bits 0,1,1,0,0 -> frequency 2. *)
  let rng = Rng.create 2 in
  let inputs = [| [| 0 |]; [| 1 |]; [| 1 |]; [| 0 |]; [| 0 |] |] in
  let r = Secsumshare.run rng ~inputs ~c:3 ~q:(Modarith.modulus 5) in
  let sums = Secsumshare.reconstruct ~q:(Modarith.modulus 5) r.coordinator_shares in
  check_int "frequency 2" 2 sums.(0)

let test_secsumshare_share_ranges () =
  let rng = Rng.create 3 in
  let inputs = random_inputs rng ~m:8 ~n:4 ~max:2 in
  let r = Secsumshare.run rng ~inputs ~c:4 ~q:q97 in
  Array.iter
    (Array.iter (fun s -> check_bool "canonical residue" true (s >= 0 && s < 97)))
    r.coordinator_shares

let test_secsumshare_message_count () =
  (* Each provider sends c-1 share messages plus one super-share. *)
  let rng = Rng.create 4 in
  let m = 10 and c = 3 in
  let inputs = random_inputs rng ~m ~n:5 ~max:2 in
  let r = Secsumshare.run rng ~inputs ~c ~q:q97 in
  check_int "messages = m * c" (m * c) r.net.messages_sent;
  check_bool "nonzero completion time" true (r.net.completion_time > 0.0)

let test_secsumshare_constant_rounds_scaling () =
  (* Completion time must grow slowly (not linearly) with m: the protocol
     runs in constant rounds. *)
  let time m =
    let rng = Rng.create 5 in
    let inputs = random_inputs rng ~m ~n:3 ~max:2 in
    (Secsumshare.run rng ~inputs ~c:3 ~q:q97).net.completion_time
  in
  let t10 = time 10 and t100 = time 100 in
  check_bool
    (Printf.sprintf "t100 %f < 3 * t10 %f" t100 t10)
    true
    (t100 < 3.0 *. t10)

let test_secsumshare_coordinator_shares_look_random () =
  (* A single coordinator's shares must carry no information about the sums:
     rerunning with different protocol randomness decorrelates them, and
     their empirical distribution is near-uniform over Z_q. *)
  let q = Modarith.modulus 11 in
  let inputs = [| [| 1 |]; [| 1 |]; [| 1 |]; [| 0 |]; [| 0 |] |] in
  let counts = Array.make 11 0 in
  let runs = 4000 in
  for seed = 1 to runs do
    let rng = Rng.create seed in
    let r = Secsumshare.run rng ~inputs ~c:3 ~q in
    counts.(r.coordinator_shares.(0).(0)) <- counts.(r.coordinator_shares.(0).(0)) + 1
  done;
  let expected = float_of_int runs /. 11.0 in
  Array.iteri
    (fun v c ->
      check_bool
        (Printf.sprintf "share value %d near uniform (%d)" v c)
        true
        (Float.abs (float_of_int c -. expected) < 6.0 *. sqrt expected))
    counts

let test_secsumshare_lossy_fails_fast () =
  (* Without a reliability layer, a lossy network must fail loudly, never
     return a corrupted sum. *)
  let config = { Simnet.default_config with drop_probability = 0.4; seed = 5 } in
  let rng = Rng.create 50 in
  let inputs = random_inputs rng ~m:10 ~n:4 ~max:2 in
  match Secsumshare.run ~config rng ~inputs ~c:3 ~q:q97 with
  | _ -> Alcotest.fail "expected a failure on a lossy network"
  | exception Failure _ -> ()

let test_secsumshare_reliable_on_lossy_network () =
  (* With acks + retransmission the sums are exact despite 30% loss. *)
  let config = { Simnet.default_config with drop_probability = 0.3; seed = 7 } in
  let rng = Rng.create 51 in
  let m = 12 and n = 6 in
  let inputs = random_inputs rng ~m ~n ~max:2 in
  let r =
    Secsumshare.run ~config ~reliability:Secsumshare.default_reliability rng ~inputs ~c:3
      ~q:q97
  in
  let sums = Secsumshare.reconstruct ~q:q97 r.coordinator_shares in
  for j = 0 to n - 1 do
    let expected = Array.fold_left (fun acc row -> acc + row.(j)) 0 inputs in
    check_int (Printf.sprintf "identity %d survives loss" j) expected sums.(j)
  done;
  check_bool "retransmissions happened" true (r.retransmissions > 0)

let test_secsumshare_reliable_no_loss_no_retransmit () =
  let rng = Rng.create 52 in
  let inputs = random_inputs rng ~m:9 ~n:3 ~max:2 in
  let r =
    Secsumshare.run ~reliability:Secsumshare.default_reliability rng ~inputs ~c:3 ~q:q97
  in
  check_int "no retransmissions on a clean network" 0 r.retransmissions

let test_secsumshare_reliable_across_seeds () =
  (* Determinized stress: several loss seeds, all must converge exactly. *)
  for seed = 1 to 10 do
    let config = { Simnet.default_config with drop_probability = 0.25; seed } in
    let rng = Rng.create (100 + seed) in
    let m = 8 and n = 3 in
    let inputs = random_inputs rng ~m ~n ~max:2 in
    let r =
      Secsumshare.run ~config ~reliability:Secsumshare.default_reliability rng ~inputs ~c:3
        ~q:q97
    in
    let sums = Secsumshare.reconstruct ~q:q97 r.coordinator_shares in
    for j = 0 to n - 1 do
      let expected = Array.fold_left (fun acc row -> acc + row.(j)) 0 inputs in
      check_int (Printf.sprintf "seed %d identity %d" seed j) expected sums.(j)
    done
  done

let test_secsumshare_crashed_provider_fails_fast () =
  (* A crashed provider never contributes: the protocol must fail loudly
     rather than deliver a silently-wrong sum. *)
  let rng = Rng.create 53 in
  let inputs = random_inputs rng ~m:8 ~n:3 ~max:2 in
  let config = { Simnet.default_config with drop_probability = 0.0 } in
  (* Crash node 5 before anything runs by injecting 100% loss toward it via
     a wrapper: simplest faithful injection is a config with loss and no
     reliability; the dedicated crash API is tested at the simnet level, so
     here we emulate a dead provider with certain loss. *)
  ignore config;
  let lossy = { Simnet.default_config with drop_probability = 0.9; seed = 3 } in
  match Secsumshare.run ~config:lossy rng ~inputs ~c:3 ~q:q97 with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ()

let test_secsumshare_validation () =
  let rng = Rng.create 6 in
  Alcotest.check_raises "m < c" (Invalid_argument "Secsumshare.run: need at least c providers")
    (fun () -> ignore (Secsumshare.run rng ~inputs:[| [| 1 |]; [| 0 |] |] ~c:3 ~q:q97));
  Alcotest.check_raises "value out of range"
    (Invalid_argument "Secsumshare.run: provider 0 input out of [0, q)") (fun () ->
      ignore (Secsumshare.run rng ~inputs:[| [| 97 |]; [| 0 |]; [| 0 |] |] ~c:2 ~q:q97))

(* ---------- CountBelow ---------- *)

let test_integer_threshold_exact () =
  let m = 1000 in
  List.iter
    (fun (policy, epsilon) ->
      let t = Countbelow.integer_threshold ~policy ~epsilon ~m in
      if t <= m then begin
        check_bool "t is common" true
          (Eppi.Policy.is_common policy ~sigma:(float_of_int t /. float_of_int m) ~epsilon ~m);
        if t > 0 then
          check_bool "t-1 is not" false
            (Eppi.Policy.is_common policy
               ~sigma:(float_of_int (t - 1) /. float_of_int m)
               ~epsilon ~m)
      end)
    [
      (Eppi.Policy.Basic, 0.5);
      (Eppi.Policy.Basic, 0.9);
      (Eppi.Policy.Inc_exp 0.02, 0.5);
      (Eppi.Policy.Chernoff 0.9, 0.5);
      (Eppi.Policy.Chernoff 0.9, 0.8);
    ]

let test_integer_threshold_eps_zero () =
  check_int "never common" 101 (Countbelow.integer_threshold ~policy:Eppi.Policy.Basic ~epsilon:0.0 ~m:100)

let test_countbelow_classification () =
  let rng = Rng.create 7 in
  let m = 50 in
  let q = Construct.modulus_for m in
  let freqs = [| 0; 10; 45; 25; 50 |] in
  let thresholds = [| 5; 11; 40; 25; 51 |] in
  let shares =
    Array.init 3 (fun _ -> Array.make 5 0)
  in
  Array.iteri
    (fun j f ->
      let s = Eppi_secretshare.Additive.share rng ~q ~c:3 f in
      Array.iteri (fun k v -> shares.(k).(j) <- v) s)
    freqs;
  let r = Countbelow.run rng ~shares ~q ~thresholds in
  Alcotest.(check (array bool)) "commons" [| false; false; true; true; false |] r.common;
  check_int "count" 2 r.n_common;
  (* Frequencies released only for non-common identities. *)
  Alcotest.(check (array (option int)))
    "frequencies"
    [| Some 0; Some 10; None; None; Some 50 |]
    r.frequencies;
  check_bool "positive simulated time" true (r.time > 0.0);
  check_bool "nonzero circuit" true (r.circuit_stats.size > 0)

(* ---------- network-executed GMW ---------- *)

let test_mpcnet_matches_inprocess () =
  let compiled =
    Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.millionaires ~width:8)
  in
  List.iter
    (fun (a, b) ->
      let inputs =
        Eppi_sfdl.Compile.encode_inputs compiled
          [ ("a", Eppi_sfdl.Compile.Dint a); ("b", Eppi_sfdl.Compile.Dint b) ]
      in
      let plain = Eppi_circuit.Circuit.eval compiled.circuit ~inputs in
      let networked = Mpcnet.execute (Rng.create 70) compiled.circuit ~inputs in
      let inprocess = Eppi_mpc.Gmw.execute (Rng.create 71) compiled.circuit ~inputs in
      Alcotest.(check (array bool)) "net = plain" plain networked.outputs;
      Alcotest.(check (array bool)) "net = in-process" inprocess.outputs networked.outputs)
    [ (5, 9); (9, 5); (200, 200); (0, 255) ]

let test_mpcnet_countbelow () =
  let q = 13 in
  let compiled =
    Eppi_sfdl.Compile.compile_source
      (Eppi_sfdl.Programs.count_below ~c:3 ~q ~thresholds:[| 5; 9 |])
  in
  let rng = Rng.create 72 in
  let qm = Modarith.modulus q in
  let freqs = [| 7; 3 |] in
  let shares = Array.map (fun v -> Eppi_secretshare.Additive.share rng ~q:qm ~c:3 v) freqs in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      (List.init 3 (fun k ->
           (Printf.sprintf "s%d" k, Eppi_sfdl.Compile.Dints (Array.map (fun s -> s.(k)) shares))))
  in
  let r = Mpcnet.execute rng compiled.circuit ~inputs in
  match Eppi_sfdl.Compile.lookup_output (Eppi_sfdl.Compile.decode_outputs compiled r.outputs) "common" with
  | Dbools cs -> Alcotest.(check (array bool)) "classification" [| true; false |] cs
  | _ -> Alcotest.fail "bad shape"

let test_mpcnet_round_structure () =
  let compiled =
    Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.millionaires ~width:8)
  in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      [ ("a", Eppi_sfdl.Compile.Dint 1); ("b", Eppi_sfdl.Compile.Dint 2) ]
  in
  let stats = Eppi_circuit.Circuit.stats compiled.circuit in
  let r = Mpcnet.execute (Rng.create 73) compiled.circuit ~inputs in
  check_int "rounds = and depth + output" (stats.and_depth + 1) r.rounds;
  (* Broadcast traffic: p(p-1) messages per round (p = 2 here). *)
  check_int "messages" (r.rounds * 2 * 1) r.net.messages_sent;
  check_bool "emergent time positive" true (r.net.completion_time > 0.0)

let test_mpcnet_time_tracks_cost_model () =
  (* The emergent simulated time and the closed-form estimate must agree
     within an order of magnitude (the model is calibrated, not fitted). *)
  let compiled =
    Eppi_sfdl.Compile.compile_source
      (Eppi_sfdl.Programs.count_below ~c:3 ~q:1031 ~thresholds:(Array.make 4 500))
  in
  let rng = Rng.create 74 in
  let qm = Modarith.modulus 1031 in
  let shares =
    Array.init 4 (fun _ -> Eppi_secretshare.Additive.share rng ~q:qm ~c:3 (Rng.int rng 1031))
  in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      (List.init 3 (fun k ->
           ( Printf.sprintf "s%d" k,
             Eppi_sfdl.Compile.Dints (Array.map (fun s -> s.(k)) shares) )))
  in
  let r = Mpcnet.execute rng compiled.circuit ~inputs in
  let stats = Eppi_circuit.Circuit.stats compiled.circuit in
  let outputs = Array.length (Eppi_circuit.Circuit.outputs compiled.circuit) in
  let estimate = Eppi_mpc.Cost.estimate ~network:Eppi_mpc.Cost.lan ~parties:3 ~outputs stats in
  let ratio = estimate /. r.net.completion_time in
  check_bool
    (Printf.sprintf "estimate %f vs emergent %f (ratio %f)" estimate r.net.completion_time ratio)
    true
    (ratio > 0.1 && ratio < 20.0)

let test_countbelow_simnet_transport () =
  (* The network transport must classify identically to the cost-model
     transport and report an emergent (smaller, setup-free) time. *)
  let rng = Rng.create 80 in
  let m = 20 in
  let q = Construct.modulus_for m in
  let freqs = [| 3; 18; 9 |] in
  let thresholds = [| 5; 10; 20 |] in
  let shares = Array.init 3 (fun _ -> Array.make 3 0) in
  Array.iteri
    (fun j f ->
      let s = Eppi_secretshare.Additive.share rng ~q ~c:3 f in
      Array.iteri (fun k v -> shares.(k).(j) <- v) s)
    freqs;
  let model = Countbelow.run (Rng.create 81) ~shares ~q ~thresholds in
  let networked =
    Countbelow.run ~transport:(`Simnet Simnet.default_config) (Rng.create 82) ~shares ~q
      ~thresholds
  in
  Alcotest.(check (array bool)) "same classification" model.common networked.common;
  Alcotest.(check (array (option int))) "same released frequencies" model.frequencies
    networked.frequencies;
  check_bool "both times positive" true (model.time > 0.0 && networked.time > 0.0)

(* ---------- Pure MPC baseline ---------- *)

let test_purempc_matches_reference () =
  let rng = Rng.create 8 in
  let m = 12 in
  List.iter
    (fun count ->
      let bits = Array.init m (fun i -> i < count) in
      let r = Purempc.run rng ~bits ~epsilon:0.5 ~gamma:0.9 in
      let reference = Purempc.reference_beta ~m ~count ~epsilon:0.5 ~gamma:0.9 in
      if reference < 1.0 then begin
        check_bool
          (Printf.sprintf "count %d: circuit %f vs float %f" count r.beta reference)
          true
          (Float.abs (r.beta -. reference) < 0.05);
        check_bool "not common" false r.common
      end
      else check_bool (Printf.sprintf "count %d common" count) true r.common)
    [ 1; 3; 6; 11 ]

let test_purempc_sigma_zero () =
  (* No member anywhere: division saturates but the identity must not be
     classified common. *)
  let rng = Rng.create 9 in
  let r = Purempc.run rng ~bits:(Array.make 8 false) ~epsilon:0.5 ~gamma:0.9 in
  check_bool "zero frequency not common" false r.common

let test_purempc_circuit_grows_with_m () =
  let s8 = Purempc.stats_for ~m:8 ~identities:1 ~epsilon:0.5 ~gamma:0.9 in
  let s32 = Purempc.stats_for ~m:32 ~identities:1 ~epsilon:0.5 ~gamma:0.9 in
  check_bool "more providers, more gates" true (s32.size > s8.size)

let test_purempc_much_bigger_than_countbelow () =
  (* The whole point of the paper's design: the per-identity pure-MPC
     circuit dwarfs the CountBelow circuit. *)
  let pure = Purempc.stats_for ~m:9 ~identities:1 ~epsilon:0.5 ~gamma:0.9 in
  let thresholds = [| 5 |] in
  let compiled =
    Eppi_sfdl.Compile.compile_source (Eppi_sfdl.Programs.count_below ~c:3 ~q:11 ~thresholds)
  in
  let reduced = Eppi_circuit.Circuit.stats compiled.circuit in
  check_bool
    (Printf.sprintf "pure %d >> reduced %d" pure.and_gates reduced.and_gates)
    true
    (pure.and_gates > 5 * reduced.and_gates)

let test_purempc_time_scales_superlinearly () =
  let t3 = Purempc.estimate_time ~m:3 ~identities:1 ~epsilon:0.5 ~gamma:0.9 () in
  let t9 = Purempc.estimate_time ~m:9 ~identities:1 ~epsilon:0.5 ~gamma:0.9 () in
  check_bool "superlinear growth" true (t9 > 3.0 *. t3)

let test_purempc_identity_scaling () =
  let t1 = Purempc.estimate_time ~m:3 ~identities:1 ~epsilon:0.5 ~gamma:0.9 () in
  let t100 = Purempc.estimate_time ~m:3 ~identities:100 ~epsilon:0.5 ~gamma:0.9 () in
  check_bool "identities scale cost" true (t100 > 50.0 *. t1)

(* ---------- End-to-end distributed construction ---------- *)

let make_matrix ~m ~freqs =
  let membership = Bitmatrix.create ~rows:(Array.length freqs) ~cols:m in
  let rng = Rng.create 999 in
  Array.iteri
    (fun j f ->
      let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
      Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen)
    freqs;
  membership

let test_construct_agrees_with_centralized () =
  let m = 30 in
  let freqs = [| 2; 28; 9; 15; 1 |] in
  let epsilons = [| 0.5; 0.6; 0.3; 0.8; 0.9 |] in
  let membership = make_matrix ~m ~freqs in
  let policy = Eppi.Policy.Chernoff 0.9 in
  let secure = Construct.run (Rng.create 10) ~membership ~epsilons ~policy in
  let reference =
    Eppi.Construct.plan_betas ~policy ~epsilons ~frequencies:freqs ~m (Rng.create 11)
  in
  Alcotest.(check (array bool)) "same common classification" reference.is_common secure.common;
  (* Non-common, non-mixed betas must agree exactly (same released
     frequency, same float computation). *)
  Array.iteri
    (fun j common ->
      if (not common) && (not secure.mixed.(j)) && not reference.is_mixed.(j) then
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "beta %d" j)
          reference.final.(j) secure.betas.(j))
    secure.common

let test_construct_recall () =
  let m = 25 in
  let membership = make_matrix ~m ~freqs:[| 3; 12; 24 |] in
  let r =
    Construct.run (Rng.create 12) ~membership ~epsilons:[| 0.5; 0.5; 0.5 |]
      ~policy:Eppi.Policy.Basic
  in
  for j = 0 to 2 do
    check_bool (Printf.sprintf "recall %d" j) true
      (Eppi.Index.recall_ok ~membership r.index ~owner:j)
  done

let test_construct_metrics_populated () =
  let m = 20 in
  let membership = make_matrix ~m ~freqs:[| 5; 10 |] in
  let r =
    Construct.run (Rng.create 13) ~membership ~epsilons:[| 0.5; 0.5 |]
      ~policy:(Eppi.Policy.Chernoff 0.9)
  in
  let mt = r.metrics in
  check_bool "secsumshare time" true (mt.secsumshare_time > 0.0);
  check_bool "mpc time" true (mt.mpc_time > 0.0);
  check_bool "total covers parts" true
    (mt.total_time >= mt.secsumshare_time +. mt.mpc_time);
  check_bool "messages counted" true (mt.messages > 0);
  check_bool "bytes counted" true (mt.bytes > 0);
  check_bool "circuit stats" true (mt.circuit_stats.size > 0)

let test_construct_common_handling_end_to_end () =
  (* One ubiquitous identity: it must be flagged common and published
     everywhere; lambda must be positive so decoys are possible. *)
  let m = 20 in
  let membership = make_matrix ~m ~freqs:(Array.append [| 20 |] (Array.make 30 1)) in
  let epsilons = Array.make 31 0.5 in
  let r = Construct.run (Rng.create 14) ~membership ~epsilons ~policy:Eppi.Policy.Basic in
  check_bool "flagged common" true r.common.(0);
  check_int "published everywhere" m (Eppi.Index.query_count r.index ~owner:0);
  check_bool "lambda positive" true (r.lambda > 0.0)

let test_construct_epsilon_grid_consistency () =
  (* The protocol's integer thresholds must classify exactly like the
     centralized path across an epsilon grid. *)
  let m = 40 in
  List.iter
    (fun epsilon ->
      List.iter
        (fun f ->
          let membership = make_matrix ~m ~freqs:[| f |] in
          let secure =
            Construct.run (Rng.create 15) ~membership ~epsilons:[| epsilon |]
              ~policy:Eppi.Policy.Basic
          in
          let expected =
            Eppi.Policy.is_common Eppi.Policy.Basic
              ~sigma:(float_of_int f /. float_of_int m)
              ~epsilon ~m
          in
          check_bool (Printf.sprintf "eps %.2f freq %d" epsilon f) expected secure.common.(0))
        [ 1; 10; 20; 30; 39 ])
    [ 0.2; 0.5; 0.8 ]

let test_beta_phase_estimate_monotone () =
  let t_small = Construct.beta_phase_time_estimate ~m:10 ~identities:5 ~c:3 () in
  let t_many_ids = Construct.beta_phase_time_estimate ~m:10 ~identities:50 ~c:3 () in
  check_bool "identities increase cost" true (t_many_ids > t_small);
  check_bool "positive" true (t_small > 0.0)

(* ---------- Fault tolerance: reliable transport + degradation ---------- *)

let drop_plan ?(seed = 21) drop =
  { Simnet.no_faults with fault_seed = seed; default_link = { Simnet.perfect_link with drop } }

let countbelow_fixture seed =
  (* A small count_below instance shared by the mpcnet reliability tests. *)
  let q = 13 in
  let compiled =
    Eppi_sfdl.Compile.compile_source
      (Eppi_sfdl.Programs.count_below ~c:3 ~q ~thresholds:[| 5; 9 |])
  in
  let rng = Rng.create seed in
  let qm = Modarith.modulus q in
  let shares =
    Array.map (fun v -> Eppi_secretshare.Additive.share rng ~q:qm ~c:3 v) [| 7; 3 |]
  in
  let inputs =
    Eppi_sfdl.Compile.encode_inputs compiled
      (List.init 3 (fun k ->
           (Printf.sprintf "s%d" k, Eppi_sfdl.Compile.Dints (Array.map (fun s -> s.(k)) shares))))
  in
  (compiled, inputs, rng)

let test_mpcnet_reliable_matches_lossless () =
  (* 10% loss on every link: the run must complete with outputs bit-identical
     to the lossless engine, paid for in retransmissions. *)
  let compiled, inputs, rng = countbelow_fixture 72 in
  let lossless = Mpcnet.execute rng compiled.circuit ~inputs in
  let _, inputs2, rng2 = countbelow_fixture 72 in
  let r = Mpcnet.execute_reliable ~plan:(drop_plan 0.1) rng2 compiled.circuit ~inputs:inputs2 in
  (match r.outcome with
  | Mpcnet.Outputs outs ->
      Alcotest.(check (array bool)) "bit-identical outputs" lossless.outputs outs
  | Mpcnet.Parties_failed dead ->
      Alcotest.failf "stalled, blamed %s" (String.concat "," (List.map string_of_int dead)));
  check_bool "paid in retransmissions" true (r.retransmissions > 0);
  check_bool "some rounds retried" true (r.retried_rounds > 0)

let test_mpcnet_reliable_crash_detected () =
  let compiled, inputs, rng = countbelow_fixture 72 in
  let plan = { Simnet.no_faults with crashes = [ (0.001, 1) ] } in
  let r = Mpcnet.execute_reliable ~plan rng compiled.circuit ~inputs in
  match r.outcome with
  | Mpcnet.Outputs _ -> Alcotest.fail "completed despite a crashed party"
  | Mpcnet.Parties_failed dead -> Alcotest.(check (list int)) "blames exactly party 1" [ 1 ] dead

let test_mpcnet_reliable_duplicates_suppressed () =
  let compiled, inputs, rng = countbelow_fixture 72 in
  let lossless = Mpcnet.execute rng compiled.circuit ~inputs in
  let _, inputs2, rng2 = countbelow_fixture 72 in
  let plan =
    { Simnet.no_faults with
      fault_seed = 5;
      default_link = { Simnet.perfect_link with duplicate = 0.5; reorder = 0.3 };
    }
  in
  let r = Mpcnet.execute_reliable ~plan rng2 compiled.circuit ~inputs:inputs2 in
  (match r.outcome with
  | Mpcnet.Outputs outs -> Alcotest.(check (array bool)) "unperturbed" lossless.outputs outs
  | Mpcnet.Parties_failed _ -> Alcotest.fail "duplication must not stall the run");
  check_bool "duplicates suppressed" true (r.duplicates > 0)

let test_mpcnet_reliable_deterministic () =
  (* Same fault-plan seed => identical traffic, retransmission schedule and
     outputs, event for event. *)
  let go () =
    let compiled, inputs, rng = countbelow_fixture 72 in
    Mpcnet.execute_reliable ~plan:(drop_plan ~seed:9 0.15) rng compiled.circuit ~inputs
  in
  let a = go () and b = go () in
  check_int "same retransmissions" a.retransmissions b.retransmissions;
  check_int "same duplicates" a.duplicates b.duplicates;
  check_int "same messages" a.net.messages_sent b.net.messages_sent;
  check_int "same drops" a.net.messages_dropped b.net.messages_dropped;
  Alcotest.(check (float 0.0)) "same protocol time" a.protocol_time b.protocol_time;
  match (a.outcome, b.outcome) with
  | Mpcnet.Outputs oa, Mpcnet.Outputs ob -> Alcotest.(check (array bool)) "same outputs" oa ob
  | _ -> Alcotest.fail "expected both runs to complete"

let test_secsumshare_ft_complete_under_loss () =
  let rng = Rng.create 31 in
  let m = 10 and n = 6 in
  let inputs = random_inputs rng ~m ~n ~max:2 in
  let r = Secsumshare.run_ft ~plan:(drop_plan 0.1) rng ~inputs ~c:3 ~q:q97 in
  match r.shares with
  | None -> Alcotest.fail "10% loss must be survivable"
  | Some shares ->
      let sums = Secsumshare.reconstruct ~q:q97 shares in
      for j = 0 to n - 1 do
        let expected = Array.fold_left (fun acc row -> acc + row.(j)) 0 inputs in
        check_int (Printf.sprintf "identity %d" j) expected sums.(j)
      done;
      check_bool "retransmitted" true (r.report.retransmissions > 0);
      Alcotest.(check (list int)) "no suspects" [] r.report.suspects

let test_secsumshare_ft_crash_blames_only_the_dead () =
  (* Provider 4 dead from the start: its ring successors (5 and 6 at c = 3)
     stall for lack of its shares.  The detector must blame exactly 4 and
     must NOT suspect the stalled victims. *)
  let rng = Rng.create 32 in
  let m = 8 and n = 4 in
  let inputs = random_inputs rng ~m ~n ~max:2 in
  let plan = { Simnet.no_faults with crashes = [ (0.0, 4) ] } in
  let r = Secsumshare.run_ft ~plan rng ~inputs ~c:3 ~q:q97 in
  check_bool "incomplete" true (r.shares = None);
  Alcotest.(check (list int)) "blames exactly provider 4" [ 4 ] r.report.suspects;
  Alcotest.(check (list int)) "successors stalled, not suspected" [ 5; 6 ] r.report.stalled

let ft_epsilons = [| 0.5; 0.6; 0.3; 0.8; 0.9 |]
let ft_freqs = [| 2; 28; 9; 15; 1 |]

let test_construct_ft_clean_is_complete () =
  let m = 30 in
  let membership = make_matrix ~m ~freqs:ft_freqs in
  let policy = Eppi.Policy.Chernoff 0.9 in
  match Construct.run_ft (Rng.create 40) ~membership ~epsilons:ft_epsilons ~policy with
  | Construct.Degraded _ -> Alcotest.fail "no faults, no degradation"
  | Construct.Failed (reason, _) -> Alcotest.failf "failed: %s" reason
  | Construct.Complete (r, rep) ->
      check_int "one attempt" 1 rep.attempts;
      Alcotest.(check (list int)) "nobody excluded" [] rep.excluded;
      check_int "all providers" m (Eppi.Index.providers r.index);
      (* Classification agrees with the centralized reference. *)
      let reference =
        Eppi.Construct.plan_betas ~policy ~epsilons:ft_epsilons ~frequencies:ft_freqs ~m
          (Rng.create 41)
      in
      Alcotest.(check (array bool)) "same common classification" reference.is_common r.common

let test_construct_ft_loss_bit_identical () =
  (* The acceptance invariant: 10% loss in both phases, same construction
     seed => the published index is bit-identical to the fault-free run. *)
  let m = 12 in
  let membership = make_matrix ~m ~freqs:[| 2; 10; 5 |] in
  let epsilons = [| 0.5; 0.4; 0.7 |] in
  let policy = Eppi.Policy.Basic in
  let clean = Construct.run_ft (Rng.create 42) ~membership ~epsilons ~policy in
  let lossy =
    Construct.run_ft ~sss_plan:(drop_plan 0.1) ~mpc_plan:(drop_plan ~seed:23 0.1)
      (Rng.create 42) ~membership ~epsilons ~policy
  in
  match (clean, lossy) with
  | Construct.Complete (a, _), Construct.Complete (b, rep) ->
      check_bool "loss was injected and survived"
        true (rep.sss_retransmissions > 0 || rep.mpc_retransmissions > 0);
      Alcotest.(check (array (float 0.0))) "same betas" a.betas b.betas;
      check_bool "bit-identical index" true
        (Bitmatrix.equal (Eppi.Index.matrix a.index) (Eppi.Index.matrix b.index))
  | _ -> Alcotest.fail "both runs must complete"

let test_construct_ft_crash_degrades () =
  (* Provider 7 crashes before sending anything: the construction must
     return Degraded, exclude exactly 7, and republish over the 9
     survivors with thresholds recomputed for m' = 9. *)
  let m = 10 in
  let membership = make_matrix ~m ~freqs:[| 3; 9; 6 |] in
  let epsilons = [| 0.5; 0.4; 0.7 |] in
  let policy = Eppi.Policy.Basic in
  let sss_plan = { Simnet.no_faults with crashes = [ (0.0, 7) ] } in
  match Construct.run_ft ~sss_plan (Rng.create 43) ~membership ~epsilons ~policy with
  | Construct.Complete _ -> Alcotest.fail "a crash must degrade the outcome"
  | Construct.Failed (reason, _) -> Alcotest.failf "failed: %s" reason
  | Construct.Degraded (r, rep) ->
      Alcotest.(check (list int)) "excludes exactly provider 7" [ 7 ] rep.excluded;
      check_int "two attempts" 2 rep.attempts;
      check_int "index spans survivors" (m - 1) (Eppi.Index.providers r.index);
      (* The survivor-set classification matches the centralized reference
         over m' = 9 with the survivors' frequencies. *)
      let m' = m - 1 in
      let freqs' =
        Array.init 3 (fun j ->
            Bitmatrix.row_count membership j
            - if Bitmatrix.get membership ~row:j ~col:7 then 1 else 0)
      in
      Array.iteri
        (fun j expected_f ->
          let expected =
            Eppi.Policy.is_common policy
              ~sigma:(float_of_int expected_f /. float_of_int m')
              ~epsilon:epsilons.(j) ~m:m'
          in
          check_bool (Printf.sprintf "common %d over survivors" j) expected r.common.(j))
        freqs';
      (* Recall against the survivor submatrix: every surviving true
         positive is published. *)
      let sub = Bitmatrix.create ~rows:3 ~cols:m' in
      List.iteri
        (fun k p ->
          for j = 0 to 2 do
            if Bitmatrix.get membership ~row:j ~col:p then Bitmatrix.set sub ~row:j ~col:k true
          done)
        rep.survivors;
      for j = 0 to 2 do
        check_bool (Printf.sprintf "recall %d" j) true
          (Eppi.Index.recall_ok ~membership:sub r.index ~owner:j)
      done

let test_construct_ft_mpc_crash_degrades () =
  (* A coordinator dies mid-GMW: the failure detector catches it, the
     retry excludes it, and the remaining providers finish. *)
  let m = 10 in
  let membership = make_matrix ~m ~freqs:[| 3; 9 |] in
  let epsilons = [| 0.5; 0.4 |] in
  let mpc_plan = { Simnet.no_faults with crashes = [ (0.002, 1) ] } in
  match
    Construct.run_ft ~mpc_plan (Rng.create 44) ~membership ~epsilons ~policy:Eppi.Policy.Basic
  with
  | Construct.Complete _ -> Alcotest.fail "a coordinator crash must degrade the outcome"
  | Construct.Failed (reason, _) -> Alcotest.failf "failed: %s" reason
  | Construct.Degraded (r, rep) ->
      Alcotest.(check (list int)) "excludes the dead coordinator" [ 1 ] rep.excluded;
      check_int "index spans survivors" (m - 1) (Eppi.Index.providers r.index)

let test_construct_ft_too_few_survivors_fails () =
  let m = 4 in
  let membership = make_matrix ~m ~freqs:[| 2; 3 |] in
  let epsilons = [| 0.5; 0.5 |] in
  let sss_plan = { Simnet.no_faults with crashes = [ (0.0, 0); (0.0, 2) ] } in
  match
    Construct.run_ft ~sss_plan (Rng.create 45) ~membership ~epsilons ~policy:Eppi.Policy.Basic
  with
  | Construct.Failed (_, rep) ->
      check_bool "both dead providers excluded" true
        (List.mem 0 rep.excluded && List.mem 2 rep.excluded)
  | _ -> Alcotest.fail "2 of 4 providers dead cannot sustain c = 3"

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"secure and centralized paths classify identically" ~count:40
      (triple (int_range 1 1000) (int_range 5 25) (int_range 1 8))
      (fun (seed, m, n) ->
        let rng = Rng.create seed in
        let membership = Bitmatrix.create ~rows:n ~cols:m in
        for j = 0 to n - 1 do
          let f = 1 + Rng.int rng m in
          let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
          Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
        done;
        let epsilons = Array.init n (fun _ -> Rng.float rng 1.0) in
        let policy = Eppi.Policy.Basic in
        let secure =
          Construct.run (Rng.create (seed + 1)) ~membership ~epsilons ~policy
        in
        let expected =
          Array.init n (fun j ->
              Eppi.Policy.is_common policy
                ~sigma:(float_of_int (Bitmatrix.row_count membership j) /. float_of_int m)
                ~epsilon:epsilons.(j) ~m)
        in
        secure.common = expected);
    Test.make ~name:"secure path preserves recall" ~count:30
      (pair (int_range 1 1000) (int_range 5 20))
      (fun (seed, m) ->
        let rng = Rng.create seed in
        let n = 5 in
        let membership = Bitmatrix.create ~rows:n ~cols:m in
        for j = 0 to n - 1 do
          let f = 1 + Rng.int rng m in
          let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
          Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
        done;
        let epsilons = Array.make n 0.5 in
        let r =
          Construct.run (Rng.create (seed * 3)) ~membership ~epsilons
            ~policy:(Eppi.Policy.Chernoff 0.9)
        in
        List.for_all
          (fun j -> Eppi.Index.recall_ok ~membership r.index ~owner:j)
          (List.init n Fun.id));
  ]

let () =
  Alcotest.run "protocol"
    [
      ( "secsumshare",
        [
          Alcotest.test_case "sums" `Quick test_secsumshare_sums;
          Alcotest.test_case "figure 3 example" `Quick test_secsumshare_figure3_scale;
          Alcotest.test_case "share ranges" `Quick test_secsumshare_share_ranges;
          Alcotest.test_case "message count" `Quick test_secsumshare_message_count;
          Alcotest.test_case "constant rounds scaling" `Quick
            test_secsumshare_constant_rounds_scaling;
          Alcotest.test_case "coordinator shares look random" `Quick
            test_secsumshare_coordinator_shares_look_random;
          Alcotest.test_case "lossy network fails fast" `Quick
            test_secsumshare_lossy_fails_fast;
          Alcotest.test_case "reliable over lossy network" `Quick
            test_secsumshare_reliable_on_lossy_network;
          Alcotest.test_case "no loss, no retransmit" `Quick
            test_secsumshare_reliable_no_loss_no_retransmit;
          Alcotest.test_case "reliable across seeds" `Quick
            test_secsumshare_reliable_across_seeds;
          Alcotest.test_case "dead provider fails fast" `Quick
            test_secsumshare_crashed_provider_fails_fast;
          Alcotest.test_case "validation" `Quick test_secsumshare_validation;
        ] );
      ( "countbelow",
        [
          Alcotest.test_case "integer threshold exact" `Quick test_integer_threshold_exact;
          Alcotest.test_case "threshold at eps 0" `Quick test_integer_threshold_eps_zero;
          Alcotest.test_case "classification" `Quick test_countbelow_classification;
          Alcotest.test_case "simnet transport" `Quick test_countbelow_simnet_transport;
        ] );
      ( "mpcnet",
        [
          Alcotest.test_case "matches in-process engine" `Quick test_mpcnet_matches_inprocess;
          Alcotest.test_case "count_below over the network" `Quick test_mpcnet_countbelow;
          Alcotest.test_case "round structure" `Quick test_mpcnet_round_structure;
          Alcotest.test_case "time tracks cost model" `Quick test_mpcnet_time_tracks_cost_model;
        ] );
      ( "purempc",
        [
          Alcotest.test_case "matches float reference" `Quick test_purempc_matches_reference;
          Alcotest.test_case "sigma zero" `Quick test_purempc_sigma_zero;
          Alcotest.test_case "circuit grows with m" `Quick test_purempc_circuit_grows_with_m;
          Alcotest.test_case "dwarfs countbelow" `Quick test_purempc_much_bigger_than_countbelow;
          Alcotest.test_case "superlinear time" `Quick test_purempc_time_scales_superlinearly;
          Alcotest.test_case "identity scaling" `Quick test_purempc_identity_scaling;
        ] );
      ("properties", Qcheck_seed.to_alcotest ~seed:56442 qcheck_tests);
      ( "construct",
        [
          Alcotest.test_case "agrees with centralized" `Quick
            test_construct_agrees_with_centralized;
          Alcotest.test_case "recall" `Quick test_construct_recall;
          Alcotest.test_case "metrics populated" `Quick test_construct_metrics_populated;
          Alcotest.test_case "common handling end to end" `Quick
            test_construct_common_handling_end_to_end;
          Alcotest.test_case "epsilon grid consistency" `Quick
            test_construct_epsilon_grid_consistency;
          Alcotest.test_case "phase estimate monotone" `Quick test_beta_phase_estimate_monotone;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "mpcnet reliable matches lossless at 10% drop" `Quick
            test_mpcnet_reliable_matches_lossless;
          Alcotest.test_case "mpcnet detects a crashed party" `Quick
            test_mpcnet_reliable_crash_detected;
          Alcotest.test_case "mpcnet suppresses duplicates" `Quick
            test_mpcnet_reliable_duplicates_suppressed;
          Alcotest.test_case "mpcnet retransmit schedule deterministic" `Quick
            test_mpcnet_reliable_deterministic;
          Alcotest.test_case "secsumshare ft survives loss" `Quick
            test_secsumshare_ft_complete_under_loss;
          Alcotest.test_case "secsumshare ft blames only the dead" `Quick
            test_secsumshare_ft_crash_blames_only_the_dead;
          Alcotest.test_case "construct ft clean run is Complete" `Quick
            test_construct_ft_clean_is_complete;
          Alcotest.test_case "construct ft loss is bit-identical" `Quick
            test_construct_ft_loss_bit_identical;
          Alcotest.test_case "construct ft crash degrades" `Quick
            test_construct_ft_crash_degrades;
          Alcotest.test_case "construct ft coordinator crash degrades" `Quick
            test_construct_ft_mpc_crash_degrades;
          Alcotest.test_case "construct ft too few survivors fails" `Quick
            test_construct_ft_too_few_survivors_fails;
        ] );
    ]
