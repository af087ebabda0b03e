(* Tests for the ε-PPI core: β policies (Eqs. 3-5), identity mixing
   (Eqs. 6-7), randomized publication (Eq. 2), the privacy metrics, the
   attacks, and the centralized construction's end-to-end guarantees. *)

open Eppi_prelude
open Eppi

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_close ?(tol = 1e-9) name a b =
  check_bool (Printf.sprintf "%s: |%g - %g| <= %g" name a b tol) true (Float.abs (a -. b) <= tol)

(* ---------- Policy ---------- *)

let test_beta_basic_formula () =
  (* Eq. 3 by hand: sigma = 0.1, eps = 0.5 -> 1/((10-1)(2-1)) = 1/9. *)
  check_close "eq3 value" (1.0 /. 9.0) (Policy.beta_basic ~sigma:0.1 ~epsilon:0.5);
  (* sigma = 0.5, eps = 0.8 -> 1/((2-1)(1.25-1)) = 4. *)
  check_close "eq3 common case" 4.0 (Policy.beta_basic ~sigma:0.5 ~epsilon:0.8)

let test_beta_basic_edges () =
  check_close "eps 0 means no noise" 0.0 (Policy.beta_basic ~sigma:0.3 ~epsilon:0.0);
  check_close "sigma 0 means no noise needed" 0.0 (Policy.beta_basic ~sigma:0.0 ~epsilon:0.7);
  check_bool "sigma 1 diverges" true (Policy.beta_basic ~sigma:1.0 ~epsilon:0.5 = infinity);
  check_bool "eps 1 diverges" true (Policy.beta_basic ~sigma:0.5 ~epsilon:1.0 = infinity);
  Alcotest.check_raises "sigma out of range" (Invalid_argument "Policy: sigma out of [0, 1]")
    (fun () -> ignore (Policy.beta_basic ~sigma:1.5 ~epsilon:0.5))

let test_beta_policies_ordering () =
  (* Chernoff and inc-exp both dominate basic on any non-trivial point. *)
  let sigma = 0.05 and epsilon = 0.5 and m = 10_000 in
  let bb = Policy.beta Policy.Basic ~sigma ~epsilon ~m in
  let bd = Policy.beta (Policy.Inc_exp 0.02) ~sigma ~epsilon ~m in
  let bc = Policy.beta (Policy.Chernoff 0.9) ~sigma ~epsilon ~m in
  check_bool "basic positive" true (bb > 0.0);
  check_close "inc-exp adds delta" (bb +. 0.02) bd;
  check_bool "chernoff above basic" true (bc > bb)

let test_beta_chernoff_formula () =
  (* Spot-check Eq. 5 against a hand-computed value. *)
  let sigma = 0.1 and epsilon = 0.5 and m = 1000 and gamma = 0.9 in
  let bb = 1.0 /. 9.0 in
  let g = log (1.0 /. 0.1) /. (0.9 *. 1000.0) in
  let expected = bb +. g +. sqrt ((g *. g) +. (2.0 *. bb *. g)) in
  check_close ~tol:1e-12 "eq5" expected
    (Policy.beta (Policy.Chernoff gamma) ~sigma ~epsilon ~m)

let test_beta_monotone_in_sigma () =
  let m = 1000 in
  List.iter
    (fun policy ->
      let prev = ref (-1.0) in
      for f = 0 to 20 do
        let sigma = float_of_int f /. 20.0 in
        let b = Policy.beta policy ~sigma ~epsilon:0.6 ~m in
        check_bool (Printf.sprintf "%s nondecreasing at %f" (Policy.name policy) sigma) true
          (b >= !prev);
        prev := b
      done)
    [ Policy.Basic; Policy.Inc_exp 0.01; Policy.Chernoff 0.9 ]

let test_beta_monotone_in_epsilon () =
  let m = 1000 in
  let prev = ref (-1.0) in
  for e = 0 to 19 do
    let epsilon = float_of_int e /. 20.0 in
    let b = Policy.beta Policy.Basic ~sigma:0.1 ~epsilon ~m in
    check_bool "higher privacy needs more noise" true (b >= !prev);
    prev := b
  done

let test_sigma_threshold_basic_closed_form () =
  List.iter
    (fun eps ->
      check_close ~tol:1e-9
        (Printf.sprintf "basic threshold at eps %f" eps)
        (1.0 -. eps)
        (Policy.sigma_threshold Policy.Basic ~epsilon:eps ~m:1000))
    [ 0.1; 0.5; 0.8 ]

let test_sigma_threshold_consistent_with_beta () =
  let m = 1000 in
  List.iter
    (fun policy ->
      List.iter
        (fun epsilon ->
          let thr = Policy.sigma_threshold policy ~epsilon ~m in
          if thr > 0.001 && thr < 0.999 then begin
            check_bool "just below not common" false
              (Policy.is_common policy ~sigma:(thr -. 0.001) ~epsilon ~m);
            check_bool "just above common" true
              (Policy.is_common policy ~sigma:(thr +. 0.001) ~epsilon ~m)
          end)
        [ 0.2; 0.5; 0.9 ])
    [ Policy.Basic; Policy.Inc_exp 0.05; Policy.Chernoff 0.9 ]

let test_sigma_threshold_eps_zero () =
  check_close "never common" 1.0 (Policy.sigma_threshold Policy.Basic ~epsilon:0.0 ~m:100)

let test_analytic_success_bound () =
  let sigma = 0.05 and epsilon = 0.5 and m = 10_000 in
  let bc = Policy.beta (Policy.Chernoff 0.9) ~sigma ~epsilon ~m in
  let bound = Policy.analytic_success_bound ~beta:bc ~sigma ~epsilon ~m in
  (* Theorem 3.1: the Chernoff beta guarantees at least gamma. *)
  check_bool "bound at least gamma" true (bound >= 0.9 -. 1e-9);
  check_close "below basic gives 0" 0.0
    (Policy.analytic_success_bound ~beta:0.001 ~sigma ~epsilon ~m);
  check_close "beta 1 trivially succeeds" 1.0
    (Policy.analytic_success_bound ~beta:1.0 ~sigma ~epsilon ~m)

let test_policy_names () =
  Alcotest.(check string) "basic" "basic" (Policy.name Policy.Basic);
  Alcotest.(check string) "inc-exp" "inc-exp(0.02)" (Policy.name (Policy.Inc_exp 0.02));
  Alcotest.(check string) "chernoff" "chernoff(0.90)" (Policy.name (Policy.Chernoff 0.9))

(* ---------- Mixing ---------- *)

let test_lambda_formula () =
  (* Eq. 7: xi=0.5, C=10, n=110 -> lambda >= 1 * 10/100 = 0.1. *)
  check_close "eq7" 0.1 (Mixing.lambda ~xi:0.5 ~n_common:10 ~n_total:110);
  check_close "no commons no mixing" 0.0 (Mixing.lambda ~xi:0.9 ~n_common:0 ~n_total:100);
  check_close "all common saturates" 1.0 (Mixing.lambda ~xi:0.5 ~n_common:10 ~n_total:10);
  check_close "clamped at 1" 1.0 (Mixing.lambda ~xi:0.99 ~n_common:50 ~n_total:51)

let test_lambda_validation () =
  Alcotest.check_raises "xi = 1 rejected" (Invalid_argument "Mixing.lambda: xi out of [0, 1)")
    (fun () -> ignore (Mixing.lambda ~xi:1.0 ~n_common:1 ~n_total:2));
  Alcotest.check_raises "bad counts" (Invalid_argument "Mixing.lambda: bad counts") (fun () ->
      ignore (Mixing.lambda ~xi:0.5 ~n_common:5 ~n_total:2))

let test_lambda_achieves_decoy_fraction () =
  (* The defining property: a lambda from Eq. 7 yields an expected decoy
     fraction of at least xi. *)
  List.iter
    (fun (xi, n_common, n_total) ->
      let lambda = Mixing.lambda ~xi ~n_common ~n_total in
      if lambda < 1.0 then begin
        let fraction = Mixing.decoy_fraction ~lambda ~n_common ~n_total in
        check_bool
          (Printf.sprintf "decoys >= xi (%f, %d, %d)" xi n_common n_total)
          true
          (fraction >= xi -. 1e-9)
      end)
    [ (0.5, 10, 1000); (0.8, 3, 500); (0.2, 50, 10_000); (0.9, 1, 100) ]

let test_select_decoys_modes () =
  let rng = Rng.create 55 in
  let candidates = Array.init 100 Fun.id in
  (* Exact mode: exactly ceil(lambda * n) decoys, every time. *)
  for _ = 1 to 20 do
    let mask = Mixing.select_decoys rng ~mode:Mixing.Exact_count ~lambda:0.13 ~candidates in
    let count = Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 mask in
    check_int "exactly ceil(13)" 13 count
  done;
  (* Bernoulli mode: right rate on average. *)
  let total = ref 0 in
  for _ = 1 to 300 do
    let mask = Mixing.select_decoys rng ~mode:Mixing.Bernoulli ~lambda:0.13 ~candidates in
    total := !total + Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 mask
  done;
  check_close ~tol:1.5 "bernoulli mean" 13.0 (float_of_int !total /. 300.0);
  (* Lambda 1 saturates both. *)
  let all = Mixing.select_decoys rng ~mode:Mixing.Exact_count ~lambda:1.0 ~candidates in
  check_bool "lambda 1 mixes everyone" true (Array.for_all Fun.id all)

let make_matrix' ~m ~freqs =
  let membership = Bitmatrix.create ~rows:(Array.length freqs) ~cols:m in
  let rng = Rng.create 4321 in
  Array.iteri
    (fun j f ->
      let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
      Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen)
    freqs;
  membership

let test_construct_exact_count_mixing () =
  (* With exact-count mixing the decoy fraction bound holds on every draw. *)
  let m = 100 in
  let membership = make_matrix' ~m ~freqs:(Array.append [| 100 |] (Array.make 199 1)) in
  let epsilons = Array.make 200 0.6 in
  for seed = 1 to 10 do
    let r =
      Construct.run ~mixing:Mixing.Exact_count (Rng.create seed) ~membership ~epsilons
        ~policy:Policy.Basic
    in
    let decoys = Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 r.mixed in
    let fraction = float_of_int decoys /. float_of_int (decoys + 1) in
    check_bool
      (Printf.sprintf "seed %d: decoy fraction %f >= xi" seed fraction)
      true
      (fraction >= r.xi -. 1e-9)
  done

let test_mix_rate () =
  let rng = Rng.create 21 in
  let hits = ref 0 in
  for _ = 1 to 50_000 do
    if Mixing.mix rng ~lambda:0.25 then incr hits
  done;
  check_close ~tol:0.01 "mixing rate" 0.25 (float_of_int !hits /. 50_000.0)

(* ---------- Publish ---------- *)

let row_of_indices m idxs = Bitvec.of_index_list m idxs

let test_publish_truthful () =
  (* 1 -> 1 always: every true positive survives at any beta. *)
  let rng = Rng.create 22 in
  let row = row_of_indices 100 [ 3; 50; 99 ] in
  List.iter
    (fun beta ->
      let out = Publish.publish_row rng ~beta row in
      List.iter
        (fun p -> check_bool (Printf.sprintf "beta %f keeps %d" beta p) true (Bitvec.get out p))
        [ 3; 50; 99 ])
    [ 0.0; 0.3; 1.0 ]

let test_publish_beta_zero_exact () =
  let rng = Rng.create 23 in
  let row = row_of_indices 50 [ 1; 2 ] in
  check_bool "no noise at beta 0" true (Bitvec.equal row (Publish.publish_row rng ~beta:0.0 row))

let test_publish_beta_one_full () =
  let rng = Rng.create 24 in
  let row = row_of_indices 50 [ 1 ] in
  check_int "all providers at beta 1" 50 (Bitvec.count (Publish.publish_row rng ~beta:1.0 row))

let test_publish_noise_rate () =
  let rng = Rng.create 25 in
  let m = 2000 in
  let row = row_of_indices m [ 0 ] in
  let out = Publish.publish_row rng ~beta:0.2 row in
  let noise = Bitvec.count out - 1 in
  let expected = 0.2 *. float_of_int (m - 1) in
  check_bool "noise near beta * negatives" true
    (Float.abs (float_of_int noise -. expected) < 5.0 *. sqrt expected)

let test_publish_matrix_per_row_betas () =
  let rng = Rng.create 26 in
  let membership = Bitmatrix.create ~rows:2 ~cols:100 in
  Bitmatrix.set membership ~row:0 ~col:0 true;
  Bitmatrix.set membership ~row:1 ~col:0 true;
  let published = Publish.publish_matrix rng ~betas:[| 0.0; 1.0 |] membership in
  check_int "row 0 untouched" 1 (Bitmatrix.row_count published 0);
  check_int "row 1 full" 100 (Bitmatrix.row_count published 1);
  Alcotest.check_raises "betas length" (Invalid_argument "Publish.publish_matrix: betas length mismatch")
    (fun () -> ignore (Publish.publish_matrix rng ~betas:[| 0.1 |] membership))

let test_publish_with_floors () =
  let rng = Rng.create 57 in
  let m = 1000 in
  let membership = Bitmatrix.create ~rows:2 ~cols:m in
  Bitmatrix.set membership ~row:0 ~col:0 true;
  Bitmatrix.set membership ~row:1 ~col:1 true;
  (* Providers 0..99 are sensitive with floor 0.9; betas are tiny. *)
  let floors = Array.init m (fun p -> if p < 100 then 0.9 else 0.0) in
  let published =
    Publish.publish_matrix_with_floors rng ~betas:[| 0.01; 0.01 |] ~floors membership
  in
  (* Truthfulness holds. *)
  check_bool "true positive kept" true (Bitmatrix.get published ~row:0 ~col:0);
  (* Sensitive columns carry ~90% noise; others ~1%. *)
  let count_in row lo hi =
    let acc = ref 0 in
    for p = lo to hi do
      if Bitmatrix.get published ~row ~col:p then incr acc
    done;
    !acc
  in
  let sensitive = count_in 0 1 99 in
  let normal = count_in 0 100 999 in
  check_bool (Printf.sprintf "sensitive noisy (%d/99)" sensitive) true (sensitive > 75);
  check_bool (Printf.sprintf "normal quiet (%d/900)" normal) true (normal < 30);
  Alcotest.check_raises "bad floor"
    (Invalid_argument "Publish.publish_matrix_with_floors: floor out of [0, 1]") (fun () ->
      ignore
        (Publish.publish_matrix_with_floors rng ~betas:[| 0.1; 0.1 |]
           ~floors:(Array.make m 1.5) membership))

let test_construct_with_floors_keeps_guarantee () =
  (* Floors only add noise: fp rates still clear epsilon at the Chernoff
     ratio. *)
  let m = 1000 in
  let membership = make_matrix' ~m ~freqs:(Array.make 50 10) in
  let epsilons = Array.make 50 0.5 in
  let floors = Array.init m (fun p -> if p mod 10 = 0 then 0.5 else 0.0) in
  let r =
    Construct.run ~provider_floors:floors (Rng.create 58) ~membership ~epsilons
      ~policy:(Policy.Chernoff 0.9)
  in
  let ratio =
    Metrics.success_ratio ~membership ~published:(Index.matrix r.index) ~epsilons
  in
  check_bool (Printf.sprintf "ratio %f >= 0.9" ratio) true (ratio >= 0.9);
  for j = 0 to 49 do
    check_bool "recall" true (Index.recall_ok ~membership r.index ~owner:j)
  done

let test_false_positives_distribution () =
  let rng = Rng.create 27 in
  let samples =
    Array.init 5_000 (fun _ ->
        float_of_int (Publish.false_positives rng ~beta:0.3 ~negatives:500))
  in
  check_close ~tol:2.0 "mean 150" 150.0 (Stats.mean samples)

(* ---------- Index / Metrics ---------- *)

let tiny_scenario () =
  (* 1 owner, 10 providers: true at 0 and 1; noise at 2, 3. *)
  let membership = Bitmatrix.create ~rows:1 ~cols:10 in
  Bitmatrix.set membership ~row:0 ~col:0 true;
  Bitmatrix.set membership ~row:0 ~col:1 true;
  let published = Bitmatrix.copy membership in
  Bitmatrix.set published ~row:0 ~col:2 true;
  Bitmatrix.set published ~row:0 ~col:3 true;
  (membership, published)

let test_index_query () =
  let _, published = tiny_scenario () in
  let index = Index.of_matrix published in
  Alcotest.(check (list int)) "query" [ 0; 1; 2; 3 ] (Index.query index ~owner:0);
  check_int "count" 4 (Index.query_count index ~owner:0);
  check_int "apparent frequency" 4 (Index.apparent_frequency index ~owner:0);
  check_int "providers" 10 (Index.providers index);
  check_int "owners" 1 (Index.owners index)

let test_index_recall () =
  let membership, published = tiny_scenario () in
  let index = Index.of_matrix published in
  check_bool "recall ok" true (Index.recall_ok ~membership index ~owner:0);
  (* Drop a true positive: recall broken. *)
  let broken = Bitmatrix.copy published in
  Bitmatrix.set broken ~row:0 ~col:1 false;
  check_bool "recall broken" false (Index.recall_ok ~membership (Index.of_matrix broken) ~owner:0)

let test_index_csv_round_trip () =
  let rng = Rng.create 41 in
  let matrix = Bitmatrix.create ~rows:17 ~cols:29 in
  for row = 0 to 16 do
    for col = 0 to 28 do
      if Rng.float rng 1.0 < 0.2 then Bitmatrix.set matrix ~row ~col true
    done
  done;
  let index = Index.of_matrix matrix in
  let reloaded = Index.of_csv (Index.to_csv index) in
  check_int "owners survive" (Index.owners index) (Index.owners reloaded);
  check_int "providers survive" (Index.providers index) (Index.providers reloaded);
  for owner = 0 to 16 do
    Alcotest.(check (list int))
      (Printf.sprintf "row %d survives" owner)
      (Index.query index ~owner)
      (Index.query reloaded ~owner)
  done;
  (* The serialization itself is also a fixed point. *)
  Alcotest.(check string) "csv idempotent" (Index.to_csv index) (Index.to_csv reloaded)

let test_index_csv_malformed () =
  let reject name text error =
    Alcotest.check_raises name (Failure error) (fun () -> ignore (Index.of_csv text))
  in
  reject "empty input" "" "Index.of_csv: bad header";
  reject "alien header" "not an index\n0,0\n" "Index.of_csv: bad header";
  reject "truncated header" "# eppi-index owners=3\n" "Index.of_csv: bad header";
  reject "trailing junk in header" "# eppi-index owners=3 providers=4 x\n"
    "Index.of_csv: bad header";
  reject "zero dimension" "# eppi-index owners=0 providers=4\n" "Index.of_csv: bad dimensions";
  reject "non-numeric line" "# eppi-index owners=3 providers=4\na,b\n" "Index.of_csv: bad line 2";
  reject "missing column" "# eppi-index owners=3 providers=4\n1\n" "Index.of_csv: bad line 2";
  reject "extra column" "# eppi-index owners=3 providers=4\n1,2,3\n" "Index.of_csv: bad line 2";
  reject "owner out of range" "# eppi-index owners=3 providers=4\n3,0\n"
    "Index.of_csv: cell out of range at line 2";
  reject "provider out of range" "# eppi-index owners=3 providers=4\n0,4\n"
    "Index.of_csv: cell out of range at line 2";
  reject "negative cell" "# eppi-index owners=3 providers=4\n-1,0\n"
    "Index.of_csv: cell out of range at line 2";
  reject "duplicate cell" "# eppi-index owners=3 providers=4\n1,2\n1,2\n"
    "Index.of_csv: duplicate cell at line 3";
  (* Blank lines are tolerated (to_csv ends with a newline). *)
  let index = Index.of_csv "# eppi-index owners=2 providers=3\n\n1,2\n\n" in
  Alcotest.(check (list int)) "parsed around blanks" [ 2 ] (Index.query index ~owner:1)

let test_metrics_fp_rate () =
  let membership, published = tiny_scenario () in
  check_close "fp = 2/4" 0.5 (Metrics.false_positive_rate ~membership ~published ~owner:0);
  check_close "confidence = 1/2" 0.5 (Metrics.attacker_confidence ~membership ~published ~owner:0);
  check_bool "succeeds at eps 0.5" true
    (Metrics.owner_success ~membership ~published ~epsilon:0.5 ~owner:0);
  check_bool "fails at eps 0.6" false
    (Metrics.owner_success ~membership ~published ~epsilon:0.6 ~owner:0)

let test_metrics_empty_row () =
  let membership = Bitmatrix.create ~rows:1 ~cols:5 in
  let published = Bitmatrix.create ~rows:1 ~cols:5 in
  check_close "empty row is private" 1.0
    (Metrics.false_positive_rate ~membership ~published ~owner:0)

let test_metrics_success_ratio () =
  let membership = Bitmatrix.create ~rows:2 ~cols:10 in
  Bitmatrix.set membership ~row:0 ~col:0 true;
  Bitmatrix.set membership ~row:1 ~col:0 true;
  let published = Bitmatrix.copy membership in
  (* Row 0 gets plenty of noise, row 1 none. *)
  for p = 1 to 9 do
    Bitmatrix.set published ~row:0 ~col:p true
  done;
  check_close "half succeed" 0.5
    (Metrics.success_ratio ~membership ~published ~epsilons:[| 0.8; 0.8 |]);
  check_close "subset" 1.0
    (Metrics.success_ratio_for ~membership ~published ~epsilons:[| 0.8; 0.8 |] ~owners:[ 0 ])

(* ---------- Attack ---------- *)

let test_primary_attack_simulation () =
  let membership, published = tiny_scenario () in
  let rng = Rng.create 28 in
  let rate = Attack.simulate_primary rng ~membership ~published ~owner:0 ~trials:20_000 in
  (* 2 true among 4 published: expected confidence 0.5. *)
  check_close ~tol:0.02 "empirical confidence" 0.5 rate;
  check_close "exact confidence" 0.5
    (Attack.primary_confidence ~membership ~published ~owner:0)

let test_primary_attack_empty_row () =
  let membership = Bitmatrix.create ~rows:1 ~cols:4 in
  let published = Bitmatrix.create ~rows:1 ~cols:4 in
  let rng = Rng.create 29 in
  check_close "nothing to attack" 0.0
    (Attack.simulate_primary rng ~membership ~published ~owner:0 ~trials:100)

let test_common_identity_attack_unprotected () =
  (* Without mixing, the published frequencies expose the one common owner. *)
  let m = 20 in
  let membership = Bitmatrix.create ~rows:3 ~cols:m in
  for p = 0 to m - 1 do
    Bitmatrix.set membership ~row:0 ~col:p true
  done;
  Bitmatrix.set membership ~row:1 ~col:0 true;
  Bitmatrix.set membership ~row:2 ~col:1 true;
  let published = Bitmatrix.copy membership in
  let r = Attack.common_identity_attack ~membership ~published ~sigma_threshold:0.9 in
  Alcotest.(check (list int)) "suspect set" [ 0 ] r.suspected;
  check_int "truly common" 1 r.truly_common;
  check_close "certain attack" 1.0 r.confidence

let test_common_identity_attack_with_decoys () =
  (* Mixing publishes decoy rows at full frequency: confidence drops. *)
  let m = 20 in
  let membership = Bitmatrix.create ~rows:4 ~cols:m in
  for p = 0 to m - 1 do
    Bitmatrix.set membership ~row:0 ~col:p true
  done;
  for j = 1 to 3 do
    Bitmatrix.set membership ~row:j ~col:j true
  done;
  let published = Bitmatrix.copy membership in
  (* Decoys: rows 1 and 2 exaggerated to full. *)
  for p = 0 to m - 1 do
    Bitmatrix.set published ~row:1 ~col:p true;
    Bitmatrix.set published ~row:2 ~col:p true
  done;
  let r = Attack.common_identity_attack ~membership ~published ~sigma_threshold:0.9 in
  check_int "three suspects" 3 (List.length r.suspected);
  check_close "confidence bounded to 1/3" (1.0 /. 3.0) r.confidence

let test_colluding_attack () =
  let membership, published = tiny_scenario () in
  (* Published positives 0,1,2,3; true at 0,1.  Colluder 2 is a known false
     positive: confidence rises from 2/4 to 2/3. *)
  check_close "no colluders = primary" 0.5
    (Attack.colluding_confidence ~membership ~published ~owner:0 ~colluders:[]);
  check_close "colluding false positive discounts noise" (2.0 /. 3.0)
    (Attack.colluding_confidence ~membership ~published ~owner:0 ~colluders:[ 2 ]);
  (* Colluder 0 is a true positive: remaining pool is 1 true of 3. *)
  check_close "colluding true positive" (1.0 /. 3.0)
    (Attack.colluding_confidence ~membership ~published ~owner:0 ~colluders:[ 0 ]);
  (* Everyone colludes: nothing left to attack. *)
  check_close "full collusion leaves nothing" 0.0
    (Attack.colluding_confidence ~membership ~published ~owner:0 ~colluders:[ 0; 1; 2; 3 ]);
  Alcotest.check_raises "bad provider"
    (Invalid_argument "Attack.colluding_confidence: bad provider id") (fun () ->
      ignore (Attack.colluding_confidence ~membership ~published ~owner:0 ~colluders:[ 99 ]))

let test_colluding_never_below_primary () =
  (* Collusion can only help the attacker (on rows extending beyond the
     colluding set). *)
  let rng = Rng.create 91 in
  for _ = 1 to 30 do
    let m = 40 in
    let membership = Bitmatrix.create ~rows:1 ~cols:m in
    let chosen = Rng.sample_without_replacement rng ~k:5 ~n:m in
    Array.iter (fun p -> Bitmatrix.set membership ~row:0 ~col:p true) chosen;
    let published = Publish.publish_matrix rng ~betas:[| 0.4 |] membership in
    let colluders = Array.to_list (Rng.sample_without_replacement rng ~k:8 ~n:m) in
    let base = Attack.primary_confidence ~membership ~published ~owner:0 in
    let with_collusion =
      Attack.colluding_confidence ~membership ~published ~owner:0 ~colluders
    in
    (* Exception: if every remaining positive is noise the confidence can
       drop to 0 only when no true positives remain outside the set. *)
    let outside_truth =
      List.for_all (fun p -> not (Bitmatrix.get membership ~row:0 ~col:p)) colluders
    in
    if outside_truth then
      check_bool "collusion helps or ties" true (with_collusion >= base -. 1e-9)
  done

let test_intersection_attack () =
  let m = 300 in
  let rng = Rng.create 92 in
  let membership = Bitmatrix.create ~rows:1 ~cols:m in
  let chosen = Rng.sample_without_replacement rng ~k:5 ~n:m in
  Array.iter (fun p -> Bitmatrix.set membership ~row:0 ~col:p true) chosen;
  let publish () = Publish.publish_matrix rng ~betas:[| 0.3 |] membership in
  let one = publish () in
  let conf1 = Attack.intersection_attack ~membership ~published_list:[ one ] ~owner:0 in
  check_close ~tol:1e-9 "single version = primary confidence"
    (Attack.primary_confidence ~membership ~published:one ~owner:0)
    conf1;
  (* Fresh noise every rebuild: intersecting strips it. *)
  let many = List.init 6 (fun _ -> publish ()) in
  let conf6 = Attack.intersection_attack ~membership ~published_list:many ~owner:0 in
  check_bool
    (Printf.sprintf "six rebuilds break privacy (%f -> %f)" conf1 conf6)
    true
    (conf6 > conf1 && conf6 > 0.9);
  (* The static index (same version repeated) discloses nothing extra. *)
  let conf_static =
    Attack.intersection_attack ~membership ~published_list:[ one; one; one ] ~owner:0
  in
  check_close ~tol:1e-9 "static index resists repetition" conf1 conf_static

let test_classification () =
  check_bool "e-private" true
    (Attack.classify ~guarantee:(Some 0.3) ~worst_confidence:0.3 ~epsilon:0.7 = Attack.E_private);
  check_bool "guarantee too weak" true
    (Attack.classify ~guarantee:(Some 0.9) ~worst_confidence:0.9 ~epsilon:0.7
    = Attack.No_guarantee);
  check_bool "no protect" true
    (Attack.classify ~guarantee:None ~worst_confidence:1.0 ~epsilon:0.5 = Attack.No_protect);
  check_bool "no guarantee" true
    (Attack.classify ~guarantee:None ~worst_confidence:0.6 ~epsilon:0.5 = Attack.No_guarantee);
  Alcotest.(check string) "level name" "e-PRIVATE" (Attack.level_name Attack.E_private)

(* ---------- Construct ---------- *)

let make_matrix ~m ~freqs =
  let membership = Bitmatrix.create ~rows:(Array.length freqs) ~cols:m in
  let rng = Rng.create 1234 in
  Array.iteri
    (fun j f ->
      let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
      Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen)
    freqs;
  membership

let test_construct_recall_invariant () =
  let membership = make_matrix ~m:200 ~freqs:[| 5; 20; 100; 199; 1 |] in
  let rng = Rng.create 30 in
  let r =
    Construct.run rng ~membership ~epsilons:[| 0.5; 0.9; 0.2; 0.8; 0.99 |]
      ~policy:(Policy.Chernoff 0.9)
  in
  for j = 0 to 4 do
    check_bool (Printf.sprintf "recall owner %d" j) true
      (Index.recall_ok ~membership r.index ~owner:j)
  done

let test_construct_common_flags () =
  let m = 100 in
  (* sigma = 0.95 with eps = 0.5: basic threshold 0.5 -> common. *)
  let membership = make_matrix ~m ~freqs:[| 95; 5 |] in
  let rng = Rng.create 31 in
  let r = Construct.run rng ~membership ~epsilons:[| 0.5; 0.5 |] ~policy:Policy.Basic in
  check_bool "common flagged" true r.common.(0);
  check_bool "rare not common" false r.common.(1);
  check_close "common beta is 1" 1.0 r.betas.(0);
  check_int "common row published everywhere" m
    (Index.query_count r.index ~owner:0)

let test_construct_xi_lambda () =
  let m = 100 in
  let membership = make_matrix ~m ~freqs:(Array.append [| 95 |] (Array.make 99 2)) in
  let epsilons = Array.make 100 0.6 in
  let rng = Rng.create 32 in
  let r = Construct.run rng ~membership ~epsilons ~policy:Policy.Basic in
  check_close "xi is max eps over commons" 0.6 r.xi;
  (* Eq. 7: lambda >= 0.6/0.4 * 1/99. *)
  check_close ~tol:1e-9 "lambda" (0.6 /. 0.4 /. 99.0) r.lambda;
  check_bool "mixed only non-common" true
    (Array.for_all2 (fun mixed common -> not (mixed && common)) r.mixed r.common)

let test_construct_no_commons_no_mixing () =
  let membership = make_matrix ~m:1000 ~freqs:[| 3; 7; 12 |] in
  let rng = Rng.create 33 in
  let r =
    Construct.run rng ~membership ~epsilons:[| 0.5; 0.5; 0.5 |] ~policy:(Policy.Chernoff 0.9)
  in
  check_close "lambda 0" 0.0 r.lambda;
  check_bool "nothing mixed" true (Array.for_all not r.mixed);
  check_bool "nothing common" true (Array.for_all not r.common)

let test_construct_success_ratio_chernoff () =
  (* The headline guarantee: with gamma = 0.9 the success ratio must clear
     0.9 (here statistically, over 300 identities of mixed frequency). *)
  let m = 2000 in
  let rng = Rng.create 34 in
  let freqs = Array.init 300 (fun _ -> 1 + Rng.int rng 100) in
  let membership = make_matrix ~m ~freqs in
  let epsilons = Array.init 300 (fun _ -> Rng.float rng 0.9) in
  let r = Construct.run rng ~membership ~epsilons ~policy:(Policy.Chernoff 0.9) in
  let ratio =
    Metrics.success_ratio ~membership ~published:(Index.matrix r.index) ~epsilons
  in
  check_bool (Printf.sprintf "success ratio %f >= 0.9" ratio) true (ratio >= 0.9)

let test_construct_basic_about_half () =
  (* The basic policy hits its target only ~half the time (the paper's
     critique).  Use a single frequency class for a clean expectation. *)
  let m = 2000 in
  let freqs = Array.make 400 50 in
  let membership = make_matrix ~m ~freqs in
  let epsilons = Array.make 400 0.5 in
  let rng = Rng.create 35 in
  let r = Construct.run rng ~membership ~epsilons ~policy:Policy.Basic in
  let ratio =
    Metrics.success_ratio ~membership ~published:(Index.matrix r.index) ~epsilons
  in
  check_bool (Printf.sprintf "basic ratio %f in (0.3, 0.7)" ratio) true
    (ratio > 0.3 && ratio < 0.7)

let test_extend_keeps_old_rows_static () =
  let m = 100 in
  let freqs_old = [| 5; 20; 95 |] in
  let membership_old = make_matrix' ~m ~freqs:freqs_old in
  let epsilons_old = [| 0.5; 0.7; 0.5 |] in
  let previous =
    Construct.run (Rng.create 71) ~membership:membership_old ~epsilons:epsilons_old
      ~policy:Policy.Basic
  in
  (* Grow the population by two owners. *)
  let membership = Bitmatrix.create ~rows:5 ~cols:m in
  for j = 0 to 2 do
    Bitvec.iter_set
      (fun p -> Bitmatrix.set membership ~row:j ~col:p true)
      (Bitmatrix.row membership_old j)
  done;
  let rng = Rng.create 72 in
  Array.iter (fun p -> Bitmatrix.set membership ~row:3 ~col:p true)
    (Rng.sample_without_replacement rng ~k:7 ~n:m);
  Array.iter (fun p -> Bitmatrix.set membership ~row:4 ~col:p true)
    (Rng.sample_without_replacement rng ~k:90 ~n:m);
  let epsilons = [| 0.5; 0.7; 0.5; 0.6; 0.6 |] in
  let extended =
    Construct.extend (Rng.create 73) ~previous ~membership ~epsilons ~policy:Policy.Basic
  in
  (* Old rows are bit-for-bit the previous publication. *)
  for j = 0 to 2 do
    check_bool (Printf.sprintf "old row %d unchanged" j) true
      (Bitvec.equal
         (Bitmatrix.row (Index.matrix previous.index) j)
         (Bitmatrix.row (Index.matrix extended.index) j))
  done;
  (* ... so intersecting the two versions gains nothing on old owners. *)
  for j = 0 to 2 do
    check_close
      (Printf.sprintf "no intersection gain on %d" j)
      (Attack.intersection_attack ~membership:membership_old
         ~published_list:[ Index.matrix previous.index ] ~owner:j)
      (Attack.intersection_attack ~membership:membership_old
         ~published_list:[ Index.matrix previous.index; Index.matrix extended.index ]
         ~owner:j)
  done;
  (* New rows are live: recall + classification. *)
  check_bool "new rare owner not common" false extended.common.(3);
  check_bool "new ubiquitous owner common" true extended.common.(4);
  for j = 3 to 4 do
    check_bool (Printf.sprintf "recall on new owner %d" j) true
      (Index.recall_ok ~membership extended.index ~owner:j)
  done

let test_extend_rejects_changed_history () =
  let m = 50 in
  let membership_old = make_matrix' ~m ~freqs:[| 5 |] in
  let previous =
    Construct.run (Rng.create 74) ~membership:membership_old ~epsilons:[| 0.5 |]
      ~policy:Policy.Basic
  in
  (* Same owner acquires a record at a provider her published row may miss:
     find one outside the published row. *)
  let published = Bitmatrix.row (Index.matrix previous.index) 0 in
  let outside = ref (-1) in
  for p = m - 1 downto 0 do
    if not (Bitvec.get published p) then outside := p
  done;
  if !outside >= 0 then begin
    let membership = Bitmatrix.copy membership_old in
    Bitmatrix.set membership ~row:0 ~col:!outside true;
    Alcotest.check_raises "changed history rejected"
      (Invalid_argument "Construct.extend: existing owner's memberships changed; rebuild instead")
      (fun () ->
        ignore
          (Construct.extend (Rng.create 75) ~previous ~membership ~epsilons:[| 0.5 |]
             ~policy:Policy.Basic))
  end

let test_extend_validation () =
  let m = 30 in
  let membership = make_matrix' ~m ~freqs:[| 3; 4 |] in
  let previous =
    Construct.run (Rng.create 76) ~membership ~epsilons:[| 0.5; 0.5 |] ~policy:Policy.Basic
  in
  let smaller = Bitmatrix.create ~rows:1 ~cols:m in
  Alcotest.check_raises "shrinking rejected"
    (Invalid_argument "Construct.extend: the population cannot shrink") (fun () ->
      ignore
        (Construct.extend (Rng.create 77) ~previous ~membership:smaller ~epsilons:[| 0.5 |]
           ~policy:Policy.Basic));
  let wider = Bitmatrix.create ~rows:2 ~cols:(m + 1) in
  Alcotest.check_raises "provider change rejected"
    (Invalid_argument "Construct.extend: the provider count changed") (fun () ->
      ignore
        (Construct.extend (Rng.create 78) ~previous ~membership:wider
           ~epsilons:[| 0.5; 0.5 |] ~policy:Policy.Basic))

let test_plan_betas_matches_run () =
  let membership = make_matrix ~m:500 ~freqs:[| 5; 50; 495 |] in
  let epsilons = [| 0.4; 0.7; 0.9 |] in
  let frequencies = Array.init 3 (fun j -> Bitmatrix.row_count membership j) in
  let plan =
    Construct.plan_betas ~policy:(Policy.Chernoff 0.9) ~epsilons ~frequencies ~m:500
      (Rng.create 77)
  in
  let r =
    Construct.run (Rng.create 77) ~membership ~epsilons ~policy:(Policy.Chernoff 0.9)
  in
  Alcotest.(check (array bool)) "same commons" plan.is_common r.common;
  Alcotest.(check (array (float 1e-12))) "same betas" plan.final r.betas

(* ---------- Analysis ---------- *)

let test_analysis_matches_matrix_path () =
  (* The binomial fast path and the full matrix construction must agree on
     the success probability of a frequency class. *)
  let m = 1000 and frequency = 20 and epsilon = 0.5 in
  let policy = Policy.Inc_exp 0.01 in
  let fast =
    Analysis.empirical_success (Rng.create 40) ~policy ~frequency ~epsilon ~m ~trials:3000
  in
  let matrix_trials = 600 in
  let rng = Rng.create 41 in
  let beta =
    Policy.beta policy ~sigma:(float_of_int frequency /. float_of_int m) ~epsilon ~m
  in
  let ok = ref 0 in
  for _ = 1 to matrix_trials do
    let membership = Bitmatrix.create ~rows:1 ~cols:m in
    let chosen = Rng.sample_without_replacement rng ~k:frequency ~n:m in
    Array.iter (fun p -> Bitmatrix.set membership ~row:0 ~col:p true) chosen;
    let published = Publish.publish_matrix rng ~betas:[| beta |] membership in
    if Metrics.owner_success ~membership ~published ~epsilon ~owner:0 then incr ok
  done;
  let slow = float_of_int !ok /. float_of_int matrix_trials in
  check_bool
    (Printf.sprintf "fast %f vs matrix %f" fast slow)
    true
    (Float.abs (fast -. slow) < 0.08)

let test_analysis_chernoff_meets_gamma () =
  let m = 10_000 in
  List.iter
    (fun frequency ->
      let rate =
        Analysis.empirical_success (Rng.create 42) ~policy:(Policy.Chernoff 0.9) ~frequency
          ~epsilon:0.5 ~m ~trials:2000
      in
      check_bool (Printf.sprintf "freq %d: %f >= 0.9" frequency rate) true (rate >= 0.88))
    [ 10; 100; 500 ]

let test_analysis_exact_success_matches_empirical () =
  let m = 2000 in
  List.iter
    (fun (frequency, epsilon, policy) ->
      let beta =
        Policy.beta policy ~sigma:(float_of_int frequency /. float_of_int m) ~epsilon ~m
      in
      let exact = Analysis.exact_success ~beta ~frequency ~epsilon ~m in
      let empirical =
        Analysis.empirical_success_with_beta (Rng.create 59) ~beta ~frequency ~epsilon ~m
          ~trials:4000
      in
      check_bool
        (Printf.sprintf "f=%d eps=%.2f: exact %f vs empirical %f" frequency epsilon exact
           empirical)
        true
        (Float.abs (exact -. empirical) < 0.03))
    [
      (20, 0.5, Policy.Basic);
      (20, 0.5, Policy.Chernoff 0.9);
      (100, 0.7, Policy.Inc_exp 0.02);
      (5, 0.3, Policy.Basic);
    ]

let test_analysis_exact_dominates_chernoff_bound () =
  (* Theorem 3.1's bound must lower-bound the exact tail probability. *)
  let m = 5000 in
  List.iter
    (fun (frequency, epsilon) ->
      let sigma = float_of_int frequency /. float_of_int m in
      let beta = Policy.beta (Policy.Chernoff 0.9) ~sigma ~epsilon ~m in
      let bound = Policy.analytic_success_bound ~beta ~sigma ~epsilon ~m in
      let exact = Analysis.exact_success ~beta ~frequency ~epsilon ~m in
      check_bool
        (Printf.sprintf "f=%d eps=%.2f: exact %f >= bound %f" frequency epsilon exact bound)
        true
        (exact >= bound -. 1e-9);
      check_bool "and clears gamma" true (exact >= 0.9))
    [ (10, 0.5); (100, 0.5); (500, 0.8); (50, 0.2) ]

let test_analysis_exact_edges () =
  check_close "empty row" 1.0 (Analysis.exact_success ~beta:0.5 ~frequency:0 ~epsilon:0.9 ~m:100);
  check_close "eps 0 trivial" 1.0 (Analysis.exact_success ~beta:0.0 ~frequency:5 ~epsilon:0.0 ~m:100);
  check_close "eps 1 impossible" 0.0
    (Analysis.exact_success ~beta:0.9 ~frequency:5 ~epsilon:1.0 ~m:100);
  check_close "beta 0 fails" 0.0 (Analysis.exact_success ~beta:0.0 ~frequency:5 ~epsilon:0.5 ~m:100);
  check_close "beta 1 fp is 1 - sigma" 1.0
    (Analysis.exact_success ~beta:1.0 ~frequency:5 ~epsilon:0.5 ~m:100)

let test_analysis_expected_values () =
  check_close "expected fp rate" (0.5 *. 900.0 /. ((0.5 *. 900.0) +. 100.0))
    (Analysis.expected_false_positive_rate ~beta:0.5 ~frequency:100 ~m:1000);
  check_close "expected query cost" (100.0 +. 450.0)
    (Analysis.expected_query_cost ~beta:0.5 ~frequency:100 ~m:1000);
  check_close "beta above 1 clamps" 1000.0
    (Analysis.expected_query_cost ~beta:5.0 ~frequency:100 ~m:1000)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"exact_success within [0,1] and monotone in beta" ~count:300
      (quad (int_range 1 50) (float_range 0.05 0.95) (float_range 0.0 0.5) (float_range 0.0 0.5))
      (fun (frequency, epsilon, b1, b2) ->
        let m = 200 in
        let lo = Float.min b1 b2 and hi = Float.max b1 b2 in
        let s_lo = Analysis.exact_success ~beta:lo ~frequency ~epsilon ~m in
        let s_hi = Analysis.exact_success ~beta:hi ~frequency ~epsilon ~m in
        s_lo >= 0.0 && s_hi <= 1.0 && s_hi >= s_lo -. 1e-9);
    Test.make ~name:"beta_basic in [0, inf) and 0 iff trivial" ~count:500
      (pair (float_range 0.0 1.0) (float_range 0.0 1.0))
      (fun (sigma, epsilon) ->
        let b = Policy.beta_basic ~sigma ~epsilon in
        b >= 0.0 && ((b > 0.0) = (sigma > 0.0 && epsilon > 0.0)));
    Test.make ~name:"published row always superset" ~count:200
      (pair small_int (float_range 0.0 1.0))
      (fun (seed, beta) ->
        let rng = Rng.create seed in
        let row = Bitvec.create 64 in
        for i = 0 to 63 do
          if Rng.bool rng then Bitvec.set row i
        done;
        let out = Publish.publish_row rng ~beta row in
        Bitvec.count (Bitvec.diff row out) = 0);
    Test.make ~name:"lambda within [0, 1]" ~count:500
      (triple (float_range 0.0 0.99) (int_range 0 100) (int_range 0 100))
      (fun (xi, a, b) ->
        let n_common = min a b and n_total = max a b in
        let l = Mixing.lambda ~xi ~n_common ~n_total in
        l >= 0.0 && l <= 1.0);
    Test.make ~name:"fp rate within [0, 1]" ~count:200
      (pair small_int (int_range 1 50))
      (fun (seed, f) ->
        let m = 100 in
        let rng = Rng.create seed in
        let membership = Bitmatrix.create ~rows:1 ~cols:m in
        let chosen = Rng.sample_without_replacement rng ~k:f ~n:m in
        Array.iter (fun p -> Bitmatrix.set membership ~row:0 ~col:p true) chosen;
        let published = Publish.publish_matrix rng ~betas:[| 0.4 |] membership in
        let fp = Metrics.false_positive_rate ~membership ~published ~owner:0 in
        fp >= 0.0 && fp <= 1.0);
  ]

let () =
  Alcotest.run "core"
    [
      ( "policy",
        [
          Alcotest.test_case "eq3 formula" `Quick test_beta_basic_formula;
          Alcotest.test_case "eq3 edges" `Quick test_beta_basic_edges;
          Alcotest.test_case "policy ordering" `Quick test_beta_policies_ordering;
          Alcotest.test_case "eq5 formula" `Quick test_beta_chernoff_formula;
          Alcotest.test_case "monotone in sigma" `Quick test_beta_monotone_in_sigma;
          Alcotest.test_case "monotone in epsilon" `Quick test_beta_monotone_in_epsilon;
          Alcotest.test_case "basic threshold closed form" `Quick
            test_sigma_threshold_basic_closed_form;
          Alcotest.test_case "threshold consistent with beta" `Quick
            test_sigma_threshold_consistent_with_beta;
          Alcotest.test_case "threshold at eps 0" `Quick test_sigma_threshold_eps_zero;
          Alcotest.test_case "analytic success bound" `Quick test_analytic_success_bound;
          Alcotest.test_case "names" `Quick test_policy_names;
        ] );
      ( "mixing",
        [
          Alcotest.test_case "eq7 formula" `Quick test_lambda_formula;
          Alcotest.test_case "validation" `Quick test_lambda_validation;
          Alcotest.test_case "achieves decoy fraction" `Quick test_lambda_achieves_decoy_fraction;
          Alcotest.test_case "select decoys modes" `Quick test_select_decoys_modes;
          Alcotest.test_case "exact-count mixing holds bound" `Quick
            test_construct_exact_count_mixing;
          Alcotest.test_case "mix rate" `Quick test_mix_rate;
        ] );
      ( "publish",
        [
          Alcotest.test_case "truthful 1 -> 1" `Quick test_publish_truthful;
          Alcotest.test_case "beta 0 exact" `Quick test_publish_beta_zero_exact;
          Alcotest.test_case "beta 1 full" `Quick test_publish_beta_one_full;
          Alcotest.test_case "noise rate" `Quick test_publish_noise_rate;
          Alcotest.test_case "matrix per-row betas" `Quick test_publish_matrix_per_row_betas;
          Alcotest.test_case "provider floors" `Quick test_publish_with_floors;
          Alcotest.test_case "floors keep the guarantee" `Quick
            test_construct_with_floors_keeps_guarantee;
          Alcotest.test_case "false positives distribution" `Quick
            test_false_positives_distribution;
        ] );
      ( "index+metrics",
        [
          Alcotest.test_case "query" `Quick test_index_query;
          Alcotest.test_case "recall" `Quick test_index_recall;
          Alcotest.test_case "csv round trip" `Quick test_index_csv_round_trip;
          Alcotest.test_case "csv malformed input" `Quick test_index_csv_malformed;
          Alcotest.test_case "fp rate" `Quick test_metrics_fp_rate;
          Alcotest.test_case "empty row" `Quick test_metrics_empty_row;
          Alcotest.test_case "success ratio" `Quick test_metrics_success_ratio;
        ] );
      ( "attack",
        [
          Alcotest.test_case "primary simulation" `Quick test_primary_attack_simulation;
          Alcotest.test_case "primary empty row" `Quick test_primary_attack_empty_row;
          Alcotest.test_case "common-identity unprotected" `Quick
            test_common_identity_attack_unprotected;
          Alcotest.test_case "common-identity with decoys" `Quick
            test_common_identity_attack_with_decoys;
          Alcotest.test_case "colluding providers" `Quick test_colluding_attack;
          Alcotest.test_case "collusion never helps the defender" `Quick
            test_colluding_never_below_primary;
          Alcotest.test_case "intersection across rebuilds" `Quick test_intersection_attack;
          Alcotest.test_case "classification" `Quick test_classification;
        ] );
      ( "construct",
        [
          Alcotest.test_case "recall invariant" `Quick test_construct_recall_invariant;
          Alcotest.test_case "common flags" `Quick test_construct_common_flags;
          Alcotest.test_case "xi and lambda" `Quick test_construct_xi_lambda;
          Alcotest.test_case "no commons, no mixing" `Quick test_construct_no_commons_no_mixing;
          Alcotest.test_case "chernoff success ratio" `Quick test_construct_success_ratio_chernoff;
          Alcotest.test_case "basic about half" `Quick test_construct_basic_about_half;
          Alcotest.test_case "plan matches run" `Quick test_plan_betas_matches_run;
          Alcotest.test_case "extend keeps old rows static" `Quick
            test_extend_keeps_old_rows_static;
          Alcotest.test_case "extend rejects changed history" `Quick
            test_extend_rejects_changed_history;
          Alcotest.test_case "extend validation" `Quick test_extend_validation;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "fast path matches matrix path" `Quick
            test_analysis_matches_matrix_path;
          Alcotest.test_case "chernoff meets gamma" `Quick test_analysis_chernoff_meets_gamma;
          Alcotest.test_case "exact matches empirical" `Quick
            test_analysis_exact_success_matches_empirical;
          Alcotest.test_case "exact dominates chernoff bound" `Quick
            test_analysis_exact_dominates_chernoff_bound;
          Alcotest.test_case "exact edges" `Quick test_analysis_exact_edges;
          Alcotest.test_case "expected values" `Quick test_analysis_expected_values;
        ] );
      ("properties", Qcheck_seed.to_alcotest ~seed:8928 qcheck_tests);
    ]
