(* Tests for the grouping-PPI baseline: assignment balance, group-OR
   publication, agreement between the fast estimator and the matrix path,
   and the structural weaknesses the paper attributes to grouping. *)

open Eppi_prelude
open Eppi_grouping

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_assignment_balanced () =
  let rng = Rng.create 1 in
  let g = Grouping.assign rng ~m:103 ~groups:10 in
  check_int "group count" 10 g.groups;
  let sizes = Array.map Array.length g.group_members in
  Array.iter (fun s -> check_bool "balanced" true (s = 10 || s = 11)) sizes;
  check_int "covers all providers" 103 (Array.fold_left ( + ) 0 sizes)

let test_assignment_consistent () =
  let rng = Rng.create 2 in
  let g = Grouping.assign rng ~m:50 ~groups:7 in
  Array.iteri
    (fun grp members ->
      Array.iter
        (fun p -> check_int (Printf.sprintf "provider %d" p) grp g.assignment.(p))
        members)
    g.group_members

let test_assignment_validation () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "groups > m" (Invalid_argument "Grouping.assign: need 1 <= groups <= m")
    (fun () -> ignore (Grouping.assign rng ~m:5 ~groups:10))

let test_publish_group_or () =
  (* Hand-checkable: 6 providers, 3 groups; owner at providers 0 and 1. *)
  let rng = Rng.create 4 in
  let membership = Bitmatrix.create ~rows:1 ~cols:6 in
  Bitmatrix.set membership ~row:0 ~col:0 true;
  Bitmatrix.set membership ~row:0 ~col:1 true;
  let g, index = Grouping.construct rng ~membership ~groups:3 in
  (* Every member of the groups containing providers 0 and 1 must be
     published positive; nothing else. *)
  let expected_groups = [ g.assignment.(0); g.assignment.(1) ] in
  for p = 0 to 5 do
    let should = List.mem g.assignment.(p) expected_groups in
    check_bool (Printf.sprintf "provider %d" p) should
      (List.mem p (Eppi.Index.query index ~owner:0))
  done

let test_publish_recall () =
  let rng = Rng.create 5 in
  let membership = Bitmatrix.create ~rows:5 ~cols:100 in
  let mrng = Rng.create 50 in
  for j = 0 to 4 do
    let chosen = Rng.sample_without_replacement mrng ~k:(5 * (j + 1)) ~n:100 in
    Array.iter (fun p -> Bitmatrix.set membership ~row:j ~col:p true) chosen
  done;
  let _, index = Grouping.construct rng ~membership ~groups:10 in
  for j = 0 to 4 do
    check_bool (Printf.sprintf "recall owner %d" j) true
      (Eppi.Index.recall_ok ~membership index ~owner:j)
  done

let test_publish_empty_row () =
  let rng = Rng.create 6 in
  let membership = Bitmatrix.create ~rows:1 ~cols:20 in
  let _, index = Grouping.construct rng ~membership ~groups:4 in
  check_int "empty stays empty" 0 (Eppi.Index.query_count index ~owner:0)

let test_single_group_broadcast () =
  let rng = Rng.create 7 in
  let membership = Bitmatrix.create ~rows:1 ~cols:20 in
  Bitmatrix.set membership ~row:0 ~col:3 true;
  let _, index = Grouping.construct rng ~membership ~groups:1 in
  check_int "one group returns everyone" 20 (Eppi.Index.query_count index ~owner:0)

let test_fast_estimator_matches_matrix () =
  (* Distribution agreement between the per-identity estimator and full
     matrix constructions. *)
  let m = 200 and frequency = 8 and groups = 20 and epsilon = 0.5 in
  let fast =
    Grouping.empirical_success (Rng.create 8) ~frequency ~epsilon ~m ~groups ~trials:3000
  in
  let trials = 600 in
  let rng = Rng.create 9 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let membership = Bitmatrix.create ~rows:1 ~cols:m in
    let chosen = Rng.sample_without_replacement rng ~k:frequency ~n:m in
    Array.iter (fun p -> Bitmatrix.set membership ~row:0 ~col:p true) chosen;
    let _, index = Grouping.construct rng ~membership ~groups in
    let published = Eppi.Index.matrix index in
    if Eppi.Metrics.owner_success ~membership ~published ~epsilon ~owner:0 then incr ok
  done;
  let slow = float_of_int !ok /. float_of_int trials in
  check_bool (Printf.sprintf "fast %f vs matrix %f" fast slow) true (Float.abs (fast -. slow) < 0.1)

let test_no_per_identity_control () =
  (* The paper's core critique: grouping cannot satisfy a high-epsilon
     owner once the group size is the binding constraint.  With 10
     providers per group and frequency 5, the best possible fp is
     (50 - 5)/50 = 0.9 < 0.95. *)
  let rate =
    Grouping.empirical_success (Rng.create 10) ~frequency:5 ~epsilon:0.95 ~m:1000 ~groups:100
      ~trials:2000
  in
  check_bool "high epsilon unreachable" true (rate < 0.05)

let test_frequency_zero_always_succeeds () =
  Alcotest.(check (float 0.0)) "empty rows trivially private" 1.0
    (Grouping.empirical_success (Rng.create 11) ~frequency:0 ~epsilon:0.9 ~m:100 ~groups:10
       ~trials:10)

let test_ss_ppi_leak () =
  let membership = Bitmatrix.create ~rows:2 ~cols:10 in
  for p = 0 to 9 do
    Bitmatrix.set membership ~row:0 ~col:p true
  done;
  Bitmatrix.set membership ~row:1 ~col:0 true;
  Alcotest.(check (float 0.0)) "common identity fully exposed" 1.0
    (Grouping.ss_ppi_common_attack_confidence ~membership ~sigma_threshold:0.9);
  Alcotest.(check (float 0.0)) "no commons, no attack" 0.0
    (Grouping.ss_ppi_common_attack_confidence ~membership ~sigma_threshold:1.1)

let test_grouping_common_identity_vulnerability () =
  (* Appendix B example: one ubiquitous owner among singletons is visible
     through any grouping with more than one group. *)
  let m = 60 in
  let membership = Bitmatrix.create ~rows:10 ~cols:m in
  for p = 0 to m - 1 do
    Bitmatrix.set membership ~row:0 ~col:p true
  done;
  for j = 1 to 9 do
    Bitmatrix.set membership ~row:j ~col:j true
  done;
  let rng = Rng.create 12 in
  let _, index = Grouping.construct rng ~membership ~groups:6 in
  let published = Eppi.Index.matrix index in
  let r = Eppi.Attack.common_identity_attack ~membership ~published ~sigma_threshold:0.9 in
  (* Rare owners blow up to at most one group (m/6 = 10 providers < 0.9m),
     so the ubiquitous owner is the only suspect. *)
  check_int "only true common suspected" 1 (List.length r.suspected);
  Alcotest.(check (float 0.0)) "attack certain" 1.0 r.confidence

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"published count multiple of group structure" ~count:100
      (triple small_int (int_range 1 20) (int_range 1 10))
      (fun (seed, freq, groups) ->
        let m = 60 in
        let freq = min freq m in
        let rng = Rng.create seed in
        let membership = Bitmatrix.create ~rows:1 ~cols:m in
        let chosen = Rng.sample_without_replacement rng ~k:freq ~n:m in
        Array.iter (fun p -> Bitmatrix.set membership ~row:0 ~col:p true) chosen;
        let g, index = Grouping.construct rng ~membership ~groups in
        (* The published row must be exactly the union of hit groups. *)
        let hit = Array.make groups false in
        Array.iter (fun p -> hit.(g.assignment.(p)) <- true) chosen;
        let expected =
          Array.to_list g.group_members
          |> List.mapi (fun grp members -> if hit.(grp) then Array.to_list members else [])
          |> List.concat |> List.sort compare
        in
        Eppi.Index.query index ~owner:0 = expected);
  ]

let () =
  Alcotest.run "grouping"
    [
      ( "assignment",
        [
          Alcotest.test_case "balanced" `Quick test_assignment_balanced;
          Alcotest.test_case "consistent" `Quick test_assignment_consistent;
          Alcotest.test_case "validation" `Quick test_assignment_validation;
        ] );
      ( "publish",
        [
          Alcotest.test_case "group OR" `Quick test_publish_group_or;
          Alcotest.test_case "recall" `Quick test_publish_recall;
          Alcotest.test_case "empty row" `Quick test_publish_empty_row;
          Alcotest.test_case "single group broadcast" `Quick test_single_group_broadcast;
        ] );
      ( "privacy",
        [
          Alcotest.test_case "fast estimator matches matrix" `Quick
            test_fast_estimator_matches_matrix;
          Alcotest.test_case "no per-identity control" `Quick test_no_per_identity_control;
          Alcotest.test_case "frequency zero" `Quick test_frequency_zero_always_succeeds;
          Alcotest.test_case "ss-ppi leak" `Quick test_ss_ppi_leak;
          Alcotest.test_case "common-identity vulnerability" `Quick
            test_grouping_common_identity_vulnerability;
        ] );
      ("properties", Qcheck_seed.to_alcotest ~seed:16847 qcheck_tests);
    ]
