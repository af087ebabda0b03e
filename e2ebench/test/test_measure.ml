(* The benchmark's own arithmetic: the percentile rule, open-loop
   lateness, capacity rungs, span self time and untraced residue. *)

module M = E2ebench.Measure
module Trace = Eppi_obs.Trace

let floats = Alcotest.(float 1e-9)
let ints n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let xs = ints 100 in
  Alcotest.check floats "p50 of 1..100" 50.0 (M.percentile xs 50.0);
  Alcotest.check floats "p99 of 1..100" 99.0 (M.percentile xs 99.0);
  Alcotest.check floats "p100 is the max" 100.0 (M.percentile xs 100.0);
  Alcotest.check floats "p1 is the first rank" 1.0 (M.percentile xs 1.0);
  Alcotest.check floats "order does not matter" 3.0
    (M.percentile [| 5.0; 1.0; 3.0; 2.0; 4.0 |] 50.0)

let test_tail_rule () =
  let tail n = M.tail_percentile ~n in
  Alcotest.(check (option (float 0.0))) "19 samples: none" None (tail 19);
  Alcotest.(check (option (float 0.0))) "20 samples: the median" (Some 50.0) (tail 20);
  Alcotest.(check (option (float 0.0))) "99 samples: still the median" (Some 50.0) (tail 99);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 90.0) (tail 100);
  Alcotest.(check (option (float 0.0))) "999 samples: p90" (Some 90.0) (tail 999);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 99.0) (tail 1000);
  Alcotest.(check (option (float 0.0))) "10000 samples: p99.9" (Some 99.9) (tail 10_000);
  Alcotest.(check int) "ten samples beyond p99 of 1000" 10 (M.beyond ~n:1000 99.0);
  Alcotest.(check int) "nine beyond p99 of 999" 9 (M.beyond ~n:999 99.0);
  let s = M.summarize (ints 1000) in
  Alcotest.(check int) "count" 1000 s.count;
  Alcotest.check floats "summary median" 500.5 s.p50;
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "summary tail" (Some (99.0, 990.0)) s.tail

let test_block_p () =
  (* 5000 requests at 1..1000 ns, cycling; one block also holds a stall. *)
  let xs = Array.init 5000 (fun i -> float_of_int ((i mod 1000) + 1)) in
  Alcotest.check floats "steady blocks" 990.0 (M.block_p ~p:99.0 xs);
  for i = 2000 to 2099 do
    xs.(i) <- 1e9
  done;
  Alcotest.check floats "one stalled block does not move it" 990.0 (M.block_p ~p:99.0 xs);
  Alcotest.check floats "nor its p90" 900.0 (M.block_p ~p:90.0 xs);
  Alcotest.check floats "but the pooled p99 does" 1e9 (M.percentile xs 99.0);
  Alcotest.check floats "short phases are taken whole" 99.0 (M.block_p ~p:99.0 (ints 100))

let test_schedule () =
  let t0 = 1_000_000 and rate = 1000.0 in
  Alcotest.(check int) "request 0 is due at t0" t0 (M.due_ns ~t0 ~rate 0);
  Alcotest.(check int) "request 5 is due 5 ms later" (t0 + 5_000_000) (M.due_ns ~t0 ~rate 5);
  Alcotest.(check int) "nothing due before t0" 0 (M.due_count ~t0 ~rate ~now:(t0 - 1));
  Alcotest.(check int) "one due at t0" 1 (M.due_count ~t0 ~rate ~now:t0);
  Alcotest.(check int) "just before the second" 1 (M.due_count ~t0 ~rate ~now:(t0 + 999_999));
  Alcotest.(check int) "the second at 1 ms" 2 (M.due_count ~t0 ~rate ~now:(t0 + 1_000_000));
  (* Every request counted as due really is due, and the next one is not. *)
  for now = t0 to t0 + 20_000_000 do
    if now mod 333_333 = 0 then begin
      let k = M.due_count ~t0 ~rate ~now in
      Alcotest.(check bool) "last counted is due" true (M.due_ns ~t0 ~rate (k - 1) <= now);
      Alcotest.(check bool) "next is not yet due" true (M.due_ns ~t0 ~rate k > now)
    end
  done

let test_lateness () =
  Alcotest.(check int) "on time" 0 (M.lateness ~due:100 ~sent:100);
  Alcotest.(check int) "late" 40 (M.lateness ~due:100 ~sent:140);
  Alcotest.(check int) "early is not negative" 0 (M.lateness ~due:100 ~sent:60);
  (* A stall delays every request that fell due during it: with a 10 ms
     stall at 1000 q/s, the ten requests due inside it are late by
     10, 9, ..., 1 ms when the generator resumes. *)
  let t0 = 0 and rate = 1000.0 in
  let resume = 10_000_000 in
  let late =
    List.init 10 (fun i -> M.lateness ~due:(M.due_ns ~t0 ~rate i) ~sent:resume)
  in
  Alcotest.(check (list int)) "stall charges the queued requests"
    (List.init 10 (fun i -> (10 - i) * 1_000_000))
    late

let test_ladder () =
  let rungs = M.ladder ~lo:1000.0 ~hi:2000.0 ~step:1.1 in
  Alcotest.check floats "first rung" 1000.0 rungs.(0);
  Alcotest.(check bool) "never above hi" true (rungs.(Array.length rungs - 1) <= 2000.0);
  Alcotest.(check int) "rung count" 8 (Array.length rungs);
  Array.iteri
    (fun i r ->
      if i > 0 then Alcotest.check (Alcotest.float 1e-6) "geometric" (rungs.(i - 1) *. 1.1) r)
    rungs;
  let probes = ref [] in
  let capacity = 13 in
  let best =
    M.bisect_ladder ~rungs:40 (fun i ->
        probes := i :: !probes;
        i <= capacity)
  in
  Alcotest.(check int) "bisection finds the highest passing rung" capacity best;
  Alcotest.(check bool) "in log2 probes" true (List.length !probes <= 6);
  Alcotest.(check int) "all fail" (-1) (M.bisect_ladder ~rungs:10 (fun _ -> false));
  Alcotest.(check int) "all pass" 9 (M.bisect_ladder ~rungs:10 (fun _ -> true));
  Alcotest.(check bool) "fast and flat passes" true
    (M.rung_ok ~p99_ns:500 ~limit_ns:1000 ~backlog_mid:5 ~backlog_end:8 ~slack:4);
  Alcotest.(check bool) "slow fails" false
    (M.rung_ok ~p99_ns:1500 ~limit_ns:1000 ~backlog_mid:0 ~backlog_end:0 ~slack:4);
  Alcotest.(check bool) "growing backlog fails" false
    (M.rung_ok ~p99_ns:500 ~limit_ns:1000 ~backlog_mid:5 ~backlog_end:10 ~slack:4)

let ev kind name ts = { Trace.kind; name; ts; args = [] }

let track events =
  { Trace.track_domain = 0; track_label = "main"; track_events = events; track_dropped = 0 }

let row rows name = List.find (fun (r : M.span_row) -> r.name = name) rows

let test_self_time () =
  (* outer [0,100] holds a [10,30] and b [40,90]; b holds c [50,60]. *)
  let rows =
    M.span_rows
      [
        track
          [
            ev Span_begin "outer" 0;
            ev Span_begin "a" 10;
            ev Span_end "a" 30;
            ev Span_begin "b" 40;
            ev Counter "ignored" 45;
            ev Span_begin "c" 50;
            ev Span_end "c" 60;
            ev Span_end "b" 90;
            ev Span_end "outer" 100;
          ];
        (* A second track: spans on another domain do not nest into the first. *)
        track [ ev Span_begin "a" 0; ev Span_end "a" 5 ];
      ]
  in
  let outer = row rows "outer" and a = row rows "a" and b = row rows "b" and c = row rows "c" in
  Alcotest.(check (list string)) "first-seen order" [ "outer"; "a"; "b"; "c" ]
    (List.map (fun (r : M.span_row) -> r.name) rows);
  Alcotest.(check (pair int int)) "outer total/self" (100, 30) (outer.total_ns, outer.self_ns);
  Alcotest.(check (pair int int)) "b total/self" (50, 40) (b.total_ns, b.self_ns);
  Alcotest.(check (pair int int)) "leaf self = total" (10, 10) (c.total_ns, c.self_ns);
  Alcotest.(check (triple int int int))
    "a aggregates two calls" (2, 25, 25) (a.calls, a.total_ns, a.self_ns);
  (* An unbalanced end (tracing enabled mid-span) is ignored. *)
  let rows = M.span_rows [ track [ ev Span_end "x" 5; ev Span_begin "y" 6; ev Span_end "y" 9 ] ] in
  Alcotest.(check (list string))
    "stray end dropped" [ "y" ] (List.map (fun (r : M.span_row) -> r.name) rows)

let test_self_time_live () =
  (* The same rule over a real tracing session. *)
  Trace.enable ();
  Trace.span "parent" (fun () ->
      Trace.span "child" (fun () -> Unix.sleepf 0.002);
      Unix.sleepf 0.002);
  Trace.disable ();
  let rows = M.span_rows (Trace.tracks ()) in
  Trace.reset ();
  let parent = row rows "parent" and child = row rows "child" in
  Alcotest.(check int) "self + child = total" parent.total_ns (parent.self_ns + child.total_ns);
  Alcotest.(check bool) "self time is positive" true (parent.self_ns > 0)

let test_residue () =
  Alcotest.check floats "quarter untraced" 0.25 (M.residue_share ~wall_s:4.0 ~spans_s:[ 1.0; 2.0 ]);
  Alcotest.check floats "fully traced" 0.0 (M.residue_share ~wall_s:3.0 ~spans_s:[ 1.0; 2.0 ]);
  Alcotest.check floats "no spans" 1.0 (M.residue_share ~wall_s:2.0 ~spans_s:[]);
  Alcotest.check floats "spans longer than the step go negative" (-0.5)
    (M.residue_share ~wall_s:2.0 ~spans_s:[ 3.0 ])

let () =
  Alcotest.run "e2ebench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "blockwise percentiles" `Quick test_block_p;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "due schedule" `Quick test_schedule;
          Alcotest.test_case "lateness" `Quick test_lateness;
          Alcotest.test_case "capacity ladder" `Quick test_ladder;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "self time, live trace" `Quick test_self_time_live;
          Alcotest.test_case "untraced residue" `Quick test_residue;
        ] );
    ]
