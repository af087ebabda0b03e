(* Tests for the tracing layer (lib/obs): disabled-path no-ops, span
   pairing and GC deltas, per-domain tracks, ring-buffer bounds, the
   Chrome trace-event export and the summary aggregation.

   Tracing state is global to the process, so every test runs under
   [with_session] (or explicitly resets), leaving the layer disabled and
   empty for the next test. *)

open Eppi_prelude
module Trace = Eppi_obs.Trace
module Chrome = Eppi_obs.Chrome
module Summary = Eppi_obs.Summary

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_session ?capacity_per_domain f =
  Trace.enable ?capacity_per_domain ();
  Fun.protect ~finally:Trace.reset f

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec find i = i + nl <= hl && (String.sub haystack i nl = needle || find (i + 1)) in
  find 0

let check_contains name haystack needle =
  check_bool (Printf.sprintf "%s: output contains %S" name needle) true
    (contains haystack needle)

(* ---------- enable / disable ---------- *)

let test_disabled_records_nothing () =
  check_bool "disabled by default" false (Trace.enabled ());
  Trace.span "ghost" (fun () -> ());
  Trace.begin_span "ghost2";
  Trace.end_span "ghost2";
  Trace.instant "ghost3";
  Trace.counter "ghost4" [ ("x", 1) ];
  check_int "no tracks" 0 (List.length (Trace.tracks ()));
  (* Enabling afterwards starts empty: nothing leaked from the disabled
     calls. *)
  with_session (fun () -> check_int "fresh session is empty" 0 (List.length (Trace.tracks ())))

let test_span_returns_value_and_reraises () =
  (* Both with tracing off... *)
  check_int "value (disabled)" 42 (Trace.span "s" (fun () -> 42));
  (match Trace.span "s" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure m -> check_bool "reraise (disabled)" true (m = "boom"));
  (* ...and with tracing on, where the raising span must still close. *)
  with_session (fun () ->
      check_int "value (enabled)" 42 (Trace.span "s" (fun () -> 42));
      (match Trace.span "s" (fun () -> failwith "boom") with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure m -> check_bool "reraise (enabled)" true (m = "boom"));
      match Trace.tracks () with
      | [ tr ] ->
          let begins, ends =
            List.partition (fun (e : Trace.event) -> e.kind = Trace.Span_begin) tr.track_events
          in
          check_int "two begins" 2 (List.length begins);
          check_int "two ends" 2 (List.length ends);
          let raised =
            List.filter (fun (e : Trace.event) -> List.mem_assoc "raised" e.args) ends
          in
          check_int "raising span marked" 1 (List.length raised)
      | tracks -> Alcotest.failf "expected 1 track, got %d" (List.length tracks))

let test_session_restart_discards () =
  with_session (fun () ->
      Trace.span "old" (fun () -> ());
      Trace.enable ();
      (* A fresh enable is a fresh session: the "old" span is gone. *)
      Trace.span "new" (fun () -> ());
      match Trace.tracks () with
      | [ tr ] ->
          check_int "one begin + one end" 2 (List.length tr.track_events);
          List.iter
            (fun (e : Trace.event) -> check_bool "only the new span" true (e.name = "new"))
            tr.track_events
      | tracks -> Alcotest.failf "expected 1 track, got %d" (List.length tracks))

(* ---------- spans, nesting, GC deltas ---------- *)

let test_nested_spans_pair_up () =
  with_session (fun () ->
      Trace.span "outer" (fun () ->
          Trace.span "inner" (fun () -> Trace.instant "tick");
          Trace.span "inner" (fun () -> ()));
      match Trace.tracks () with
      | [ tr ] ->
          check_int "domain 0 records" 0 tr.track_domain;
          check_bool "main label" true (tr.track_label = "main");
          check_int "nothing dropped" 0 tr.track_dropped;
          let names = List.map (fun (e : Trace.event) -> e.name) tr.track_events in
          Alcotest.(check (list string))
            "recording order"
            [ "outer"; "inner"; "tick"; "inner"; "inner"; "inner"; "outer" ]
            names;
          (* Timestamps are monotone within a track. *)
          let ts = List.map (fun (e : Trace.event) -> e.ts) tr.track_events in
          check_bool "monotone timestamps" true (List.sort compare ts = ts)
      | tracks -> Alcotest.failf "expected 1 track, got %d" (List.length tracks))

let test_span_gc_args () =
  with_session (fun () ->
      Trace.span "alloc" ~args:[ ("items", 3) ] (fun () ->
          ignore (Sys.opaque_identity (Array.init 50_000 (fun i -> (i, i)))));
      match Trace.tracks () with
      | [ tr ] -> (
          match
            List.find_opt (fun (e : Trace.event) -> e.kind = Trace.Span_end) tr.track_events
          with
          | None -> Alcotest.fail "no span end"
          | Some e ->
              check_int "user arg kept" 3 (List.assoc "items" e.args);
              List.iter
                (fun key ->
                  check_bool (Printf.sprintf "gc key %s present" key) true
                    (List.mem_assoc key e.args))
                [ "minor_words"; "major_words"; "promoted_words"; "minor_gcs"; "major_gcs" ];
              check_bool "allocation attributed" true (List.assoc "minor_words" e.args > 0))
      | tracks -> Alcotest.failf "expected 1 track, got %d" (List.length tracks))

let test_span_args_of_result () =
  let calls = ref 0 in
  let args_of n =
    incr calls;
    [ ("bytes", n) ]
  in
  check_int "value (disabled)" 7 (Trace.span "w" ~args_of (fun () -> 7));
  check_int "args_of not run when disabled" 0 !calls;
  with_session (fun () ->
      check_int "value (enabled)" 7 (Trace.span "w" ~args:[ ("items", 3) ] ~args_of (fun () -> 7));
      (match Trace.span "w" ~args_of (fun () -> failwith "boom") with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ());
      check_int "args_of run once, on the result" 1 !calls;
      match Trace.tracks () with
      | [ tr ] -> (
          match List.filter (fun (e : Trace.event) -> e.kind = Trace.Span_end) tr.track_events with
          | [ ok; raised ] ->
              check_int "args kept" 3 (List.assoc "items" ok.args);
              check_int "arg from result" 7 (List.assoc "bytes" ok.args);
              check_bool "raising span marked" true (List.mem_assoc "raised" raised.args);
              check_bool "no result arg on raise" false (List.mem_assoc "bytes" raised.args)
          | ends -> Alcotest.failf "expected 2 span ends, got %d" (List.length ends))
      | tracks -> Alcotest.failf "expected 1 track, got %d" (List.length tracks))

let test_unbalanced_end_dropped () =
  with_session (fun () ->
      Trace.end_span "never-opened";
      (match Trace.tracks () with
      | [] -> ()
      | [ tr ] -> check_int "no events from unbalanced end" 0 (List.length tr.track_events)
      | _ -> Alcotest.fail "unexpected tracks");
      (* And the layer still works afterwards. *)
      Trace.span "after" (fun () -> ());
      match Trace.tracks () with
      | [ tr ] -> check_int "span recorded after unbalanced end" 2 (List.length tr.track_events)
      | tracks -> Alcotest.failf "expected 1 track, got %d" (List.length tracks))

(* ---------- per-domain tracks and buffer bounds ---------- *)

let test_domains_get_own_tracks () =
  with_session (fun () ->
      Trace.span "caller" (fun () -> ());
      (* Two spawned domains record deterministically into their own
         tracks; a pool run on top exercises the same path under the
         chunked scheduler. *)
      let spawned =
        List.init 2 (fun k ->
            Domain.spawn (fun () -> Trace.span "spawned" ~args:[ ("k", k) ] (fun () -> ())))
      in
      List.iter Domain.join spawned;
      Pool.with_pool ~size:3 (fun pool ->
          Pool.parallel_iter pool
            (fun i -> Trace.span "work" ~args:[ ("i", i) ] (fun () -> ()))
            (Array.init 64 Fun.id));
      let tracks = Trace.tracks () in
      check_bool "at least three tracks" true (List.length tracks >= 3);
      let domains = List.map (fun (tr : Trace.track) -> tr.track_domain) tracks in
      check_bool "sorted by domain id" true (List.sort compare domains = domains);
      check_bool "exactly one main" true
        (List.length (List.filter (fun (tr : Trace.track) -> tr.track_label = "main") tracks) = 1);
      (* Every "work" span landed somewhere, each begin on the same track
         as its end. *)
      let total_work =
        List.fold_left
          (fun acc (tr : Trace.track) ->
            let b =
              List.length
                (List.filter
                   (fun (e : Trace.event) -> e.name = "work" && e.kind = Trace.Span_begin)
                   tr.track_events)
            and e =
              List.length
                (List.filter
                   (fun (e : Trace.event) -> e.name = "work" && e.kind = Trace.Span_end)
                   tr.track_events)
            in
            check_int (Printf.sprintf "track %d balanced" tr.track_domain) b e;
            acc + b)
          0 tracks
      in
      check_int "all 64 spans recorded" 64 total_work)

let test_ring_buffer_bounds () =
  with_session ~capacity_per_domain:16 (fun () ->
      for i = 0 to 99 do
        Trace.instant "tick" ~args:[ ("i", i) ]
      done;
      match Trace.tracks () with
      | [ tr ] ->
          check_int "kept exactly the capacity" 16 (List.length tr.track_events);
          check_int "rest counted as dropped" 84 tr.track_dropped;
          (* The buffer keeps the head of the session, not a rolling tail:
             the first events survive so phase starts are never lost. *)
          (match tr.track_events with
          | first :: _ -> check_int "first event kept" 0 (List.assoc "i" first.args)
          | [] -> Alcotest.fail "empty track")
      | tracks -> Alcotest.failf "expected 1 track, got %d" (List.length tracks));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Trace.enable: capacity must be >= 1") (fun () ->
      Trace.enable ~capacity_per_domain:0 ());
  Trace.reset ()

(* The drop counter the daemon's ops replies expose: zero without a
   session, zero while the buffer still has room, and exactly the
   overflow once it fills — readable mid-recording. *)
let test_dropped_events_counter () =
  check_int "no session, no drops" 0 (Trace.dropped_events ());
  with_session ~capacity_per_domain:16 (fun () ->
      for _ = 1 to 10 do
        Trace.instant "tick"
      done;
      check_int "under capacity, no drops" 0 (Trace.dropped_events ());
      for _ = 1 to 90 do
        Trace.instant "tick"
      done;
      check_int "overflow counted live" 84 (Trace.dropped_events ()));
  check_int "reset clears the count" 0 (Trace.dropped_events ())

(* ---------- Chrome export ---------- *)

let test_chrome_export () =
  with_session (fun () ->
      Trace.span "phase.test" ~args:[ ("bytes", 123) ] (fun () -> Trace.instant "marker");
      Trace.counter "pool/worker-0" [ ("busy_us", 7); ("jobs", 2) ];
      let json = Chrome.to_json (Trace.tracks ()) in
      check_contains "envelope" json "\"traceEvents\"";
      check_contains "span name" json "\"name\":\"phase.test\"";
      check_contains "span begin" json "\"ph\":\"B\"";
      check_contains "span end" json "\"ph\":\"E\"";
      check_contains "span arg" json "\"bytes\":123";
      check_contains "instant" json "\"ph\":\"i\"";
      check_contains "counter phase" json "\"ph\":\"C\"";
      check_contains "counter name" json "\"name\":\"pool/worker-0\"";
      check_contains "counter series" json "\"busy_us\":7";
      check_contains "thread name metadata" json "\"thread_name\"";
      check_contains "main track label" json "\"name\":\"main\"";
      (* Timestamps are rebased: the earliest event sits at t = 0. *)
      check_contains "rebased timestamps" json "\"ts\":0.000")

let test_chrome_escape () =
  Alcotest.(check string) "plain" "abc" (Chrome.escape "abc");
  Alcotest.(check string) "quote" "a\\\"b" (Chrome.escape "a\"b");
  Alcotest.(check string) "backslash" "a\\\\b" (Chrome.escape "a\\b");
  Alcotest.(check string) "newline" "a\\nb" (Chrome.escape "a\nb");
  Alcotest.(check string) "control" "a\\u0001b" (Chrome.escape "a\001b")

(* ---------- Summary ---------- *)

let test_summary_aggregates () =
  with_session (fun () ->
      Trace.span "phase.a" ~args:[ ("bytes", 100); ("messages", 4) ] (fun () -> ());
      Trace.span "phase.a" ~args:[ ("bytes", 50); ("messages", 1) ] (fun () -> ());
      Trace.span "phase.b" (fun () -> ());
      Trace.counter "pool/worker-0" [ ("jobs", 1) ];
      Trace.counter "pool/worker-0" [ ("jobs", 5) ];
      let s = Summary.compute (Trace.tracks ()) in
      check_int "tracks" 1 s.track_count;
      check_int "dropped" 0 s.dropped;
      check_bool "wall positive" true (s.wall_ns > 0);
      let row name = List.find (fun (r : Summary.row) -> r.name = name) s.rows in
      let a = row "phase.a" in
      check_int "phase.a count" 2 a.count;
      check_int "phase.a bytes summed" 150 a.bytes;
      check_int "phase.a messages summed" 5 a.messages;
      check_bool "phase.a time positive" true (a.total_ns > 0);
      check_int "phase.b count" 1 (row "phase.b").count;
      (* Counter series keep the last sample. *)
      check_int "counter last sample" 5 (List.assoc "pool/worker-0.jobs" s.counters);
      (* Rows are sorted by total time, descending. *)
      let totals = List.map (fun (r : Summary.row) -> r.total_ns) s.rows in
      check_bool "rows sorted" true (List.sort (fun x y -> compare y x) totals = totals);
      let json = Summary.counters_json s in
      check_contains "counters json wall" json "\"trace.wall_ns\"";
      check_contains "counters json series" json "\"pool/worker-0.jobs\": 5")

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "span returns and reraises" `Quick
            test_span_returns_value_and_reraises;
          Alcotest.test_case "session restart discards" `Quick test_session_restart_discards;
          Alcotest.test_case "nested spans pair up" `Quick test_nested_spans_pair_up;
          Alcotest.test_case "span carries GC deltas" `Quick test_span_gc_args;
          Alcotest.test_case "span args from result" `Quick test_span_args_of_result;
          Alcotest.test_case "unbalanced end dropped" `Quick test_unbalanced_end_dropped;
          Alcotest.test_case "one track per domain" `Quick test_domains_get_own_tracks;
          Alcotest.test_case "ring buffer bounds" `Quick test_ring_buffer_bounds;
          Alcotest.test_case "dropped-events counter" `Quick test_dropped_events_counter;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace events" `Quick test_chrome_export;
          Alcotest.test_case "json escaping" `Quick test_chrome_escape;
          Alcotest.test_case "summary aggregates" `Quick test_summary_aggregates;
        ] );
    ]
