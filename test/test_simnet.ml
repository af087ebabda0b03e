(* Tests for the discrete-event network simulator and its heap. *)

open Eppi_simnet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- heap ---------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun (k, v) -> Heap.push h ~key:k v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  (* Explicit sequencing: list-literal evaluation order is unspecified. *)
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  check_bool "empty after" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~key:5.0 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ] order

let test_heap_interleaved () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.push h ~key:(float_of_int ((i * 37) mod 100)) i
  done;
  let prev = ref neg_infinity in
  for _ = 0 to 99 do
    match Heap.pop h with
    | Some (k, _) ->
        check_bool "non-decreasing" true (k >= !prev);
        prev := k
    | None -> Alcotest.fail "ran out early"
  done;
  check_int "size" 0 (Heap.size h)

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.(check (option (float 0.0))) "empty peek" None (Heap.peek_key h);
  Heap.push h ~key:7.5 ();
  Alcotest.(check (option (float 0.0))) "peek" (Some 7.5) (Heap.peek_key h)

(* ---------- simnet ---------- *)

let test_simple_delivery () =
  let net = Simnet.create ~nodes:2 () in
  let got = ref [] in
  Simnet.on_receive net 1 (fun _ ~src msg -> got := (src, msg) :: !got);
  Simnet.at net ~delay:0.0 0 (fun sim -> Simnet.send sim ~src:0 ~dst:1 ~size:100 "hello");
  Simnet.run net;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got

let test_latency_model () =
  let config = { Simnet.default_config with latency = 0.1; bandwidth = 1000.0 } in
  let net = Simnet.create ~config ~nodes:2 () in
  let arrival = ref 0.0 in
  Simnet.on_receive net 1 (fun sim ~src:_ _ -> arrival := Simnet.now sim);
  Simnet.at net ~delay:0.0 0 (fun sim -> Simnet.send sim ~src:0 ~dst:1 ~size:500 ());
  Simnet.run net;
  (* 0.1 s latency + 500 bytes / 1000 B/s = 0.6 s. *)
  Alcotest.(check (float 1e-9)) "latency + serialization" 0.6 !arrival

let test_broadcast () =
  let net = Simnet.create ~nodes:5 () in
  let received = Array.make 5 0 in
  for i = 0 to 4 do
    Simnet.on_receive net i (fun _ ~src:_ _ -> received.(i) <- received.(i) + 1)
  done;
  Simnet.at net ~delay:0.0 2 (fun sim -> Simnet.broadcast sim ~src:2 ~size:10 ());
  Simnet.run net;
  Alcotest.(check (array int)) "everyone but source" [| 1; 1; 0; 1; 1 |] received

let test_work_serializes_node () =
  (* A busy node delays its next event; the completion time reflects it. *)
  let net = Simnet.create ~nodes:2 () in
  let timestamps = ref [] in
  Simnet.on_receive net 1 (fun sim ~src:_ () ->
      timestamps := Simnet.now sim :: !timestamps;
      Simnet.work sim 1 1.0);
  Simnet.at net ~delay:0.0 0 (fun sim ->
      Simnet.send sim ~src:0 ~dst:1 ~size:0 ();
      Simnet.send sim ~src:0 ~dst:1 ~size:0 ());
  Simnet.run net;
  (match List.rev !timestamps with
  | [ t1; t2 ] ->
      check_bool "second event waits for busy node" true (t2 -. t1 >= 1.0 -. 1e-9)
  | _ -> Alcotest.fail "expected two deliveries");
  let m = Simnet.metrics net in
  check_bool "completion includes work" true (m.completion_time >= 2.0);
  Alcotest.(check (float 1e-9)) "busy time accumulated" 2.0 (Simnet.node_busy_time net 1)

let test_metrics_counts () =
  let net = Simnet.create ~nodes:3 () in
  for i = 0 to 2 do
    Simnet.on_receive net i (fun _ ~src:_ _ -> ())
  done;
  Simnet.at net ~delay:0.0 0 (fun sim ->
      Simnet.send sim ~src:0 ~dst:1 ~size:100 ();
      Simnet.send sim ~src:0 ~dst:2 ~size:50 ());
  Simnet.run net;
  let m = Simnet.metrics net in
  check_int "sent" 2 m.messages_sent;
  check_int "delivered" 2 m.messages_delivered;
  check_int "dropped" 0 m.messages_dropped;
  check_int "bytes" 150 m.bytes_sent

let test_drop_injection () =
  let config = { Simnet.default_config with drop_probability = 1.0 } in
  let net = Simnet.create ~config ~nodes:2 () in
  let got = ref 0 in
  Simnet.on_receive net 1 (fun _ ~src:_ _ -> incr got);
  Simnet.at net ~delay:0.0 0 (fun sim -> Simnet.send sim ~src:0 ~dst:1 ~size:10 ());
  Simnet.run net;
  check_int "nothing delivered" 0 !got;
  check_int "drop counted" 1 (Simnet.metrics net).messages_dropped

let test_partial_drop_rate () =
  let config = { Simnet.default_config with drop_probability = 0.3; seed = 9 } in
  let net = Simnet.create ~config ~nodes:2 () in
  let got = ref 0 in
  Simnet.on_receive net 1 (fun _ ~src:_ _ -> incr got);
  Simnet.at net ~delay:0.0 0 (fun sim ->
      for _ = 1 to 2000 do
        Simnet.send sim ~src:0 ~dst:1 ~size:1 ()
      done);
  Simnet.run net;
  let rate = 1.0 -. (float_of_int !got /. 2000.0) in
  check_bool "drop rate near 0.3" true (Float.abs (rate -. 0.3) < 0.05)

let test_crash_silences_node () =
  let net = Simnet.create ~nodes:2 () in
  let got = ref 0 in
  Simnet.on_receive net 1 (fun _ ~src:_ _ -> incr got);
  Simnet.at net ~delay:0.0 0 (fun sim ->
      Simnet.crash sim 1;
      Simnet.send sim ~src:0 ~dst:1 ~size:10 ());
  Simnet.run net;
  check_int "crashed node drops" 0 !got;
  check_bool "flag" true (Simnet.is_crashed net 1)

let test_deterministic_replay () =
  let run_once () =
    let net = Simnet.create ~nodes:4 () in
    let log = ref [] in
    for i = 0 to 3 do
      Simnet.on_receive net i (fun sim ~src msg ->
          log := (Simnet.now sim, src, i, msg) :: !log;
          if msg < 3 then Simnet.broadcast sim ~src:i ~size:20 (msg + 1))
    done;
    Simnet.at net ~delay:0.0 0 (fun sim -> Simnet.broadcast sim ~src:0 ~size:20 0);
    Simnet.run net;
    !log
  in
  check_bool "identical event logs" true (run_once () = run_once ())

let test_validation () =
  let net = Simnet.create ~nodes:2 () in
  Alcotest.check_raises "bad node" (Invalid_argument "Simnet: unknown node") (fun () ->
      Simnet.send net ~src:0 ~dst:7 ~size:1 ());
  Alcotest.check_raises "negative size" (Invalid_argument "Simnet.send: negative size")
    (fun () -> Simnet.send net ~src:0 ~dst:1 ~size:(-1) ());
  Alcotest.check_raises "no nodes" (Invalid_argument "Simnet.create: need at least one node")
    (fun () -> ignore (Simnet.create ~nodes:0 () : unit Simnet.t))

(* ---------- fault plans ---------- *)

let test_per_link_fault () =
  (* Link 0->1 always drops; 0->2 is untouched by the default. *)
  let plan =
    { Simnet.no_faults with links = [ ((0, 1), { Simnet.perfect_link with drop = 1.0 }) ] }
  in
  let net = Simnet.create ~plan ~nodes:3 () in
  let got = Array.make 3 0 in
  for i = 0 to 2 do
    Simnet.on_receive net i (fun _ ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Simnet.at net ~delay:0.0 0 (fun sim ->
      Simnet.send sim ~src:0 ~dst:1 ~size:10 ();
      Simnet.send sim ~src:0 ~dst:2 ~size:10 ());
  Simnet.run net;
  Alcotest.(check (array int)) "only the faulty link loses" [| 0; 0; 1 |] got;
  check_int "drop counted" 1 (Simnet.metrics net).messages_dropped

let test_duplication () =
  let plan =
    { Simnet.no_faults with default_link = { Simnet.perfect_link with duplicate = 1.0 } }
  in
  let net = Simnet.create ~plan ~nodes:2 () in
  let got = ref 0 in
  Simnet.on_receive net 1 (fun _ ~src:_ _ -> incr got);
  Simnet.at net ~delay:0.0 0 (fun sim -> Simnet.send sim ~src:0 ~dst:1 ~size:10 ());
  Simnet.run net;
  check_int "delivered twice" 2 !got;
  check_int "duplicate counted" 1 (Simnet.metrics net).messages_duplicated;
  check_int "sent counted once" 1 (Simnet.metrics net).messages_sent

let test_partition_window () =
  (* Nodes {0} | {1} are partitioned during [0, 1); a message sent inside
     the window is dropped, one sent after it heals is delivered. *)
  let plan =
    {
      Simnet.no_faults with
      partitions = [ { Simnet.starts = 0.0; stops = 1.0; islands = [ [ 0 ]; [ 1 ] ] } ];
    }
  in
  let net = Simnet.create ~plan ~nodes:2 () in
  let got = ref 0 in
  Simnet.on_receive net 1 (fun _ ~src:_ _ -> incr got);
  Simnet.at net ~delay:0.5 0 (fun sim -> Simnet.send sim ~src:0 ~dst:1 ~size:10 ());
  Simnet.at net ~delay:1.5 0 (fun sim -> Simnet.send sim ~src:0 ~dst:1 ~size:10 ());
  Simnet.run net;
  check_int "only the post-heal message" 1 !got;
  check_int "partition drop counted" 1 (Simnet.metrics net).messages_dropped

let test_partition_implicit_island () =
  (* Unlisted nodes form one implicit island: 1 and 2 can still talk while
     cut off from 0. *)
  let plan =
    {
      Simnet.no_faults with
      partitions = [ { Simnet.starts = 0.0; stops = 10.0; islands = [ [ 0 ] ] } ];
    }
  in
  let net = Simnet.create ~plan ~nodes:3 () in
  let got = Array.make 3 0 in
  for i = 0 to 2 do
    Simnet.on_receive net i (fun _ ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Simnet.at net ~delay:0.0 1 (fun sim ->
      Simnet.send sim ~src:1 ~dst:2 ~size:10 ();
      Simnet.send sim ~src:1 ~dst:0 ~size:10 ());
  Simnet.run net;
  Alcotest.(check (array int)) "peer island delivers, cut island drops" [| 0; 0; 1 |] got

let test_crash_schedule () =
  (* Node 1 fail-stops at t = 1: the first message lands, the second is
     cancelled. *)
  let plan = { Simnet.no_faults with crashes = [ (1.0, 1) ] } in
  let net = Simnet.create ~plan ~nodes:2 () in
  let got = ref 0 in
  Simnet.on_receive net 1 (fun _ ~src:_ _ -> incr got);
  Simnet.at net ~delay:0.0 0 (fun sim -> Simnet.send sim ~src:0 ~dst:1 ~size:10 ());
  Simnet.at net ~delay:2.0 0 (fun sim -> Simnet.send sim ~src:0 ~dst:1 ~size:10 ());
  Simnet.run net;
  check_int "pre-crash delivery only" 1 !got;
  check_bool "flag set by schedule" true (Simnet.is_crashed net 1)

let test_crash_cancels_timers_and_work () =
  (* Regression pin for crash semantics: a crashed node's pending timers
     never fire, and work charged to it is a no-op — so the crash cannot
     extend the completion time. *)
  let net = Simnet.create ~nodes:2 () in
  let fired = ref false in
  Simnet.on_receive net 1 (fun _ ~src:_ _ -> ());
  Simnet.at net ~delay:5.0 1 (fun _ -> fired := true);
  Simnet.at net ~delay:0.1 0 (fun sim ->
      Simnet.crash sim 1;
      Simnet.work sim 1 100.0;
      Simnet.work sim 0 0.2);
  Simnet.run net;
  check_bool "pending timer cancelled" false !fired;
  Alcotest.(check (float 1e-9)) "no work charged to the dead" 0.0 (Simnet.node_busy_time net 1);
  let m = Simnet.metrics net in
  check_bool "completion unaffected by the dead node"
    true
    (m.completion_time < 1.0 && m.completion_time >= 0.3 -. 1e-9)

let test_slow_node_multiplier () =
  let plan = { Simnet.no_faults with slow = [ (1, 4.0) ] } in
  let net = Simnet.create ~plan ~nodes:2 () in
  Simnet.on_receive net 1 (fun sim ~src:_ _ -> Simnet.work sim 1 1.0);
  Simnet.at net ~delay:0.0 0 (fun sim -> Simnet.send sim ~src:0 ~dst:1 ~size:0 ());
  Simnet.run net;
  Alcotest.(check (float 1e-9)) "straggler charged 4x" 4.0 (Simnet.node_busy_time net 1)

let test_fault_plan_deterministic () =
  (* Same fault seed => identical drop/duplicate pattern; a different fault
     seed perturbs it. *)
  let run_with seed =
    let plan =
      {
        Simnet.no_faults with
        fault_seed = seed;
        default_link = { drop = 0.3; duplicate = 0.2; reorder = 0.2 };
      }
    in
    let net = Simnet.create ~plan ~nodes:2 () in
    let got = ref 0 in
    Simnet.on_receive net 1 (fun _ ~src:_ _ -> incr got);
    Simnet.at net ~delay:0.0 0 (fun sim ->
        for _ = 1 to 500 do
          Simnet.send sim ~src:0 ~dst:1 ~size:1 ()
        done);
    Simnet.run net;
    let m = Simnet.metrics net in
    (!got, m.messages_dropped, m.messages_duplicated)
  in
  check_bool "same seed, same faults" true (run_with 7 = run_with 7);
  check_bool "different seed, different faults" true (run_with 7 <> run_with 8)

let test_fault_plan_validation () =
  Alcotest.check_raises "unknown node in crash schedule"
    (Invalid_argument "Simnet: fault plan names unknown node") (fun () ->
      ignore
        (Simnet.create
           ~plan:{ Simnet.no_faults with crashes = [ (0.0, 9) ] }
           ~nodes:2 ()
          : unit Simnet.t));
  Alcotest.check_raises "non-positive slow factor"
    (Invalid_argument "Simnet: slow factor must be > 0") (fun () ->
      ignore
        (Simnet.create ~plan:{ Simnet.no_faults with slow = [ (0, 0.0) ] } ~nodes:2 ()
          : unit Simnet.t))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"heap pops sorted" ~count:200
      (list_of_size (Gen.int_range 0 50) (float_range 0.0 1000.0))
      (fun keys ->
        let h = Heap.create () in
        List.iter (fun k -> Heap.push h ~key:k ()) keys;
        let rec drain prev =
          match Heap.pop h with
          | None -> true
          | Some (k, ()) -> k >= prev && drain k
        in
        drain neg_infinity);
  ]

let () =
  Alcotest.run "simnet"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "peek" `Quick test_heap_peek;
        ] );
      ( "network",
        [
          Alcotest.test_case "simple delivery" `Quick test_simple_delivery;
          Alcotest.test_case "latency model" `Quick test_latency_model;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "work serializes node" `Quick test_work_serializes_node;
          Alcotest.test_case "metrics counts" `Quick test_metrics_counts;
          Alcotest.test_case "drop injection" `Quick test_drop_injection;
          Alcotest.test_case "partial drop rate" `Quick test_partial_drop_rate;
          Alcotest.test_case "crash silences node" `Quick test_crash_silences_node;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "faults",
        [
          Alcotest.test_case "per-link fault" `Quick test_per_link_fault;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "partition window" `Quick test_partition_window;
          Alcotest.test_case "implicit island" `Quick test_partition_implicit_island;
          Alcotest.test_case "crash schedule" `Quick test_crash_schedule;
          Alcotest.test_case "crash cancels timers and work" `Quick
            test_crash_cancels_timers_and_work;
          Alcotest.test_case "slow node multiplier" `Quick test_slow_node_multiplier;
          Alcotest.test_case "fault plan determinism" `Quick test_fault_plan_deterministic;
          Alcotest.test_case "fault plan validation" `Quick test_fault_plan_validation;
        ] );
      ("properties", Qcheck_seed.to_alcotest ~seed:88118 qcheck_tests);
    ]
