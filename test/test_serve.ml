(* Tests for the online serving engine (lib/serve): the bit-packed postings
   store against Index.query, the slot-array LRU, the token-bucket admission
   control under a manual clock, the log2 latency histogram, workload
   generation, and the engine's end-to-end contract — every reply equals
   Index.query, every shed request is reported. *)

open Eppi_prelude
open Eppi_serve

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  if m = 0 then true else go 0

let check_close ?(tol = 1e-9) name a b =
  check_bool (Printf.sprintf "%s: |%g - %g| <= %g" name a b tol) true (Float.abs (a -. b) <= tol)

(* A published index with controlled sparsity: row j holds 1 + (j mod 5)
   providers at deterministic positions. *)
let test_index ~n ~m =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for k = 0 to j mod 5 do
      Bitmatrix.set matrix ~row:j ~col:((j + (k * 7)) mod m) true
    done
  done;
  Eppi.Index.of_matrix matrix

let random_index rng ~n ~m ~density =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for p = 0 to m - 1 do
      if Rng.float rng 1.0 < density then Bitmatrix.set matrix ~row:j ~col:p true
    done
  done;
  Eppi.Index.of_matrix matrix

(* ---------- Postings ---------- *)

let test_postings_matches_index () =
  let index = test_index ~n:37 ~m:23 in
  let postings = Postings.of_index index in
  check_int "owners" 37 (Postings.owners postings);
  check_int "providers" 23 (Postings.providers postings);
  for owner = 0 to 36 do
    check_list
      (Printf.sprintf "owner %d" owner)
      (Eppi.Index.query index ~owner)
      (Postings.query postings ~owner);
    check_int
      (Printf.sprintf "count %d" owner)
      (Eppi.Index.query_count index ~owner)
      (Postings.query_count postings ~owner)
  done

let test_postings_inverse () =
  let index = test_index ~n:37 ~m:23 in
  let matrix = Eppi.Index.matrix index in
  let postings = Postings.of_index index in
  for provider = 0 to 22 do
    let expected =
      List.filter
        (fun owner -> Bitmatrix.get matrix ~row:owner ~col:provider)
        (List.init 37 Fun.id)
    in
    check_list (Printf.sprintf "provider %d" provider) expected
      (Postings.owners_of postings ~provider);
    check_int
      (Printf.sprintf "audit count %d" provider)
      (List.length expected)
      (Postings.audit_count postings ~provider)
  done

let test_postings_iter_and_bounds () =
  let index = test_index ~n:10 ~m:8 in
  let postings = Postings.of_index index in
  let acc = ref [] in
  Postings.iter_query postings ~owner:7 (fun p -> acc := p :: !acc);
  check_list "iter matches query" (Postings.query postings ~owner:7) (List.rev !acc);
  Alcotest.check_raises "owner out of range" (Invalid_argument "Postings.query: id out of range")
    (fun () -> ignore (Postings.query postings ~owner:10));
  Alcotest.check_raises "provider out of range"
    (Invalid_argument "Postings.owners_of: id out of range") (fun () ->
      ignore (Postings.owners_of postings ~provider:8));
  let fwd_bits, inv_bits = Postings.entry_bits postings in
  check_int "fwd width: 8 providers need 3 bits" 3 fwd_bits;
  check_int "inv width: 10 owners need 4 bits" 4 inv_bits;
  check_bool "memory accounted" true (Postings.memory_bytes postings > 0)

let test_postings_empty_and_full_rows () =
  let matrix = Bitmatrix.create ~rows:3 ~cols:70 in
  for p = 0 to 69 do
    Bitmatrix.set matrix ~row:1 ~col:p true
  done;
  let postings = Postings.of_matrix matrix in
  check_list "empty row" [] (Postings.query postings ~owner:0);
  check_list "full row" (List.init 70 Fun.id) (Postings.query postings ~owner:1);
  check_list "empty row again" [] (Postings.query postings ~owner:2);
  check_list "untouched provider audits empty owner set" [ 1 ]
    (Postings.owners_of postings ~provider:69)

(* ---------- Lru ---------- *)

let test_lru_basic () =
  let lru = Lru.create ~capacity:2 in
  check_int "empty" 0 (Lru.length lru);
  Lru.put lru 1 "a";
  Lru.put lru 2 "b";
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru.find lru 1);
  (* 1 was promoted, so inserting 3 evicts 2. *)
  Lru.put lru 3 "c";
  Alcotest.(check (option string)) "2 evicted" None (Lru.find lru 2);
  Alcotest.(check (option string)) "1 kept" (Some "a") (Lru.find lru 1);
  Alcotest.(check (option string)) "3 kept" (Some "c") (Lru.find lru 3);
  check_int "one eviction" 1 (Lru.evictions lru);
  check_int "length capped" 2 (Lru.length lru)

let test_lru_replace_and_mem () =
  let lru = Lru.create ~capacity:2 in
  Lru.put lru 5 10;
  Lru.put lru 5 20;
  check_int "replace keeps one entry" 1 (Lru.length lru);
  Alcotest.(check (option int)) "replaced value" (Some 20) (Lru.find lru 5);
  check_bool "mem does not promote" true (Lru.mem lru 5);
  Lru.put lru 6 30;
  Lru.put lru 7 40;
  (* mem 5 above must not have promoted it past 6. *)
  check_bool "5 evicted" false (Lru.mem lru 5);
  check_int "no spurious evictions" 1 (Lru.evictions lru)

let test_lru_zero_capacity () =
  let lru = Lru.create ~capacity:0 in
  Lru.put lru 1 "x";
  Alcotest.(check (option string)) "always miss" None (Lru.find lru 1);
  check_int "never grows" 0 (Lru.length lru);
  Alcotest.check_raises "negative capacity" (Invalid_argument "Lru.create: negative capacity")
    (fun () -> ignore (Lru.create ~capacity:(-1) : unit Lru.t))

let test_lru_churn_against_model () =
  (* Drive an LRU against a naive list model under random ops. *)
  let capacity = 8 in
  let lru = Lru.create ~capacity in
  let model = ref [] in (* most-recent first, (key, value) *)
  let model_find k =
    match List.assoc_opt k !model with
    | None -> None
    | Some v ->
        model := (k, v) :: List.remove_assoc k !model;
        Some v
  in
  let model_put k v =
    model := (k, v) :: List.remove_assoc k !model;
    if List.length !model > capacity then
      model := List.filteri (fun i _ -> i < capacity) !model
  in
  let rng = Rng.create 99 in
  for step = 0 to 2000 do
    let k = Rng.int rng 20 in
    if Rng.float rng 1.0 < 0.5 then begin
      let expected = model_find k in
      Alcotest.(check (option int)) (Printf.sprintf "find at %d" step) expected (Lru.find lru k)
    end
    else begin
      model_put k step;
      Lru.put lru k step
    end
  done;
  check_int "final length" (List.length !model) (Lru.length lru)

(* ---------- Admission ---------- *)

let test_admission_bucket () =
  let bucket = Admission.create { rate = 10.0; burst = 3; queue_capacity = 5 } in
  check_close "starts full" 3.0 (Admission.tokens bucket);
  (* Burst drains the bucket; the 4th request at the same instant is shed. *)
  check_bool "1" true (Admission.try_admit bucket ~now:100.0);
  check_bool "2" true (Admission.try_admit bucket ~now:100.0);
  check_bool "3" true (Admission.try_admit bucket ~now:100.0);
  check_bool "4 shed" false (Admission.try_admit bucket ~now:100.0);
  (* 0.125 s at 10 tokens/s refills 1.25 tokens (exact in binary). *)
  check_bool "refilled one" true (Admission.try_admit bucket ~now:100.125);
  check_bool "only one" false (Admission.try_admit bucket ~now:100.125);
  (* A long gap refills to burst, never past it. *)
  check_bool "a" true (Admission.try_admit bucket ~now:200.0);
  check_bool "b" true (Admission.try_admit bucket ~now:200.0);
  check_bool "c" true (Admission.try_admit bucket ~now:200.0);
  check_bool "d capped at burst" false (Admission.try_admit bucket ~now:200.0)

let test_admission_clock_skew_and_validation () =
  let bucket = Admission.create { rate = 1000.0; burst = 1; queue_capacity = 1 } in
  check_bool "first" true (Admission.try_admit bucket ~now:50.0);
  (* Time going backwards must refill nothing, not explode. *)
  check_bool "backwards no refill" false (Admission.try_admit bucket ~now:49.0);
  check_bool "forward refills" true (Admission.try_admit bucket ~now:50.1);
  Alcotest.check_raises "bad rate" (Invalid_argument "Admission.create: rate must be positive")
    (fun () -> ignore (Admission.create { rate = 0.0; burst = 1; queue_capacity = 1 }));
  Alcotest.check_raises "bad burst" (Invalid_argument "Admission.create: burst must be >= 1")
    (fun () -> ignore (Admission.create { rate = 1.0; burst = 0; queue_capacity = 1 }))

(* ---------- Histogram + metrics ---------- *)

let test_log2_histogram () =
  let h = Stats.Log2_histogram.create ~lo:1.0 ~buckets:8 () in
  List.iter (Stats.Log2_histogram.add h) [ 1.5; 3.0; 3.5; 100.0 ];
  check_int "total" 4 (Stats.Log2_histogram.total h);
  check_close "mean is exact" 27.0 (Stats.Log2_histogram.mean h);
  (* 1.5 -> bucket 0 [1,2); 3.0, 3.5 -> bucket 1 [2,4); 100 -> bucket 6. *)
  let counts = Stats.Log2_histogram.counts h in
  check_int "bucket 0" 1 counts.(0);
  check_int "bucket 1" 2 counts.(1);
  check_int "bucket 6" 1 counts.(6);
  (* Median rank 2 lands in bucket 1; geometric midpoint 2^1.5. *)
  check_close "p50" (Float.pow 2.0 1.5) (Stats.Log2_histogram.quantile h 0.5);
  check_close "p100 in the top occupied bucket" (Float.pow 2.0 6.5)
    (Stats.Log2_histogram.quantile h 1.0);
  let h2 = Stats.Log2_histogram.create ~lo:1.0 ~buckets:8 () in
  Stats.Log2_histogram.add h2 1.5;
  let merged = Stats.Log2_histogram.merge h h2 in
  check_int "merge total" 5 (Stats.Log2_histogram.total merged);
  Alcotest.check_raises "merge shape"
    (Invalid_argument "Log2_histogram.merge: incompatible histograms") (fun () ->
      ignore (Stats.Log2_histogram.merge h (Stats.Log2_histogram.create ~lo:1.0 ~buckets:4 ())))

let test_log2_histogram_edges () =
  (* Defaults: lo = 1 ns, 64 buckets.  Degenerate samples must clamp into
     the edge buckets, never crash or land out of range. *)
  let h = Stats.Log2_histogram.create () in
  (* Empty histogram: every statistic is defined and zero. *)
  check_int "empty total" 0 (Stats.Log2_histogram.total h);
  check_close "empty mean" 0.0 (Stats.Log2_histogram.mean h);
  check_close "empty p50" 0.0 (Stats.Log2_histogram.quantile h 0.5);
  check_close "empty p0" 0.0 (Stats.Log2_histogram.quantile h 0.0);
  check_close "empty p100" 0.0 (Stats.Log2_histogram.quantile h 1.0);
  (* Zero, negative and sub-nanosecond samples clamp into bucket 0. *)
  List.iter (Stats.Log2_histogram.add h) [ 0.0; -3.0; 1e-12 ];
  let counts = Stats.Log2_histogram.counts h in
  check_int "degenerate samples in bucket 0" 3 counts.(0);
  check_int "degenerate total" 3 (Stats.Log2_histogram.total h);
  check_close "bucket-0 quantile is the bottom midpoint" (1e-9 *. Float.pow 2.0 0.5)
    (Stats.Log2_histogram.quantile h 0.5);
  (* A sample past 2^63 ns (≈ 292 years) clamps into the top bucket. *)
  Stats.Log2_histogram.add h 1e30;
  let counts = Stats.Log2_histogram.counts h in
  check_int "huge sample in top bucket" 1 counts.(Array.length counts - 1);
  check_close "top-bucket quantile is the top midpoint" (1e-9 *. Float.pow 2.0 63.5)
    (Stats.Log2_histogram.quantile h 1.0);
  (* The mean stays exact even when buckets saturate. *)
  check_close ~tol:1e15 "mean exact under clamping" (((-3.0) +. 1e-12 +. 1e30) /. 4.0)
    (Stats.Log2_histogram.mean h);
  (* q = 0 on a non-empty histogram is the first occupied bucket. *)
  check_close "p0 non-empty" (1e-9 *. Float.pow 2.0 0.5) (Stats.Log2_histogram.quantile h 0.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Log2_histogram.quantile: q out of [0,1]") (fun () ->
      ignore (Stats.Log2_histogram.quantile h 1.5))

let test_metrics_snapshot_merges_shards () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr_queries a;
  Metrics.incr_queries a;
  Metrics.incr_served a;
  Metrics.incr_cache_hit a;
  Metrics.record_latency a 1e-6;
  Metrics.incr_queries b;
  Metrics.incr_shed_rate b;
  Metrics.record_latency b 1e-3;
  let snap = Metrics.snapshot [ a; b ] in
  check_int "queries" 3 snap.queries;
  check_int "served" 1 snap.served;
  check_int "shed_rate" 1 snap.shed_rate;
  check_int "latency samples" 2 snap.latency_count;
  check_bool "p95 sees the slow shard" true (snap.p95 > 1e-4);
  check_close "hit rate counts hits only" 1.0 (Metrics.hit_rate snap);
  (* to_json must be parseable enough to contain every counter. *)
  let json = Metrics.to_json snap in
  List.iter
    (fun key ->
      check_bool (Printf.sprintf "json has %s" key) true
        (let re = Printf.sprintf "\"%s\"" key in
         let rec find i =
           if i + String.length re > String.length json then false
           else if String.sub json i (String.length re) = re then true
           else find (i + 1)
         in
         find 0))
    [ "queries"; "served"; "cache_hits"; "shed_queue"; "p99_s" ]

let test_metrics_diff () =
  let m = Metrics.create () in
  Metrics.incr_queries m;
  Metrics.incr_served m;
  Metrics.incr_cache_miss m;
  Metrics.record_latency m 1e-6;
  let older = Metrics.snapshot [ m ] in
  Metrics.incr_queries m;
  Metrics.incr_queries m;
  Metrics.incr_served m;
  Metrics.incr_cache_hit m;
  Metrics.incr_unknown m;
  Metrics.incr_shed_queue m;
  Metrics.record_latency m 1e-3;
  let newer = Metrics.snapshot [ m ] in
  let d = Metrics.diff newer older in
  (* Counters are the interval's increments... *)
  check_int "queries" 2 d.queries;
  check_int "served" 1 d.served;
  check_int "cache_hits" 1 d.cache_hits;
  check_int "cache_misses" 0 d.cache_misses;
  check_int "unknown" 1 d.unknown;
  check_int "shed_queue" 1 d.shed_queue;
  check_int "latency_count" 1 d.latency_count;
  (* ...while the distribution fields come from the newer snapshot (the
     cumulative histogram's difference has no defined percentiles). *)
  check_close "p99 from newer" newer.p99 d.p99;
  check_close "mean from newer" newer.latency_mean d.latency_mean;
  (* diff s s zeroes every counter. *)
  let z = Metrics.diff newer newer in
  check_int "self-diff queries" 0 z.queries;
  check_int "self-diff latency_count" 0 z.latency_count

(* ---------- Workload ---------- *)

let test_workload_zipf () =
  let n = 100 in
  let w = Workload.zipf (Rng.create 5) ~n ~count:20_000 in
  check_int "count" 20_000 (Array.length w);
  Array.iter (fun owner -> check_bool "in range" true (owner >= 0 && owner < n)) w;
  let hits_0 = Array.fold_left (fun acc o -> if o = 0 then acc + 1 else acc) 0 w in
  let hits_99 = Array.fold_left (fun acc o -> if o = 99 then acc + 1 else acc) 0 w in
  check_bool "zipf head much hotter than tail" true (hits_0 > 10 * (hits_99 + 1));
  let w2 = Workload.zipf (Rng.create 5) ~n ~count:20_000 in
  check_bool "deterministic from seed" true (w = w2)

let test_workload_unknowns () =
  let n = 50 in
  let w = Workload.zipf ~unknown_fraction:0.3 (Rng.create 6) ~n ~count:10_000 in
  let unknowns = Array.fold_left (fun acc o -> if o >= n then acc + 1 else acc) 0 w in
  Array.iter (fun o -> check_bool "unknowns in [n, 2n)" true (o >= 0 && o < 2 * n)) w;
  check_close ~tol:0.05 "unknown fraction" 0.3 (float_of_int unknowns /. 10_000.0);
  Alcotest.check_raises "bad fraction" (Invalid_argument "Workload: unknown fraction out of [0, 1]")
    (fun () -> ignore (Workload.uniform ~unknown_fraction:1.5 (Rng.create 1) ~n:10 ~count:10))

(* ---------- Engine ---------- *)

let test_engine_matches_index () =
  let rng = Rng.create 21 in
  let index = random_index rng ~n:64 ~m:48 ~density:0.1 in
  List.iter
    (fun (shards, cache) ->
      let config = { Serve.default_config with shards; cache_capacity = cache } in
      let engine = Serve.create ~config index in
      for owner = 0 to 63 do
        for _pass = 0 to 1 do
          match Serve.query engine ~owner with
          | Serve.Providers providers ->
              check_list
                (Printf.sprintf "shards %d cache %d owner %d" shards cache owner)
                (Eppi.Index.query index ~owner)
                providers
          | _ -> Alcotest.fail "in-range owner not served"
        done
      done)
    [ (1, 0); (1, 16); (3, 0); (3, 4096) ]

let test_engine_unknown_and_negative_cache () =
  let index = test_index ~n:10 ~m:8 in
  let engine = Serve.create ~config:{ Serve.default_config with negative_capacity = 4 } index in
  (match Serve.query engine ~owner:10 with
  | Serve.Unknown_owner -> ()
  | _ -> Alcotest.fail "out-of-range owner must be Unknown_owner");
  (match Serve.query engine ~owner:10 with
  | Serve.Unknown_owner -> ()
  | _ -> Alcotest.fail "second miss still Unknown_owner");
  (match Serve.query engine ~owner:(-3) with
  | Serve.Unknown_owner -> ()
  | _ -> Alcotest.fail "negative owner must be Unknown_owner");
  let snap = Serve.metrics engine in
  check_int "unknown counted" 3 snap.unknown;
  check_int "second lookup hit the negative cache" 1 snap.negative_hits;
  check_int "nothing served" 0 snap.served

let test_engine_run_replay_agree () =
  let index = test_index ~n:40 ~m:32 in
  let workload = Workload.zipf ~unknown_fraction:0.1 (Rng.create 8) ~n:40 ~count:5_000 in
  let make () = Serve.create ~config:{ Serve.default_config with shards = 4 } index in
  let report = Serve.run (make ()) workload in
  let tally = Serve.replay (make ()) workload in
  let count f = Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 report.replies in
  check_int "served agree" (count (function Serve.Providers _ -> true | _ -> false)) tally.served;
  check_int "unknown agree" (count (( = ) Serve.Unknown_owner)) tally.unknown;
  let volume =
    Array.fold_left
      (fun acc r -> match r with Serve.Providers ps -> acc + List.length ps | _ -> acc)
      0 report.replies
  in
  check_int "volume agree" volume tally.providers_listed;
  (* And both must agree with the index itself, position by position. *)
  Array.iteri
    (fun i reply ->
      let owner = workload.(i) in
      match reply with
      | Serve.Providers providers ->
          check_bool "in range" true (owner < 40);
          check_list (Printf.sprintf "request %d" i) (Eppi.Index.query index ~owner) providers
      | Serve.Unknown_owner -> check_bool "really unknown" true (owner >= 40)
      | _ -> Alcotest.fail "no admission control configured, nothing may be shed")
    report.replies

let test_engine_pool_equals_sequential () =
  let index = test_index ~n:30 ~m:24 in
  let workload = Workload.zipf (Rng.create 9) ~n:30 ~count:3_000 in
  let config = { Serve.default_config with shards = 3 } in
  let seq = Serve.run (Serve.create ~config index) workload in
  let par =
    Pool.with_pool ~size:2 (fun pool -> Serve.run ~pool (Serve.create ~config index) workload)
  in
  check_bool "parallel replies equal sequential" true (par.replies = seq.replies)

let test_engine_queue_shedding_accounted () =
  let index = test_index ~n:20 ~m:16 in
  let queries = 1_000 in
  let admission = Some { Admission.rate = 1e9; burst = 1_000_000; queue_capacity = 100 } in
  let config = { Serve.default_config with shards = 2; admission } in
  let engine = Serve.create ~config index in
  let workload = Workload.uniform (Rng.create 10) ~n:20 ~count:queries in
  let report = Serve.run engine workload in
  let snap = Serve.metrics engine in
  check_int "every request accounted" queries snap.queries;
  check_int "conservation" queries (snap.served + snap.unknown + snap.shed_rate + snap.shed_queue);
  (* 2 shards x 100 queue slots, generous bucket: exactly queries - 200 shed. *)
  check_int "queue bound enforced" (queries - 200) snap.shed_queue;
  let shed_replies =
    Array.fold_left
      (fun acc r -> if r = Serve.Shed_queue_full then acc + 1 else acc)
      0 report.replies
  in
  check_int "shed visible in replies" snap.shed_queue shed_replies

let test_engine_rate_shedding_with_manual_clock () =
  let index = test_index ~n:20 ~m:16 in
  let admission = Some { Admission.rate = 1.0; burst = 10; queue_capacity = 1_000_000 } in
  let config = { Serve.default_config with admission } in
  let engine = Serve.create ~config index in
  let workload = Workload.uniform (Rng.create 11) ~n:20 ~count:100 in
  (* A frozen clock: no refill ever happens, so exactly burst are admitted. *)
  let report = Serve.run ~clock:(fun () -> 1000.0) engine workload in
  let snap = Serve.metrics engine in
  check_int "burst admitted" 10 snap.served;
  check_int "rest shed by rate" 90 snap.shed_rate;
  check_int "replies agree" 90
    (Array.fold_left
       (fun acc r -> if r = Serve.Shed_rate_limit then acc + 1 else acc)
       0 report.replies)

let test_engine_audit () =
  let index = test_index ~n:12 ~m:9 in
  let engine = Serve.create index in
  let postings = Serve.postings engine in
  (match Serve.audit engine ~provider:3 with
  | Some owners -> check_list "audit equals inverse postings" (Postings.owners_of postings ~provider:3) owners
  | None -> Alcotest.fail "in-range provider must audit");
  check_bool "out of range audit" true (Serve.audit engine ~provider:9 = None);
  check_int "audits counted" 1 (Serve.metrics engine).audits

let test_engine_config_validation () =
  let index = test_index ~n:4 ~m:4 in
  Alcotest.check_raises "shards" (Invalid_argument "Serve: shards must be >= 1") (fun () ->
      ignore (Serve.create ~config:{ Serve.default_config with shards = 0 } index));
  Alcotest.check_raises "sample" (Invalid_argument "Serve: latency_sample_every must be >= 1")
    (fun () ->
      ignore (Serve.create ~config:{ Serve.default_config with latency_sample_every = 0 } index))

(* ---------- Hot swap ---------- *)

let test_lru_clear () =
  let lru = Lru.create ~capacity:3 in
  Lru.put lru 1 "a";
  Lru.put lru 2 "b";
  Lru.put lru 3 "c";
  Lru.put lru 4 "d";
  Lru.clear lru;
  check_int "empty after clear" 0 (Lru.length lru);
  check_int "capacity preserved" 3 (Lru.capacity lru);
  check_bool "entries gone" true (Lru.find lru 2 = None && Lru.find lru 4 = None);
  check_int "evictions stay cumulative" 1 (Lru.evictions lru);
  Lru.put lru 7 "e";
  Alcotest.(check (option string)) "usable after clear" (Some "e") (Lru.find lru 7);
  check_int "length after reuse" 1 (Lru.length lru)

let test_metrics_generation_and_swaps () =
  let a = Metrics.create () and b = Metrics.create () in
  let base = Metrics.snapshot [ a; b ] in
  check_int "initial generation" 1 base.generation;
  check_int "initial swaps" 0 base.swaps;
  Metrics.incr_swaps a;
  Metrics.set_generation a 2;
  let snap = Metrics.snapshot [ a; b ] in
  check_int "generation is the max over shards" 2 snap.generation;
  check_int "swaps sum over shards" 1 snap.swaps;
  Metrics.incr_swaps b;
  Metrics.set_generation b 2;
  let newer = Metrics.snapshot [ a; b ] in
  let d = Metrics.diff newer snap in
  check_int "diff swaps" 1 d.swaps;
  check_int "diff generation from newer" 2 d.generation;
  check_bool "json carries generation" true (contains (Metrics.to_json newer) "\"generation\": 2");
  check_bool "json carries swaps" true (contains (Metrics.to_json newer) "\"swaps\": 2")

let test_workload_request_logs () =
  let w = [| 3; 1; 4; 1; 5 |] in
  check_bool "csv round-trip" true (Workload.of_csv_log (Workload.to_csv_log w) = w);
  let csv = "ts,client,owner\n# comment\n10,a,3\n\n11,b,7\n" in
  check_bool "timestamped csv with header and comment" true (Workload.of_csv_log csv = [| 3; 7 |]);
  (match Workload.of_csv_log "owner\n1\nnope\n" with
  | exception Failure msg -> check_bool "csv error names the line" true (contains msg "line 3")
  | _ -> Alcotest.fail "bad csv line must fail");
  let jsonl = "{\"ts\": 10, \"owner\": 3}\n{\"owner\":7}\n" in
  check_bool "jsonl" true (Workload.of_jsonl_log jsonl = [| 3; 7 |]);
  match Workload.of_jsonl_log "{\"owner\": 1}\n{\"no\": 2}\n" with
  | exception Failure msg -> check_bool "jsonl error names the line" true (contains msg "line 2")
  | _ -> Alcotest.fail "jsonl without owner must fail"

(* Two capture files from different daemons, each timestamped: replaying
   the union means merging rows by timestamp, and the reader's last-field
   rule lets the merged file parse without stripping the leading columns. *)
let test_workload_merged_logs () =
  let log_a = "ts,client,owner\n10,a,3\n14,a,1\n18,a,4\n" in
  let log_b = "ts,client,owner\n11,b,7\n13,b,2\n19,b,9\n" in
  check_bool "log a alone" true (Workload.of_csv_log log_a = [| 3; 1; 4 |]);
  check_bool "log b alone" true (Workload.of_csv_log log_b = [| 7; 2; 9 |]);
  let rows text =
    String.split_on_char '\n' text
    |> List.filteri (fun i _ -> i > 0)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let ts row = int_of_string (List.hd (String.split_on_char ',' row)) in
  let merged_rows =
    List.stable_sort (fun x y -> compare (ts x) (ts y)) (rows log_a @ rows log_b)
  in
  let merged = "ts,client,owner\n" ^ String.concat "\n" merged_rows ^ "\n" in
  check_bool "merged by timestamp" true
    (Workload.of_csv_log merged = [| 3; 7; 2; 1; 4; 9 |]);
  (* Recovery: blanks and comments a merge tool interleaves are skipped
     without aborting the replay... *)
  let noisy = "ts,client,owner\n10,a,3\n# daemon b joins here\n\n11,b,7\n" in
  check_bool "comments and blanks skipped" true (Workload.of_csv_log noisy = [| 3; 7 |]);
  (* ...but a truly garbled row aborts, naming the merged file's line and
     the offending field, so the capture can be fixed at the source. *)
  match Workload.of_csv_log "ts,client,owner\n10,a,3\n11,b,oops\n12,a,4\n" with
  | exception Failure msg ->
      check_bool "bad row names the merged line" true (contains msg "line 3");
      check_bool "bad row names the field" true (contains msg "oops")
  | _ -> Alcotest.fail "garbled merged row must fail"

let test_engine_republish () =
  let index1 = test_index ~n:20 ~m:12 in
  (* Bigger replacement: owner 22 exists only after the swap. *)
  let index2 = random_index (Rng.create 77) ~n:24 ~m:12 ~density:0.3 in
  let engine = Serve.create index1 in
  check_int "initial generation" 1 (Serve.generation engine);
  (match Serve.query_tagged engine ~owner:5 with
  | 1, Serve.Providers p -> check_list "pre-swap reply" (Eppi.Index.query index1 ~owner:5) p
  | _ -> Alcotest.fail "pre-swap query");
  ignore (Serve.query engine ~owner:5);
  check_bool "second query hit the cache" true ((Serve.metrics engine).cache_hits >= 1);
  check_bool "owner 22 unknown before swap" true (Serve.query engine ~owner:22 = Serve.Unknown_owner);
  let generation = Serve.republish_index engine index2 in
  check_int "republish bumps the generation" 2 generation;
  check_int "engine generation" 2 (Serve.generation engine);
  (match Serve.query_tagged engine ~owner:5 with
  | 2, Serve.Providers p ->
      (* The generation check runs before the cache lookup, so the stale
         cached answer for owner 5 can never leak across the swap. *)
      check_list "post-swap reply from the new index" (Eppi.Index.query index2 ~owner:5) p
  | _ -> Alcotest.fail "post-swap query");
  check_bool "negative cache invalidated too" true
    (Serve.query engine ~owner:22 = Serve.Providers (Eppi.Index.query index2 ~owner:22));
  let snap = Serve.metrics engine in
  check_int "snapshot generation" 2 snap.generation;
  check_bool "swap observation counted" true (snap.swaps >= 1)

let test_engine_hot_swap_concurrent () =
  let n = 32 and m = 12 in
  let index1 = test_index ~n ~m in
  let index2 = random_index (Rng.create 99) ~n ~m ~density:0.3 in
  let truth1 = Array.init n (fun owner -> Eppi.Index.query index1 ~owner) in
  let truth2 = Array.init n (fun owner -> Eppi.Index.query index2 ~owner) in
  let config = { Serve.default_config with shards = 4 } in
  let engine = Serve.create ~config index1 in
  let workload = Workload.uniform (Rng.create 3) ~n ~count:200_000 in
  let swapper =
    Domain.spawn (fun () ->
        Unix.sleepf 0.002;
        Serve.republish_index engine index2)
  in
  let report = Pool.with_pool ~size:4 (fun pool -> Serve.run ~pool engine workload) in
  check_int "swap installed generation 2" 2 (Domain.join swapper);
  (* Every reply must be the truth of one of the two generations — a swap
     mid-run may answer from either, but never from a mixture or a stale
     cache entry. *)
  Array.iteri
    (fun i reply ->
      let owner = workload.(i) in
      check_bool
        (Printf.sprintf "request %d owner %d matches a generation" i owner)
        true
        (reply = Serve.Providers truth1.(owner) || reply = Serve.Providers truth2.(owner)))
    report.replies;
  for owner = 0 to n - 1 do
    check_bool "post-swap queries serve the new index" true
      (Serve.query engine ~owner = Serve.Providers truth2.(owner))
  done;
  let snap = Serve.metrics engine in
  check_int "conservation across the swap" snap.queries
    (snap.served + snap.unknown + snap.shed_rate + snap.shed_queue)

(* ---------- Properties ---------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"postings query equals Index.query for every owner" ~count:60
      (triple small_int (int_range 1 40) (int_range 1 40))
      (fun (seed, n, m) ->
        let rng = Rng.create seed in
        let index = random_index rng ~n ~m ~density:0.25 in
        let postings = Postings.of_index index in
        List.for_all
          (fun owner -> Postings.query postings ~owner = Eppi.Index.query index ~owner)
          (List.init n Fun.id));
    Test.make ~name:"inverse postings transpose the forward postings" ~count:60
      (triple small_int (int_range 1 40) (int_range 1 40))
      (fun (seed, n, m) ->
        let rng = Rng.create seed in
        let index = random_index rng ~n ~m ~density:0.25 in
        let postings = Postings.of_index index in
        List.for_all
          (fun provider ->
            Postings.owners_of postings ~provider
            = List.filter
                (fun owner -> List.mem provider (Postings.query postings ~owner))
                (List.init n Fun.id))
          (List.init m Fun.id));
    Test.make ~name:"engine replies equal Index.query under any shard/cache config" ~count:40
      (quad small_int (int_range 1 30) (int_range 1 6) (int_range 0 64))
      (fun (seed, n, shards, cache) ->
        let rng = Rng.create seed in
        let index = random_index rng ~n ~m:20 ~density:0.2 in
        let config = { Serve.default_config with shards; cache_capacity = cache } in
        let engine = Serve.create ~config index in
        let workload = Workload.zipf (Rng.create (seed + 1)) ~n ~count:300 in
        let report = Serve.run engine workload in
        Array.for_all2
          (fun owner reply -> reply = Serve.Providers (Eppi.Index.query index ~owner))
          workload report.replies);
  ]

let () =
  Alcotest.run "serve"
    [
      ( "postings",
        [
          Alcotest.test_case "matches Index.query" `Quick test_postings_matches_index;
          Alcotest.test_case "inverse postings" `Quick test_postings_inverse;
          Alcotest.test_case "iter and bounds" `Quick test_postings_iter_and_bounds;
          Alcotest.test_case "empty and full rows" `Quick test_postings_empty_and_full_rows;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic eviction order" `Quick test_lru_basic;
          Alcotest.test_case "replace and mem" `Quick test_lru_replace_and_mem;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "churn against model" `Quick test_lru_churn_against_model;
          Alcotest.test_case "clear" `Quick test_lru_clear;
        ] );
      ( "admission",
        [
          Alcotest.test_case "token bucket" `Quick test_admission_bucket;
          Alcotest.test_case "clock skew and validation" `Quick
            test_admission_clock_skew_and_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "log2 histogram" `Quick test_log2_histogram;
          Alcotest.test_case "log2 histogram edge cases" `Quick test_log2_histogram_edges;
          Alcotest.test_case "snapshot merges shards" `Quick test_metrics_snapshot_merges_shards;
          Alcotest.test_case "diff" `Quick test_metrics_diff;
          Alcotest.test_case "generation and swaps" `Quick test_metrics_generation_and_swaps;
        ] );
      ( "workload",
        [
          Alcotest.test_case "zipf shape" `Quick test_workload_zipf;
          Alcotest.test_case "unknown fraction" `Quick test_workload_unknowns;
          Alcotest.test_case "request logs" `Quick test_workload_request_logs;
          Alcotest.test_case "merged timestamped logs" `Quick test_workload_merged_logs;
        ] );
      ( "engine",
        [
          Alcotest.test_case "matches index" `Quick test_engine_matches_index;
          Alcotest.test_case "unknown + negative cache" `Quick
            test_engine_unknown_and_negative_cache;
          Alcotest.test_case "run and replay agree" `Quick test_engine_run_replay_agree;
          Alcotest.test_case "pool equals sequential" `Quick test_engine_pool_equals_sequential;
          Alcotest.test_case "queue shedding accounted" `Quick
            test_engine_queue_shedding_accounted;
          Alcotest.test_case "rate shedding, manual clock" `Quick
            test_engine_rate_shedding_with_manual_clock;
          Alcotest.test_case "audit" `Quick test_engine_audit;
          Alcotest.test_case "config validation" `Quick test_engine_config_validation;
          Alcotest.test_case "republish hot swap" `Quick test_engine_republish;
          Alcotest.test_case "hot swap under concurrent run" `Quick
            test_engine_hot_swap_concurrent;
        ] );
      ("properties", Qcheck_seed.to_alcotest ~seed:72280 qcheck_tests);
    ]
