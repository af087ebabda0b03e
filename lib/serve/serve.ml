open Eppi_prelude
module Trace = Eppi_obs.Trace
module Probe = Eppi_fuzzy.Probe
module Resolver = Eppi_fuzzy.Resolver

type config = {
  shards : int;
  cache_capacity : int;
  negative_capacity : int;
  admission : Admission.config option;
  latency_sample_every : int;
}

let default_config =
  {
    shards = 1;
    cache_capacity = 4096;
    negative_capacity = 1024;
    admission = None;
    latency_sample_every = 16;
  }

type reply =
  | Providers of int list
  | Unknown_owner
  | Shed_rate_limit
  | Shed_queue_full

type shard = {
  cache : int list Lru.t;
  negative : unit Lru.t;
  bucket : Admission.t option;
  metrics : Metrics.t;
  mutable tick : int;
  mutable generation : int;  (* the generation the caches were filled from *)
}

(* The currently published index: one immutable record behind an atomic,
   so a republish is a single pointer swap — readers always see a
   consistent (generation, postings, resolver) and never a torn mix of
   two indexes, or a resolver naming identities of a different vintage
   than the postings it rides with. *)
type published = {
  generation : int;
  store : Postings.t;
  resolver : Resolver.t option;
}

type t = {
  published : published Atomic.t;
  shard_states : shard array;
  sample_every : int;
  queue_capacity : int;  (* max_int when admission is off *)
}

let of_postings ?(config = default_config) ?resolver postings =
  if config.shards < 1 then invalid_arg "Serve: shards must be >= 1";
  if config.cache_capacity < 0 || config.negative_capacity < 0 then
    invalid_arg "Serve: negative cache capacity";
  if config.latency_sample_every < 1 then
    invalid_arg "Serve: latency_sample_every must be >= 1";
  let shard_states =
    Array.init config.shards (fun _ ->
        {
          cache = Lru.create ~capacity:config.cache_capacity;
          negative = Lru.create ~capacity:config.negative_capacity;
          bucket = Option.map Admission.create config.admission;
          metrics = Metrics.create ();
          tick = 0;
          generation = 1;
        })
  in
  {
    published = Atomic.make { generation = 1; store = postings; resolver };
    shard_states;
    sample_every = config.latency_sample_every;
    queue_capacity =
      (match config.admission with Some a -> a.queue_capacity | None -> max_int);
  }

(* The one place the engine compiles an index, so daemon start-up and
   every republish show the compile as its own span. *)
let compile index = Trace.span "serve.postings_compile" (fun () -> Postings.of_index index)

let create ?config ?resolver index = of_postings ?config ?resolver (compile index)
let postings t = (Atomic.get t.published).store
let generation t = (Atomic.get t.published).generation
let resolver t = (Atomic.get t.published).resolver
let shards t = Array.length t.shard_states

let republish ?resolver t store =
  (* CAS loop: concurrent republishers each get a distinct generation.
     Shards pick the new index up lazily, on their next request.  The
     resolver swaps in the same CAS as the postings — omitted, the
     currently installed one is carried over, so (postings, resolver)
     stays a consistent pair either way. *)
  let rec install () =
    let old = Atomic.get t.published in
    let resolver = match resolver with Some _ -> resolver | None -> old.resolver in
    let next = { generation = old.generation + 1; store; resolver } in
    if Atomic.compare_and_set t.published old next then next.generation else install ()
  in
  install ()

let republish_index ?resolver t index = republish ?resolver t (compile index)

let shard_of t owner =
  let n = Array.length t.shard_states in
  let s = owner mod n in
  if s < 0 then s + n else s

(* The cache/postings lookup, after admission.  [pub] is the published
   pair the caller fetched for this request. *)
let lookup pub sh ~owner =
  if owner < 0 || owner >= Postings.owners pub.store then begin
    Metrics.incr_unknown sh.metrics;
    (match Lru.find sh.negative owner with
    | Some () -> Metrics.incr_negative_hit sh.metrics
    | None -> Lru.put sh.negative owner ());
    Unknown_owner
  end
  else
    match Lru.find sh.cache owner with
    | Some providers ->
        Metrics.incr_cache_hit sh.metrics;
        Metrics.incr_served sh.metrics;
        Providers providers
    | None ->
        let providers = Postings.query pub.store ~owner in
        Metrics.incr_cache_miss sh.metrics;
        Metrics.incr_served sh.metrics;
        Lru.put sh.cache owner providers;
        Providers providers

(* On a generation change the shard's caches hold answers from the
   previous index — drop them before serving. *)
let sync_generation (sh : shard) (pub : published) =
  if pub.generation <> sh.generation then begin
    Lru.clear sh.cache;
    Lru.clear sh.negative;
    sh.generation <- pub.generation;
    Metrics.incr_swaps sh.metrics;
    Metrics.set_generation sh.metrics pub.generation
  end

let serve_one t sh ~clock ~now ~owner =
  Metrics.incr_queries sh.metrics;
  (* One atomic load per request pins the (generation, postings) pair this
     reply is computed from; a republish between two requests is picked up
     here, never mid-reply. *)
  let pub = Atomic.get t.published in
  sync_generation sh pub;
  let admitted =
    match sh.bucket with None -> true | Some b -> Admission.try_admit b ~now
  in
  if not admitted then begin
    Metrics.incr_shed_rate sh.metrics;
    Shed_rate_limit
  end
  else begin
    sh.tick <- sh.tick + 1;
    if sh.tick >= t.sample_every then begin
      sh.tick <- 0;
      let t0 = clock () in
      let reply = lookup pub sh ~owner in
      Metrics.record_latency sh.metrics (clock () -. t0);
      reply
    end
    else lookup pub sh ~owner
  end

let query ?now t ~owner =
  let now = match now with Some n -> n | None -> Clock.seconds () in
  serve_one t t.shard_states.(shard_of t owner) ~clock:Clock.seconds ~now ~owner

let query_tagged ?now t ~owner =
  let now = match now with Some n -> n | None -> Clock.seconds () in
  let sh = t.shard_states.(shard_of t owner) in
  let reply = serve_one t sh ~clock:Clock.seconds ~now ~owner in
  (* serve_one synced the shard to the generation it served from, and this
     caller is the shard's only writer, so the field still names it. *)
  (sh.generation, reply)

type candidate = {
  owner : int;
  score : float;
  providers : int list;
}

type fuzzy_reply =
  | Candidates of candidate list
  | No_resolver
  | Probe_mismatch
  | Fuzzy_shed

(* Fuzzy requests have no owner yet, so route on the probe content: the
   same probe always lands on the same shard (its metrics, its token
   bucket), and load spreads across shards.  [routing_hash] is
   non-negative by construction. *)
let fuzzy_shard t probe = Probe.routing_hash probe mod Array.length t.shard_states

let query_fuzzy ?now ?(k = 10) t probe =
  if k <= 0 then invalid_arg "Serve.query_fuzzy: k must be positive";
  let now = match now with Some n -> n | None -> Clock.seconds () in
  let sh = t.shard_states.(fuzzy_shard t probe) in
  Metrics.incr_fuzzy sh.metrics;
  let pub = Atomic.get t.published in
  sync_generation sh pub;
  let admitted =
    match sh.bucket with None -> true | Some b -> Admission.try_admit b ~now
  in
  if not admitted then begin
    Metrics.incr_fuzzy_shed sh.metrics;
    (pub.generation, Fuzzy_shed)
  end
  else
    match pub.resolver with
    | None ->
        Metrics.incr_fuzzy_rejected sh.metrics;
        (pub.generation, No_resolver)
    | Some r when not (Resolver.compatible r probe) ->
        Metrics.incr_fuzzy_rejected sh.metrics;
        (pub.generation, Probe_mismatch)
    | Some r ->
        let resolve () = Resolver.resolve r probe ~k in
        let outcome =
          if not (Trace.enabled ()) then resolve ()
          else begin
            Trace.begin_span "fuzzy.resolve";
            let o = resolve () in
            Trace.end_span "fuzzy.resolve"
              ~args:
                [
                  ("buckets", o.buckets_hit);
                  ("scanned", o.scanned);
                  ("candidates", List.length o.candidates);
                ];
            o
          end
        in
        Metrics.add_fuzzy_scanned sh.metrics outcome.scanned;
        (* Candidate row lookups read the pinned postings directly, not
           through the shard's LRU: the resolved owners rarely belong to
           this shard, and the immutable postings are safe to read from
           any domain. *)
        let owners = Postings.owners pub.store in
        let candidates =
          List.filter_map
            (fun (rv : Resolver.resolved) ->
              if rv.owner < 0 || rv.owner >= owners then None
              else
                Some
                  {
                    owner = rv.owner;
                    score = rv.score;
                    providers = Postings.query pub.store ~owner:rv.owner;
                  })
            outcome.candidates
        in
        (match candidates with
        | [] -> Metrics.incr_fuzzy_empty sh.metrics
        | _ :: _ -> Metrics.incr_fuzzy_resolved sh.metrics);
        (pub.generation, Candidates candidates)

let audit t ~provider =
  let store = (Atomic.get t.published).store in
  if provider < 0 || provider >= Postings.providers store then None
  else begin
    (* Audits are rare administrative reads; account them on shard 0. *)
    Metrics.incr_audits t.shard_states.(0).metrics;
    Some (Postings.owners_of store ~provider)
  end

type report = {
  replies : reply array;
  wall_seconds : float;
}

(* Partition request positions by shard, preserving request order within
   each shard, then run [work shard positions] for every shard — in
   parallel when a pool is given.  Each shard's state is touched by exactly
   one domain, so no locking is needed anywhere. *)
let dispatch ?pool ~clock t requests work =
  let nshards = Array.length t.shard_states in
  let counts = Array.make nshards 0 in
  Array.iter
    (fun owner ->
      let s = shard_of t owner in
      counts.(s) <- counts.(s) + 1)
    requests;
  let buckets = Array.map (fun c -> Array.make c 0) counts in
  let cursor = Array.make nshards 0 in
  Array.iteri
    (fun pos owner ->
      let s = shard_of t owner in
      buckets.(s).(cursor.(s)) <- pos;
      cursor.(s) <- cursor.(s) + 1)
    requests;
  let t0 = clock () in
  (match pool with
  | Some pool when nshards > 1 ->
      Pool.parallel_iter pool (fun s -> work s buckets.(s)) (Array.init nshards Fun.id)
  | _ ->
      for s = 0 to nshards - 1 do
        work s buckets.(s)
      done);
  clock () -. t0

(* Wrap one shard's batch in a span carrying the shard's metric deltas
   (via {!Metrics.diff}).  One tracing branch per shard batch — never per
   query — so the disabled path costs a single atomic load per batch. *)
let traced_shard sh ~shard ~requests body =
  if not (Trace.enabled ()) then body ()
  else begin
    let before = Metrics.snapshot [ sh.metrics ] in
    Trace.begin_span "serve.shard";
    body ();
    let d = Metrics.diff (Metrics.snapshot [ sh.metrics ]) before in
    Trace.end_span "serve.shard"
      ~args:
        [
          ("shard", shard);
          ("requests", requests);
          ("served", d.served);
          ("cache_hits", d.cache_hits);
          ("unknown", d.unknown);
          ("shed", d.shed_rate + d.shed_queue);
        ]
  end

let run ?pool ?(clock = Clock.seconds) t requests =
  let replies = Array.make (Array.length requests) Unknown_owner in
  let work s positions =
    let sh = t.shard_states.(s) in
    let len = Array.length positions in
    traced_shard sh ~shard:s ~requests:len (fun () ->
        (* The batch arrives at once; the shard's queue absorbs at most
           [queue_capacity] requests — the overflow is shed, explicitly. *)
        let admitted = min len t.queue_capacity in
        for k = 0 to admitted - 1 do
          let pos = positions.(k) in
          replies.(pos) <- serve_one t sh ~clock ~now:(clock ()) ~owner:requests.(pos)
        done;
        for k = admitted to len - 1 do
          Metrics.incr_queries sh.metrics;
          Metrics.incr_shed_queue sh.metrics;
          replies.(positions.(k)) <- Shed_queue_full
        done)
  in
  let wall_seconds = dispatch ?pool ~clock t requests work in
  { replies; wall_seconds }

type tally = {
  served : int;
  unknown : int;
  shed_rate : int;
  shed_queue : int;
  providers_listed : int;
  tally_wall_seconds : float;
}

let replay ?pool ?(clock = Clock.seconds) t requests =
  let nshards = Array.length t.shard_states in
  (* Per-shard counter blocks: served, unknown, shed_rate, shed_queue,
     providers_listed.  Single-writer, summed after the barrier. *)
  let tallies = Array.init nshards (fun _ -> Array.make 5 0) in
  let work s positions =
    let sh = t.shard_states.(s) in
    let tl = tallies.(s) in
    let len = Array.length positions in
    traced_shard sh ~shard:s ~requests:len (fun () ->
        let admitted = min len t.queue_capacity in
        for k = 0 to admitted - 1 do
          let pos = positions.(k) in
          match serve_one t sh ~clock ~now:(clock ()) ~owner:requests.(pos) with
          | Providers providers ->
              tl.(0) <- tl.(0) + 1;
              tl.(4) <- tl.(4) + List.length providers
          | Unknown_owner -> tl.(1) <- tl.(1) + 1
          | Shed_rate_limit -> tl.(2) <- tl.(2) + 1
          | Shed_queue_full -> tl.(3) <- tl.(3) + 1
        done;
        for _ = admitted to len - 1 do
          Metrics.incr_queries sh.metrics;
          Metrics.incr_shed_queue sh.metrics;
          tl.(3) <- tl.(3) + 1
        done)
  in
  let wall = dispatch ?pool ~clock t requests work in
  let sum i = Array.fold_left (fun acc tl -> acc + tl.(i)) 0 tallies in
  {
    served = sum 0;
    unknown = sum 1;
    shed_rate = sum 2;
    shed_queue = sum 3;
    providers_listed = sum 4;
    tally_wall_seconds = wall;
  }

let metrics t =
  (* Shards learn about a republish lazily, so the merged generation can
     lag the engine's; report the authoritative current one. *)
  {
    (Metrics.snapshot (Array.to_list (Array.map (fun sh -> sh.metrics) t.shard_states))) with
    generation = (Atomic.get t.published).generation;
  }
