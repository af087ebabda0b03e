(* Pure arithmetic of the benchmark: percentiles, open-loop lateness,
   capacity-rung verdicts, span self time and untraced residue.  Kept
   free of I/O so ../test can pin every rule down. *)

(* ---- order statistics ---- *)

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least p% of the samples at or
   below it. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9)))

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  a.(rank ~n p - 1)

let percentile xs p = percentile_sorted (sorted_copy xs) p

(* Samples strictly above the nearest-rank p-th percentile's position. *)
let beyond ~n p = n - rank ~n p

let tail_candidates = [ 99.99; 99.9; 99.0; 90.0; 50.0 ]

(* The highest percentile with at least ten samples beyond it, as the
   report rule asks; [None] when even the median has fewer than ten. *)
let tail_percentile ~n = List.find_opt (fun p -> beyond ~n p >= 10) tail_candidates

(* A tail percentile of a long open-loop phase that rare pauses do not
   decide: the [p]-th percentile of each block of [block] consecutive
   requests, then the median over blocks.  One stall spoils one block,
   not the figure.  A phase shorter than a block is taken whole. *)
let block_p ?(block = 1000) ~p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.block_p: no samples";
  if n < block then percentile xs p
  else
    Eppi_prelude.Stats.median
      (Array.init (n / block) (fun b -> percentile (Array.sub xs (b * block) block) p))

type summary = {
  count : int;
  p50 : float;
  tail : (float * float) option;  (** (percentile, value) *)
}

let summarize xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.summarize: no samples";
  let p50 = Eppi_prelude.Stats.median a in
  let tail = Option.map (fun p -> (p, percentile_sorted a p)) (tail_percentile ~n) in
  { count = n; p50; tail }

let pp_summary ~scale ~unit s =
  match s.tail with
  | None -> Printf.sprintf "median %.6g %s (n=%d)" (s.p50 *. scale) unit s.count
  | Some (p, v) ->
      Printf.sprintf "median %.6g %s, p%g %.6g %s (n=%d)" (s.p50 *. scale) unit p (v *. scale)
        unit s.count

(* ---- open-loop schedule ---- *)

(* Request [i] of a schedule that starts at [t0] (ns) and offers [rate]
   requests per second falls due at [t0 + i/rate]. *)
let due_ns ~t0 ~rate i = t0 + int_of_float (float_of_int i *. 1e9 /. rate)

(* How many requests are due at [now]: those with [due_ns <= now]. *)
let due_count ~t0 ~rate ~now =
  if now < t0 then 0 else 1 + int_of_float (float_of_int (now - t0) *. rate /. 1e9)

(* A send that happens after its due time is late by the difference; an
   early send (never produced by the generator) is not negative lateness. *)
let lateness ~due ~sent = max 0 (sent - due)

(* ---- capacity ladder ---- *)

(* Fixed geometric rungs from [lo] up to at most [hi], each [step] times
   the previous one. *)
let ladder ~lo ~hi ~step =
  if lo <= 0.0 || hi < lo || step <= 1.0 then invalid_arg "Measure.ladder";
  let rec go r acc = if r > hi *. (1.0 +. 1e-9) then List.rev acc else go (r *. step) (r :: acc) in
  Array.of_list (go lo [])

(* A rung passes when its tail latency meets the limit and the backlog did
   not grow: the requests still outstanding when the schedule ended may
   exceed those outstanding at its midpoint by at most [slack]. *)
let rung_ok ~p99_ns ~limit_ns ~backlog_mid ~backlog_end ~slack =
  p99_ns <= limit_ns && backlog_end <= backlog_mid + slack

(* Highest passing rung by bisection over the fixed ladder: rungs below
   the first are assumed to pass, above the last to fail.  [probe i]
   measures rung [i].  Returns the index of the highest rung seen to pass,
   or [-1] when every probed rung failed. *)
let bisect_ladder ~rungs probe =
  let lo = ref (-1) and hi = ref rungs in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if probe mid then lo := mid else hi := mid
  done;
  !lo

(* ---- spans ---- *)

type span_row = {
  name : string;
  calls : int;
  total_ns : int;
  self_ns : int;  (** Total minus the time covered by child spans. *)
}

(* Walk each track's begin/end events with a stack.  Spans nest per
   track, so a span's children are disjoint and the time they cover is the
   sum of their durations.  Rows come in the order their names first
   opened; a span that never closed has no row. *)
let span_rows (tracks : Eppi_obs.Trace.track list) =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  let add name dur self =
    match Hashtbl.find_opt tbl name with
    | Some (c, t, s) -> Hashtbl.replace tbl name (c + 1, t + dur, s + self)
    | None -> Hashtbl.replace tbl name (1, dur, self)
  in
  List.iter
    (fun (track : Eppi_obs.Trace.track) ->
      let stack = ref [] in
      List.iter
        (fun (e : Eppi_obs.Trace.event) ->
          match e.kind with
          | Span_begin ->
              if not (List.mem e.name !order) then order := e.name :: !order;
              stack := (e.name, e.ts, ref 0) :: !stack
          | Span_end -> (
              match !stack with
              | (name, start, children) :: rest ->
                  let dur = e.ts - start in
                  add name dur (dur - !children);
                  (match rest with (_, _, parent) :: _ -> parent := !parent + dur | [] -> ());
                  stack := rest
              | [] -> ())
          | Instant | Counter -> ())
        track.track_events)
    tracks;
  List.rev !order
  |> List.filter_map (fun name ->
         Hashtbl.find_opt tbl name
         |> Option.map (fun (calls, total_ns, self_ns) -> { name; calls; total_ns; self_ns }))

(* Share of a CLI step's wall time that no in-process layer span accounts
   for: (wall - sum of spans) / wall. *)
let residue_share ~wall_s ~spans_s = (wall_s -. List.fold_left ( +. ) 0.0 spans_s) /. wall_s
