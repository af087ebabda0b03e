open Eppi_prelude
module Simnet = Eppi_simnet.Simnet
module Transport = Eppi_simnet.Transport
module Additive = Eppi_secretshare.Additive

(* A data message is named by what it carries: a provider sends at most one
   k-th share vector and one super-share vector. *)
type key = Kshares of { src : int; k : int } | Ksuper of { src : int }

let default_reliability =
  {
    Transport.timeout = 0.01;
    backoff = 2.0;
    max_timeout = 0.08;
    max_retries = 25;
    deadline = 0.25;
  }

type ft_result = {
  shares : int array array option;
  stalled : int list;
  report : Transport.stats;
}

type result = {
  coordinator_shares : int array array;
  net : Simnet.metrics;
}

(* Rough wire size: 4 bytes per residue plus a small envelope. *)
let message_size n = (4 * n) + 16

(* CPU charge per modular operation in the simulated time model. *)
let op_cost = 2e-8

let validate_inputs inputs ~c ~q =
  let fn = "Secsumshare.run" in
  let m = Array.length inputs in
  if c < 2 then invalid_arg (fn ^ ": need c >= 2");
  if m < c then invalid_arg (fn ^ ": need at least c providers");
  let n = Array.length inputs.(0) in
  if n = 0 then invalid_arg (fn ^ ": empty input vectors");
  let qi = Modarith.to_int q in
  Array.iteri
    (fun i v ->
      if Array.length v <> n then invalid_arg (fn ^ ": ragged inputs");
      Array.iter
        (fun x ->
          if x < 0 || x >= qi then
            invalid_arg (Printf.sprintf "%s: provider %d input out of [0, q)" fn i))
        v)
    inputs;
  (m, n)

let run_ft ?(transport = Transport.bare) rng ~inputs ~c ~q =
  let m, n = validate_inputs inputs ~c ~q in
  let net = Transport.create transport ~nodes:m in
  (* Per-provider accumulator over the shares it holds (own 0-th + received). *)
  let acc = Array.init m (fun _ -> Array.make n 0) in
  let received = Array.make m 0 in
  let coordinator_shares = Array.init c (fun _ -> Array.make n 0) in
  let coord_expect = Array.make c 0 in
  for i = 0 to m - 1 do
    coord_expect.(i mod c) <- coord_expect.(i mod c) + 1
  done;
  let coord_received = Array.make c 0 in
  (* Failure-detector state beside the transport's direct evidence:
     [stalled] marks live victims, providers that could not emit their
     super-share because a predecessor failed — the coordinator must not
     mistake them for dead. *)
  let stalled = Array.make m false in
  (* Each provider derives its own randomness stream so message timing cannot
     perturb another provider's draws. *)
  let provider_rngs = Array.init m (fun _ -> Rng.split rng) in
  let accumulate i dst values =
    Transport.work net i (op_cost *. float_of_int n);
    for j = 0 to n - 1 do
      dst.(j) <- Modarith.add q dst.(j) values.(j)
    done
  in
  let finish_if_complete i =
    if received.(i) = c - 1 then begin
      (* Steps 3-4: the accumulated vector is the super-share; ship it to the
         coordinator responsible for this provider. *)
      Transport.work net i (op_cost *. float_of_int n);
      Transport.send net ~src:i ~dst:(i mod c) ~size:(message_size n) (Ksuper { src = i }) acc.(i)
    end
  in
  for i = 0 to m - 1 do
    Transport.on_receive net i (fun ~src:_ key values ->
        match key with
        | Kshares _ ->
            accumulate i acc.(i) values;
            received.(i) <- received.(i) + 1;
            finish_if_complete i
        | Ksuper _ ->
            accumulate i coordinator_shares.(i) values;
            coord_received.(i) <- coord_received.(i) + 1;
            if coord_received.(i) = coord_expect.(i)
               && Array.for_all2 ( = ) coord_received coord_expect
            then Transport.complete net);
    Transport.at net ~delay:0.0 i (fun () ->
        (* Steps 1-2: split every private value into c shares; keep share 0,
           send share k to the k-th successor. *)
        let my_rng = provider_rngs.(i) in
        Transport.work net i (op_cost *. float_of_int (n * c));
        let vectors = Array.init c (fun _ -> Array.make n 0) in
        for j = 0 to n - 1 do
          let shares = Additive.share my_rng ~q ~c inputs.(i).(j) in
          Array.iteri (fun k s -> vectors.(k).(j) <- s) shares
        done;
        for j = 0 to n - 1 do
          acc.(i).(j) <- Modarith.add q acc.(i).(j) vectors.(0).(j)
        done;
        for k = 1 to c - 1 do
          Transport.send net ~src:i ~dst:((i + k) mod m) ~size:(message_size n)
            (Kshares { src = i; k }) vectors.(k)
        done;
        finish_if_complete i);
    (* Deadline: a provider still short of shares blames exactly the ring
       predecessors whose vectors are missing, and flags itself stalled. *)
    Transport.on_deadline net ~stage:1 i (fun () ->
        if received.(i) < c - 1 then begin
          stalled.(i) <- true;
          for k = 1 to c - 1 do
            let src = (((i - k) mod m) + m) mod m in
            if not (Transport.delivered net (Kshares { src; k })) then Transport.blame net src
          done
        end)
  done;
  (* Coordinators check for missing super-shares once the providers'
     deadline has fired.  A stalled provider's super-share is missing
     because of someone else's failure: it is not blamed. *)
  for r = 0 to c - 1 do
    Transport.on_deadline net ~stage:2 r (fun () ->
        for i = 0 to m - 1 do
          if i mod c = r && (not stalled.(i)) && not (Transport.delivered net (Ksuper { src = i }))
          then Transport.blame net i
        done)
  done;
  Transport.run net;
  {
    shares =
      (if Array.for_all2 ( = ) coord_received coord_expect then Some coordinator_shares
       else None);
    stalled = List.filter (fun i -> stalled.(i)) (List.init m Fun.id);
    report = Transport.stats net;
  }

let run rng ~inputs ~c ~q =
  match run_ft rng ~inputs ~c ~q with
  | { shares = Some coordinator_shares; report; _ } ->
      { coordinator_shares; net = report.net }
  | { shares = None; _ } ->
      failwith "Secsumshare.run: a coordinator is missing super-shares (lossy network?)"

let reconstruct ~q shares =
  match Array.length shares with
  | 0 -> [||]
  | _ ->
      let n = Array.length shares.(0) in
      Array.init n (fun j ->
          Array.fold_left (fun acc vec -> Modarith.add q acc vec.(j)) 0 shares)
