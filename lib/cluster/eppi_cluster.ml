module Addr = Eppi_net.Addr
module Wire = Eppi_net.Wire
module Net_client = Eppi_net.Client
module Index_codec = Eppi_net.Index_codec
module Rng = Eppi_prelude.Rng
module Clock = Eppi_prelude.Clock

module Replica_set = struct
  type t = { members : Addr.t list }

  let of_addrs members =
    if members = [] then invalid_arg "Replica_set: empty replica set";
    let seen = Hashtbl.create 8 in
    List.iter
      (fun a ->
        let key = Addr.to_string a in
        if Hashtbl.mem seen key then
          invalid_arg (Printf.sprintf "Replica_set: duplicate replica %s" key);
        Hashtbl.add seen key ())
      members;
    { members }

  let parse s =
    let parts = String.split_on_char ',' s |> List.map String.trim in
    match
      List.map
        (fun part ->
          match Addr.parse part with
          | Ok a -> a
          | Error e ->
              failwith (Printf.sprintf "%s in %S" (Addr.parse_error_to_string e) part))
        parts
    with
    | members -> ( try Ok (of_addrs members) with Invalid_argument msg -> Error msg)
    | exception Failure msg -> Error msg

  let of_string s =
    match parse s with
    | Ok t -> t
    | Error msg -> invalid_arg (Printf.sprintf "Replica_set.of_string: %s" msg)

  let addrs t = t.members
  let size t = List.length t.members
  let to_string t = String.concat "," (List.map Addr.to_string t.members)
end

module Fanout = struct
  type replica_result = {
    addr : Addr.t;
    outcome : (int, string) result;
    attempts : int;
    seconds : float;
  }

  type report = {
    results : replica_result list;
    succeeded : int;
    failed : int;
    generation : int option;
    wall_seconds : float;
  }

  (* One republish attempt against one replica: connect fresh (no
     reconnect — retry policy lives here, where it can distinguish
     transient from fatal), push the shared payload, classify. *)
  let attempt_once ~request_timeout addr data =
    match Net_client.connect ~retries:0 ~reconnect:false ~request_timeout addr with
    | exception Unix.Unix_error (e, _, _) -> Error (`Transient (Unix.error_message e))
    | client -> (
        match
          Fun.protect
            ~finally:(fun () -> Net_client.close client)
            (fun () -> Net_client.call_result client (Wire.Republish_binary { data }))
        with
        | Ok (Wire.Republished { generation }) -> Ok generation
        | Ok (Wire.Server_error msg) -> Error (`Fatal ("server rejected republish: " ^ msg))
        | Ok _ -> Error (`Fatal "unexpected reply to republish")
        | Error Net_client.Timed_out -> Error (`Transient "request timed out")
        | Error (Net_client.Connection_lost msg) -> Error (`Transient ("connection lost: " ^ msg))
        | exception Net_client.Protocol_error msg -> Error (`Transient msg)
        | exception Unix.Unix_error (e, _, _) -> Error (`Transient (Unix.error_message e)))

  let push_replica ~retries ~retry_delay ~request_timeout ~rng addr data =
    let t0 = Clock.seconds () in
    let finish outcome attempts =
      { addr; outcome; attempts; seconds = Clock.seconds () -. t0 }
    in
    let rec go k =
      match attempt_once ~request_timeout addr data with
      | Ok generation -> finish (Ok generation) k
      | Error (`Fatal msg) -> finish (Error msg) k
      | Error (`Transient msg) ->
          if k > retries then finish (Error msg) k
          else begin
            Unix.sleepf
              (Net_client.backoff_delay ~base:retry_delay ~attempt:k ~u:(Rng.float rng 1.0));
            go (k + 1)
          end
    in
    go 1

  let republish_payload ?(retries = 3) ?(retry_delay = 0.05) ?(request_timeout = 30.0)
      ?(seed = 0x5e7) set data =
    if retries < 0 then invalid_arg "Fanout.republish: negative retries";
    let t0 = Clock.seconds () in
    let rng = Rng.create seed in
    (* One domain per replica; each carries its own split of the jitter
       stream, so the fan-out is concurrent yet deterministic under a
       fixed seed. *)
    let domains =
      List.map
        (fun addr ->
          let rng = Rng.split rng in
          Domain.spawn (fun () ->
              push_replica ~retries ~retry_delay ~request_timeout ~rng addr data))
        (Replica_set.addrs set)
    in
    let results = List.map Domain.join domains in
    let succeeded = List.length (List.filter (fun r -> Result.is_ok r.outcome) results) in
    let generation =
      match List.filter_map (fun r -> Result.to_option r.outcome) results with
      | [] -> None
      | g :: rest -> if List.for_all (Int.equal g) rest then Some g else None
    in
    {
      results;
      succeeded;
      failed = List.length results - succeeded;
      generation;
      wall_seconds = Clock.seconds () -. t0;
    }

  let republish ?retries ?retry_delay ?request_timeout ?seed set index =
    republish_payload ?retries ?retry_delay ?request_timeout ?seed set (Index_codec.encode index)

  let status ?(request_timeout = 30.0) set =
    List.map
      (fun addr ->
        let probe () =
          match Net_client.connect ~retries:0 ~reconnect:false ~request_timeout addr with
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | client -> (
              match
                Fun.protect
                  ~finally:(fun () -> Net_client.close client)
                  (fun () -> Net_client.cluster_status client)
              with
              | status -> Ok status
              | exception Net_client.Protocol_error msg -> Error msg
              | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
        in
        (addr, probe ()))
      (Replica_set.addrs set)

  let converged statuses =
    match statuses with
    | [] -> None
    | _ -> (
        match
          List.map
            (function
              | _, Ok (s : Wire.cluster_status) -> Some s.generation
              | _, Error _ -> None)
            statuses
        with
        | Some g :: rest when List.for_all (Option.equal Int.equal (Some g)) rest -> Some g
        | _ -> None)
end

module Client = struct
  type policy = Round_robin | Least_inflight

  exception No_replica of string
  exception Stale_generation of { newest : int; got : int }

  type endpoint = {
    e_addr : Addr.t;
    mutable conn : Net_client.t option;
    mutable healthy : bool;
    mutable down_until : float;  (* monotonic seconds; cooldown gate when unhealthy *)
    mutable dispatched : int;
    mutable answered : int;
    mutable failures : int;
  }

  type t = {
    endpoints : endpoint array;
    policy : policy;
    request_timeout : float;
    cooldown : float;
    rng : Rng.t;
    mutable rr : int;
    mutable failovers : int;
    mutable failover_seconds : float list;
    mutable max_generation : int;
    mutable fail_start : float option;  (* set at outage detection, cleared at first success *)
  }

  let create ?(policy = Round_robin) ?(request_timeout = 30.0) ?(cooldown = 1.0) ?(seed = 0xc1)
      set =
    if cooldown < 0.0 then invalid_arg "Cluster.Client: negative cooldown";
    let endpoints =
      Replica_set.addrs set
      |> List.map (fun e_addr ->
             {
               e_addr;
               conn = None;
               healthy = true;
               down_until = 0.0;
               dispatched = 0;
               answered = 0;
               failures = 0;
             })
      |> Array.of_list
    in
    {
      endpoints;
      policy;
      request_timeout;
      cooldown;
      rng = Rng.create seed;
      rr = 0;
      failovers = 0;
      failover_seconds = [];
      max_generation = -1;
      fail_start = None;
    }

  let select policy ~rr slots =
    let n = Array.length slots in
    if n = 0 then None
    else
      match policy with
      | Round_robin ->
          let rec go k =
            if k >= n then None
            else
              let i = (((rr mod n) + n) mod n + k) mod n in
              if fst slots.(i) then Some i else go (k + 1)
          in
          go 0
      | Least_inflight ->
          let best = ref None in
          Array.iteri
            (fun i (ok, inflight) ->
              if ok then
                match !best with
                | None -> best := Some i
                | Some j -> if inflight < snd slots.(j) then best := Some i)
            slots;
          !best

  let inflight e = e.dispatched - e.answered
  let selectable e now = e.healthy || now >= e.down_until

  let close_conn e =
    (match e.conn with
    | Some c -> ( try Net_client.close c with _ -> ())
    | None -> ());
    e.conn <- None

  let mark_down t e now =
    close_conn e;
    e.healthy <- false;
    e.failures <- e.failures + 1;
    (* The dead socket's unanswered requests are being re-issued elsewhere;
       they no longer count against this endpoint's load. *)
    e.answered <- e.dispatched;
    e.down_until <- now +. (t.cooldown *. (0.5 +. (0.5 *. Rng.float t.rng 1.0)));
    if t.fail_start = None then t.fail_start <- Some now

  let ensure_conn t e =
    match e.conn with
    | Some c -> c
    | None ->
        let c =
          Net_client.connect ~retries:0 ~reconnect:false ~request_timeout:t.request_timeout
            e.e_addr
        in
        e.conn <- Some c;
        c

  let observe_generation t (response : Wire.response) =
    let g =
      match response with
      | Reply { generation; _ }
      | Batch_reply { generation; _ }
      | Audit_reply { generation; _ }
      | Republished { generation }
      | Fuzzy_reply { generation; _ }
      | Cluster_status_reply { generation; _ } ->
          generation
      | Stats_json _ | Pong | Shutting_down | Server_error _ | Telemetry_json _ -> -1
    in
    if g > t.max_generation then t.max_generation <- g

  (* Issue one window, failing over until it lands or every endpoint has
     been tried this call.  Returns the answering endpoint's index so the
     typed wrappers can penalize a stale replica. *)
  let issue t requests =
    let count = List.length requests in
    let rec try_next excluded =
      let now = Clock.seconds () in
      let slots =
        Array.map
          (fun e -> ((not (List.memq e excluded)) && selectable e now, inflight e))
          t.endpoints
      in
      match select t.policy ~rr:t.rr slots with
      | None -> raise (No_replica "every replica is down or cooling down")
      | Some i -> (
          t.rr <- i + 1;
          let e = t.endpoints.(i) in
          match
            let c = ensure_conn t e in
            e.dispatched <- e.dispatched + count;
            let responses = Net_client.pipeline c requests in
            e.answered <- e.answered + count;
            responses
          with
          | responses ->
              e.healthy <- true;
              (match t.fail_start with
              | Some t_fail ->
                  t.failovers <- t.failovers + 1;
                  t.failover_seconds <- (Clock.seconds () -. t_fail) :: t.failover_seconds;
                  t.fail_start <- None
              | None -> ());
              List.iter (observe_generation t) responses;
              (i, responses)
          | exception (Net_client.Protocol_error _ | Unix.Unix_error _) ->
              mark_down t e (Clock.seconds ());
              try_next (e :: excluded))
    in
    try_next []

  let pipeline t requests = snd (issue t requests)

  let query t ~owner =
    let i, responses = issue t [ Wire.Query { owner } ] in
    match responses with
    | [ Wire.Reply { generation; reply } ] ->
        if generation < t.max_generation then begin
          (* Penalize the laggard: cool it down (connection kept — the
             replica is alive, just behind) so the retry lands fresher. *)
          let e = t.endpoints.(i) in
          e.healthy <- false;
          e.down_until <- Clock.seconds () +. (t.cooldown *. (0.5 +. (0.5 *. Rng.float t.rng 1.0)));
          raise (Stale_generation { newest = t.max_generation; got = generation })
        end;
        (generation, reply)
    | [ other ] -> Net_client.unexpected "query" other
    | _ -> raise (Net_client.Protocol_error "cluster query: response count mismatch")

  type summary = {
    requests : int;
    served : int;
    unknown : int;
    shed : int;
    providers_listed : int;
    failovers : int;
    wall_seconds : float;
  }

  type stats = {
    dispatched : int array;
    answered : int array;
    failures : int array;
    failovers : int;
    failover_seconds : float list;
    max_generation : int;
  }

  let stats t =
    {
      dispatched = Array.map (fun (e : endpoint) -> e.dispatched) t.endpoints;
      answered = Array.map (fun (e : endpoint) -> e.answered) t.endpoints;
      failures = Array.map (fun (e : endpoint) -> e.failures) t.endpoints;
      failovers = t.failovers;
      failover_seconds = t.failover_seconds;
      max_generation = t.max_generation;
    }

  let replay ?(depth = 32) (t : t) workload =
    if depth < 1 then invalid_arg "Cluster.replay: non-positive depth";
    let t0 = Clock.seconds () in
    let failovers0 = t.failovers in
    let requests = Array.length workload in
    let served = ref 0 and unknown = ref 0 and shed = ref 0 and providers = ref 0 in
    let pos = ref 0 in
    while !pos < requests do
      let window = min depth (requests - !pos) in
      let batch =
        List.init window (fun k -> Wire.Query { owner = workload.(!pos + k) })
      in
      List.iter
        (fun response ->
          match (response : Wire.response) with
          | Reply { reply = Providers ps; _ } ->
              incr served;
              providers := !providers + List.length ps
          | Reply { reply = Unknown_owner; _ } -> incr unknown
          | Reply { reply = Shed_rate_limit | Shed_queue_full; _ } -> incr shed
          | other -> Net_client.unexpected "replay query" other)
        (pipeline t batch);
      pos := !pos + window
    done;
    {
      requests;
      served = !served;
      unknown = !unknown;
      shed = !shed;
      providers_listed = !providers;
      failovers = t.failovers - failovers0;
      wall_seconds = Clock.seconds () -. t0;
    }

  let close t = Array.iter close_conn t.endpoints
end
