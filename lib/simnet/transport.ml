type reliability = {
  timeout : float;
  backoff : float;
  max_timeout : float;
  max_retries : int;
  deadline : float;
}

type t = {
  plan : Simnet.fault_plan option;
  reliability : reliability option;
}

let bare = { plan = None; reliability = None }

type ('key, 'msg) packet = Data of 'key * 'msg | Ack of 'key

type ('key, 'msg) net = {
  sim : ('key, 'msg) packet Simnet.t;
  reliability : reliability option;
  seen : ('key, unit) Hashtbl.t;  (* receiver side: keys delivered *)
  acked : ('key, unit) Hashtbl.t;  (* sender side: keys acknowledged *)
  retried : ('key, unit) Hashtbl.t;
  blamed : (int, unit) Hashtbl.t;
  mutable retransmissions : int;
  mutable duplicates : int;
  mutable last_progress : float;
  mutable finished : float option;
}

let ack_size = 16

let create (t : t) ~nodes =
  {
    sim = Simnet.create ?plan:t.plan ~nodes ();
    reliability = t.reliability;
    seen = Hashtbl.create 64;
    acked = Hashtbl.create 64;
    retried = Hashtbl.create 8;
    blamed = Hashtbl.create 8;
    retransmissions = 0;
    duplicates = 0;
    last_progress = 0.0;
    finished = None;
  }

let on_receive net node handler =
  Simnet.on_receive net.sim node (fun sim ~src packet ->
      match packet with
      | Ack key -> Hashtbl.replace net.acked key ()
      | Data (key, msg) ->
          (* Always re-ack: the previous ack may have been lost. *)
          if net.reliability <> None then
            Simnet.send sim ~src:node ~dst:src ~size:ack_size (Ack key);
          if Hashtbl.mem net.seen key then net.duplicates <- net.duplicates + 1
          else begin
            Hashtbl.replace net.seen key ();
            if Simnet.now sim > net.last_progress then net.last_progress <- Simnet.now sim;
            handler ~src key msg
          end)

let send net ~src ~dst ~size key msg =
  let packet = Data (key, msg) in
  Simnet.send net.sim ~src ~dst ~size packet;
  match net.reliability with
  | None -> ()
  | Some r ->
      let rec arm attempt timeout =
        Simnet.at net.sim ~delay:timeout src (fun sim ->
            if (not (Hashtbl.mem net.acked key)) && net.finished = None then
              if attempt < r.max_retries then begin
                net.retransmissions <- net.retransmissions + 1;
                Hashtbl.replace net.retried key ();
                Simnet.send sim ~src ~dst ~size packet;
                arm (attempt + 1) (Float.min (timeout *. r.backoff) r.max_timeout)
              end
              else
                (* No ack despite max_retries copies: declare dst dead. *)
                Hashtbl.replace net.blamed dst ())
      in
      arm 0 r.timeout

let at net ~delay node f = Simnet.at net.sim ~delay node (fun _ -> f ())

let on_deadline net ~stage node check =
  match net.reliability with
  | None -> ()
  | Some r ->
      Simnet.at net.sim ~delay:(float_of_int stage *. r.deadline) node (fun _ ->
          if net.finished = None then check ())

let blame net node = Hashtbl.replace net.blamed node ()
let delivered net key = Hashtbl.mem net.seen key

let complete net =
  if net.finished = None then net.finished <- Some (Simnet.now net.sim)

let work net node duration = Simnet.work net.sim node duration
let run net = Simnet.run net.sim

type stats = {
  retransmissions : int;
  duplicates : int;
  suspects : int list;
  protocol_time : float;
  net : Simnet.metrics;
}

let stats net =
  let metrics = Simnet.metrics net.sim in
  {
    retransmissions = net.retransmissions;
    duplicates = net.duplicates;
    suspects = List.sort compare (Hashtbl.fold (fun node () acc -> node :: acc) net.blamed []);
    protocol_time =
      (match (net.reliability, net.finished) with
      | None, _ -> metrics.completion_time
      | Some _, Some t -> t
      | Some _, None -> net.last_progress);
    net = metrics;
  }

let retried net = Hashtbl.fold (fun key () acc -> key :: acc) net.retried []
