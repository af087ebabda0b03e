(* Open-loop load over one connection.

   Request [i] of a phase falls due at [t0 + i/rate] and is sent as soon
   as the generator gets to it, whether or not earlier replies have come
   back.  Latency is timed from the due time, so a stall also charges the
   requests that queued behind it; how late each send ran is recorded as
   lateness.  One thread, one socket, [select] for both directions: the
   daemon replies in request order, so replies match the oldest
   outstanding request. *)

open Eppi_net

type conn = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  rbuf : Bytes.t;
  out : Buffer.t;
  mutable out_off : int;  (** Bytes of [out] already written. *)
}

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  {
    fd;
    dec = Wire.Decoder.create ();
    rbuf = Bytes.create 65536;
    out = Buffer.create 65536;
    out_off = 0;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Growable int sample buffer. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_floats t = Array.init t.n (fun i -> float_of_int t.a.(i))
end

type reply = {
  index : int;
  owner : int;
  due : int;
  sent : int;
  recv : int;
  response : Wire.response;
}

type t = {
  conn : conn;
  rate : float;
  t0 : int;
  owner_of : int -> int;
  on_reply : reply -> unit;
  outstanding : (int * int * int * int) Queue.t;  (** index, owner, due, sent *)
  lag : Ints.t;  (** Lateness of every send, ns. *)
  window : int;  (** At most this many requests outstanding. *)
  mutable next : int;
}

(* With [window], no more than that many requests are ever outstanding;
   with a rate far above the daemon's capacity that makes a closed loop
   of [window] requests in flight. *)
let start ?(window = max_int) conn ~rate ~owner_of ~on_reply =
  {
    conn;
    rate;
    window;
    t0 = Proc.now_ns ();
    owner_of;
    on_reply;
    outstanding = Queue.create ();
    lag = Ints.create ();
    next = 0;
  }

let sent t = t.next
let backlog t = Queue.length t.outstanding

(* The daemon closed or reset the connection mid-phase. *)
exception Closed

let flush_out c =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 then
    match Unix.single_write_substring c.fd (Buffer.contents c.out) c.out_off len with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_off <- 0
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> raise Closed

let read_replies t =
  let c = t.conn in
  match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
  | 0 -> raise Closed
  | n ->
      let recv = Proc.now_ns () in
      Wire.Decoder.feed c.dec c.rbuf ~off:0 ~len:n;
      let rec frames () =
        match Wire.Decoder.next c.dec with
        | Ok None -> ()
        | Ok (Some (Wire.Response response)) -> (
            match Queue.take_opt t.outstanding with
            | None -> failwith "loadgen: reply with no outstanding request"
            | Some (index, owner, due, sent) ->
                t.on_reply { index; owner; due; sent; recv; response };
                frames ())
        | Ok (Some (Wire.Request _)) -> failwith "loadgen: request frame from the daemon"
        | Error e -> failwith ("loadgen: " ^ Wire.error_to_string e)
      in
      frames ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (ECONNRESET, _, _) -> raise Closed

(* Send what is due, then wait for replies (or writability) until the
   next due time or [until_ns], whichever is first. *)
let step t ~sending ~until_ns =
  let now = Proc.now_ns () in
  if sending then begin
    let due = E2ebench.Measure.due_count ~t0:t.t0 ~rate:t.rate ~now in
    while t.next < due && Queue.length t.outstanding < t.window do
      let i = t.next in
      let owner = t.owner_of i in
      let d = E2ebench.Measure.due_ns ~t0:t.t0 ~rate:t.rate i in
      Wire.encode_request t.conn.out (Wire.Query { owner });
      Queue.add (i, owner, d, now) t.outstanding;
      Ints.push t.lag (E2ebench.Measure.lateness ~due:d ~sent:now);
      t.next <- i + 1
    done
  end;
  flush_out t.conn;
  let wake =
    if sending && Queue.length t.outstanding < t.window then
      min until_ns (E2ebench.Measure.due_ns ~t0:t.t0 ~rate:t.rate t.next)
    else until_ns
  in
  let timeout = Float.max 0.0 (float_of_int (wake - Proc.now_ns ()) /. 1e9) in
  let writes = if Buffer.length t.conn.out > t.conn.out_off then [ t.conn.fd ] else [] in
  match Unix.select [ t.conn.fd ] writes [] timeout with
  | r, _, _ -> if r <> [] then read_replies t
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* Keep the schedule running until [until_ns] or until [stop ()] holds;
   [poll] runs between steps (e.g. to notice that a child process
   ended). *)
let run_until ?(poll = ignore) ?(stop = fun () -> false) t ~until_ns =
  while Proc.now_ns () < until_ns && not (stop ()) do
    step t ~sending:true ~until_ns;
    poll ()
  done

(* Stop sending and wait up to [timeout] seconds for the outstanding
   replies; returns how many never came. *)
let drain t ~timeout =
  let deadline = Proc.now_ns () + int_of_float (timeout *. 1e9) in
  while backlog t > 0 && Proc.now_ns () < deadline do
    step t ~sending:false ~until_ns:deadline
  done;
  let unanswered = backlog t in
  Queue.clear t.outstanding;
  unanswered
