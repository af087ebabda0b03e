(* Child processes of the benchmark: spawning, timed waits, and the
   guarantee that none outlives the bench.  Every pid goes into [live]
   until it is reaped; [kill_all] (installed at exit and on SIGINT/SIGTERM)
   kills and reaps whatever is left. *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let now_ns = Eppi_prelude.Clock.monotonic_ns
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (EINTR, _, _) -> waitpid_retry flags pid

let reap pid =
  match waitpid_retry [] pid with
  | _ -> Hashtbl.remove live pid
  | exception Unix.Unix_error (ECHILD, _, _) -> Hashtbl.remove live pid

let kill_all () =
  Hashtbl.iter (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) live;
  List.iter reap (Hashtbl.fold (fun pid () acc -> pid :: acc) live [])

let devnull = lazy (Unix.openfile "/dev/null" [ O_RDWR ] 0)

(* Start [exe args] with stdout and stderr redirected to the given files
   (relative to the current directory). *)
let spawn ~exe ~args ~stdout ~stderr =
  let out = Unix.openfile stdout [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let err = Unix.openfile stderr [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) (Lazy.force devnull) out err)
  in
  Hashtbl.replace live pid ();
  pid

type exit = Exited of int | Killed of string

let exit_of = function
  | Unix.WEXITED c -> Exited c
  | Unix.WSIGNALED s -> Killed (Printf.sprintf "signal %d" s)
  | Unix.WSTOPPED s -> Killed (Printf.sprintf "stopped by %d" s)

(* Non-blocking check: [Some exit] once the child has ended (and is
   reaped). *)
let poll pid =
  match waitpid_retry [ WNOHANG ] pid with
  | 0, _ -> None
  | _, status ->
      Hashtbl.remove live pid;
      Some (exit_of status)

(* Block until the child ends, polling every millisecond so the measured
   end is within a millisecond of the real one; kill it after [timeout]
   seconds. *)
let wait ?(timeout = 170.0) pid =
  let t0 = now_ns () in
  let rec go () =
    match poll pid with
    | Some e -> e
    | None ->
        if seconds_since t0 > timeout then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid;
          Killed "timeout"
        end
        else begin
          Unix.sleepf 0.001;
          go ()
        end
  in
  go ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let file_size path = (Unix.stat path).st_size

(* ---- /proc readers ---- *)

(* /proc files report no length: read until end of file. *)
let read_proc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents b
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ()
      in
      go ())

(* Peak resident set (VmHWM) in bytes. *)
let vm_hwm_bytes pid =
  let status = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb * 1024)

(* CPU time of every thread of a process, in seconds, from the
   nanosecond run-time counters in /proc/<pid>/task/<tid>/schedstat. *)
let cpu_seconds pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      let stat = read_proc (Filename.concat dir (tid ^ "/schedstat")) in
      acc + Scanf.sscanf stat "%d" Fun.id)
    0 (Sys.readdir dir)
  |> fun ns -> float_of_int ns /. 1e9

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
