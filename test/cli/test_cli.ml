(* The eppi executable run as a child process: every command that reads
   an index refuses a bad file (wrong magic, an old CSV index, an unknown
   version, a truncated file) with a typed message and exit status 1,
   never an uncaught exception; [export --csv] reproduces the CSV that
   [construct] used to write; and [republish] of a corrupt file comes
   back with the daemon's typed rejection. *)

let exe =
  let e = Sys.getenv "EPPI_EXE" in
  if Filename.is_relative e then Filename.concat (Sys.getcwd ()) e else e

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let dir =
  lazy
    (let d = Filename.temp_file "eppi-cli" "" in
     Sys.remove d;
     Sys.mkdir d 0o700;
     at_exit (fun () ->
         Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
         Sys.rmdir d);
     d)

let path name = Filename.concat (Lazy.force dir) name

(* Run eppi with [args]; its stdout and stderr go to files.  Returns the
   exit status, stdout and stderr. *)
let eppi args =
  let out = path "stdout" and err = path "stderr" in
  let fd f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let fo = fd out and fe = fd err in
  let pid =
    Unix.create_process exe (Array.of_list ("eppi" :: args)) Unix.stdin fo fe
  in
  Unix.close fo;
  Unix.close fe;
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  (status, read_file out, read_file err)

let eppi_ok args =
  let status, out, err = eppi args in
  if status <> 0 then
    Alcotest.fail (Printf.sprintf "eppi %s: exit %d\n%s" (String.concat " " args) status err);
  out

(* A dataset and two index files, built once. *)
let fixture =
  lazy
    (let run args = ignore (eppi_ok args) in
     run [ "generate"; "--owners"; "60"; "--providers"; "24"; "--seed"; "5"; "-o"; path "net.csv" ];
     run [ "construct"; "-d"; path "net.csv"; "-o"; path "a.eppi" ];
     run [ "construct"; "-d"; path "net.csv"; "--seed"; "9"; "--policy"; "basic"; "-o";
           path "b.eppi" ])

let test_artifact_and_export () =
  Lazy.force fixture;
  let contents = read_file (path "a.eppi") in
  check_bool "starts with the magic" true
    (String.length contents > 8 && String.sub contents 0 8 = Eppi_net.Index_file.magic);
  let index =
    match Eppi_net.Index_file.decode contents with
    | Ok i -> i
    | Error e -> Alcotest.fail (Eppi_net.Index_file.error_to_string e)
  in
  Alcotest.(check string) "export --csv is Index.to_csv" (Eppi.Index.to_csv index)
    (eppi_ok [ "export"; "--csv"; "-i"; path "a.eppi" ]);
  Alcotest.(check string) "without -o the same file goes to stdout" contents
    (eppi_ok [ "construct"; "-d"; path "net.csv" ]);
  let status, _, err = eppi [ "export"; "-i"; path "a.eppi" ] in
  check_int "export without --csv is a usage error" 2 status;
  check_bool "says why" true (contains err "--csv")

(* Each bad file, through every command that reads an index. *)
let test_bad_files () =
  Lazy.force fixture;
  let good = read_file (path "a.eppi") in
  let v2 = Bytes.of_string good in
  Bytes.set v2 8 '\x02';
  let bad =
    [
      ("bad-magic.eppi", "no magic", "not an eppi index file", []);
      ("version.eppi", Bytes.to_string v2, "unsupported index codec version 2", []);
      ("truncated.eppi", String.sub good 0 (String.length good - 3), "truncated", []);
      ("header.eppi", String.sub good 0 5, "truncated", []);
      ( "old.csv",
        Eppi.Index.to_csv (Result.get_ok (Eppi_net.Index_file.decode good)),
        "CSV index",
        [ "eppi construct"; "eppi export" ] );
    ]
  in
  List.iter
    (fun (name, contents, message, also) ->
      write_file (path name) contents;
      let f = path name in
      List.iter
        (fun args ->
          let what = Printf.sprintf "%s: eppi %s" name (List.hd args) in
          let status, _, err = eppi args in
          check_int (what ^ " exits 1") 1 status;
          check_bool (what ^ " says " ^ message) true (contains err message);
          List.iter (fun s -> check_bool (what ^ " names " ^ s) true (contains err s)) also;
          check_bool (what ^ " raises nothing") false
            (contains err "exception" || contains err "Fatal error"))
        [
          [ "query"; "-i"; f; "--owner"; "0" ];
          [ "serve"; "-i"; f; "--queries"; "10" ];
          [ "evaluate"; "-d"; path "net.csv"; "-i"; f ];
          [ "attack"; "-d"; path "net.csv"; "-i"; f ];
          [ "export"; "--csv"; "-i"; f ];
        ])
    bad

let rec wait_for_socket sock tries =
  if Sys.file_exists sock then ()
  else if tries = 0 then Alcotest.fail "daemon socket never appeared"
  else begin
    Unix.sleepf 0.05;
    wait_for_socket sock (tries - 1)
  end

(* A file whose magic and version byte are fine ships as it is; the
   daemon's decoder rejects the body, and republish exits 1 with its
   typed error.  The daemon keeps serving the old generation. *)
let test_republish_corrupt () =
  Lazy.force fixture;
  let good = read_file (path "b.eppi") in
  write_file (path "corrupt.eppi") (good ^ "\x00");
  write_file (path "short.eppi") (String.sub good 0 (String.length good - 2));
  let sock = path "d.sock" in
  let log = Unix.openfile (path "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe
      [| "eppi"; "serve"; "-i"; path "a.eppi"; "--listen"; sock; "--domains"; "1" |]
      Unix.stdin log log
  in
  Unix.close log;
  Fun.protect
    ~finally:(fun () ->
      ignore (eppi [ "shutdown"; "--connect"; sock ]);
      ignore (Unix.waitpid [] pid))
    (fun () ->
      wait_for_socket sock 100;
      List.iter
        (fun (name, message) ->
          let status, _, err = eppi [ "republish"; "--connect"; sock; "-i"; path name ] in
          check_int (name ^ ": republish exits 1") 1 status;
          check_bool (name ^ ": the daemon's typed error") true
            (contains err "republish rejected" && contains err message))
        [
          ("corrupt.eppi", "malformed index: 1 trailing bytes");
          ("short.eppi", "truncated input");
        ];
      Alcotest.(check string) "a good file still installs" "generation 2\n"
        (eppi_ok [ "republish"; "--connect"; sock; "-i"; path "b.eppi" ]))

(* A completed lossy secure construction writes the same bytes as the
   fault-free one at the same seed.  At ε = 0.3 some identities are common
   and λ < 1, so the decoy draws and every β < 1 depend on the seed's
   streams: a run that split them differently would write another file. *)
let test_drop_is_bit_identical () =
  ignore
    (eppi_ok
       [ "generate"; "--owners"; "120"; "--providers"; "40"; "--seed"; "3"; "--epsilon"; "0.3";
         "-o"; path "lossy.csv" ]);
  let construct extra out =
    let status, _, err =
      eppi ([ "construct"; "-d"; path "lossy.csv"; "--secure"; "--seed"; "5"; "-o"; path out ] @ extra)
    in
    check_int ("construct " ^ String.concat " " extra) 0 status;
    err
  in
  let clean = construct [] "clean.eppi" in
  let lossy = construct [ "--drop"; "0.05" ] "lossy.eppi" in
  let lambda =
    let i = String.length clean - String.length "0.0000\n" in
    float_of_string (String.sub clean i 6)
  in
  check_bool (Printf.sprintf "lambda %g < 1" lambda) true (lambda < 1.0);
  check_bool "the lossy run completed" true (contains lossy "(complete)");
  check_bool "the lossy run retransmitted" false (contains lossy " 0+0 retransmissions");
  check_bool "identical index files" true
    (read_file (path "clean.eppi") = read_file (path "lossy.eppi"))

(* More coordinators than providers is a usage error, with or without
   faults, not an uncaught exception. *)
let test_too_few_providers () =
  Lazy.force fixture;
  List.iter
    (fun extra ->
      let what = String.concat " " ("--secure -c 30" :: extra) in
      let status, _, err =
        eppi ([ "construct"; "-d"; path "net.csv"; "--secure"; "-c"; "30" ] @ extra)
      in
      check_int (what ^ " exits 2") 2 status;
      check_bool (what ^ " says why") true (contains err "24 providers");
      check_bool (what ^ " raises nothing") false (contains err "exception"))
    [ []; [ "--drop"; "0.05" ] ]

let () =
  Alcotest.run "cli"
    [
      ( "index file",
        [
          Alcotest.test_case "construct writes it, export --csv reads it" `Quick
            test_artifact_and_export;
          Alcotest.test_case "bad files exit 1 with a typed error" `Quick test_bad_files;
          Alcotest.test_case "republish of a corrupt file" `Quick test_republish_corrupt;
        ] );
      ( "construct",
        [
          Alcotest.test_case "--drop output is bit-identical to the fault-free run" `Quick
            test_drop_is_bit_identical;
          Alcotest.test_case "too few providers for c" `Quick test_too_few_providers;
        ] );
    ]
