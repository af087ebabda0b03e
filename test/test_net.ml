(* Tests for the network front-end (lib/net): wire-codec round-trips for
   every frame type, typed decode errors on garbage, split-read
   reassembly, the address parser, and the live daemon — a select loop in
   a spawned domain answering pipelined queries concurrently with a
   hot-swap republish. *)

open Eppi_prelude
open Eppi_net
module Serve = Eppi_serve.Serve
module Workload = Eppi_serve.Workload
module Probe = Eppi_fuzzy.Probe
module Resolver = Eppi_fuzzy.Resolver
module Roster = Eppi_fuzzy.Roster
module Bloom = Eppi_linkage.Bloom
module Demographic = Eppi_linkage.Demographic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  if m = 0 then true else go 0

(* Same deterministic index shape as test_serve: row j holds 1 + (j mod 5)
   providers at deterministic positions. *)
let test_index ~n ~m =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for k = 0 to j mod 5 do
      Bitmatrix.set matrix ~row:j ~col:((j + (k * 7)) mod m) true
    done
  done;
  Eppi.Index.of_matrix matrix

(* A second index over the same dimensions with different postings, so a
   hot swap visibly changes the answers. *)
let test_index_v2 ~n ~m =
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  for j = 0 to n - 1 do
    for k = 0 to (j + 2) mod 4 do
      Bitmatrix.set matrix ~row:j ~col:((j + 3 + (k * 5)) mod m) true
    done
  done;
  Eppi.Index.of_matrix matrix

(* ---------- Wire codec ---------- *)

(* Fuzzy-probe samples built with the real encoder, so the frames carry
   realistic sparse filters; the partial probe has empty fields and no
   blocking keys. *)
let sample_params = (Resolver.default_config ~seed:0x5EED).Resolver.params

let sample_probe =
  Probe.of_demographic sample_params
    { Demographic.first = "maria"; last = "garcia"; dob = (1961, 4, 18); zip = "60614"; gender = Female }

let partial_probe =
  Probe.of_demographic sample_params
    { Demographic.first = "jo"; last = ""; dob = (0, 0, 0); zip = ""; gender = Other }

let sample_frames =
  let open Wire in
  List.map
    (fun r -> Request r)
    [
      Query { owner = 0 };
      Query { owner = 1 };
      Query { owner = -5 };
      Query { owner = max_int };
      Query { owner = min_int };
      Batch [||];
      Batch [| 0; 1; 300; 70_000; max_int |];
      Audit { provider = 12 };
      Stats;
      Republish { index_csv = "3,4\n0,1,0,1\n" };
      Republish { index_csv = "" };
      Republish_binary { data = "" };
      Republish_binary { data = "\x01\x02\x03\xFF\x00binary payload" };
      Query_fuzzy { probe = sample_probe; k = 1 };
      Query_fuzzy { probe = partial_probe; k = 10_000 };
      Ping;
      Shutdown;
      Telemetry;
      Cluster_status;
      (* Trace envelopes: ids at both ends of the varint range, wrapping
         payload-free and payload-heavy inner requests alike. *)
      Traced { trace_id = 0; request = Query { owner = 42 } };
      Traced { trace_id = 0x7FFF_FFFF; request = Batch [| 1; 2; 300 |] };
      Traced { trace_id = 1; request = Query_fuzzy { probe = sample_probe; k = 3 } };
      Traced { trace_id = 9; request = Telemetry };
      Traced { trace_id = 2; request = Cluster_status };
    ]
  @ List.map
      (fun r -> Response r)
      [
        Reply { generation = 1; reply = Serve.Providers [] };
        Reply { generation = 7; reply = Serve.Providers [ 0; 3; 9; 1024 ] };
        Reply { generation = 2; reply = Serve.Unknown_owner };
        Reply { generation = 3; reply = Serve.Shed_rate_limit };
        Reply { generation = 4; reply = Serve.Shed_queue_full };
        Batch_reply { generation = 1; replies = [||] };
        Batch_reply
          {
            generation = 9;
            replies =
              [| Serve.Providers [ 1 ]; Serve.Unknown_owner; Serve.Shed_queue_full; Serve.Providers [] |];
          };
        Audit_reply { generation = 1; owners = None };
        Audit_reply { generation = 2; owners = Some [] };
        Audit_reply { generation = 3; owners = Some [ 0; 5; 6 ] };
        Stats_json "{\"queries\": 0}";
        Stats_json "";
        Republished { generation = 2 };
        (* Candidate scores are quantized to 1e-4 by the resolver, so the
           basis-point wire encoding must round-trip them bit-exactly. *)
        Fuzzy_reply
          {
            generation = 9;
            result =
              Serve.Candidates
                [
                  { Serve.owner = 0; score = 1.0; providers = [ 0; 3; 9 ] };
                  { Serve.owner = 31; score = 9148. /. 10000.; providers = [] };
                  { Serve.owner = 7; score = 0.0; providers = [ 2 ] };
                ];
          };
        Fuzzy_reply { generation = 4; result = Serve.Candidates [] };
        Fuzzy_reply { generation = 1; result = Serve.No_resolver };
        Fuzzy_reply { generation = 2; result = Serve.Probe_mismatch };
        Fuzzy_reply { generation = 3; result = Serve.Fuzzy_shed };
        Telemetry_json "{\"requests\": 12, \"conservation\": {\"exact\": true}}";
        Telemetry_json "";
        Cluster_status_reply { generation = 1; swaps = 0; peers = [] };
        Cluster_status_reply
          { generation = 42; swaps = 17; peers = [ "/tmp/a.sock"; "host:9001"; ":9002" ] };
        Cluster_status_reply { generation = 0; swaps = 0; peers = [ "" ] };
        Pong;
        Shutting_down;
        Server_error "republish: bad csv";
      ]

(* Feed [s] to a fresh decoder in [chunk]-byte pieces, draining frames
   after every feed. *)
let decode_chunked ~chunk s =
  let d = Wire.Decoder.create () in
  let frames = ref [] in
  let failed = ref None in
  let pos = ref 0 in
  while !failed = None && !pos < String.length s do
    let len = min chunk (String.length s - !pos) in
    Wire.Decoder.feed_string d (String.sub s !pos len);
    let continue = ref true in
    while !continue do
      match Wire.Decoder.next d with
      | Ok (Some frame) -> frames := frame :: !frames
      | Ok None -> continue := false
      | Error e ->
          failed := Some e;
          continue := false
    done;
    pos := !pos + len
  done;
  match !failed with
  | Some e -> Error e
  | None -> Ok (List.rev !frames, Wire.Decoder.buffered d)

let test_codec_roundtrip () =
  List.iteri
    (fun i frame ->
      check_bool
        (Printf.sprintf "frame %d round-trips" i)
        true
        (decode_chunked ~chunk:4096 (Wire.frame_to_string frame) = Ok ([ frame ], 0)))
    sample_frames

let test_codec_split_reads () =
  let stream = String.concat "" (List.map Wire.frame_to_string sample_frames) in
  List.iter
    (fun chunk ->
      check_bool
        (Printf.sprintf "chunk size %d reassembles" chunk)
        true
        (decode_chunked ~chunk stream = Ok (sample_frames, 0)))
    [ 1; 2; 3; 7; 64; String.length stream ]

let test_codec_partial_frame () =
  let d = Wire.Decoder.create () in
  check_bool "empty decoder wants bytes" true (Wire.Decoder.next d = Ok None);
  let s = Wire.frame_to_string (Wire.Request (Wire.Query { owner = 12345 })) in
  Wire.Decoder.feed_string d (String.sub s 0 (String.length s - 1));
  check_bool "partial frame wants bytes" true (Wire.Decoder.next d = Ok None);
  Wire.Decoder.feed_string d (String.sub s (String.length s - 1) 1);
  check_bool "completed frame decodes" true
    (Wire.Decoder.next d = Ok (Some (Wire.Request (Wire.Query { owner = 12345 }))));
  check_int "nothing buffered" 0 (Wire.Decoder.buffered d)

(* Hand-rolled frame header: magic, version, tag, 32-bit BE length. *)
let header ~tag ~len =
  let b = Buffer.create 7 in
  Buffer.add_char b '\xE5';
  Buffer.add_char b '\x01';
  Buffer.add_char b (Char.chr tag);
  List.iter (fun sh -> Buffer.add_char b (Char.chr ((len lsr sh) land 0xFF))) [ 24; 16; 8; 0 ];
  Buffer.contents b

let expect_error name ?(max_payload = 64) s matches =
  let d = Wire.Decoder.create ~max_payload () in
  Wire.Decoder.feed_string d s;
  match Wire.Decoder.next d with
  | Error e -> check_bool name true (matches e)
  | Ok _ -> Alcotest.fail (name ^ ": expected a decode error")

let test_codec_errors () =
  expect_error "bad magic" "\x00garbage" (function Wire.Bad_magic 0 -> true | _ -> false);
  expect_error "bad version" "\xE5\x07" (function Wire.Bad_version 7 -> true | _ -> false);
  expect_error "unknown tag" "\xE5\x01\x7F" (function
    | Wire.Unknown_tag 0x7F -> true
    | _ -> false);
  expect_error "response-range hole is unknown" "\xE5\x01\x1F" (function
    | Wire.Unknown_tag 0x1F -> true
    | _ -> false);
  expect_error "oversized payload"
    (header ~tag:0x01 ~len:65)
    (function Wire.Oversized { length = 65; limit = 64 } -> true | _ -> false);
  expect_error "truncated varint"
    (header ~tag:0x01 ~len:1 ^ "\x80")
    (function Wire.Corrupt _ -> true | _ -> false);
  expect_error "trailing bytes"
    (header ~tag:0x01 ~len:2 ^ "\x00\x00")
    (function Wire.Corrupt msg -> contains msg "trailing" | _ -> false);
  expect_error "negative batch count"
    (header ~tag:0x02 ~len:1 ^ "\x03")
    (function Wire.Corrupt msg -> contains msg "count" | _ -> false);
  expect_error "batch count exceeding payload"
    (header ~tag:0x02 ~len:1 ^ "\x50")
    (function Wire.Corrupt msg -> contains msg "count" | _ -> false);
  expect_error "unknown reply kind"
    (header ~tag:0x11 ~len:2 ^ "\x02\x09")
    (function Wire.Corrupt msg -> contains msg "reply kind" | _ -> false);
  (* The cluster-status tags sit at the top of each range; the next tag
     up must still be unknown. *)
  expect_error "request-range hole is unknown" "\xE5\x01\x0D" (function
    | Wire.Unknown_tag 0x0D -> true
    | _ -> false);
  (* Traced (0x0A) envelopes: zigzag varint trace id, one inner tag byte,
     then the inner request's payload — each constraint has a hostile
     probe. *)
  expect_error "traced frame truncated before inner tag"
    (header ~tag:0x0A ~len:1 ^ "\x02")
    (function Wire.Corrupt msg -> contains msg "truncated traced" | _ -> false);
  expect_error "negative trace id"
    (header ~tag:0x0A ~len:2 ^ "\x01\x01")
    (function Wire.Corrupt msg -> contains msg "trace id" | _ -> false);
  expect_error "nested traced frame"
    (header ~tag:0x0A ~len:2 ^ "\x02\x0A")
    (function Wire.Corrupt msg -> contains msg "nested" | _ -> false);
  expect_error "traced frame wrapping a response tag"
    (header ~tag:0x0A ~len:2 ^ "\x02\x11")
    (function Wire.Corrupt msg -> contains msg "wraps tag" | _ -> false);
  expect_error "traced frame wrapping tag zero"
    (header ~tag:0x0A ~len:2 ^ "\x02\x00")
    (function Wire.Corrupt msg -> contains msg "wraps tag" | _ -> false);
  expect_error "traced frame with truncated inner payload"
    (header ~tag:0x0A ~len:2 ^ "\x02\x01")
    (function Wire.Corrupt _ -> true | _ -> false);
  (* The inner frame runs the full strict parse: a Ping that carries a
     payload byte is rejected inside the envelope too. *)
  expect_error "traced frame with trailing inner bytes"
    (header ~tag:0x0A ~len:3 ^ "\x02\x06\x00")
    (function Wire.Corrupt msg -> contains msg "trailing" | _ -> false);
  expect_error "telemetry request with a payload"
    (header ~tag:0x0B ~len:1 ^ "\x00")
    (function Wire.Corrupt msg -> contains msg "trailing" | _ -> false);
  (* Fuzzy request (0x09) payloads are zigzag varints: k, blocking-key
     count + keys, bits, hashes, then four filters as ascending set-bit
     index lists. *)
  expect_error "fuzzy k zero"
    (header ~tag:0x09 ~len:1 ^ "\x00")
    (function Wire.Corrupt msg -> contains msg "fuzzy k" | _ -> false);
  expect_error "truncated probe"
    (header ~tag:0x09 ~len:1 ^ "\x02")
    (function Wire.Corrupt msg -> contains msg "truncated" | _ -> false);
  expect_error "probe key count over limit"
    (header ~tag:0x09 ~len:3 ^ "\x02\x82\x01")
    (function Wire.Corrupt msg -> contains msg "blocking key" | _ -> false);
  expect_error "probe bits zero"
    (header ~tag:0x09 ~len:3 ^ "\x02\x00\x00")
    (function Wire.Corrupt msg -> contains msg "filter bits" | _ -> false);
  expect_error "probe hashes zero"
    (header ~tag:0x09 ~len:4 ^ "\x02\x00\x02\x00")
    (function Wire.Corrupt msg -> contains msg "filter hashes" | _ -> false);
  (* bits = 8, filter declares indexes 3 then 1: descending order. *)
  expect_error "filter index out of order"
    (header ~tag:0x09 ~len:7 ^ "\x02\x00\x10\x02\x04\x06\x02")
    (function Wire.Corrupt msg -> contains msg "out of order" | _ -> false);
  (* bits = 8, filter declares index 8: one past the geometry. *)
  expect_error "filter index out of range"
    (header ~tag:0x09 ~len:6 ^ "\x02\x00\x10\x02\x02\x10")
    (function Wire.Corrupt msg -> contains msg "out of order or range" | _ -> false);
  expect_error "truncated fuzzy reply"
    (header ~tag:0x19 ~len:1 ^ "\x02")
    (function Wire.Corrupt msg -> contains msg "truncated fuzzy reply" | _ -> false);
  expect_error "unknown fuzzy reply kind"
    (header ~tag:0x19 ~len:2 ^ "\x02\x09")
    (function Wire.Corrupt msg -> contains msg "fuzzy reply kind" | _ -> false);
  expect_error "candidate count exceeding payload"
    (header ~tag:0x19 ~len:3 ^ "\x02\x00\x7E")
    (function Wire.Corrupt msg -> contains msg "candidate count" | _ -> false);
  (* A candidate claiming 10001 basis points: scores live in [0, 1]. *)
  expect_error "candidate score over one"
    (header ~tag:0x19 ~len:7 ^ "\x02\x00\x02\x00\xA2\x9C\x01")
    (function Wire.Corrupt msg -> contains msg "score" | _ -> false);
  (* Cluster status (0x0C request, 0x1B reply): the request is
     payload-free, the reply is generation, swaps, then length-prefixed
     peers — negative counters and ballooned peer lists are lies. *)
  expect_error "cluster status request with a payload"
    (header ~tag:0x0C ~len:1 ^ "\x00")
    (function Wire.Corrupt msg -> contains msg "trailing" | _ -> false);
  expect_error "negative swap count"
    (header ~tag:0x1B ~len:2 ^ "\x02\x01")
    (function Wire.Corrupt msg -> contains msg "swap" | _ -> false);
  (* 65 peers declared: one past the bound. *)
  expect_error "peer count over limit"
    (header ~tag:0x1B ~len:4 ^ "\x02\x00\x82\x01")
    (function Wire.Corrupt msg -> contains msg "peer count" | _ -> false);
  (* One peer of declared length 10 with zero bytes behind it. *)
  expect_error "peer length exceeding payload"
    (header ~tag:0x1B ~len:4 ^ "\x02\x00\x02\x14")
    (function Wire.Corrupt msg -> contains msg "peer byte" | _ -> false)

let test_codec_poisoned_decoder () =
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed_string d "\x00";
  check_bool "first error" true (Wire.Decoder.next d = Error (Wire.Bad_magic 0));
  Wire.Decoder.feed_string d (Wire.frame_to_string (Wire.Request Wire.Ping));
  check_bool "poison is sticky" true (Wire.Decoder.next d = Error (Wire.Bad_magic 0))

let test_addr () =
  (* Accepted syntax, table-driven: input -> parsed form. *)
  List.iter
    (fun (input, expected) ->
      match Addr.parse input with
      | Ok addr -> check_bool (Printf.sprintf "parse %S" input) true (addr = expected)
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "parse %S rejected: %s" input (Addr.parse_error_to_string e)))
    [
      ("/tmp/x.sock", Addr.Unix_socket "/tmp/x.sock");
      ("eppi.sock", Addr.Unix_socket "eppi.sock");
      ("127.0.0.1:8080", Addr.Tcp ("127.0.0.1", 8080));
      ("example.com:1", Addr.Tcp ("example.com", 1));
      ("host:65535", Addr.Tcp ("host", 65535));
      (":9000", Addr.Tcp ("", 9000));
      (* A slash anywhere wins: this is a path even though it has a colon. *)
      ("/run/eppi:9000", Addr.Unix_socket "/run/eppi:9000");
    ];
  (* Rejections are typed, not stringly: each row names its error. *)
  List.iter
    (fun (input, expected) ->
      match Addr.parse input with
      | Error e -> check_bool (Printf.sprintf "reject %S" input) true (e = expected)
      | Ok _ -> Alcotest.fail (Printf.sprintf "parse %S must be rejected" input))
    [
      ("", Addr.Empty_address);
      ("host:", Addr.Bad_port "");
      ("host:http", Addr.Bad_port "http");
      ("host:12x", Addr.Bad_port "12x");
      ("host:0", Addr.Port_out_of_range 0);
      ("host:-1", Addr.Port_out_of_range (-1));
      ("host:65536", Addr.Port_out_of_range 65536);
      ("host:999999", Addr.Port_out_of_range 999999);
    ];
  Alcotest.(check string) "default host printed" "127.0.0.1:9000" (Addr.to_string (Addr.Tcp ("", 9000)));
  Alcotest.(check string) "path printed" "/a/b.sock" (Addr.to_string (Addr.Unix_socket "/a/b.sock"));
  (* of_string is parse-or-raise, naming the typed error. *)
  check_bool "of_string accepts" true (Addr.of_string ":9000" = Addr.Tcp ("", 9000));
  (match Addr.of_string "host:0" with
  | exception Invalid_argument msg -> check_bool "raise names range" true (contains msg "65535")
  | _ -> Alcotest.fail "port 0 must be rejected");
  match Addr.of_string "" with
  | exception Invalid_argument msg -> check_bool "raise names empty" true (contains msg "empty")
  | _ -> Alcotest.fail "empty address must be rejected"

(* The reconnect schedule (exposed pure): jitter must stay inside
   [full/2, full) of the capped exponential, monotone in [u], and capped
   at 2 s however deep the attempt count goes. *)
let test_backoff_delay () =
  let cap = 2.0 in
  let full ~base ~attempt = Float.min (base *. (2.0 ** float_of_int (attempt - 1))) cap in
  List.iter
    (fun (base, attempt, u) ->
      let d = Client.backoff_delay ~base ~attempt ~u in
      let f = full ~base ~attempt in
      check_bool
        (Printf.sprintf "base %g attempt %d u %g in [full/2, full)" base attempt u)
        true
        (d >= (f /. 2.0) -. 1e-12 && d < f))
    [
      (0.05, 1, 0.0);
      (0.05, 1, 0.999);
      (0.05, 3, 0.5);
      (0.05, 10, 0.0);
      (0.05, 10, 0.999);
      (1.5, 2, 0.25);
      (0.001, 7, 0.75);
    ];
  (* Deterministic endpoints: u = 0 is exactly half the full delay. *)
  check_bool "u=0 is half" true (Client.backoff_delay ~base:0.1 ~attempt:1 ~u:0.0 = 0.05);
  (* Deep attempts saturate at the cap: delay lives in [1, 2). *)
  let deep = Client.backoff_delay ~base:0.05 ~attempt:60 ~u:0.999 in
  check_bool "deep attempt capped below 2 s" true (deep < cap);
  check_bool "deep attempt at least cap/2" true (deep >= cap /. 2.0);
  (match Client.backoff_delay ~base:0.05 ~attempt:0 ~u:0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attempt 0 must be rejected");
  match Client.backoff_delay ~base:0.05 ~attempt:1 ~u:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "u = 1 must be rejected"


(* ---------- Index codec ---------- *)

(* Decode must be total: typed errors on any input, never an exception. *)
let decode_total name payload =
  match Index_codec.decode payload with
  | Ok _ | Error _ -> ()
  | exception e ->
      Alcotest.fail (Printf.sprintf "%s: decode raised %s" name (Printexc.to_string e))

let matrices_equal a b = Bitmatrix.equal (Eppi.Index.matrix a) (Eppi.Index.matrix b)

let test_index_codec_roundtrip () =
  let shapes = [ (1, 1); (5, 3); (20, 9); (40, 11); (7, 64); (3, 200); (25, 9) ] in
  List.iter
    (fun (n, m) ->
      let index = test_index ~n ~m in
      let encoded = Index_codec.encode index in
      check_int
        (Printf.sprintf "encoded_bytes exact for %dx%d" n m)
        (String.length encoded)
        (Index_codec.encoded_bytes index);
      check_bool
        (Printf.sprintf "encode deterministic for %dx%d" n m)
        true
        (String.equal encoded (Index_codec.encode index));
      match Index_codec.decode encoded with
      | Ok decoded ->
          check_bool (Printf.sprintf "round-trip %dx%d" n m) true (matrices_equal index decoded)
      | Error e -> Alcotest.fail (Index_codec.error_to_string e))
    shapes;
  (* A full matrix exercises the bitmap rows, an empty one the zero-count
     packed rows; both must survive the trip. *)
  let full = Bitmatrix.create ~rows:6 ~cols:40 in
  for j = 0 to 5 do
    for p = 0 to 39 do
      Bitmatrix.set full ~row:j ~col:p true
    done
  done;
  let full = Eppi.Index.of_matrix full in
  check_bool "dense round-trip" true
    (match Index_codec.decode (Index_codec.encode full) with
    | Ok d -> matrices_equal full d
    | Error _ -> false);
  let empty = Eppi.Index.of_matrix (Bitmatrix.create ~rows:4 ~cols:16) in
  check_bool "empty round-trip" true
    (match Index_codec.decode (Index_codec.encode empty) with
    | Ok d -> matrices_equal empty d
    | Error _ -> false)

let test_index_codec_truncation () =
  let index = test_index ~n:20 ~m:9 in
  let encoded = Index_codec.encode index in
  for len = 0 to String.length encoded - 1 do
    let prefix = String.sub encoded 0 len in
    decode_total "prefix" prefix;
    match Index_codec.decode prefix with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "prefix of %d/%d bytes decoded" len (String.length encoded))
  done

let test_index_codec_wrong_version () =
  let index = test_index ~n:5 ~m:7 in
  let encoded = Bytes.of_string (Index_codec.encode index) in
  Bytes.set encoded 0 '\x02';
  (match Index_codec.decode (Bytes.to_string encoded) with
  | Error (Index_codec.Unsupported_version 2) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "future version must not decode");
  match Index_codec.decode "" with
  | Error (Index_codec.Truncated _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "empty payload must not decode"

(* Hand-built payloads hitting each validator: the header is
   version, owners n, providers m, then the row counts and bodies. *)
let test_index_codec_malformed () =
  let reject name payload expect =
    decode_total name payload;
    match Index_codec.decode payload with
    | Error (Index_codec.Malformed msg) when contains msg expect -> ()
    | Error e ->
        Alcotest.fail (Printf.sprintf "%s: wrong error %s" name (Index_codec.error_to_string e))
    | Ok _ -> Alcotest.fail (name ^ ": must be rejected")
  in
  reject "zero owners" "\x01\x00\x01" "owner count";
  reject "zero providers" "\x01\x01\x00" "provider count";
  reject "count exceeds providers" "\x01\x01\x01\x02" "exceeds";
  (* m=5, count 1 (Rice branch, k=0): body byte 0x81 decodes gap 1 in its
     low bits, but its top bit lands in the final padding. *)
  reject "nonzero padding after gaps" "\x01\x01\x05\x01\x81" "padding";
  (* m=5, count 1, body 0x1F: unary quotient 5 with k=0 is gap 5, so the
     decoded provider id is 5 — out of range for m=5. *)
  reject "gap lands out of range" "\x01\x01\x05\x01\x1F" "provider 5 >= 5";
  (* m=5, count 1, body 0xFF: the unary run alone exceeds any gap a 5-wide
     row could hold — rejected before scanning further. *)
  reject "gap exceeds provider count" "\x01\x01\x05\x01\xFF" "gap exceeds";
  (* m=2: bitmap declares 2 set bits but populates 1. *)
  reject "bitmap population mismatch" "\x01\x01\x02\x02\x01" "population";
  (* m=2, count 1, body 0x05: bitmap bits (1, 0) match the count, but
     bit 2 sits in the final padding. *)
  reject "nonzero padding after bitmap" "\x01\x01\x02\x01\x05" "padding";
  let valid = Index_codec.encode (test_index ~n:3 ~m:5) in
  reject "trailing bytes" (valid ^ "\x00") "trailing"

(* A header may declare dimensions far larger than anything the payload
   could back; decode must reject them before sizing any allocation from
   them.  (A ~20-byte payload once forced a multi-GiB matrix attempt —
   Out_of_memory off the wire, escaping the typed-error contract.) *)
let test_index_codec_hostile_dims () =
  (* n=16, m=2^30: each dimension is within bounds but the product blows
     the cells cap, rejected before the counts are even read. *)
  let payload = "\x01\x10\x80\x80\x80\x80\x04" in
  decode_total "oversized matrix" payload;
  (match Index_codec.decode payload with
  | Error (Index_codec.Malformed msg) ->
      check_bool "names the cells cap" true (contains msg "cells")
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized matrix must be rejected");
  (* n=2^20 rows declared by a 5-byte payload: fewer bytes remain than
     rows, so it is truncated before the counts array is allocated. *)
  let payload = "\x01\x80\x80\x40\x05" in
  decode_total "overdeclared rows" payload;
  match Index_codec.decode payload with
  | Error (Index_codec.Truncated _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Index_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "overdeclared rows must be rejected"

let test_index_codec_mutation_fuzz () =
  (* Every single-byte corruption of a valid payload must decode to a
     typed result — never an exception.  (Some mutations remain valid
     payloads for a different matrix; that is fine, the wire checksum is
     the transport's business.) *)
  let index = test_index ~n:12 ~m:17 in
  let encoded = Index_codec.encode index in
  for i = 0 to String.length encoded - 1 do
    List.iter
      (fun delta ->
        let b = Bytes.of_string encoded in
        Bytes.set b i (Char.chr (Char.code encoded.[i] lxor delta));
        decode_total (Printf.sprintf "byte %d xor %d" i delta) (Bytes.to_string b))
      [ 0x01; 0x80; 0xFF ]
  done

(* Golden bytes: two fixed indexes and the exact encodings the
   bit-at-a-time codec produced for them.  Codec version 1 is a wire and
   on-disk format, so any encoder must keep reproducing these bytes.  The
   small one covers empty rows, Rice rows at k = 5, 3, 2, 1 and 0 (one
   with a 67-bit unary run), rows either side of the 3c = m bitmap
   boundary, a full row and m = 99 (not a multiple of 64); the mixed one
   sweeps row density from empty to full. *)
let golden_small () =
  let m = 99 in
  let rows =
    [|
      [];
      List.init 32 (fun i -> i * 3);
      List.init 31 (fun i -> i) @ [ 98 ];
      [ 98 ];
      [ 0 ];
      [ 3; 40; 41; 97 ];
      List.init 10 (fun i -> (i * 9) + 4);
      List.init 20 (fun i -> (i * 5) + 1);
      List.init 33 (fun i -> i * 3);
      List.init 33 (fun i -> 98 - (i * 3));
      List.init 34 (fun i -> i * 2);
      List.init m Fun.id;
      [];
    |]
  in
  let matrix = Bitmatrix.create ~rows:(Array.length rows) ~cols:m in
  Array.iteri (fun j ps -> List.iter (fun p -> Bitmatrix.set matrix ~row:j ~col:p true) ps) rows;
  Eppi.Index.of_matrix matrix

let golden_mixed () =
  let n = 48 and m = 150 in
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state lsr 8
  in
  for j = 0 to n - 1 do
    let density = j * 100 / (n - 1) in
    for p = 0 to m - 1 do
      if next () mod 100 < density then Bitmatrix.set matrix ~row:j ~col:p true
    done
  done;
  Eppi.Index.of_matrix matrix

let golden_small_hex =
  String.concat ""
    [
      "010d630020200101040a142121226300b66ddbb66ddbb66ddbb66d1b000000e0";
      "ffffffffffffffff4e006604ee628c31c6186338333333333333333333499224";
      "4992244992244992242149922449922449922449926455555555555555550100";
      "0000feffffffffffffffffffffff0f";
    ]

let to_hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let test_index_codec_golden () =
  Alcotest.(check string) "small index bytes" golden_small_hex
    (to_hex (Index_codec.encode (golden_small ())));
  let mixed = Index_codec.encode (golden_mixed ()) in
  check_int "mixed index length" 838 (String.length mixed);
  Alcotest.(check string) "mixed index digest" "9f363a853d12b9c460c9890534ded716"
    (Digest.to_hex (Digest.string mixed));
  List.iter
    (fun (name, index) ->
      match Index_codec.decode (Index_codec.encode index) with
      | Ok d -> check_bool (name ^ " round-trips") true (matrices_equal index d)
      | Error e -> Alcotest.fail (Index_codec.error_to_string e))
    [ ("small", golden_small ()); ("mixed", golden_mixed ()) ]

(* The bit-at-a-time decoder the word-at-a-time one replaced, kept as the
   reference: one [get_bit] per stream bit, every check in stream order. *)
module Reference_decoder = struct
  exception Fail of Index_codec.error

  let ilog2 x =
    let k = ref 0 and v = ref x in
    while !v > 1 do
      incr k;
      v := !v lsr 1
    done;
    !k

  let rice_k ~c ~m =
    let mu_scaled = 693 * (m - c) / (1000 * (c + 1)) in
    if mu_scaled <= 1 then 0
    else
      let k = ilog2 mu_scaled in
      if 2 * mu_scaled > 3 * (1 lsl k) then k + 1 else k

  let decode payload =
    let pos = ref 0 in
    let fail e = raise (Fail e) in
    let uvarint what =
      let u = ref 0 and shift = ref 0 and value = ref (-1) in
      while !value < 0 do
        if !pos >= String.length payload then fail (Truncated what);
        if !shift > 56 then fail (Malformed (what ^ ": varint longer than 9 bytes"));
        let byte = Char.code payload.[!pos] in
        incr pos;
        u := !u lor ((byte land 0x7F) lsl !shift);
        shift := !shift + 7;
        if byte land 0x80 = 0 then value := !u
      done;
      !value
    in
    try
      if payload = "" then fail (Truncated "version byte");
      if Char.code payload.[0] <> 1 then fail (Unsupported_version (Char.code payload.[0]));
      pos := 1;
      let n = uvarint "owner count" in
      let m = uvarint "provider count" in
      if n < 1 || n > 1 lsl 30 then fail (Malformed (Printf.sprintf "owner count %d" n));
      if m < 1 || m > 1 lsl 30 then fail (Malformed (Printf.sprintf "provider count %d" m));
      if n * m > 1 lsl 33 then
        fail (Malformed (Printf.sprintf "matrix %dx%d exceeds %d cells" n m (1 lsl 33)));
      if n > String.length payload - !pos then fail (Truncated "row counts");
      let counts =
        Array.init n (fun j ->
            let cnt = uvarint (Printf.sprintf "count of row %d" j) in
            if cnt > m then
              fail (Malformed (Printf.sprintf "row %d count %d exceeds %d providers" j cnt m));
            cnt)
      in
      let base = !pos and bitpos = ref 0 in
      let get_bit what =
        let byte = base + (!bitpos lsr 3) in
        if byte >= String.length payload then fail (Truncated what);
        let bit = (Char.code payload.[byte] lsr (!bitpos land 7)) land 1 in
        incr bitpos;
        bit = 1
      in
      let matrix = Bitmatrix.create ~rows:n ~cols:m in
      for j = 0 to n - 1 do
        let what = Printf.sprintf "row %d" j and c = counts.(j) in
        if 3 * c >= m then begin
          let set = ref 0 in
          for p = 0 to m - 1 do
            if get_bit what then begin
              incr set;
              Bitmatrix.set matrix ~row:j ~col:p true
            end
          done;
          if !set <> c then
            fail
              (Malformed
                 (Printf.sprintf "%s: bitmap population %d, declared count %d" what !set c))
        end
        else begin
          let k = rice_k ~c ~m and prev = ref (-1) in
          for _ = 1 to c do
            let q = ref 0 in
            while get_bit what do
              incr q;
              if !q lsl k > m then fail (Malformed (what ^ ": gap exceeds provider count"))
            done;
            let low = ref 0 in
            for i = 0 to k - 1 do
              if get_bit what then low := !low lor (1 lsl i)
            done;
            let p = !prev + 1 + ((!q lsl k) lor !low) in
            if p >= m then fail (Malformed (Printf.sprintf "%s: provider %d >= %d" what p m));
            prev := p;
            Bitmatrix.set matrix ~row:j ~col:p true
          done
        end
      done;
      while !bitpos land 7 <> 0 do
        if get_bit "final padding" then fail (Malformed "nonzero padding bits")
      done;
      let consumed = base + (!bitpos lsr 3) in
      if consumed <> String.length payload then
        fail (Malformed (Printf.sprintf "%d trailing bytes" (String.length payload - consumed)));
      Ok matrix
    with Fail e -> Error e
end

(* Same outcome: equal matrices, or the identical typed error. *)
let agrees_with_reference payload =
  match (Index_codec.decode payload, Reference_decoder.decode payload) with
  | Ok index, Ok matrix -> Bitmatrix.equal (Eppi.Index.matrix index) matrix
  | Error e, Error e' -> e = e'
  | Ok _, Error _ | Error _, Ok _ -> false

(* Rice rows at k = 0 whose unary runs span several 64-bit words. *)
let long_runs () =
  let m = 400 in
  let matrix = Bitmatrix.create ~rows:3 ~cols:m in
  let set row cols = List.iter (fun p -> Bitmatrix.set matrix ~row ~col:p true) cols in
  set 0 (List.init 132 Fun.id @ [ 399 ]);
  set 1 (List.init 120 (fun i -> i + 2) @ [ 250; 398 ]);
  Bitmatrix.set matrix ~row:2 ~col:0 true;
  Eppi.Index.of_matrix matrix

(* Every prefix and every single-bit flip of these payloads. *)
let test_index_codec_reference_golden () =
  List.iter
    (fun index ->
      let encoded = Index_codec.encode index in
      check_bool "golden payload" true (agrees_with_reference encoded);
      for len = 0 to String.length encoded - 1 do
        check_bool (Printf.sprintf "prefix %d" len) true
          (agrees_with_reference (String.sub encoded 0 len))
      done;
      String.iteri
        (fun i ch ->
          for bit = 0 to 7 do
            let b = Bytes.of_string encoded in
            Bytes.set b i (Char.chr (Char.code ch lxor (1 lsl bit)));
            check_bool (Printf.sprintf "byte %d bit %d" i bit) true
              (agrees_with_reference (Bytes.to_string b))
          done)
        encoded)
    [ golden_small (); golden_mixed (); long_runs () ]

(* ---------- Index file (the on-disk artifact) ---------- *)

let index_file_contents index =
  let path = Filename.temp_file "eppi-index-file" ".eppi" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let written = Out_channel.with_open_bin path (fun oc -> Index_file.write oc index) in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      check_int "write reports the file size" (String.length contents) written;
      (match Index_file.read path with
      | Ok d -> check_bool "read round-trips" true (matrices_equal index d)
      | Error e -> Alcotest.fail (Index_file.error_to_string e));
      contents)

let test_index_file_layout () =
  let index = test_index ~n:20 ~m:9 in
  let contents = index_file_contents index in
  let payload = Index_codec.encode index in
  Alcotest.(check string) "magic, then the codec payload unchanged"
    (Index_file.magic ^ payload) contents;
  (match Index_file.payload contents with
  | Ok p -> Alcotest.(check string) "payload is the republish payload" payload p
  | Error e -> Alcotest.fail (Index_file.error_to_string e));
  match Index_file.decode contents with
  | Ok d -> check_bool "decode" true (matrices_equal index d)
  | Error e -> Alcotest.fail (Index_file.error_to_string e)

let test_index_file_errors () =
  let index = test_index ~n:20 ~m:9 in
  let contents = Index_file.magic ^ Index_codec.encode index in
  let expect name want input =
    match Index_file.decode input with
    | Error e when want e -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "%s: wrong error %s" name (Index_file.error_to_string e))
    | Ok _ -> Alcotest.fail (name ^ ": must be rejected")
    | exception e -> Alcotest.fail (Printf.sprintf "%s: raised %s" name (Printexc.to_string e))
  in
  expect "bad magic" (( = ) Index_file.Bad_magic) ("\x89EPPIDY\n" ^ Index_codec.encode index);
  expect "dataset csv" (( = ) Index_file.Bad_magic) "owner,provider,epsilon\n0,1,0.5\n";
  expect "csv index" (( = ) Index_file.Csv_index) (Eppi.Index.to_csv index);
  let v2 = Bytes.of_string contents in
  Bytes.set v2 (String.length Index_file.magic) '\x02';
  expect "unsupported version"
    (( = ) (Index_file.Codec (Index_codec.Unsupported_version 2)))
    (Bytes.to_string v2);
  for len = 0 to String.length contents - 1 do
    expect
      (Printf.sprintf "prefix of %d bytes" len)
      (function Index_file.Codec (Index_codec.Truncated _) -> true | _ -> false)
      (String.sub contents 0 len)
  done;
  (* The payload check stops at the version byte: a corrupt body passes
     it, for the daemon's decoder to reject. *)
  let corrupt = String.sub contents 0 (String.length contents - 1) in
  check_bool "payload accepts a truncated body" true (Result.is_ok (Index_file.payload corrupt));
  let csv_message = Index_file.error_to_string Index_file.Csv_index in
  check_bool "csv error names eppi construct" true (contains csv_message "eppi construct");
  check_bool "csv error names eppi export" true (contains csv_message "eppi export")

(* ---------- Live daemon ---------- *)

let sock_counter = ref 0

let sock_path () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "eppi-net-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* Start a daemon over [index] in its own domain, run [f addr engine]
   against it, then shut it down (if [f] has not already) and join. *)
let with_server ?(shards = 1) ?(workers = 1)
    ?(max_inflight = Server.default_config.max_inflight) ?(peers = []) ?resolver index f =
  let path = sock_path () in
  let addr = Addr.Unix_socket path in
  let engine = Serve.create ~config:{ Serve.default_config with shards } ?resolver index in
  let server =
    Server.create ~config:{ Server.default_config with workers; max_inflight; peers } engine
  in
  let listener = Server.listen addr in
  let daemon = Domain.spawn (fun () -> Server.run server listener) in
  let stop () =
    (try
       let c = Client.connect addr in
       (try Client.shutdown c with _ -> ());
       Client.close c
     with _ -> ());
    Domain.join daemon;
    try Sys.remove path with Sys_error _ -> ()
  in
  Fun.protect ~finally:stop (fun () -> f addr engine)

let daemon_basics ~shards ~workers () =
  let n = 20 and m = 9 in
  let index = test_index ~n ~m in
  with_server ~shards ~workers index (fun addr engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.ping c;
          for owner = 0 to n - 1 do
            let generation, reply = Client.query c ~owner in
            check_int "generation" 1 generation;
            check_bool
              (Printf.sprintf "owner %d served" owner)
              true
              (reply = Serve.Providers (Eppi.Index.query index ~owner))
          done;
          let _, unknown = Client.query c ~owner:(n + 5) in
          check_bool "unknown owner" true (unknown = Serve.Unknown_owner);
          let generation, replies = Client.batch c [| 0; 1; n + 5; 2 |] in
          check_int "batch generation" 1 generation;
          check_int "batch size" 4 (Array.length replies);
          check_bool "batch known" true
            (replies.(0) = Serve.Providers (Eppi.Index.query index ~owner:0));
          check_bool "batch unknown" true (replies.(2) = Serve.Unknown_owner);
          let _, owners = Client.audit c ~provider:3 in
          check_bool "audit equals engine audit" true (owners = Serve.audit engine ~provider:3);
          let _, out_of_range = Client.audit c ~provider:(m + 1) in
          check_bool "audit out of range" true (out_of_range = None);
          let json = Client.stats_json c in
          check_bool "stats is json" true (String.length json > 0 && json.[0] = '{');
          check_bool "stats counts queries" true (contains json "\"queries\"");
          (* A batch wider than the worker pool splits across every
             domain and must reassemble in order. *)
          let owners = Array.init 64 (fun i -> i mod (n + 4)) in
          let generation, replies = Client.batch c owners in
          check_int "wide batch generation" 1 generation;
          check_int "wide batch size" 64 (Array.length replies);
          Array.iteri
            (fun i owner ->
              let expected =
                if owner < n then Serve.Providers (Eppi.Index.query index ~owner)
                else Serve.Unknown_owner
              in
              check_bool (Printf.sprintf "wide batch entry %d" i) true (replies.(i) = expected))
            owners))

let test_daemon_republish () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  (* The new index is bigger: owner 22 exists only after the swap. *)
  let index2 = test_index_v2 ~n:25 ~m in
  with_server index1 (fun addr engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let generation, reply = Client.query c ~owner:4 in
          check_int "pre-swap generation" 1 generation;
          check_bool "pre-swap reply" true
            (reply = Serve.Providers (Eppi.Index.query index1 ~owner:4));
          let _, beyond = Client.query c ~owner:22 in
          check_bool "owner beyond old index" true (beyond = Serve.Unknown_owner);
          (match Client.republish c ~index_csv:(Eppi.Index.to_csv index2) with
          | Ok generation -> check_int "republish returns new generation" 2 generation
          | Error e -> Alcotest.fail e);
          let generation, reply = Client.query c ~owner:4 in
          check_int "post-swap generation" 2 generation;
          check_bool "post-swap reply" true
            (reply = Serve.Providers (Eppi.Index.query index2 ~owner:4));
          let generation, beyond = Client.query c ~owner:22 in
          check_int "new owner generation" 2 generation;
          check_bool "owner known after swap" true
            (beyond = Serve.Providers (Eppi.Index.query index2 ~owner:22));
          check_int "engine generation" 2 (Serve.generation engine);
          (match Client.republish c ~index_csv:"definitely,not,an index" with
          | Ok _ -> Alcotest.fail "bad csv must be rejected"
          | Error msg -> check_bool "error names republish" true (contains msg "republish"));
          check_int "failed republish keeps generation" 2 (Serve.generation engine);
          let json = Client.stats_json c in
          check_bool "stats carries generation" true (contains json "\"generation\": 2");
          check_bool "stats counts swaps" true (contains json "\"swaps\"")))

(* Cluster_status is answered inline by the mux: generation tracks the
   number of applied republishes, swaps counts them, and peers echoes the
   daemon's configured replica set verbatim. *)
let test_daemon_cluster_status () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n:25 ~m in
  let peers = [ "/tmp/a.sock"; "other:9001" ] in
  with_server ~peers index1 (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let status = Client.cluster_status c in
          check_int "initial generation" 1 status.Wire.generation;
          check_int "no swaps yet" 0 status.Wire.swaps;
          check_bool "peers echoed" true (status.Wire.peers = peers);
          (match Client.republish c ~index_csv:(Eppi.Index.to_csv index2) with
          | Ok generation -> check_int "republish generation" 2 generation
          | Error e -> Alcotest.fail e);
          (* The shard records the swap when it next serves, not at publish. *)
          ignore (Client.query c ~owner:4);
          let status = Client.cluster_status c in
          check_int "post-swap generation" 2 status.Wire.generation;
          check_int "one swap recorded" 1 status.Wire.swaps;
          check_bool "peers stable across swap" true (status.Wire.peers = peers)))

let daemon_pipeline ~shards ~workers () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  with_server ~shards ~workers index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let requests =
            List.init 300 (fun i ->
                match i mod 5 with
                | 0 | 1 | 2 -> Wire.Query { owner = i mod (2 * n) }
                | 3 -> Wire.Audit { provider = i mod (m + 3) }
                | _ -> Wire.Ping)
          in
          let responses = Client.pipeline c requests in
          check_int "every request answered" 300 (List.length responses);
          List.iter2
            (fun request response ->
              match (request, response) with
              | Wire.Query { owner }, Wire.Reply { generation = 1; reply } ->
                  let expected =
                    if owner < n then Serve.Providers (Eppi.Index.query index ~owner)
                    else Serve.Unknown_owner
                  in
                  check_bool (Printf.sprintf "pipelined owner %d" owner) true (reply = expected)
              | Wire.Audit { provider }, Wire.Audit_reply { generation = 1; owners } ->
                  check_bool
                    (Printf.sprintf "pipelined audit %d" provider)
                    true
                    (if provider < m then owners <> None else owners = None)
              | Wire.Ping, Wire.Pong -> ()
              | _, other -> Client.unexpected "pipelined response" other)
            requests responses))

(* Regression: a client that pipelines more requests than [max_inflight]
   and then waits for replies must still get every one.  The mux pauses
   decoding at the cap with the surplus frames buffered in the decoder;
   each completion must resume the drain — [select] alone never would,
   it only fires when the client sends MORE bytes. *)
let daemon_pipeline_past_inflight_cap ~workers () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  with_server ~shards:4 ~workers ~max_inflight:8 index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let requests = List.init 100 (fun i -> Wire.Query { owner = i mod n }) in
          let responses = Client.pipeline c requests in
          check_int "every request answered" 100 (List.length responses);
          List.iter2
            (fun request response ->
              match (request, response) with
              | Wire.Query { owner }, Wire.Reply { reply; _ } ->
                  check_bool
                    (Printf.sprintf "capped pipeline owner %d" owner)
                    true
                    (reply = Serve.Providers (Eppi.Index.query index ~owner))
              | _, other -> Client.unexpected "capped pipeline" other)
            requests responses))

let test_daemon_republish_binary () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n:25 ~m in
  with_server ~shards:4 ~workers:4 index1 (fun addr engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.republish_index c index2 with
          | Ok generation -> check_int "binary republish generation" 2 generation
          | Error e -> Alcotest.fail e);
          let generation, reply = Client.query c ~owner:22 in
          check_int "post-swap generation" 2 generation;
          check_bool "post-swap reply" true
            (reply = Serve.Providers (Eppi.Index.query index2 ~owner:22));
          (* A payload the codec rejects must bounce as a Server_error,
             leaving the installed generation alone. *)
          (match Client.call c (Wire.Republish_binary { data = "garbage bytes" }) with
          | Wire.Server_error msg -> check_bool "error names republish" true (contains msg "republish")
          | other -> Client.unexpected "corrupt binary republish" other);
          (match Client.call c (Wire.Republish_binary { data = "" }) with
          | Wire.Server_error _ -> ()
          | other -> Client.unexpected "empty binary republish" other);
          check_int "failed republish keeps generation" 2 (Serve.generation engine)))

(* Requests pipelined behind a republish on one connection must answer
   from the new generation: the mux stalls the connection until the
   install lane's swap lands, so the wire never shows [Republished {g}]
   followed by a reply from a generation < g. *)
let daemon_republish_ordering ~workers () =
  let n = 20 and m = 9 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n ~m in
  with_server ~shards:4 ~workers index1 (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let requests =
            [
              Wire.Query { owner = 0 };
              Wire.Query { owner = 1 };
              Wire.Republish_binary { data = Index_codec.encode index2 };
              Wire.Query { owner = 0 };
              Wire.Query { owner = 1 };
              Wire.Ping;
              Wire.Query { owner = 2 };
            ]
          in
          match Client.pipeline c requests with
          | [ a; b; Wire.Republished { generation = 2 }; d; e; Wire.Pong; g ] ->
              (* Replies routed before the republish may land either side
                 of the swap; their generation tag says which index. *)
              List.iter
                (fun (owner, response) ->
                  match response with
                  | Wire.Reply { generation; reply } ->
                      let index = if generation = 1 then index1 else index2 in
                      check_bool
                        (Printf.sprintf "pre-swap owner %d consistent" owner)
                        true
                        (generation <= 2 && reply = Serve.Providers (Eppi.Index.query index ~owner))
                  | other -> Client.unexpected "pre-swap reply" other)
                [ (0, a); (1, b) ];
              (* Replies behind the republish must be the new index, exactly. *)
              List.iter
                (fun (owner, response) ->
                  match response with
                  | Wire.Reply { generation; reply } ->
                      check_int (Printf.sprintf "post-swap owner %d generation" owner) 2 generation;
                      check_bool
                        (Printf.sprintf "post-swap owner %d reply" owner)
                        true
                        (reply = Serve.Providers (Eppi.Index.query index2 ~owner))
                  | other -> Client.unexpected "post-swap reply" other)
                [ (0, d); (1, e); (2, g) ]
          | responses ->
              Alcotest.fail
                (Printf.sprintf "unexpected response shape (%d frames)" (List.length responses))))

(* ---------- Install lane ---------- *)

(* A bare client socket, so a test can send frames now and read their
   replies later (or never read, as a slow client would). *)
let raw_connect addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Addr.sockaddr addr);
  fd

let raw_write fd requests =
  let b = Buffer.create 256 in
  List.iter (Wire.encode_request b) requests;
  let bytes = Buffer.to_bytes b in
  let rec send off =
    if off < Bytes.length bytes then send (off + Unix.write fd bytes off (Bytes.length bytes - off))
  in
  send 0

let raw_responses ?(decoder = Wire.Decoder.create ()) fd count =
  let buf = Bytes.create 65536 in
  let rec next acc =
    if List.length acc = count then List.rev acc
    else
      match Wire.Decoder.next decoder with
      | Ok (Some (Wire.Response response)) -> next (response :: acc)
      | Ok (Some (Wire.Request _)) -> Alcotest.fail "request frame from the daemon"
      | Error e -> Alcotest.fail (Wire.error_to_string e)
      | Ok None -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Alcotest.fail "daemon closed the connection before replying"
          | len ->
              Wire.Decoder.feed decoder buf ~off:0 ~len;
              next acc)
  in
  next []

let check_served c index ~generation ~owner =
  let g, reply = Client.query c ~owner in
  check_int (Printf.sprintf "owner %d generation" owner) generation g;
  check_bool
    (Printf.sprintf "owner %d reply" owner)
    true
    (reply = Serve.Providers (Eppi.Index.query index ~owner))

(* A payload the lane cannot decode answers [Server_error] without moving
   the generation, and neither the republishing connection nor another
   one stops answering. *)
let test_lane_corrupt_republish () =
  let index = test_index ~n:20 ~m:9 in
  let encoded = Index_codec.encode (test_index_v2 ~n:20 ~m:9) in
  with_server ~workers:1 index (fun addr engine ->
      let c1 = Client.connect addr and c2 = Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Client.close c1;
          Client.close c2)
        (fun () ->
          List.iter
            (fun data ->
              (match Client.call c1 (Wire.Republish_binary { data }) with
              | Wire.Server_error msg ->
                  check_bool "error names republish" true (contains msg "republish")
              | other -> Client.unexpected "corrupt binary republish" other);
              check_int "generation unchanged" 1 (Serve.generation engine);
              check_served c1 index ~generation:1 ~owner:3;
              check_served c2 index ~generation:1 ~owner:4)
            [ "garbage bytes"; String.sub encoded 0 (String.length encoded / 2) ]))

(* Installs are serialized on the lane: two connections republishing at
   once each get their own generation, and both land. *)
let test_lane_concurrent_republishes () =
  let index = test_index ~n:20 ~m:9 in
  let next = [| test_index_v2 ~n:20 ~m:9; test_index ~n:25 ~m:9 |] in
  with_server ~workers:1 index (fun addr engine ->
      let republish i =
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> Client.republish_index c next.(i))
      in
      let others = Domain.spawn (fun () -> republish 1) in
      let mine = republish 0 in
      let theirs = Domain.join others in
      match (mine, theirs) with
      | Ok a, Ok b ->
          check_bool "distinct generations" true (a <> b);
          check_int "generations 2 and 3" 5 (a + b);
          check_int "final generation" 3 (Serve.generation engine);
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let last = if a = 3 then next.(0) else next.(1) in
              check_served c last ~generation:3 ~owner:7)
      | Error e, _ | _, Error e -> Alcotest.fail e)

(* A [Shutdown] from another connection while an install is dispatched:
   the republishing connection still gets its reply, and [Server.run]
   returns with the lane joined ([with_server] joins the daemon; the test
   harness's timeout bounds it). *)
let test_lane_shutdown_during_install () =
  let index1 = test_index ~n:20 ~m:9 in
  let index2 = test_index_v2 ~n:6000 ~m:200 in
  let data = Index_codec.encode index2 in
  (* One read takes the whole frame, so once the mux has answered a
     later connection's ping it has dispatched the install. *)
  check_bool "payload fits one read" true (String.length data + Wire.header_bytes < 65536);
  with_server ~workers:1 index1 (fun addr engine ->
      let fd = raw_connect addr in
      raw_write fd [ Wire.Republish_binary { data } ];
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              Client.ping c;
              Client.shutdown c);
          (match raw_responses fd 1 with
          | [ Wire.Republished { generation } ] -> check_int "republish reply" 2 generation
          | other -> Client.unexpected "republish during shutdown" (List.hd other));
          check_int "install landed" 2 (Serve.generation engine)))

(* The install runs off the mux: in a traced inline daemon, the
   republish's [net.request] span (tag 8) and its postings compile are
   recorded on a domain other than the one that answered the query. *)
let test_lane_trace_track () =
  let index1 = test_index ~n:20 ~m:9 in
  let index2 = test_index_v2 ~n:25 ~m:9 in
  Eppi_obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () -> Eppi_obs.Trace.reset ())
    (fun () ->
      with_server ~workers:1 index1 (fun addr _engine ->
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              ignore (Client.query c ~owner:3);
              match Client.republish_index c index2 with
              | Ok generation -> check_int "republished" 2 generation
              | Error e -> Alcotest.fail e));
      Eppi_obs.Trace.disable ();
      let tracks = Eppi_obs.Trace.tracks () in
      let has_end (tr : Eppi_obs.Trace.track) name pred =
        List.exists
          (fun (e : Eppi_obs.Trace.event) ->
            e.kind = Eppi_obs.Trace.Span_end && e.name = name && pred e.args)
          tr.track_events
      in
      let tagged tag args = List.assoc_opt "tag" args = Some tag in
      let domains_with name pred =
        List.filter_map
          (fun (tr : Eppi_obs.Trace.track) ->
            if has_end tr name pred then Some tr.track_domain else None)
          tracks
      in
      let mux = domains_with "net.request" (tagged 1) in
      let lane = domains_with "net.request" (tagged 8) in
      check_int "one mux track answered the query" 1 (List.length mux);
      check_int "one track ran the install" 1 (List.length lane);
      check_bool "install off the mux's domain" true (lane <> mux);
      check_bool "postings compile on the install's track" true
        (List.mem (List.hd lane) (domains_with "serve.postings_compile" (fun _ -> true))))

(* A client that pipelines faster than it reads leaves the daemon a reply
   backlog far beyond the socket buffer, which the daemon keeps appending
   to while its partial writes drain the front; every reply must still
   arrive intact and in order. *)
let test_daemon_reply_backlog () =
  let n = 2000 and m = 9 in
  let index = test_index ~n ~m in
  let audit provider =
    List.filter
      (fun owner -> List.mem provider (Eppi.Index.query index ~owner))
      (List.init n Fun.id)
  in
  let expected = Array.init m audit in
  with_server ~workers:1 index (fun addr _engine ->
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let chunks = 4 and per_chunk = 500 in
          let decoder = Wire.Decoder.create () in
          let buf = Bytes.create 4096 in
          for k = 0 to chunks - 1 do
            raw_write fd
              (List.init per_chunk (fun i ->
                   Wire.Audit { provider = ((k * per_chunk) + i) mod m }));
            (* Read a little, so the daemon's writes advance mid-backlog. *)
            let len = Unix.read fd buf 0 (Bytes.length buf) in
            Wire.Decoder.feed decoder buf ~off:0 ~len
          done;
          List.iteri
            (fun i response ->
              match response with
              | Wire.Audit_reply { generation = 1; owners = Some owners } ->
                  check_bool (Printf.sprintf "audit %d" i) true (owners = expected.(i mod m))
              | other -> Client.unexpected "backlogged audit" other)
            (raw_responses ~decoder fd (chunks * per_chunk))))

(* The acceptance test from the issue: queries keep flowing while the index
   hot-swaps underneath them; every reply must match the generation it is
   tagged with, none may be dropped. *)
let daemon_hot_swap_under_load ~workers ~binary () =
  let n = 40 and m = 11 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n ~m in
  let truth1 = Array.init n (fun owner -> Eppi.Index.query index1 ~owner) in
  let truth2 = Array.init n (fun owner -> Eppi.Index.query index2 ~owner) in
  with_server ~shards:4 ~workers index1 (fun addr engine ->
      let worker =
        Domain.spawn (fun () ->
            let c = Client.connect ~retries:20 addr in
            let rng = Rng.create 7 in
            let results = ref [] in
            let rounds = ref 0 and rounds_after_swap = ref 0 in
            while !rounds_after_swap < 5 && !rounds < 4000 do
              incr rounds;
              let owners = Array.init 25 (fun _ -> Rng.int rng n) in
              let requests = Array.to_list (Array.map (fun owner -> Wire.Query { owner }) owners) in
              let seen_swap = ref (!rounds_after_swap > 0) in
              List.iteri
                (fun i response ->
                  match response with
                  | Wire.Reply { generation; reply } ->
                      if generation >= 2 then seen_swap := true;
                      results := (owners.(i), generation, reply) :: !results
                  | other -> Client.unexpected "hot-swap query" other)
                (Client.pipeline c requests);
              if !seen_swap then incr rounds_after_swap
            done;
            Client.close c;
            (!rounds, !results))
      in
      let admin = Client.connect addr in
      Unix.sleepf 0.02;
      let swap =
        if binary then Client.republish_index admin index2
        else Client.republish admin ~index_csv:(Eppi.Index.to_csv index2)
      in
      (match swap with
      | Ok generation -> check_int "swap generation" 2 generation
      | Error e -> Alcotest.fail e);
      let generation, reply = Client.query admin ~owner:0 in
      check_int "admin post-swap generation" 2 generation;
      check_bool "admin post-swap reply" true (reply = Serve.Providers truth2.(0));
      Client.close admin;
      let rounds, results = Domain.join worker in
      check_bool "worker observed the swap" true (rounds < 4000);
      check_int "no dropped replies" (rounds * 25) (List.length results);
      List.iter
        (fun (owner, generation, reply) ->
          let expected =
            match generation with
            | 1 -> truth1.(owner)
            | 2 -> truth2.(owner)
            | g -> Alcotest.fail (Printf.sprintf "impossible generation %d" g)
          in
          check_bool
            (Printf.sprintf "owner %d at generation %d" owner generation)
            true
            (reply = Serve.Providers expected))
        results;
      let metrics = Serve.metrics engine in
      check_int "metrics generation" 2 metrics.generation;
      check_bool "swap observations counted" true (metrics.swaps >= 1);
      check_int "conservation" metrics.queries
        (metrics.served + metrics.unknown + metrics.shed_rate + metrics.shed_queue))

(* Fuzzy lookups over the wire: a daemon started with a resolver answers
   Bloom-probe queries end-to-end — candidates resolve to the planted
   owner and fan out to that owner's postings row — and a probe under the
   wrong filter geometry comes back as a typed mismatch. *)
let daemon_fuzzy ~shards ~workers () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  let config = Resolver.default_config ~seed:0x5EED in
  let roster = Roster.generate (Rng.create 5) ~n in
  let resolver = Resolver.build config roster in
  with_server ~shards ~workers ~resolver index (fun addr engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* Exact probes resolve their own owner at score 1.0, providers
             straight from the postings row. *)
          for owner = 0 to n - 1 do
            let probe = Probe.of_demographic config.Resolver.params roster.(owner) in
            let generation, result = Client.query_fuzzy ~k:3 c probe in
            check_int "fuzzy generation" 1 generation;
            match result with
            | Serve.Candidates (top :: _) ->
                check_int (Printf.sprintf "owner %d resolves itself" owner) owner top.Serve.owner;
                check_bool "exact probe scores 1.0" true (top.Serve.score = 1.0);
                check_bool
                  (Printf.sprintf "owner %d providers are the postings row" owner)
                  true
                  (top.Serve.providers = Eppi.Index.query index ~owner)
            | _ -> Alcotest.fail (Printf.sprintf "owner %d did not resolve" owner)
          done;
          (* Typo-corrupted probes still mostly land on the planted owner
             — the bench pins exact recall; here we only need the wire
             path to carry realistic noisy probes. *)
          let trials = Workload.fuzzy (Rng.create 23) ~roster ~count:40 in
          let hits = ref 0 in
          Array.iter
            (fun (truth, record) ->
              let probe = Probe.of_demographic config.Resolver.params record in
              match Client.query_fuzzy ~k:5 c probe with
              | _, Serve.Candidates (top :: _) when top.Serve.owner = truth -> incr hits
              | _ -> ())
            trials;
          check_bool (Printf.sprintf "noisy probes mostly resolve (%d/40)" !hits) true (!hits >= 30);
          let alien = Bloom.keyed ~seed:0x5EED ~bits:128 () in
          let _, mismatch = Client.query_fuzzy c (Probe.of_demographic alien roster.(0)) in
          check_bool "wrong geometry is a typed mismatch" true (mismatch = Serve.Probe_mismatch);
          let json = Client.stats_json c in
          check_bool "stats counts fuzzy queries" true (contains json "\"fuzzy_queries\"");
          let metrics = Serve.metrics engine in
          check_int "fuzzy conservation" metrics.fuzzy_queries
            (metrics.fuzzy_resolved + metrics.fuzzy_empty + metrics.fuzzy_rejected
           + metrics.fuzzy_shed)))

let test_daemon_fuzzy_no_resolver () =
  let index = test_index ~n:8 ~m:5 in
  with_server index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let generation, result = Client.query_fuzzy c sample_probe in
          check_int "generation still tagged" 1 generation;
          check_bool "typed no-resolver answer" true (result = Serve.No_resolver)))

(* The fuzzy half of the hot-swap acceptance test: probes keep resolving
   while the postings republish underneath them, and every reply must be
   internally consistent — the providers fanned out for the resolved
   owner are exactly the row of the index generation the reply is tagged
   with, never a mix of one generation's resolver and the other's
   postings. *)
let test_daemon_fuzzy_hot_swap () =
  let n = 40 and m = 11 in
  let index1 = test_index ~n ~m in
  let index2 = test_index_v2 ~n ~m in
  let truth1 = Array.init n (fun owner -> Eppi.Index.query index1 ~owner) in
  let truth2 = Array.init n (fun owner -> Eppi.Index.query index2 ~owner) in
  let config = Resolver.default_config ~seed:0xF0DA in
  let roster = Roster.generate (Rng.create 41) ~n in
  let resolver = Resolver.build config roster in
  let probes = Array.map (Probe.of_demographic config.Resolver.params) roster in
  with_server ~shards:4 ~workers:4 ~resolver index1 (fun addr engine ->
      let worker =
        Domain.spawn (fun () ->
            let c = Client.connect ~retries:20 addr in
            let rng = Rng.create 7 in
            let results = ref [] in
            let rounds = ref 0 and rounds_after_swap = ref 0 in
            while !rounds_after_swap < 5 && !rounds < 4000 do
              incr rounds;
              let owners = Array.init 10 (fun _ -> Rng.int rng n) in
              let requests =
                Array.to_list
                  (Array.map
                     (fun owner -> Wire.Query_fuzzy { probe = probes.(owner); k = 3 })
                     owners)
              in
              let seen_swap = ref (!rounds_after_swap > 0) in
              List.iteri
                (fun i response ->
                  match response with
                  | Wire.Fuzzy_reply { generation; result } ->
                      if generation >= 2 then seen_swap := true;
                      results := (owners.(i), generation, result) :: !results
                  | other -> Client.unexpected "hot-swap fuzzy query" other)
                (Client.pipeline c requests);
              if !seen_swap then incr rounds_after_swap
            done;
            Client.close c;
            (!rounds, !results))
      in
      let admin = Client.connect addr in
      Unix.sleepf 0.02;
      (match Client.republish_index admin index2 with
      | Ok generation -> check_int "swap generation" 2 generation
      | Error e -> Alcotest.fail e);
      Client.close admin;
      let rounds, results = Domain.join worker in
      check_bool "worker observed the swap" true (rounds < 4000);
      check_int "no dropped replies" (rounds * 10) (List.length results);
      List.iter
        (fun (owner, generation, result) ->
          let truth =
            match generation with
            | 1 -> truth1
            | 2 -> truth2
            | g -> Alcotest.fail (Printf.sprintf "impossible generation %d" g)
          in
          match result with
          | Serve.Candidates (top :: _) ->
              check_int
                (Printf.sprintf "owner %d resolved at generation %d" owner generation)
                owner top.Serve.owner;
              check_bool
                (Printf.sprintf "owner %d providers consistent with generation %d" owner generation)
                true
                (top.Serve.providers = truth.(owner))
          | _ -> Alcotest.fail (Printf.sprintf "owner %d dropped to a non-candidate reply" owner))
        results;
      let metrics = Serve.metrics engine in
      check_int "metrics generation" 2 metrics.generation;
      check_int "fuzzy conservation" metrics.fuzzy_queries
        (metrics.fuzzy_resolved + metrics.fuzzy_empty + metrics.fuzzy_rejected + metrics.fuzzy_shed))

let test_daemon_replay () =
  let n = 30 and m = 9 in
  let index = test_index ~n ~m in
  with_server index (fun addr _engine ->
      let workload = Workload.zipf ~unknown_fraction:0.25 (Rng.create 11) ~n ~count:400 in
      let path = Filename.temp_file "eppi-replay" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          output_string oc (Workload.to_csv_log workload);
          close_out oc;
          let loaded = Replay.load path in
          check_bool "log round-trips" true (loaded = workload);
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let summary = Replay.run ~depth:7 c loaded in
              check_int "requests" 400 summary.requests;
              check_int "conservation" 400 (summary.served + summary.unknown + summary.shed);
              let expected_unknown =
                Array.fold_left (fun acc o -> if o >= n then acc + 1 else acc) 0 workload
              in
              check_int "unknown count" expected_unknown summary.unknown;
              check_int "nothing shed" 0 summary.shed;
              check_int "first generation" 1 summary.first_generation;
              check_int "last generation" 1 summary.last_generation;
              check_bool "wall clock sane" true (summary.wall_seconds >= 0.0))))

let test_replay_load_jsonl () =
  let path = Filename.temp_file "eppi-replay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"ts\": 1, \"owner\": 4}\n\n{\"owner\": -2, \"tag\": \"x\"}\n";
      close_out oc;
      check_bool "jsonl log loads" true (Replay.load path = [| 4; -2 |]))

let test_daemon_shutdown () =
  let index = test_index ~n:8 ~m:5 in
  with_server index (fun addr _engine ->
      let c = Client.connect addr in
      Client.ping c;
      Client.shutdown c;
      Client.close c;
      let rec wait_dead attempts =
        if attempts = 0 then Alcotest.fail "server still accepting after shutdown"
        else
          match Client.connect addr with
          | c2 ->
              Client.close c2;
              Unix.sleepf 0.01;
              wait_dead (attempts - 1)
          | exception Unix.Unix_error _ -> ()
      in
      wait_dead 200)

let test_listen_stale_and_occupied () =
  let path = sock_path () in
  let l1 = Server.listen (Addr.Unix_socket path) in
  Unix.close l1;
  (* The socket file survives a dead server; a new listen reclaims it. *)
  check_bool "stale socket file exists" true (Sys.file_exists path);
  let l2 = Server.listen (Addr.Unix_socket path) in
  Unix.close l2;
  Sys.remove path;
  let oc = open_out path in
  output_string oc "not a socket";
  close_out oc;
  (match Server.listen (Addr.Unix_socket path) with
  | exception Failure _ -> ()
  | fd ->
      Unix.close fd;
      Alcotest.fail "listening over a regular file must fail");
  Sys.remove path

(* ---------- Client robustness ---------- *)

let test_client_request_timeout () =
  (* A listener that accepts the connection (the kernel does that for us via
     the backlog) but never reads or responds: the call must come back as
     Timed_out instead of hanging, and the connection must survive. *)
  let path = sock_path () in
  let listener = Server.listen (Addr.Unix_socket path) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Client.connect ~request_timeout:0.2 (Addr.Unix_socket path) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (match Client.call_result c Wire.Ping with
          | Error Client.Timed_out -> ()
          | Ok _ -> Alcotest.fail "silent server must not answer"
          | Error (Client.Connection_lost m) -> Alcotest.fail ("lost, not timed out: " ^ m));
          let elapsed = Unix.gettimeofday () -. t0 in
          check_bool "timed out promptly" true (elapsed >= 0.19 && elapsed < 5.0);
          match Client.call c Wire.Ping with
          | exception Client.Protocol_error msg ->
              check_bool "call surfaces the timeout" true (contains msg "timed out")
          | _ -> Alcotest.fail "call must also time out"))

let test_client_reconnects_across_restart () =
  (* Kill the daemon under an established client, start a fresh one on the
     same socket path: with [reconnect] the next call must transparently
     land on the new server. *)
  let index = test_index ~n:8 ~m:5 in
  let path = sock_path () in
  let addr = Addr.Unix_socket path in
  let start () =
    let engine = Serve.create index in
    let server = Server.create engine in
    let listener = Server.listen addr in
    Domain.spawn (fun () -> Server.run server listener)
  in
  let stop daemon =
    (try
       let c = Client.connect addr in
       (try Client.shutdown c with _ -> ());
       Client.close c
     with _ -> ());
    Domain.join daemon
  in
  let daemon1 = start () in
  let c = Client.connect ~reconnect:true ~max_reconnects:40 ~retry_delay:0.02 addr in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Client.ping c;
      stop daemon1;
      let daemon2 = start () in
      Fun.protect
        ~finally:(fun () -> stop daemon2)
        (fun () ->
          (* The old socket is dead; the client must notice mid-call and
             re-dial. *)
          Client.ping c;
          let generation, reply = Client.query c ~owner:3 in
          check_int "served by the restarted daemon" 1 generation;
          check_bool "reply intact after reconnect" true
            (reply = Serve.Providers (Eppi.Index.query index ~owner:3))))

let test_client_connection_lost_when_gone_for_good () =
  (* Server dies and never comes back: reconnect attempts must exhaust and
     surface a typed Connection_lost, not spin forever. *)
  let index = test_index ~n:8 ~m:5 in
  let path = sock_path () in
  let addr = Addr.Unix_socket path in
  let engine = Serve.create index in
  let server = Server.create engine in
  let listener = Server.listen addr in
  let daemon = Domain.spawn (fun () -> Server.run server listener) in
  let c = Client.connect ~reconnect:true ~max_reconnects:2 ~retry_delay:0.01 addr in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Client.ping c;
      Client.shutdown c;
      Domain.join daemon;
      (try Sys.remove path with Sys_error _ -> ());
      match Client.call_result c Wire.Ping with
      | Error (Client.Connection_lost _) -> ()
      | Ok _ -> Alcotest.fail "dead server must not answer"
      | Error Client.Timed_out -> Alcotest.fail "expected connection loss, got timeout")

(* ---------- Properties ---------- *)

(* ---- live telemetry ---- *)

(* Drive a mixed load through the daemon, then take it apart via the
   Telemetry wire command: the stage decomposition must conserve exactly
   (stages are telescoping differences of one clock, so the integer sums
   are equal, not merely close), the rolling window must have seen the
   load, and both ops replies must carry the per-worker counters. *)
let daemon_telemetry ~shards ~workers () =
  let n = 20 and m = 9 in
  let index = test_index ~n ~m in
  with_server ~shards ~workers index (fun addr _engine ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for owner = 0 to n - 1 do
            ignore (Client.query c ~owner)
          done;
          ignore (Client.batch c [| 0; 1; 2; 3; 4; 5; 6; 7 |]);
          ignore (Client.audit c ~provider:2);
          Client.ping c;
          let raw = Client.telemetry_json c in
          let v =
            match Json.parse raw with
            | Ok v -> v
            | Error e -> Alcotest.fail ("telemetry reply is not JSON: " ^ e)
          in
          let geti path =
            match Json.find_int v path with
            | Some x -> x
            | None -> Alcotest.fail ("telemetry reply lacks " ^ String.concat "." path)
          in
          check_bool "requests recorded" true (geti [ "requests" ] >= n + 3);
          check_int "conservation is exact"
            (geti [ "conservation"; "total_ns" ])
            (geti [ "conservation"; "stage_sum_ns" ]);
          check_bool "conservation flagged exact" true
            (Json.find v [ "conservation"; "exact" ] = Some (Json.Bool true));
          check_bool "window saw the queries" true (geti [ "window"; "query"; "count" ] >= n);
          check_bool "window saw the batch" true (geti [ "window"; "batch"; "count" ] >= 1);
          check_bool "window query rate positive" true
            (match Json.find_num v [ "window"; "query"; "rate" ] with
            | Some r -> r > 0.0
            | None -> false);
          let finished = geti [ "stages"; "total"; "count" ] in
          check_bool "stage totals populated" true (finished >= n + 3);
          (* Every finished request passes through every stage exactly
             once — the per-stage counts all agree. *)
          List.iter
            (fun st ->
              check_int (st ^ " counts every request") finished (geti [ "stages"; st; "count" ]))
            [ "decode"; "dispatch"; "queue"; "execute"; "reorder"; "flush" ];
          (match Json.find v [ "workers" ] with
          | Some (Json.List ws) ->
              check_int "one entry per worker domain" (if workers > 1 then workers else 0)
                (List.length ws)
          | _ -> Alcotest.fail "telemetry reply lacks workers");
          (match Json.find v [ "slow" ] with
          | Some (Json.List (s :: _)) ->
              check_bool "slow entry conserves too" true
                (match Json.find_int s [ "total_ns" ] with
                | Some total ->
                    total
                    = List.fold_left
                        (fun acc k ->
                          acc + Option.value ~default:0 (Json.find_int s [ k ^ "_ns" ]))
                        0
                        [ "decode"; "dispatch"; "queue"; "execute"; "reorder"; "flush" ]
                | None -> false)
          | _ -> Alcotest.fail "slow ring is empty after load");
          (* The Stats reply carries the worker counters and the trace
             session's drop count on top of the engine metrics. *)
          let stats =
            match Json.parse (Client.stats_json c) with
            | Ok v -> v
            | Error e -> Alcotest.fail ("stats reply is not JSON: " ^ e)
          in
          check_bool "stats still counts queries" true
            (Json.find_int stats [ "queries" ] <> None);
          check_bool "stats carries trace_dropped" true
            (Json.find_int stats [ "trace_dropped" ] = Some 0);
          match Json.find stats [ "workers" ] with
          | Some (Json.List ws) ->
              check_int "stats workers match pool" (if workers > 1 then workers else 0)
                (List.length ws);
              if workers > 1 then
                check_bool "workers served the load" true
                  (List.fold_left
                     (fun acc w -> acc + Option.value ~default:0 (Json.find_int w [ "served" ]))
                     0 ws
                  > 0)
          | _ -> Alcotest.fail "stats reply lacks workers"))

(* A trace id minted by the client must label spans on BOTH sides of the
   socket: the client's [client.request] span and the daemon's
   [net.request] span (recorded on a different domain, hence a different
   track) carry the same id, and the Chrome export contains both. *)
let test_trace_propagation () =
  let index = test_index ~n:10 ~m:5 in
  Eppi_obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () -> Eppi_obs.Trace.reset ())
    (fun () ->
      with_server ~shards:2 ~workers:2 index (fun addr _engine ->
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () -> ignore (Client.query c ~owner:3)));
      Eppi_obs.Trace.disable ();
      let tracks = Eppi_obs.Trace.tracks () in
      let ends_named name =
        List.concat_map
          (fun tr ->
            List.filter_map
              (fun (e : Eppi_obs.Trace.event) ->
                if e.kind = Eppi_obs.Trace.Span_end && e.name = name then
                  match List.assoc_opt "trace_id" e.args with
                  | Some id -> Some (tr.Eppi_obs.Trace.track_label, id)
                  | None -> None
                else None)
              tr.Eppi_obs.Trace.track_events)
          tracks
      in
      let client_spans = ends_named "client.request" in
      let server_spans = ends_named "net.request" in
      check_bool "client recorded a traced span" true (client_spans <> []);
      check_bool "server recorded a traced span" true (server_spans <> []);
      let _, id = List.hd client_spans in
      check_bool "trace id is non-negative" true (id >= 0);
      check_bool "same id on a server span" true (List.exists (fun (_, i) -> i = id) server_spans);
      check_bool "client and server spans sit on different tracks" true
        (List.exists
           (fun (server_track, i) ->
             i = id && List.for_all (fun (client_track, _) -> client_track <> server_track) client_spans)
           server_spans);
      (* And the joined trace survives the Chrome export. *)
      let tmp = Filename.temp_file "eppi-trace" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          Eppi_obs.Chrome.write tmp;
          let ic = open_in_bin tmp in
          let body =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          check_bool "export has the client span" true (contains body "client.request");
          check_bool "export has the server span" true (contains body "net.request");
          check_bool "export carries the id twice" true
            (let needle = Printf.sprintf "\"trace_id\":%d" id in
             let rec count i acc =
               if i + String.length needle > String.length body then acc
               else if String.sub body i (String.length needle) = needle then
                 count (i + 1) (acc + 1)
               else count (i + 1) acc
             in
             count 0 0 >= 2)))

let qcheck_tests =
  let open QCheck in
  let gen_owner =
    Gen.oneof [ Gen.small_nat; Gen.int; Gen.map (fun k -> -k) Gen.small_nat ]
  in
  let gen_reply =
    Gen.oneof
      [
        Gen.map (fun ids -> Serve.Providers ids) (Gen.small_list Gen.nat);
        Gen.return Serve.Unknown_owner;
        Gen.return Serve.Shed_rate_limit;
        Gen.return Serve.Shed_queue_full;
      ]
  in
  (* Fuzzy probes are generated through the real encoder over random
     demographics and filter geometries, so every generated probe is
     wire-legal by construction (ascending sparse indexes within bits). *)
  let gen_demographic =
    let open Gen in
    let name = string_size ~gen:printable (int_range 0 8) in
    let dob =
      oneof
        [
          return (0, 0, 0);
          map
            (fun (y, m, d) -> (1900 + y, 1 + m, 1 + d))
            (triple (int_range 0 120) (int_range 0 11) (int_range 0 27));
        ]
    in
    map
      (fun (first, last, dob, zip) -> { Demographic.first; last; dob; zip; gender = Other })
      (quad name name dob name)
  in
  let gen_probe =
    Gen.map
      (fun (seed, bits, hashes, person) ->
        Probe.of_demographic (Bloom.keyed ~seed ~bits ~hashes ()) person)
      Gen.(quad nat (int_range 8 512) (int_range 1 8) gen_demographic)
  in
  let gen_plain_request =
    Gen.oneof
      [
        Gen.map (fun owner -> Wire.Query { owner }) gen_owner;
        Gen.map (fun l -> Wire.Batch (Array.of_list l)) (Gen.small_list gen_owner);
        Gen.map (fun provider -> Wire.Audit { provider }) Gen.nat;
        Gen.return Wire.Stats;
        Gen.map (fun s -> Wire.Republish { index_csv = s }) Gen.(small_string ~gen:printable);
        Gen.map (fun s -> Wire.Republish_binary { data = s }) Gen.(small_string ~gen:char);
        Gen.map2 (fun probe k -> Wire.Query_fuzzy { probe; k }) gen_probe (Gen.int_range 1 2000);
        Gen.return Wire.Ping;
        Gen.return Wire.Shutdown;
        Gen.return Wire.Telemetry;
        Gen.return Wire.Cluster_status;
      ]
  in
  (* Any plain request may arrive inside a trace envelope; the envelope
     never nests, which the generator respects by construction. *)
  let gen_request =
    Gen.oneof
      [
        gen_plain_request;
        Gen.map2 (fun trace_id request -> Wire.Traced { trace_id; request }) Gen.nat
          gen_plain_request;
      ]
  in
  (* Scores on the wire are basis points; quantized floats round-trip
     bit-exactly. *)
  let gen_candidate =
    Gen.map
      (fun (owner, bp, providers) ->
        { Serve.owner; score = float_of_int bp /. 10000.0; providers })
      Gen.(triple nat (int_range 0 10_000) (small_list nat))
  in
  let gen_fuzzy_result =
    Gen.oneof
      [
        Gen.map (fun cs -> Serve.Candidates cs) (Gen.small_list gen_candidate);
        Gen.return Serve.No_resolver;
        Gen.return Serve.Probe_mismatch;
        Gen.return Serve.Fuzzy_shed;
      ]
  in
  let gen_response =
    Gen.oneof
      [
        Gen.map2 (fun generation reply -> Wire.Reply { generation; reply }) Gen.nat gen_reply;
        Gen.map2
          (fun generation rs -> Wire.Batch_reply { generation; replies = Array.of_list rs })
          Gen.nat (Gen.small_list gen_reply);
        Gen.map2
          (fun generation owners -> Wire.Audit_reply { generation; owners })
          Gen.nat
          (Gen.option (Gen.small_list Gen.nat));
        Gen.map (fun s -> Wire.Stats_json s) Gen.(small_string ~gen:printable);
        Gen.map (fun generation -> Wire.Republished { generation }) Gen.nat;
        Gen.map2
          (fun generation result -> Wire.Fuzzy_reply { generation; result })
          Gen.nat gen_fuzzy_result;
        Gen.return Wire.Pong;
        Gen.return Wire.Shutting_down;
        Gen.map (fun s -> Wire.Server_error s) Gen.(small_string ~gen:printable);
        Gen.map
          (fun (generation, swaps, peers) ->
            Wire.Cluster_status_reply { generation; swaps; peers })
          Gen.(
            triple nat nat
              (list_size (int_range 0 8) (small_string ~gen:printable)));
      ]
  in
  let gen_frame =
    Gen.oneof
      [ Gen.map (fun r -> Wire.Request r) gen_request; Gen.map (fun r -> Wire.Response r) gen_response ]
  in
  [
    Test.make ~name:"any frame stream round-trips under any chunking" ~count:200
      (make Gen.(pair (list_size (int_range 0 5) gen_frame) (int_range 1 17)))
      (fun (frames, chunk) ->
        let stream = String.concat "" (List.map Wire.frame_to_string frames) in
        decode_chunked ~chunk stream = Ok (frames, 0));
    Test.make ~name:"index codec round-trips any matrix" ~count:200
      (make Gen.(quad (int_range 1 30) (int_range 1 50) (int_range 0 100) (int_range 0 10000)))
      (fun (n, m, density, seed) ->
        let rng = Rng.create seed in
        let matrix = Bitmatrix.create ~rows:n ~cols:m in
        for j = 0 to n - 1 do
          for p = 0 to m - 1 do
            if Rng.int rng 100 < density then Bitmatrix.set matrix ~row:j ~col:p true
          done
        done;
        let index = Eppi.Index.of_matrix matrix in
        match Index_codec.decode (Index_codec.encode index) with
        | Ok decoded -> matrices_equal index decoded
        | Error _ -> false);
    Test.make ~name:"index codec decoder agrees with bit-by-bit reference" ~count:300
      (make
         Gen.(
           quad (pair (int_range 1 24) (int_range 1 300)) (int_range 0 100) (int_range 0 10000)
             (pair nat (int_range 1 255))))
      (fun ((n, m), density, seed, (at, flip)) ->
        (* Every density from empty to full, then the same payload with
           one byte corrupted: valid or not, both decoders must reach the
           same matrix or the same typed error. *)
        let rng = Rng.create seed in
        let matrix = Bitmatrix.create ~rows:n ~cols:m in
        for j = 0 to n - 1 do
          for p = 0 to m - 1 do
            if Rng.int rng 100 < density then Bitmatrix.set matrix ~row:j ~col:p true
          done
        done;
        let encoded = Index_codec.encode (Eppi.Index.of_matrix matrix) in
        let mutated = Bytes.of_string encoded in
        let i = at mod String.length encoded in
        Bytes.set mutated i (Char.chr (Char.code encoded.[i] lxor flip));
        agrees_with_reference encoded && agrees_with_reference (Bytes.to_string mutated));
    Test.make ~name:"index codec decode is total on junk" ~count:500
      (make Gen.(small_string ~gen:char))
      (fun junk ->
        (* Version-byte prefix steers the fuzz past the cheapest reject. *)
        List.for_all
          (fun payload -> match Index_codec.decode payload with Ok _ | Error _ -> true)
          [ junk; "\x01" ^ junk ]);
  ]

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "round-trips every frame type" `Quick test_codec_roundtrip;
          Alcotest.test_case "split-read reassembly" `Quick test_codec_split_reads;
          Alcotest.test_case "partial frame wants more bytes" `Quick test_codec_partial_frame;
          Alcotest.test_case "typed decode errors" `Quick test_codec_errors;
          Alcotest.test_case "poisoned decoder stays poisoned" `Quick test_codec_poisoned_decoder;
        ] );
      ("addr", [ Alcotest.test_case "parse and print" `Quick test_addr ]);
      ( "index codec",
        [
          Alcotest.test_case "round-trips" `Quick test_index_codec_roundtrip;
          Alcotest.test_case "every truncation rejected" `Quick test_index_codec_truncation;
          Alcotest.test_case "wrong version rejected" `Quick test_index_codec_wrong_version;
          Alcotest.test_case "malformed payloads rejected" `Quick test_index_codec_malformed;
          Alcotest.test_case "hostile dimensions rejected before allocation" `Quick
            test_index_codec_hostile_dims;
          Alcotest.test_case "single-byte mutations never crash" `Quick
            test_index_codec_mutation_fuzz;
          Alcotest.test_case "golden bytes" `Quick test_index_codec_golden;
          Alcotest.test_case "reference decoder agrees on golden prefixes" `Quick
            test_index_codec_reference_golden;
        ] );
      ( "index file",
        [
          Alcotest.test_case "magic then codec payload" `Quick test_index_file_layout;
          Alcotest.test_case "typed errors" `Quick test_index_file_errors;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "query, batch, audit, stats" `Quick
            (daemon_basics ~shards:1 ~workers:1);
          Alcotest.test_case "hot-swap republish" `Quick test_daemon_republish;
          Alcotest.test_case "cluster status over the wire" `Quick
            test_daemon_cluster_status;
          Alcotest.test_case "pipelined mixed requests" `Quick
            (daemon_pipeline ~shards:1 ~workers:1);
          Alcotest.test_case "hot swap under concurrent load" `Quick
            (daemon_hot_swap_under_load ~workers:1 ~binary:false);
          Alcotest.test_case "fuzzy lookups end-to-end" `Quick (daemon_fuzzy ~shards:1 ~workers:1);
          Alcotest.test_case "fuzzy without a resolver" `Quick test_daemon_fuzzy_no_resolver;
          Alcotest.test_case "trace-driven replay" `Quick test_daemon_replay;
          Alcotest.test_case "replay loads jsonl" `Quick test_replay_load_jsonl;
          Alcotest.test_case "clean shutdown" `Quick test_daemon_shutdown;
          Alcotest.test_case "reply backlog behind a slow reader" `Quick test_daemon_reply_backlog;
          Alcotest.test_case "listen hygiene" `Quick test_listen_stale_and_occupied;
        ] );
      ( "multicore daemon",
        [
          Alcotest.test_case "query, batch, audit, stats (4 domains)" `Quick
            (daemon_basics ~shards:4 ~workers:4);
          Alcotest.test_case "pipelined mixed requests (4 domains)" `Quick
            (daemon_pipeline ~shards:4 ~workers:4);
          Alcotest.test_case "more shards than workers" `Quick
            (daemon_basics ~shards:8 ~workers:3);
          Alcotest.test_case "pipeline past the inflight cap (4 domains)" `Quick
            (daemon_pipeline_past_inflight_cap ~workers:4);
          Alcotest.test_case "binary republish" `Quick test_daemon_republish_binary;
          Alcotest.test_case "pipelined republish ordering" `Quick
            (daemon_republish_ordering ~workers:4);
          Alcotest.test_case "hot swap under concurrent load (4 domains, binary)" `Quick
            (daemon_hot_swap_under_load ~workers:4 ~binary:true);
          Alcotest.test_case "fuzzy lookups end-to-end (4 domains)" `Quick
            (daemon_fuzzy ~shards:4 ~workers:4);
          Alcotest.test_case "fuzzy hot swap stays generation-consistent" `Quick
            test_daemon_fuzzy_hot_swap;
        ] );
      ( "install lane",
        [
          Alcotest.test_case "query behind a republish, inline" `Quick
            (daemon_republish_ordering ~workers:1);
          Alcotest.test_case "query behind a republish, 2 domains" `Quick
            (daemon_republish_ordering ~workers:2);
          Alcotest.test_case "corrupt payload keeps serving" `Quick test_lane_corrupt_republish;
          Alcotest.test_case "concurrent republishes serialize" `Quick
            test_lane_concurrent_republishes;
          Alcotest.test_case "shutdown during an install" `Quick test_lane_shutdown_during_install;
          Alcotest.test_case "install traced off the mux" `Quick test_lane_trace_track;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stage conservation, inline daemon" `Quick
            (daemon_telemetry ~shards:1 ~workers:1);
          Alcotest.test_case "stage conservation (4 domains)" `Quick
            (daemon_telemetry ~shards:4 ~workers:4);
          Alcotest.test_case "trace id joins client and server tracks" `Quick
            test_trace_propagation;
        ] );
      ( "client robustness",
        [
          Alcotest.test_case "backoff jitter stays in bound" `Quick test_backoff_delay;
          Alcotest.test_case "request timeout" `Quick test_client_request_timeout;
          Alcotest.test_case "transparent reconnect across restart" `Quick
            test_client_reconnects_across_restart;
          Alcotest.test_case "connection lost after retries" `Quick
            test_client_connection_lost_when_gone_for_good;
        ] );
      ("properties", Qcheck_seed.to_alcotest ~seed:40604 qcheck_tests);
    ]
