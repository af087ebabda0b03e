(* Tests for the record-linkage subsystem: text primitives, Bloom-filter
   encodings, the generator, and end-to-end linkage quality. *)

open Eppi_prelude
open Eppi_linkage

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_close ?(tol = 1e-9) name a b =
  check_bool (Printf.sprintf "%s: |%g - %g| <= %g" name a b tol) true (Float.abs (a -. b) <= tol)

(* ---------- text primitives ---------- *)

let test_normalize () =
  Alcotest.(check string) "lower + strip" "oconnor3" (Text.normalize "O'Connor 3!");
  Alcotest.(check string) "empty" "" (Text.normalize "--- ---")

let test_soundex_known_values () =
  (* Classic reference values. *)
  List.iter
    (fun (name, code) -> Alcotest.(check string) name code (Text.soundex name))
    [
      ("Robert", "R163");
      ("Rupert", "R163");
      ("Ashcraft", "A261");
      ("Tymczak", "T522");
      ("Pfister", "P236");
      ("Honeyman", "H555");
    ]

let test_soundex_degenerate () =
  Alcotest.(check string) "no letters" "0000" (Text.soundex "12345");
  Alcotest.(check string) "single letter" "A000" (Text.soundex "a")

let test_soundex_matches_typos () =
  check_bool "smith ~ smyth" true (Text.soundex "smith" = Text.soundex "smyth")

let test_levenshtein () =
  check_int "identity" 0 (Text.levenshtein "kitten" "kitten");
  check_int "classic" 3 (Text.levenshtein "kitten" "sitting");
  check_int "empty" 5 (Text.levenshtein "" "hello");
  check_close "similarity" (1.0 -. (3.0 /. 7.0)) (Text.levenshtein_similarity "kitten" "sitting")

let test_bigrams_dice () =
  Alcotest.(check (list string)) "padded bigrams" [ "_a"; "an"; "nn"; "n_" ] (Text.bigrams "ann");
  check_close "self dice" 1.0 (Text.dice "johnson" "johnson");
  check_bool "typo stays close" true (Text.dice "johnson" "jonson" > 0.6);
  check_bool "different names far" true (Text.dice "johnson" "garcia" < 0.3);
  check_close "both empty" 1.0 (Text.dice "" "")

(* ---------- bloom encodings ---------- *)

let test_bloom_deterministic () =
  let p = Bloom.default_params in
  let a = Bloom.encode p "patricia" and b = Bloom.encode p "patricia" in
  check_close "same field, same filter" 1.0 (Bloom.dice a b);
  check_bool "nonempty" true (Bloom.bit_count a > 0)

let test_bloom_seed_matters () =
  let a = Bloom.encode Bloom.default_params "patricia" in
  let b = Bloom.encode { Bloom.default_params with seed = 99 } "patricia" in
  Alcotest.check_raises "different keys incompatible"
    (Invalid_argument "Bloom.dice: incompatible parameters") (fun () -> ignore (Bloom.dice a b))

let test_bloom_approximates_dice () =
  (* Bloom Dice tracks plaintext bigram Dice within a modest error. *)
  let p = { Bloom.bits = 256; hashes = 4; seed = 11 } in
  let pairs =
    [ ("johnson", "jonson"); ("garcia", "garzia"); ("smith", "lee"); ("martinez", "martinez") ]
  in
  List.iter
    (fun (a, b) ->
      let plain = Text.dice a b in
      let encoded = Bloom.dice (Bloom.encode p a) (Bloom.encode p b) in
      check_bool
        (Printf.sprintf "%s/%s: |%f - %f| < 0.2" a b plain encoded)
        true
        (Float.abs (plain -. encoded) < 0.2))
    pairs

(* ---------- generator ---------- *)

let test_population_shape () =
  let rng = Rng.create 1 in
  let regs = Demographic.population rng ~persons:50 ~providers:10 ~max_registrations:4 in
  check_bool "at least one registration per person" true (Array.length regs >= 50);
  Array.iter
    (fun (r : Demographic.registration) ->
      check_bool "provider valid" true (r.provider >= 0 && r.provider < 10);
      check_bool "truth valid" true (r.truth >= 0 && r.truth < 50))
    regs;
  (* A person never registers twice at the same provider. *)
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (r : Demographic.registration) ->
      check_bool "distinct providers per person" false (Hashtbl.mem seen (r.truth, r.provider));
      Hashtbl.add seen (r.truth, r.provider) ())
    regs

let test_corrupt_preserves_most () =
  let rng = Rng.create 2 in
  let person = Demographic.random_person rng in
  let unchanged = ref 0 in
  for _ = 1 to 200 do
    let c = Demographic.corrupt rng person in
    if c = person then incr unchanged
  done;
  (* Default noise: most copies survive unchanged-ish but not all. *)
  check_bool "some registrations identical" true (!unchanged > 50);
  check_bool "some registrations corrupted" true (!unchanged < 200)

(* ---------- linkage ---------- *)

let test_field_score_extremes () =
  let rng = Rng.create 3 in
  let a = Demographic.random_person rng in
  check_close "identity scores 1" 1.0 (Linkage.field_score Linkage.default_config a a);
  let b = Demographic.random_person rng in
  (* Random strangers usually score low. *)
  check_bool "strangers score below threshold" true
    (Linkage.field_score Linkage.default_config a b < 0.82)

let quality_of config seed =
  let rng = Rng.create seed in
  let regs = Demographic.population rng ~persons:120 ~providers:15 ~max_registrations:4 in
  let linked = Linkage.link config regs in
  (linked, Linkage.evaluate linked regs, regs)

let test_link_plaintext_quality () =
  let _, q, _ = quality_of Linkage.default_config 4 in
  check_bool (Printf.sprintf "precision %f" q.precision) true (q.precision > 0.9);
  check_bool (Printf.sprintf "recall %f" q.recall) true (q.recall > 0.75);
  check_bool (Printf.sprintf "f1 %f" q.f1) true (q.f1 > 0.85)

let test_link_bloom_quality () =
  let config =
    { Linkage.mode = Linkage.Bloom { Bloom.bits = 256; hashes = 4; seed = 5 };
      match_threshold = 0.82 }
  in
  let _, q, _ = quality_of config 4 in
  (* The privacy-preserving mode must stay close to plaintext quality. *)
  check_bool (Printf.sprintf "bloom precision %f" q.precision) true (q.precision > 0.85);
  check_bool (Printf.sprintf "bloom recall %f" q.recall) true (q.recall > 0.7)

let test_link_no_noise_perfect_recall () =
  let noise = { Demographic.typo_rate = 0.0; dob_error_rate = 0.0; zip_error_rate = 0.0 } in
  let rng = Rng.create 6 in
  let regs = Demographic.population ~noise rng ~persons:60 ~providers:10 ~max_registrations:3 in
  let linked = Linkage.link Linkage.default_config regs in
  let q = Linkage.evaluate linked regs in
  check_close "perfect recall without noise" 1.0 q.recall

let test_link_blocking_reduces_work () =
  let rng = Rng.create 7 in
  let regs = Demographic.population rng ~persons:120 ~providers:15 ~max_registrations:4 in
  let linked = Linkage.link Linkage.default_config regs in
  let n = Array.length regs in
  let all_pairs = n * (n - 1) / 2 in
  check_bool
    (Printf.sprintf "blocking: %d of %d pairs" linked.candidate_pairs all_pairs)
    true
    (linked.candidate_pairs < all_pairs / 2)

let test_to_membership () =
  let rng = Rng.create 8 in
  let regs = Demographic.population rng ~persons:40 ~providers:8 ~max_registrations:3 in
  let linked = Linkage.link Linkage.default_config regs in
  let membership = Linkage.to_membership linked regs ~providers:8 in
  check_int "rows = entities" linked.entities (Bitmatrix.rows membership);
  check_int "cols = providers" 8 (Bitmatrix.cols membership);
  (* Every registration is reflected. *)
  Array.iteri
    (fun i (r : Demographic.registration) ->
      check_bool "membership set" true
        (Bitmatrix.get membership ~row:linked.assignment.(i) ~col:r.provider))
    regs

let test_end_to_end_with_eppi () =
  (* The paper's federated-search story: link first, then index the linked
     identities with e-PPI; recall of the whole pipeline is 100% over the
     linked entities. *)
  let rng = Rng.create 9 in
  let providers = 12 in
  let regs = Demographic.population rng ~persons:80 ~providers ~max_registrations:4 in
  let linked = Linkage.link Linkage.default_config regs in
  let membership = Linkage.to_membership linked regs ~providers in
  let epsilons = Array.make linked.entities 0.6 in
  let r =
    Eppi.Construct.run (Rng.create 10) ~membership ~epsilons
      ~policy:(Eppi.Policy.Chernoff 0.9)
  in
  for e = 0 to linked.entities - 1 do
    check_bool "recall" true (Eppi.Index.recall_ok ~membership r.index ~owner:e)
  done

let qcheck_tests =
  let open QCheck in
  let name_gen = Gen.oneofl [ "smith"; "smyth"; "johnson"; "jonson"; "garcia"; "chen"; "lee" ] in
  [
    Test.make ~name:"levenshtein is a metric (symmetry + identity)" ~count:300
      (pair (make name_gen) (make name_gen))
      (fun (a, b) ->
        Text.levenshtein a b = Text.levenshtein b a && Text.levenshtein a a = 0);
    Test.make ~name:"levenshtein triangle inequality" ~count:200
      (triple (make name_gen) (make name_gen) (make name_gen))
      (fun (a, b, c) -> Text.levenshtein a c <= Text.levenshtein a b + Text.levenshtein b c);
    Test.make ~name:"dice within [0, 1]" ~count:300
      (pair (make name_gen) (make name_gen))
      (fun (a, b) ->
        let d = Text.dice a b in
        d >= 0.0 && d <= 1.0);
    Test.make ~name:"bloom dice within [0, 1] and reflexive" ~count:200 (make name_gen)
      (fun a ->
        let p = Bloom.default_params in
        let f = Bloom.encode p a in
        Bloom.dice f f = 1.0);
    (* The PRL guarantee the fuzzy resolver rides on: on generous filter
       parameters (few collisions) the Bloom-filter Dice approximates the
       plaintext bigram Dice within a bounded error.  0.15 is loose for
       2048 bits but stable across the whole name pool. *)
    Test.make ~name:"bloom dice approximates plaintext dice" ~count:200
      (pair (make name_gen) (make name_gen))
      (fun (a, b) ->
        let p = Bloom.keyed ~seed:17 ~bits:2048 ~hashes:2 () in
        let approx = Bloom.dice (Bloom.encode p a) (Bloom.encode p b) in
        Float.abs (approx -. Text.dice a b) <= 0.15);
  ]

(* Incompatible parameters must raise, and the empty-string edge is
   defined: "" has no bigrams, its filter is empty, and two empty filters
   score 1.0 (vacuous agreement) while empty-vs-nonempty scores 0.0. *)
let test_bloom_incompatible_and_empty () =
  let p = Bloom.keyed ~seed:3 () in
  let f = Bloom.encode p "smith" in
  let wrong_bits = Bloom.encode (Bloom.keyed ~seed:3 ~bits:128 ()) "smith" in
  let wrong_seed = Bloom.encode (Bloom.keyed ~seed:4 ()) "smith" in
  Alcotest.check_raises "bits mismatch raises"
    (Invalid_argument "Bloom.dice: incompatible parameters") (fun () ->
      ignore (Bloom.dice f wrong_bits));
  Alcotest.check_raises "seed mismatch raises"
    (Invalid_argument "Bloom.dice: incompatible parameters") (fun () ->
      ignore (Bloom.dice f wrong_seed));
  let empty = Bloom.encode p "" in
  check_int "empty filter sets no bits" 0 (Bloom.bit_count empty);
  check_bool "empty vs empty" true (Bloom.dice empty (Bloom.encode p "") = 1.0);
  check_bool "empty vs non-empty" true (Bloom.dice empty f = 0.0)

let () =
  Alcotest.run "linkage"
    [
      ( "text",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "soundex known values" `Quick test_soundex_known_values;
          Alcotest.test_case "soundex degenerate" `Quick test_soundex_degenerate;
          Alcotest.test_case "soundex matches typos" `Quick test_soundex_matches_typos;
          Alcotest.test_case "levenshtein" `Quick test_levenshtein;
          Alcotest.test_case "bigrams and dice" `Quick test_bigrams_dice;
        ] );
      ( "bloom",
        [
          Alcotest.test_case "deterministic" `Quick test_bloom_deterministic;
          Alcotest.test_case "seed matters" `Quick test_bloom_seed_matters;
          Alcotest.test_case "approximates dice" `Quick test_bloom_approximates_dice;
          Alcotest.test_case "incompatible params and empty fields" `Quick
            test_bloom_incompatible_and_empty;
        ] );
      ( "generator",
        [
          Alcotest.test_case "population shape" `Quick test_population_shape;
          Alcotest.test_case "corruption rates" `Quick test_corrupt_preserves_most;
        ] );
      ( "linkage",
        [
          Alcotest.test_case "field score extremes" `Quick test_field_score_extremes;
          Alcotest.test_case "plaintext quality" `Quick test_link_plaintext_quality;
          Alcotest.test_case "bloom quality" `Quick test_link_bloom_quality;
          Alcotest.test_case "no noise, perfect recall" `Quick test_link_no_noise_perfect_recall;
          Alcotest.test_case "blocking reduces work" `Quick test_link_blocking_reduces_work;
          Alcotest.test_case "to membership" `Quick test_to_membership;
          Alcotest.test_case "end to end with e-PPI" `Quick test_end_to_end_with_eppi;
        ] );
      ("properties", Qcheck_seed.to_alcotest ~seed:24766 qcheck_tests);
    ]
