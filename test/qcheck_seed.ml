(* Pinned QCheck seeds, so that a tier-1 run is reproducible.

   Each property of a suite draws from its own [Random.State] made from
   the suite's seed, so adding or reordering properties never changes the
   inputs of another.  [QCHECK_SEED] in the environment overrides the
   seed, e.g. to soak the suites under many seeds.  A failing property
   prints the seed that reproduces it. *)

let to_alcotest ~seed tests =
  let seed =
    Option.value ~default:seed (Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt)
  in
  List.map
    (fun test ->
      let name, speed, run =
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
      in
      ( name,
        speed,
        fun () ->
          try run ()
          with e ->
            Printf.printf "QCheck seed %d (rerun with QCHECK_SEED=%d)\n%!" seed seed;
            raise e ))
    tests
