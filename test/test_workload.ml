(* Tests for the TPC-W-derived workload generator (lsr_workload). *)

open Lsr_workload
open Lsr_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Params ---------------------------------------------------------------- *)

let test_defaults_match_table1 () =
  let p = Params.default in
  check_int "clients per secondary" 20 p.Params.clients_per_secondary;
  Alcotest.(check (float 0.)) "think time" 7. p.Params.think_time;
  Alcotest.(check (float 0.)) "session time" 900. p.Params.session_time;
  Alcotest.(check (float 0.)) "update txn prob" 0.20 p.Params.update_tran_prob;
  Alcotest.(check (float 0.)) "abort prob" 0.01 p.Params.abort_prob;
  check_int "min size" 5 p.Params.tran_size_min;
  check_int "max size" 15 p.Params.tran_size_max;
  Alcotest.(check (float 0.)) "op service" 0.02 p.Params.op_service_time;
  Alcotest.(check (float 0.)) "update op prob" 0.30 p.Params.update_op_prob;
  Alcotest.(check (float 0.)) "propagation delay" 10. p.Params.propagation_delay

let test_browsing_mix () =
  let p = Params.browsing Params.default in
  Alcotest.(check (float 0.)) "95/5 mix" 0.05 p.Params.update_tran_prob

let test_quick_shrinks_runs () =
  let p = Params.quick Params.default in
  check_bool "shorter duration" true (p.Params.duration < Params.default.Params.duration);
  check_bool "fewer reps" true
    (p.Params.replications < Params.default.Params.replications)

let test_num_clients () =
  let p = { Params.default with Params.num_secondaries = 7 } in
  check_int "7 * 20" 140 (Params.num_clients p)

let test_table1_rows_complete () =
  check_int "ten parameters" 10 (List.length (Params.table1_rows Params.default))

(* --- Txn_gen ---------------------------------------------------------------- *)

let generate_many ?(params = Params.default) ?(n = 2000) seed =
  let rng = Rng.create seed in
  let gen = Txn_gen.generator params in
  List.init n (fun _ -> Txn_gen.generate gen rng)

let test_sizes_in_range () =
  List.iter
    (fun spec ->
      let n = Txn_gen.op_count spec in
      check_bool "size within [5,15]" true (n >= 5 && n <= 15))
    (generate_many 1)

let test_read_only_has_no_writes () =
  List.iter
    (fun spec ->
      if not (Txn_gen.is_update spec) then
        check_int "read-only writes" 0 (Txn_gen.write_count spec))
    (generate_many 2)

let test_update_has_a_write () =
  List.iter
    (fun spec ->
      if Txn_gen.is_update spec then
        check_bool "update writes >= 1" true (Txn_gen.write_count spec >= 1))
    (generate_many 3)

let test_mix_frequency () =
  let specs = generate_many ~n:10_000 4 in
  let updates = List.length (List.filter Txn_gen.is_update specs) in
  let freq = float_of_int updates /. 10_000. in
  check_bool "update frequency near 20%" true (Float.abs (freq -. 0.2) < 0.02)

let test_browsing_frequency () =
  let specs = generate_many ~params:(Params.browsing Params.default) ~n:10_000 5 in
  let updates = List.length (List.filter Txn_gen.is_update specs) in
  let freq = float_of_int updates /. 10_000. in
  check_bool "update frequency near 5%" true (Float.abs (freq -. 0.05) < 0.01)

let test_update_op_frequency () =
  (* Among the ops of update transactions, ~30% write (slightly more due to
     the at-least-one-write rule). *)
  let specs = List.filter Txn_gen.is_update (generate_many ~n:20_000 6) in
  let ops = List.fold_left (fun acc s -> acc + Txn_gen.op_count s) 0 specs in
  let writes = List.fold_left (fun acc s -> acc + Txn_gen.write_count s) 0 specs in
  let freq = float_of_int writes /. float_of_int ops in
  check_bool "write op frequency near 30%" true (freq > 0.28 && freq < 0.34)

let test_keys_within_space () =
  let params = { Params.default with Params.key_space = 100 } in
  List.iter
    (fun spec ->
      List.iter
        (fun op ->
          let key =
            match op with Txn_gen.Read_op k -> k | Txn_gen.Write_op (k, _) -> k
          in
          check_bool "key format" true
            (String.length key = 11 && String.sub key 0 5 = "item:");
          let idx = int_of_string (String.sub key 5 6) in
          check_bool "key within space" true (idx >= 0 && idx < 100))
        spec.Txn_gen.ops)
    (generate_many ~params ~n:500 7)

let test_mean_transaction_size () =
  let specs = generate_many ~n:20_000 8 in
  let total = List.fold_left (fun acc s -> acc + Txn_gen.op_count s) 0 specs in
  let mean = float_of_int total /. 20_000. in
  check_bool "mean size near 10" true (Float.abs (mean -. 10.) < 0.1)

let test_key_skew_concentrates () =
  let skewed = { Params.default with Params.key_skew = 1.2; key_space = 1000 } in
  let count_hot specs =
    List.fold_left
      (fun acc spec ->
        acc
        + List.length
            (List.filter
               (fun op ->
                 let key =
                   match op with
                   | Txn_gen.Read_op k -> k
                   | Txn_gen.Write_op (k, _) -> k
                 in
                 (* hot = the ten most popular items *)
                 int_of_string (String.sub key 5 6) < 10)
               spec.Txn_gen.ops))
      0 specs
  in
  let hot_uniform =
    count_hot (generate_many ~params:{ skewed with Params.key_skew = 0. } ~n:1000 9)
  in
  let hot_skewed = count_hot (generate_many ~params:skewed ~n:1000 9) in
  check_bool "skew concentrates ops on hot keys" true
    (hot_skewed > 10 * (hot_uniform + 1))

let test_determinism () =
  let a = generate_many ~n:100 42 and b = generate_many ~n:100 42 in
  check_bool "same seed, same workload" true (a = b)

(* The generator as it was before key names were tabled: every key and value
   formatted with [Printf] at its draw. The tabled generator must consume the
   same random stream and produce the same bytes. *)
let reference_generate params rng =
  let key () =
    let n = params.Params.key_space in
    let idx =
      if params.Params.key_skew > 0. then
        Rng.zipf rng ~n ~s:params.Params.key_skew - 1
      else Rng.uniform rng ~lo:0 ~hi:(n - 1)
    in
    Printf.sprintf "item:%06d" idx
  in
  let value () = Printf.sprintf "v%Ld" (Rng.bits64 rng) in
  let size =
    Rng.uniform rng ~lo:params.Params.tran_size_min ~hi:params.Params.tran_size_max
  in
  if not (Rng.bernoulli rng ~p:params.Params.update_tran_prob) then
    { Txn_gen.kind = Txn_gen.Read_only;
      ops = List.init size (fun _ -> Txn_gen.Read_op (key ())) }
  else begin
    let ops =
      List.init size (fun _ ->
          if Rng.bernoulli rng ~p:params.Params.update_op_prob then
            Txn_gen.Write_op (key (), value ())
          else Txn_gen.Read_op (key ()))
    in
    let ops =
      if List.exists (function Txn_gen.Write_op _ -> true | Txn_gen.Read_op _ -> false) ops
      then ops
      else
        match ops with
        | Txn_gen.Read_op k :: rest -> Txn_gen.Write_op (k, value ()) :: rest
        | (Txn_gen.Write_op _ :: _ | []) -> ops
    in
    { Txn_gen.kind = Txn_gen.Update; ops }
  end

let test_key_table_matches_printf () =
  (* A small key space makes most draws hit an already tabled name; the
     skewed case exercises the Zipf path. *)
  List.iter
    (fun (params, seed) ->
      let gen = Txn_gen.generator params in
      let rng = Rng.create seed and ref_rng = Rng.create seed in
      for i = 1 to 10_000 do
        let got = Txn_gen.generate gen rng in
        let want = reference_generate params ref_rng in
        if got <> want then
          Alcotest.failf "draw %d (seed %d): %a <> %a" i seed Txn_gen.pp got
            Txn_gen.pp want
      done)
    [
      (Params.default, 11);
      ({ Params.default with Params.key_space = 500 }, 12);
      ({ Params.default with Params.key_space = 2000; key_skew = 0.9 }, 13);
    ]

let test_value_of_bits_matches_printf () =
  let rng = Rng.create 14 in
  let draws = List.init 1000 (fun _ -> Rng.bits64 rng) in
  List.iter
    (fun b ->
      Alcotest.(check string) (Int64.to_string b) (Printf.sprintf "v%Ld" b)
        (Txn_gen.value_of_bits b))
    ([ 0L; 1L; -1L; -42L; Int64.min_int; Int64.max_int ] @ draws)

let prop_generate_wellformed =
  let gen = Txn_gen.generator Params.default in
  QCheck.Test.make ~name:"generated transactions are well-formed" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let spec = Txn_gen.generate gen rng in
      let n = Txn_gen.op_count spec in
      n >= 5 && n <= 15
      &&
      if Txn_gen.is_update spec then Txn_gen.write_count spec >= 1
      else Txn_gen.write_count spec = 0)

let () =
  Alcotest.run "lsr_workload"
    [
      ( "params",
        [
          Alcotest.test_case "defaults match Table 1" `Quick
            test_defaults_match_table1;
          Alcotest.test_case "browsing mix" `Quick test_browsing_mix;
          Alcotest.test_case "quick mode" `Quick test_quick_shrinks_runs;
          Alcotest.test_case "num_clients" `Quick test_num_clients;
          Alcotest.test_case "table1 rows" `Quick test_table1_rows_complete;
        ] );
      ( "txn_gen",
        [
          Alcotest.test_case "sizes in range" `Quick test_sizes_in_range;
          Alcotest.test_case "read-only has no writes" `Quick
            test_read_only_has_no_writes;
          Alcotest.test_case "update has a write" `Quick test_update_has_a_write;
          Alcotest.test_case "80/20 mix frequency" `Quick test_mix_frequency;
          Alcotest.test_case "95/5 mix frequency" `Quick test_browsing_frequency;
          Alcotest.test_case "update-op frequency" `Quick test_update_op_frequency;
          Alcotest.test_case "keys within space" `Quick test_keys_within_space;
          Alcotest.test_case "mean transaction size" `Quick
            test_mean_transaction_size;
          Alcotest.test_case "key skew concentrates" `Quick
            test_key_skew_concentrates;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "key table matches printf" `Quick
            test_key_table_matches_printf;
          Alcotest.test_case "values match printf" `Quick
            test_value_of_bits_matches_printf;
          QCheck_alcotest.to_alcotest prop_generate_wellformed;
        ] );
    ]
