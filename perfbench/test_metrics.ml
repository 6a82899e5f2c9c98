(* Unit tests for the benchmark's metric arithmetic. *)

let close = Alcotest.float 1e-9

(* Table III columns (native, 1–4 guests) straight from the paper. *)
let paper_columns () =
  List.init 5 (fun c ->
      List.map
        (fun (r : Paper_data.row) ->
           if c = 0 then r.Paper_data.native else r.Paper_data.guests.(c - 1))
        Paper_data.table3)

let test_paper_err_exact () =
  Alcotest.check close "paper vs itself" 0.0
    (Metrics.paper_err_pct (paper_columns ()))

let test_paper_err_one_cell () =
  (* 22 cells carry a nonzero paper value (native execution and total,
     plus 5 rows × 4 guest columns). Raising the 4-guest total from
     18.57 to 18.57 × 1.22 gives that cell a 22% error and every other
     cell 0%, so the mean is 22 / 22 = 1%. *)
  let cols =
    List.mapi
      (fun c col ->
         if c = 4 then List.mapi (fun r v -> if r = 4 then v *. 1.22 else v) col
         else col)
      (paper_columns ())
  in
  Alcotest.check close "one cell 22% off" 1.0
    (Metrics.paper_err_pct cols)

let test_paper_err_native_zero_rows () =
  (* The native entry/exit/PL IRQ cells are 0 in the paper: whatever
     the simulation puts there is not part of the error. Scaling every
     cell by 0.9 (and filling the native zeros) gives exactly 10%. *)
  let cols =
    List.mapi
      (fun c col ->
         List.mapi
           (fun r v -> if c = 0 && r < 3 then 5.0 else v *. 0.9)
           col)
      (paper_columns ())
  in
  Alcotest.check close "uniform -10%" 10.0
    (Metrics.paper_err_pct cols)

let test_paper_err_shape () =
  Alcotest.check_raises "four columns"
    (Invalid_argument "Metrics.paper_err_pct: expected native + 4 guest columns")
    (fun () ->
       ignore (Metrics.paper_err_pct (List.tl (paper_columns ()))))

let test_percentile_rule () =
  let p n = Metrics.reportable_percentile ~samples:n in
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "19 samples" None (p 19);
  Alcotest.check opt "20 samples" (Some 0.5) (p 20);
  Alcotest.check opt "99 samples" (Some 0.5) (p 99);
  Alcotest.check opt "100 samples" (Some 0.9) (p 100);
  Alcotest.check opt "999 samples" (Some 0.9) (p 999);
  Alcotest.check opt "1000 samples" (Some 0.99) (p 1000);
  Alcotest.check opt "9999 samples" (Some 0.99) (p 9999);
  Alcotest.check opt "10000 samples" (Some 0.999) (p 10000);
  Alcotest.(check bool) "p99 needs 1000" false
    (Metrics.p99_reportable ~samples:999);
  Alcotest.(check bool) "p99 at 1000" true
    (Metrics.p99_reportable ~samples:1000)

let test_failed_pct () =
  let f = Metrics.failed_pct in
  Alcotest.check close "3 of 200" 1.5 (f ~attempted:200 ~failed:3);
  Alcotest.check close "none" 0.0 (f ~attempted:7 ~failed:0);
  Alcotest.check close "all" 100.0 (f ~attempted:7 ~failed:7);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Metrics.failed_pct: nothing attempted")
    (fun () -> ignore (f ~attempted:0 ~failed:0));
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Metrics.failed_pct: failed outside [0, attempted]")
    (fun () -> ignore (f ~attempted:3 ~failed:4))

let test_names () =
  let ok = Metrics.name_ok in
  List.iter
    (fun n -> Alcotest.(check bool) n true (ok n))
    [ "sim_cycles_per_s"; "core.run_host_s"; "a-b"; "9lives"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) (String.escaped n) false (ok n))
    [ ""; "_x"; ".x"; "x y"; "p99/us"; "\xc2\xb5s"; String.make 65 'x' ]

let test_result_json () =
  let open Metrics in
  Alcotest.(check string) "line"
    "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
     {\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}"
    (result_json ~correct:true ~attempted:5 ~failed:0 [ metric "setup_s" "s" 0.1 ]);
  Alcotest.check_raises "bad name"
    (Invalid_argument "Metrics.result_json: bad metric name bad name")
    (fun () ->
       ignore (result_json ~correct:true ~attempted:1 ~failed:0 [ metric "bad name" "s" 1.0 ]));
  Alcotest.check_raises "nan"
    (Invalid_argument "Metrics.json_number: not finite")
    (fun () -> ignore (json_number Float.nan))

let test_median () =
  let m = Metrics.median in
  Alcotest.check close "odd" 2.0 (m [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (m [ 4.0; 1.0; 2.0; 3.0 ])

let () =
  Alcotest.run "perfbench"
    [ ( "metrics",
        [ Alcotest.test_case "paper_err_pct exact" `Quick test_paper_err_exact;
          Alcotest.test_case "paper_err_pct one cell" `Quick test_paper_err_one_cell;
          Alcotest.test_case "paper_err_pct native zeros" `Quick
            test_paper_err_native_zero_rows;
          Alcotest.test_case "paper_err_pct shape" `Quick test_paper_err_shape;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "failed_pct" `Quick test_failed_pct;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "result json" `Quick test_result_json;
          Alcotest.test_case "median" `Quick test_median ] ) ]
