(* Pure metric arithmetic of the benchmark: everything here is a
   function of numbers the workloads already collected, so the unit
   tests in [test_metrics.ml] can pin it without running a
   simulation. *)

let name_ok s =
  let n = String.length s in
  let alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  n >= 1 && n <= 64 && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

let median = function
  | [] -> invalid_arg "Metrics.median: no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let failed_pct ~attempted ~failed =
  if attempted <= 0 then invalid_arg "Metrics.failed_pct: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Metrics.failed_pct: failed outside [0, attempted]";
  100.0 *. float_of_int failed /. float_of_int attempted

(* Percentiles a timing may be reported at, as exact fractions
   [num / den] so the "samples beyond" test is integer arithmetic. *)
let ladder = [ (50, 100); (90, 100); (99, 100); (999, 1000); (9999, 10000) ]

let reportable_percentile ~samples =
  List.fold_left
    (fun best (num, den) ->
       if samples * (den - num) >= 10 * den then
         Some (float_of_int num /. float_of_int den)
       else best)
    None ladder

let p99_reportable ~samples =
  match reportable_percentile ~samples with
  | Some p -> p >= 0.99
  | None -> false

(* Table III cells: one column per configuration (native, then 1–4
   guests), each [entry; exit; PL IRQ entry; execution; total] in µs,
   the row order of [Paper_data.table3]. Cells the paper reports as 0
   (the native entry/exit/IRQ rows) have no relative error and are
   skipped. *)
let paper_err_pct columns =
  let paper_cols =
    List.init 5 (fun c ->
        List.map
          (fun (r : Paper_data.row) ->
             if c = 0 then r.Paper_data.native else r.Paper_data.guests.(c - 1))
          Paper_data.table3)
  in
  if List.length columns <> List.length paper_cols then
    invalid_arg "Metrics.paper_err_pct: expected native + 4 guest columns";
  let errs =
    List.concat
      (List.map2
         (fun sim paper ->
            if List.length sim <> List.length paper then
              invalid_arg "Metrics.paper_err_pct: expected 5 rows per column";
            List.concat
              (List.map2
                 (fun s p -> if p > 0.0 then [ Float.abs (s -. p) /. p ] else [])
                 sim paper))
         columns paper_cols)
  in
  100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if not (Float.is_finite v) then invalid_arg "Metrics.json_number: not finite";
  Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_json ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
       if not (name_ok m.name) then
         invalid_arg ("Metrics.result_json: bad metric name " ^ m.name))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_number m.value) (json_string m.unit_))
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
