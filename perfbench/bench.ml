(* The repository benchmark: simulation speed end to end, plus exact
   per-layer work counts and a traced run that splits host time by
   layer.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   The seed N yields a few sub-seeds; each gives one instance of
   workload W (its own boards, set up from scratch). A run executes
   every instance once, then repeats the leading ones in turn, with a
   set-up sample after each run, until S seconds have passed, then runs
   the correctness gate's reference. With
   --trace 0 the last line of standard output is a JSON object
   carrying every end-to-end metric; with --trace 1 it carries every
   per-layer metric, taken from alternating untraced and traced rounds
   of all instances. A gate failure prints the problem on standard
   error and exits 1 without a result. *)

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

type workload = {
  instances : (unit -> Round.t) list;  (* one per sub-seed *)
  timed : int;  (* leading instances that repeat, and give the speed *)
  setup_batch : int;  (* rounds' worth of set-ups per [setup_s] sample *)
}

let workloads = [ "paper-table3"; "fleet-smp" ]

(* The first sub-seed is the run's seed itself, so the paper-table3
   gate compares the sweep at exactly [--seed] with [Scenario]. *)
let sub_seeds ~seed k = List.init k (fun i -> seed + (i * 1_000_003))

let seconds_since t0 = Int64.to_float (Int64.sub (Span.now_ns ()) t0) *. 1e-9

let timed f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* One instance from a settled heap: set up, run (each part timed),
   read out. *)
let run_instance setup =
  Gc.full_major ();
  Layers.reset_guest_tallies ();
  let r = setup () in
  let part_s = List.map (fun part -> snd (timed part)) r.Round.parts in
  (r.Round.collect (), part_s)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* {2 Host-speed reference}

   The shared host runs in states up to 1.6x apart in memory speed,
   each lasting minutes, so the same run reads slow in one state and
   fast in the next. The reference is a fixed loop that allocates like
   the simulator (short lists, 0.8 MB of them kept alive,
   so the minor collector promotes and the major one works); it slows
   down in the slow states by about as much as the workloads do, and
   an instance's host times are divided by the reference time taken
   just before it. The loop lives here, not in the program, so no
   change to the program moves it, and it runs on a settled heap
   without any board alive, so the program's heap does not either. *)
let reference () =
  let keep = Array.make 4096 [] in
  for i = 1 to 500_000 do
    keep.(i land 4095) <- List.init 8 (fun x -> x + i)
  done;
  ignore (Sys.opaque_identity keep)

(* Host times are stated for a host on which [reference] takes this
   long: its time on the 2-vCPU Xeon VM where the benchmark was
   written, in that host's fast state. *)
let reference_nominal_s = 0.042

let reference_s () =
  Gc.full_major ();
  snd (timed reference)

let pool = function
  | [] -> assert false
  | r :: rs -> List.fold_left Round.merge r rs

(* One round of every instance, pooled, with its wall time. *)
let round wl =
  let t0 = Span.now_ns () in
  let r = pool (List.map (fun setup -> fst (run_instance setup)) wl.instances) in
  (r, seconds_since t0)

(* One [setup_s] sample: [setup_batch] rounds' worth of set-ups, each
   timed alone from a settled heap, as [run_instance] sets up, so the
   samples never hold more boards than a round does. *)
let setup_sample wl =
  let total = ref 0.0 in
  for _ = 1 to wl.setup_batch do
    List.iter
      (fun setup ->
         Gc.full_major ();
         Layers.reset_guest_tallies ();
         total := !total +. snd (timed (fun () -> ignore (setup ()))))
      wl.instances
  done;
  !total

(* Simulated statistics must repeat exactly from round to round, and
   between traced and untraced rounds: tracing is host-side only. *)
let same_simulation what (a : Round.result) (b : Round.result) =
  if a.Round.sim_cycles <> b.Round.sim_cycles then
    fail "%s: simulated cycles differ (%d vs %d)" what a.Round.sim_cycles
      b.Round.sim_cycles;
  if a.Round.counts <> b.Round.counts then
    fail "%s: per-layer counts differ (%s)" what
      (String.concat ", "
         (List.filter_map
            (fun (k, v) ->
               let w = Layers.get b.Round.counts k in
               if v = w then None else Some (Printf.sprintf "%s %d vs %d" k v w))
            a.Round.counts));
  if a.Round.tally <> b.Round.tally || a.Round.table3 <> b.Round.table3
     || a.Round.victim <> b.Round.victim
     || a.Round.hwtm_total_us <> b.Round.hwtm_total_us
  then fail "%s: workload outcomes differ" what

(* {2 Correctness gate and calibration}

   Run after the timed rounds, outside every timed section. *)

type calibration = {
  gate_cell : (int * float list) option;
      (* paper-table3: [Scenario.run_virtualized ~guests:4] at the seed *)
  paper_cells : (int * float list) list;
      (* elsewhere: [Scenario]'s Table III sweeps at the paper sub-seeds *)
  lone_victim : Round.victim option;
  wall_s : float;
}

(* Table III error is taken over the sweeps of the first two sub-seeds
   on both workloads, so both report the same value for a seed. *)
let paper_sweeps = 2

(* 4-guest Table III cell at the default configuration and seed 42. *)
let seed42_cycles = 2_642_063_134

let calibrate ~name ~seeds =
  let t0 = Span.now_ns () in
  let table3 = name = "paper-table3" in
  let gate_cell =
    if not table3 then None
    else begin
      let seed = List.hd seeds in
      let ((cycles, _) as cell) =
        Wl_table3.cell_of
          (Scenario.run_virtualized ~config:(Wl_table3.inputs ~seed)
             ~guests:Wl_table3.max_guests ())
      in
      if seed = 42 && Scenario.default_config.Scenario.requests_per_guest = 60
         && cycles <> seed42_cycles
      then
        fail "Scenario 4-guest cell at seed 42 ran %d cycles, expected %d" cycles
          seed42_cycles;
      Some cell
    end
  in
  let paper_cells =
    if table3 then []
    else Wl_table3.reference_sweeps (List.filteri (fun i _ -> i < paper_sweeps) seeds)
  in
  let lone_victim =
    if not table3 then None
    else begin
      let runs = List.map (fun seed -> Wl_fleet.lone_victim (Wl_fleet.inputs ~seed)) seeds in
      let t = Guests.merge (List.map snd runs) in
      if t.Guests.mismatched > 0 then
        fail "lone victim: %d jobs disagree with the software reference"
          t.Guests.mismatched;
      match List.map fst runs with
      | v :: vs -> Some (List.fold_left Round.merge_victims v vs)
      | [] -> None
    end
  in
  { gate_cell; paper_cells; lone_victim; wall_s = seconds_since t0 }

let check_round ~cal (r : Round.result) =
  (match r.Round.problems with
   | [] -> ()
   | ps -> fail "%s" (String.concat "; " ps));
  match cal.gate_cell, List.nth_opt r.Round.table3 Wl_table3.max_guests with
  | None, _ -> ()
  | Some (rc, rcol), Some (c, col) ->
    if c <> rc || col <> rcol then
      fail
        "4-guest Table III cell: composed run gives %d cycles %s, \
         Scenario.run_virtualized gives %d cycles %s"
        c
        (String.concat "/" (List.map (Printf.sprintf "%.4f") col))
        rc
        (String.concat "/" (List.map (Printf.sprintf "%.4f") rcol))
  | Some _, None -> fail "composed sweep is missing the 4-guest cell"

(* {2 End-to-end metrics (--trace 0)} *)

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let failed_pct (t : Guests.tally) =
  Metrics.failed_pct ~attempted:t.Guests.attempted ~failed:t.Guests.refused

let mean xs = sum xs /. float_of_int (List.length xs)

(* Table III cells averaged over the sweeps of the first
   [paper_sweeps] sub-seeds. *)
let paper_columns cells =
  let cells = List.filteri (fun i _ -> i < 5 * paper_sweeps) cells in
  List.init 5 (fun c ->
      let cols = List.filteri (fun i _ -> i mod 5 = c) cells |> List.map snd in
      List.init 5 (fun row -> mean (List.map (fun col -> List.nth col row) cols)))

let victim_of ~cal (r : Round.result) =
  let v =
    match r.Round.victim, cal.lone_victim with
    | Some v, _ | None, Some v -> v
    | None, None -> fail "no victim measurement"
  in
  if not (Metrics.p99_reportable ~samples:v.Round.samples) then
    fail "victim has %d vIRQ samples, too few for a p99" v.Round.samples;
  v

let table3_cells ~cal (r : Round.result) =
  if r.Round.table3 <> [] then r.Round.table3 else cal.paper_cells

(* Every instance runs once, and the heap peak is read; then the
   first [wl.timed] instances run in turn until [seconds] have passed.
   The reference is timed before each of these runs and a [setup_s]
   sample after it, so the samples spread over the whole run as the
   runs do. Every run of an instance does the same
   simulated work, so each part of an instance (a Table III cell, or a
   whole fleet) has one host time per run; divided by the reference
   time, the part's median over its runs gives its time on the
   nominal host, and the speed is the simulated cycles of one run of
   each repeated instance over the sum of their parts' times. [setup_s]
   is the median of the set-up samples, each divided by its run's
   reference time, on the nominal host likewise. The simulated metrics
   pool the first run of every instance, and every later run of an
   instance must repeat its first exactly. *)
let untraced ~name ~wl ~seeds ~seconds =
  let insts = Array.of_list wl.instances in
  let k = Array.length insts in
  let t0 = Span.now_ns () in
  (* Each first run is followed by a set-up sample, as every later run
     is: the sample's collections decide how far the major heap has
     grown by the next run, so without it the heap peak reads higher.
     The sample is not kept, having no reference time. *)
  let firsts =
    List.map
      (fun setup ->
         let r = fst (run_instance setup) in
         ignore (setup_sample wl);
         r)
      wl.instances
  in
  (* Before the reference, which promotes far more than it keeps. *)
  let peak_words = (Gc.stat ()).Gc.top_heap_words in
  reference ();  (* the first call grows the heap; untimed *)
  let rec loop j runs setups =
    if j >= wl.timed && seconds_since t0 >= seconds then (List.rev runs, List.rev setups)
    else begin
      let i = j mod wl.timed in
      let ref_s = reference_s () in
      let r, part_s = run_instance insts.(i) in
      loop (j + 1) ((i, r, ref_s, part_s) :: runs)
        ((setup_sample wl, ref_s) :: setups)
    end
  in
  let runs, setups = loop 0 [] [] in
  let rounds_wall = seconds_since t0 in
  let cal = calibrate ~name ~seeds in
  List.iter (fun (i, r, _, _) -> same_simulation "round" (List.nth firsts i) r) runs;
  let first = pool firsts in
  check_round ~cal first;
  let rates =
    List.map (fun (_, r, _, part_s) -> float_of_int r.Round.sim_cycles /. sum part_s) runs
  in
  let nominal s ref_s = s /. ref_s *. reference_nominal_s in
  let instance_s i =
    let samples =
      List.filter_map (fun (j, _, ref_s, s) -> if j = i then Some (ref_s, s) else None) runs
    in
    List.init
      (List.length (snd (List.hd samples)))
      (fun p ->
         Metrics.median (List.map (fun (ref_s, s) -> nominal (List.nth s p) ref_s) samples))
    |> sum
  in
  let timed_cycles =
    (pool (List.filteri (fun i _ -> i < wl.timed) firsts)).Round.sim_cycles
  in
  let speed = float_of_int timed_cycles /. sum (List.init wl.timed instance_s) in
  let ref_times = List.map (fun (_, _, ref_s, _) -> ref_s) runs in
  let v = victim_of ~cal first in
  let columns = paper_columns (table3_cells ~cal first) in
  Printf.printf "%s: %d repeated runs with set-up samples %.2f s, calibration %.2f s\n"
    name (List.length runs) rounds_wall cal.wall_s;
  Printf.printf "%s: simulated cycles per host second by run: %s\n" name
    (String.concat " " (List.map (Printf.sprintf "%.4g") rates));
  Printf.printf "%s: reference times by run (s): %s\n" name
    (String.concat " " (List.map (Printf.sprintf "%.4g") ref_times));
  Printf.printf "%s: set-up samples (host s): %s\n" name
    (String.concat " " (List.map (fun (s, _) -> Printf.sprintf "%.4g" s) setups));
  Printf.printf
    "%s: %d instances, %d simulated cycles, %d operations (%d refused)\n"
    name k first.Round.sim_cycles
    first.Round.tally.Guests.attempted first.Round.tally.Guests.refused;
  Printf.printf
    "%s: victim vIRQ turnaround p50 %.4f us, p99 %.4f us over %d samples%s\n"
    name (Round.victim_us v 0.5) (Round.victim_us v 0.99) v.Round.samples
    (if first.Round.victim = None then " (lone victim, idle board)" else "");
  Printf.printf
    "%s: Table III mean over %d sweeps%s (us; rows entry, exit, PL IRQ, exec, \
     total; columns native, 1-4 guests)\n"
    name paper_sweeps
    (if first.Round.table3 = [] then " of the calibration" else "");
  List.iteri
    (fun row _ ->
       Printf.printf "  %s\n"
         (String.concat " "
            (List.map (fun col -> Printf.sprintf "%8.4f" (List.nth col row)) columns)))
    columns;
  let metrics =
    [ Metrics.metric "sim_cycles_per_s" "1/s" speed;
      Metrics.metric "setup_s" "s"
        (Metrics.median (List.map (fun (s, ref_s) -> nominal s ref_s) setups));
      Metrics.metric "peak_heap_mb" "MB" (heap_mb peak_words);
      Metrics.metric "failed_pct" "%" (failed_pct first.Round.tally);
      Metrics.metric "paper_err_pct" "%" (Metrics.paper_err_pct columns);
      Metrics.metric "hwtm_total_us" "us" (mean first.Round.hwtm_total_us);
      Metrics.metric "victim_p99_us" "us" (Round.victim_us v 0.99) ]
  in
  (metrics, first.Round.tally)

(* {2 Per-layer metrics (--trace 1)} *)

let host_span_layers =
  [ ("platform.create", "platform.create_host_s");
    ("core.boot", "core.boot_host_s");
    ("core.create_vm", "core.create_vm_host_s");
    ("check", "check.host_s");
    ("workloads", "workloads.host_s") ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let pct a b = 100.0 *. ratio a b

type pair = {
  plain : Round.result;
  plain_wall : float;
  traced : Round.result;
  traced_wall : float;
  spans : Span.t list;
}

let traced ~name ~wl ~seeds ~seconds =
  let model = Layers.fit () in
  let t0 = Span.now_ns () in
  let rec loop acc =
    if acc <> [] && seconds_since t0 >= seconds then List.rev acc
    else begin
      Span.on := false;
      let plain, plain_wall = round wl in
      Span.reset ();
      Span.on := true;
      let traced, traced_wall = round wl in
      Span.on := false;
      loop ({ plain; plain_wall; traced; traced_wall; spans = Span.spans () } :: acc)
    end
  in
  let pairs = loop [] in
  let cal = calibrate ~name ~seeds in
  let first = (List.hd pairs).plain in
  check_round ~cal first;
  List.iter
    (fun p ->
       same_simulation "round" first p.plain;
       same_simulation "traced round" p.plain p.traced)
    pairs;
  let n = float_of_int (List.length pairs) in
  let per_round f = List.fold_left (fun a p -> a +. f p) 0.0 pairs /. n in
  let g = Layers.get first.Round.counts in
  let self = List.concat_map (fun p -> Span.self_seconds p.spans) pairs in
  let span_total name =
    List.fold_left
      (fun a ((s : Span.t), t) -> if s.Span.name = name then a +. t else a)
      0.0 self
    /. n
  in
  let traced_wall = per_round (fun p -> p.traced_wall) in
  let plain_wall = per_round (fun p -> p.plain_wall) in
  let overhead = Metrics.median (List.map (fun p -> p.traced_wall /. p.plain_wall) pairs) in
  let visits =
    g "platform.warm_replays" + g "platform.partial_replays" + g "platform.progs_compiled"
  in
  let lines = g "cachesim.l1i_accesses" + g "cachesim.l1d_accesses" in
  let misses = g "cachesim.l1_misses" in
  let s_of ns count = ns *. float_of_int count *. 1e-9 in
  let cachesim_s =
    s_of model.Layers.hit_ns (lines - misses) +. s_of model.Layers.miss_ns misses
  in
  let mmu_s = s_of model.Layers.lookup_ns (g "mmu.tlb_lookups") in
  let platform_s = s_of model.Layers.visit_ns visits in
  (* The modelled layers run inside the run slices ([Kernel.run], or
     [Smp.run] with its epoch barriers); their share comes out of the
     slices' self time. Neither this remainder nor the residual below
     is clamped: a negative value means the model overestimates. *)
  let core_run_s = span_total "core.run" -. cachesim_s -. mmu_s -. platform_s in
  let layer_s =
    [ ("cachesim.model_host_s", cachesim_s); ("mmu.model_host_s", mmu_s);
      ("platform.model_host_s", platform_s); ("core.run_host_s", core_run_s) ]
    @ List.map (fun (span, metric) -> (metric, span_total span)) host_span_layers
  in
  let explained = List.fold_left (fun a (_, s) -> a +. s) 0.0 layer_s in
  let alloc_mw =
    per_round (fun p ->
        List.fold_left
          (fun a (s : Span.t) ->
             if s.Span.name = "workloads" then a +. s.Span.minor_words else a)
          0.0 p.spans)
    /. 1e6
  in
  let v = victim_of ~cal first in
  let last = (List.nth pairs (List.length pairs - 1)).spans in
  let dir = Filename.concat "perfbench" "traces" in
  (try
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     let path = Filename.concat dir (name ^ ".json") in
     Out_channel.with_open_text path (fun oc -> output_string oc (Span.to_json last));
     Printf.printf "%s: %d spans of the last traced round written to %s\n" name
       (List.length last) path
   with Sys_error e -> Printf.printf "%s: trace not written (%s)\n" name e);
  Printf.printf
    "%s: %d pairs; per round untraced %.4f s, traced %.4f s; model ns: visit \
     %.2f, TLB lookup %.2f, L1 hit line %.2f, L1 miss line %.2f\n"
    name (List.length pairs) plain_wall traced_wall model.Layers.visit_ns
    model.Layers.lookup_ns model.Layers.hit_ns model.Layers.miss_ns;
  let count name = Metrics.metric name "count" (float_of_int (g name)) in
  let metrics =
    [ count "engine.sim_cycles";
      count "cachesim.l1i_accesses"; count "cachesim.l1d_accesses";
      count "cachesim.l1d_misses"; count "cachesim.l2_misses";
      count "mmu.tlb_lookups"; count "mmu.tlb_misses";
      count "platform.warm_replays"; count "platform.partial_replays";
      count "platform.mtlb_misses"; count "platform.progs_compiled";
      Metrics.metric "platform.warm_replay_pct" "%" (pct (g "platform.warm_replays") visits);
      count "workloads.calls";
      Metrics.metric "workloads.alloc_mw" "Mwords" alloc_mw;
      count "ucos.ticks";
      count "core.hypercalls"; count "core.vm_switches"; count "core.vm_creates";
      count "core.alloc_steps";
      Metrics.metric "core.transitions_per_job" "ratio"
        (ratio (g "core.hypercalls") (g "core.hwtm_requests"));
      count "core.ring_doorbells";
      count "core.hwtm_requests"; count "core.hwtm_reclaims";
      count "smp.epochs";
      count "pl.pcap_transfers";
      Metrics.metric "pl.reconfigs_per_request" "ratio"
        (ratio (g "pl.reconfigs") (g "core.hwtm_requests"));
      count "pl.jobs_completed";
      Metrics.metric "pl.prr_busy_pct" "%"
        (pct (g "pl.prr_busy_cycles") (g "pl.prr_cycles"));
      count "mem.touched_frames";
      count "check.sweeps";
      Metrics.metric "bench.ops_attempted" "count"
        (float_of_int first.Round.tally.Guests.attempted);
      Metrics.metric "bench.ops_refused" "count"
        (float_of_int first.Round.tally.Guests.refused);
      Metrics.metric "bench.victim_samples" "count" (float_of_int v.Round.samples);
      Metrics.metric "bench.victim_p50_us" "us" (Round.victim_us v 0.5);
      Metrics.metric "bench.untraced_wall_s" "s" plain_wall;
      Metrics.metric "bench.traced_wall_s" "s" traced_wall;
      Metrics.metric "bench.trace_overhead_ratio" "ratio" overhead;
      Metrics.metric "bench.unexplained_host_s" "s" (traced_wall -. explained) ]
    @ List.map (fun (name, s) -> Metrics.metric name "s" s) layer_s
  in
  (metrics, first.Round.tally)

(* {2 Command line} *)

let usage =
  "usage: bench.exe --workload {paper-table3|fleet-smp} --seed N --seconds S \
   --trace {0|1}"

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | a :: _ -> fail "unexpected argument %S\n%s" a usage
  in
  go (List.tl (Array.to_list argv));
  match !workload, !seed, !seconds, !trace with
  | Some w, Some s, Some secs, Some t
    when List.mem w workloads && s >= 0 && s < 1 lsl 40 && secs > 0.0 ->
    (w, s, secs, t)
  | _ -> fail "%s" usage

(* Instances per workload. paper-table3's T_hw refusals vary so much
   from seed to seed that [failed_pct] over four sweeps spread by an IQR
   of 0.24 of its median over ten seeds, so it pools eight; an instance
   takes about 2.5 s, so only two repeat, each about seven times in
   55 s. A fleet-smp instance takes about 1 s, and all four repeat.
   Set-up batch size per workload, so that a [setup_s] sample times
   every instance's boards a fixed number of times, about 30 ms of
   work. *)
let instance_count = function "paper-table3" -> 8 | _ -> 4

let workload name ~seeds =
  let each inputs setup =
    List.map (fun seed -> let inp = inputs ~seed in fun () -> setup inp) seeds
  in
  match name with
  | "paper-table3" ->
    { instances = each Wl_table3.inputs Wl_table3.setup; timed = 2; setup_batch = 2 }
  | _ -> { instances = each Wl_fleet.inputs Wl_fleet.setup; timed = 4; setup_batch = 2 }

let main () =
  let name, seed, seconds, trace = parse Sys.argv in
  let seeds = sub_seeds ~seed (instance_count name) in
  let wl = workload name ~seeds in
  let metrics, (tally : Guests.tally) =
    if trace then traced ~name ~wl ~seeds ~seconds
    else untraced ~name ~wl ~seeds ~seconds
  in
  List.iter
    (fun (m : Metrics.metric) ->
       Printf.printf "%-28s %s %s\n" m.Metrics.name
         (Metrics.json_number m.Metrics.value) m.Metrics.unit_)
    metrics;
  (* The operation counts of [failed_pct]: one run of every instance. *)
  print_endline
    (Metrics.result_json ~correct:true ~attempted:tally.Guests.attempted
       ~failed:tally.Guests.refused metrics)

let () =
  try main () with
  | Fail msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
  | Invariant.Violation v ->
    prerr_endline ("perfbench: invariant violated: " ^ Invariant.violation_to_string v);
    exit 1
