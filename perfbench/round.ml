(* What one workload instance hands back to [Bench]. An instance is
   set up (boards, kernel boot, bitstream registration, initial VMs),
   then run; a round runs several instances built from sub-seeds of the
   run's seed and pools their results with [merge]. *)

(* The victim's completion-vIRQ turnaround histogram (cycles, the
   observability plane's log2 buckets), poolable across instances. *)
type victim = {
  samples : int;
  buckets : (int * int) list;  (* ascending bucket index *)
  max_cycles : int;
}

type result = {
  sim_cycles : int;           (* summed over every simulated pCPU *)
  counts : Layers.counts;
  tally : Guests.tally;       (* operations attempted / refused / wrong *)
  hwtm_total_us : float list; (* per instance: manager entry + exec + exit *)
  table3 : (int * float list) list;
      (* per Table III cell (native, then 1–4 guests, for each sweep):
         its simulated cycles and [entry; exit; PL IRQ; exec; total] in
         µs; empty outside paper-table3 *)
  victim : victim option;
  problems : string list;     (* correctness failures found *)
}

(* [parts] run the instance when called in order; [Bench] times each
   part on its own. *)
type t = {
  parts : (unit -> unit) list;
  collect : unit -> result;
}

(* Drive [step ~until] in fixed simulated slices until [live ()] is
   false or [cap] is reached. Slice ends are multiples of [slice], and
   so of the [Smp] epoch: the epoch boundaries are the same as in one
   long run. *)
let slice = Cycles.of_ms 50.0

let run_sliced ~now ~live ~cap step =
  let rec go () =
    let t = now () in
    if live () && t < cap then begin
      step ~until:(min cap (((t / slice) + 1) * slice));
      if now () > t then go ()
    end
  in
  go ()

let mean_us s =
  if Stats.count s = 0 then 0.0 else Cycles.to_us (int_of_float (Stats.mean s))

(* Table III row values of a probe (or of probes merged across nodes). *)
let hwtm_means stats =
  let entry = mean_us (stats Probe.hwtm_entry)
  and exit_ = mean_us (stats Probe.hwtm_exit)
  and plirq = mean_us (stats Probe.pl_irq_entry)
  and exec = mean_us (stats Probe.hwtm_exec) in
  [ entry; exit_; plirq; exec; entry +. exec +. exit_ ]

let merged_probe kernels label =
  List.fold_left
    (fun acc k -> Stats.merge acc (Probe.stats (Kernel.probe k) label))
    (Stats.create ()) kernels

let total_of = function [ _; _; _; _; total ] -> total | _ -> assert false

let victim_of (z : Zynq.t) ~pd =
  let snap = Obs.snapshot z.Zynq.obs in
  match
    List.find_opt
      (fun (c : Obs.cell) ->
         c.Obs.c_component = "virq_turnaround" && c.Obs.c_key = pd)
      snap.Obs.s_cells
  with
  | None -> { samples = 0; buckets = []; max_cycles = 0 }
  | Some c ->
    { samples = c.Obs.c_calls; buckets = c.Obs.c_buckets;
      max_cycles = c.Obs.c_max_cycles }

let merge_victims a b =
  let rec add x y =
    match x, y with
    | [], l | l, [] -> l
    | (i, n) :: xs, (j, m) :: ys ->
      if i = j then (i, n + m) :: add xs ys
      else if i < j then (i, n) :: add xs y
      else (j, m) :: add x ys
  in
  { samples = a.samples + b.samples; buckets = add a.buckets b.buckets;
    max_cycles = max a.max_cycles b.max_cycles }

let victim_us v q =
  match
    Obs.percentile_of_buckets ~max_v:v.max_cycles ~count:v.samples
      ~buckets:v.buckets q
  with
  | Some cyc -> cyc *. 1e6 /. float_of_int Cycles.cpu_hz
  | None -> 0.0

let merge_counts a b =
  let acc = Layers.create () in
  List.iter (fun (k, v) -> Layers.add acc k v) a;
  List.iter (fun (k, v) -> Layers.add acc k v) b;
  Layers.freeze acc

let merge a b =
  { sim_cycles = a.sim_cycles + b.sim_cycles;
    counts = merge_counts a.counts b.counts;
    tally = Guests.merge [ a.tally; b.tally ];
    hwtm_total_us = a.hwtm_total_us @ b.hwtm_total_us;
    table3 = a.table3 @ b.table3;
    victim =
      (match a.victim, b.victim with
       | Some x, Some y -> Some (merge_victims x y)
       | v, None | None, v -> v);
    problems = a.problems @ b.problems }
