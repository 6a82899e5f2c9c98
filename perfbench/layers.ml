(* Exact per-layer work counts, read from the layers' public accessors
   after a round, plus the few counts only the benchmark itself can
   make (calls into the workload kernels, VM lifecycle calls, invariant
   sweeps, SMP epochs). Every count is an integer that repeats exactly
   for a given seed, traced or not. *)

type counts = (string * int) list  (* sorted by name *)

type acc = (string, int) Hashtbl.t

let create () : acc = Hashtbl.create 64

let add (c : acc) name v =
  Hashtbl.replace c name (v + Option.value ~default:0 (Hashtbl.find_opt c name))

let freeze (c : acc) : counts =
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) c [])

let get (c : counts) name = Option.value ~default:0 (List.assoc_opt name c)

(* {2 Counts the benchmark makes} *)

let workload_calls = ref 0
let oses : Ucos.t list ref = ref []

let reset_guest_tallies () =
  workload_calls := 0;
  oses := []

let register_os os = oses := os :: !oses

(* A call into the [workloads] kernels from guest code: pure host
   computation, never suspends the fiber, so it may carry a span. *)
let kernel_call f =
  incr workload_calls;
  Span.with_ "workloads" f

let add_guest_tallies c =
  add c "workloads.calls" !workload_calls;
  List.iter (fun os -> add c "ucos.ticks" (Ucos.ticks os)) !oses

(* {2 Counts the layers keep} *)

let board c (z : Zynq.t) =
  let now = Clock.now z.Zynq.clock in
  add c "engine.sim_cycles" now;
  let h = Hierarchy.counts z.Zynq.hier in
  add c "cachesim.l1i_accesses" (h.Hierarchy.l1i_hits + h.Hierarchy.l1i_misses);
  add c "cachesim.l1d_accesses" (h.Hierarchy.l1d_hits + h.Hierarchy.l1d_misses);
  add c "cachesim.l1d_misses" h.Hierarchy.l1d_misses;
  add c "cachesim.l1_misses" (h.Hierarchy.l1i_misses + h.Hierarchy.l1d_misses);
  add c "cachesim.l2_misses" h.Hierarchy.l2_misses;
  add c "mmu.tlb_lookups" (Tlb.hits z.Zynq.tlb + Tlb.misses z.Zynq.tlb);
  add c "mmu.tlb_misses" (Tlb.misses z.Zynq.tlb);
  let _, mtlb_misses, warm, compiled = Fastpath.stats z.Zynq.fast in
  add c "platform.warm_replays" warm;
  add c "platform.partial_replays" (Fastpath.partial_replays z.Zynq.fast);
  add c "platform.mtlb_misses" mtlb_misses;
  add c "platform.progs_compiled" compiled;
  add c "pl.pcap_transfers" (Pcap.transfers z.Zynq.pcap);
  add c "pl.jobs_completed" (Prr_controller.jobs_completed z.Zynq.prrc);
  add c "pl.jobs_faulted" (Prr_controller.jobs_faulted z.Zynq.prrc);
  let prrs = Prr_controller.prr_count z.Zynq.prrc in
  for i = 0 to prrs - 1 do
    add c "pl.prr_busy_cycles" (Prr_controller.prr z.Zynq.prrc i).Prr.busy_cycles
  done;
  add c "pl.prr_cycles" (prrs * now);
  add c "mem.touched_frames" (Phys_mem.touched_frames z.Zynq.mem)

let hwtm c m =
  add c "core.hwtm_requests" (Hw_task_manager.requests m);
  add c "core.hwtm_reclaims" (Hw_task_manager.reclaims m);
  add c "pl.reconfigs" (Hw_task_manager.reconfigs m)

let kernel c k =
  add c "core.hypercalls" (Kernel.hypercalls k);
  add c "core.vm_switches"
    (Stats.count (Probe.stats (Kernel.probe k) Probe.vm_switch));
  add c "core.alloc_steps" (Kernel.alloc_steps k);
  let r = Kernel.ring_stats k in
  add c "core.ring_doorbells" r.Kernel.rs_doorbells;
  add c "core.empty_doorbells" r.Kernel.rs_empty_doorbells;
  hwtm c (Kernel.hwtm k)

let smp c s =
  for cpu = 0 to Smp.pcpus s - 1 do
    board c (Smp.zynq s cpu);
    kernel c (Smp.kernel s cpu)
  done;
  let st = Smp.stats s in
  add c "smp.ipis_posted" st.Smp.s_ipis_posted;
  add c "cachesim.coherence_lines" st.Smp.s_coherence_lines

(* {2 Host cost of the layers' own work}

   cachesim, mmu and platform are only reachable through calls that
   suspend guest fibers, so their host time is modelled. The model is
   fitted on the path guest compute actually takes: [Exec.run_pinned]
   on compiled footprints, timed in the same process. Each visit costs
   [visit_ns] (platform: context match and replay dispatch), each page
   run [lookup_ns] (mmu: the run's TLB refresh or lookup, counted by
   the TLB as one lookup), each L1 hit line [hit_ns] and each L1 miss
   line [miss_ns] (cachesim: replayed or walked lines). *)

type model = {
  visit_ns : float;
  lookup_ns : float;
  hit_ns : float;
  miss_ns : float;
}

(* Per visit of a probe: host ns and the counts it moved. *)
type probe = { ns : float; lookups : float; hits : float; misses : float }

let line = Addr.line_size
let page = Addr.page_size

(* Kernel data: identity-mapped, privileged, so the probes need no
   guest address space. *)
let probe_base = Address_map.kernel_data_base + 0x0010_0000

(* A footprint of one code line and [runs] read runs of [lines] lines
   each, run [k] on page [first_page + k] at a distinct set offset. *)
let footprint ~first_page ~runs ~lines =
  Exec.pin1
    (Exec.make ~label:"perfbench.probe"
       ~code_base:Address_map.kernel_code_base ~code_bytes:line
       ~reads:
         (List.init runs (fun k ->
              { Exec.base =
                  probe_base + ((first_page + k) * page)
                  + (if lines = 1 then k * 4 * line else 0);
                len = lines * line }))
       ())

(* Median ns per visit over seven batches, cycling through [fps]
   (after one untimed batch that compiles and warms them), with the
   counts one visit moves. *)
let measure z fps ~visits =
  let n = Array.length fps in
  let batch () =
    let t0 = Span.now_ns () in
    for i = 1 to visits do
      Exec.run_pinned z ~priv:true (Array.unsafe_get fps (i mod n))
    done;
    Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. float_of_int visits
  in
  ignore (batch ());
  let h0 = Hierarchy.counts z.Zynq.hier in
  let l0 = Tlb.hits z.Zynq.tlb + Tlb.misses z.Zynq.tlb in
  let ns = Metrics.median (List.init 7 (fun _ -> batch ())) in
  let h1 = Hierarchy.counts z.Zynq.hier in
  let l1 = Tlb.hits z.Zynq.tlb + Tlb.misses z.Zynq.tlb in
  let per d = float_of_int d /. float_of_int (7 * visits) in
  let open Hierarchy in
  { ns;
    lookups = per (l1 - l0);
    hits = per (h1.l1i_hits + h1.l1d_hits - h0.l1i_hits - h0.l1d_hits);
    misses = per (h1.l1i_misses + h1.l1d_misses - h0.l1i_misses - h0.l1d_misses) }

(* Three warm probes (every line an L1 hit) fix the visit, lookup and
   hit costs; a fourth, cycling sixteen one-page footprints through
   twice the L1 capacity so that every read line misses, fixes the
   miss cost. *)
let fit () =
  let z = Zynq.create () in
  ignore (Kmem.create z);
  let warm ~runs ~lines =
    measure z [| footprint ~first_page:0 ~runs ~lines |] ~visits:100_000
  in
  let p1 = warm ~runs:1 ~lines:1 in
  let p2 = warm ~runs:1 ~lines:(page / line) in
  let p3 = warm ~runs:32 ~lines:1 in
  let cold =
    measure z
      (Array.init 16 (fun k -> footprint ~first_page:(64 + k) ~runs:1 ~lines:(page / line)))
      ~visits:20_000
  in
  (* Solve ns = visit + lookups * lookup + hits * hit over p1..p3
     by Cramer's rule. *)
  let det (a, b, c) (d, e, f) (g, h, i) =
    (a *. ((e *. i) -. (f *. h))) -. (b *. ((d *. i) -. (f *. g)))
    +. (c *. ((d *. h) -. (e *. g)))
  in
  let col f = (f p1, f p2, f p3) in
  let ones = col (fun _ -> 1.0) and ns = col (fun p -> p.ns)
  and lookups = col (fun p -> p.lookups) and hits = col (fun p -> p.hits) in
  (* Columns are passed as rows: the determinant of the transpose is
     the same. *)
  let d = det ones lookups hits in
  let visit_ns = det ns lookups hits /. d in
  let lookup_ns = det ones ns hits /. d in
  let hit_ns = det ones lookups ns /. d in
  let miss_ns =
    (cold.ns -. visit_ns -. (cold.lookups *. lookup_ns) -. (cold.hits *. hit_ns))
    /. cold.misses
  in
  { visit_ns; lookup_ns; hit_ns; miss_ns }
