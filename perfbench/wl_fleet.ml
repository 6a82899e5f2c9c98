(* fleet-smp: an ABI v2 descriptor-ring fleet on two simulated pCPUs
   driven by one host domain, no faults, caches starting cold, the SMP invariant plane checked at every run slice. VM 0 is a
   µC/OS victim pinned to pCPU 0 running verified want_irq DMA jobs;
   the other VMs submit seeded job streams in doorbell batches of 8.
   Host time goes to the ring and doorbell path, the Fig 7 allocation
   routine, PL reconfiguration and DMA, and the [Smp] epoch barriers;
   guest compute is negligible. *)

let vms = 128
let pcpus = 2
(* One host domain. With two, each epoch waits for the slower vCPU of
   the shared host: within one 50-s run the speed swung 4x
   (0.52-2.3 G simulated cycles/s), so the result measured the
   neighbours. Simulated results do not depend on this number. *)
let workers = 1
let fleet_jobs = 1024
let victim_jobs = 1024
let batch = 8
let quantum_ms = 2.0

let task_kinds = [| Task_kind.Qam 4; Task_kind.Qam 16; Task_kind.Fft 256 |]

type inputs = {
  victim_seed : int;
  choices : int array array;  (* per fleet VM: task index of each job *)
}

(* Every fleet VM submits each task kind equally often, in a seeded
   order: the seed moves which jobs collide, not the overall mix. *)
let inputs ~seed =
  let rng = Rng.create ~seed in
  let victim_seed = Rng.int rng 1_000_000_000 in
  let kinds = Array.length task_kinds in
  let choices =
    Array.init (vms - 1) (fun _ ->
        let a = Array.init fleet_jobs (fun j -> j mod kinds) in
        for i = fleet_jobs - 1 downto 1 do
          let k = Rng.int rng (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(k);
          a.(k) <- x
        done;
        a)
  in
  { victim_seed; choices }

let epochs = ref 0

let setup (inp : inputs) : Round.t =
  let smp =
    Span.with_ "core.boot" (fun () ->
        Smp.create
          ~config:{ Kernel.default_config with quantum = Cycles.of_ms quantum_ms }
          ~workers ~pcpus
          ~mk_zynq:(fun cpu ->
              Span.with_ "platform.create" (fun () ->
                  Zynq.create ~observe:(cpu = 0) ~cpu ()))
          ())
  in
  let ids =
    Span.with_ "core.boot" (fun () -> Array.map (Smp.register_hw_task smp) task_kinds)
  in
  epochs := 0;
  Smp.set_barrier_hook smp (Some (fun () -> incr epochs));
  let vt = Guests.tally () in
  let victim_pd =
    let tasks = Array.map2 (fun id kind -> (id, kind)) ids task_kinds in
    Span.with_ "core.create_vm" (fun () ->
        Smp.create_vm smp ~name:"victim" ~cpu:0
          (Guests.victim ~jobs:victim_jobs
             ~rng:(Rng.create ~seed:inp.victim_seed) ~tasks vt))
  in
  let fleet =
    Array.mapi
      (fun i choice ->
         let t = Guests.tally () in
         let choice = Array.map (fun k -> ids.(k)) choice in
         ignore
           (Span.with_ "core.create_vm" (fun () ->
                Smp.create_vm smp ~name:(Printf.sprintf "ring%d" (i + 1))
                  (Guests.ring_fleet ~jobs:fleet_jobs ~batch ~choice t)));
         t)
      inp.choices
  in
  (* The SMP invariant plane is swept at every slice boundary: host-side
     reads only, so simulated results do not depend on it. *)
  let sweeps = ref 0 and violations = ref [] in
  let run () =
    Round.run_sliced
      ~now:(fun () -> Smp.now smp)
      ~live:(fun () -> Smp.alive_guests smp > 0)
      ~cap:(Cycles.of_ms 60_000.0)
      (fun ~until ->
         Span.with_ "core.run" (fun () -> Smp.run smp ~until);
         incr sweeps;
         violations :=
           Span.with_ "check" (fun () -> Invariant.check_smp smp ~boundary:"slice")
           @ !violations)
  in
  let collect () =
    let acc = Layers.create () in
    Layers.smp acc smp;
    Layers.add acc "smp.epochs" !epochs;
    Layers.add acc "core.vm_creates" vms;
    Layers.add_guest_tallies acc;
    let kernels = List.init pcpus (Smp.kernel smp) in
    let tally = Guests.merge (vt :: Array.to_list fleet) in
    let victim = Round.victim_of (Smp.zynq smp 0) ~pd:victim_pd.Pd.id in
    Layers.add acc "check.sweeps" !sweeps;
    let problems =
      List.rev_map
        (fun v -> "invariant violated: " ^ Invariant.violation_to_string v)
        !violations
      @ (if tally.Guests.mismatched > 0 then
         [ Printf.sprintf "%d victim jobs disagree with the software reference"
             tally.Guests.mismatched ]
       else [])
      @ if Smp.alive_guests smp > 0 then [ "fleet did not finish" ] else []
    in
    { Round.sim_cycles = Layers.get (Layers.freeze acc) "engine.sim_cycles";
      counts = Layers.freeze acc;
      tally;
      hwtm_total_us = [ Round.total_of (Round.hwtm_means (Round.merged_probe kernels)) ];
      table3 = [];
      victim = Some victim;
      problems }
  in
  { Round.parts = [ run ]; collect }

(* The same victim alone on an idle one-pCPU board: the uncontended
   vIRQ turnaround, reported for workloads that have no victim of
   their own. *)
let lone_victim (inp : inputs) =
  let z = Zynq.create ~observe:true () in
  let kern =
    Kernel.boot
      ~config:{ Kernel.default_config with quantum = Cycles.of_ms quantum_ms } z
  in
  let tasks =
    Array.map (fun kind -> (Kernel.register_hw_task kern kind, kind)) task_kinds
  in
  let t = Guests.tally () in
  let pd =
    Kernel.create_vm kern ~name:"victim"
      (Guests.victim ~jobs:victim_jobs ~rng:(Rng.create ~seed:inp.victim_seed)
         ~tasks t)
  in
  Kernel.run kern ~until:(Cycles.of_ms 60_000.0);
  (Round.victim_of z ~pd:pd.Pd.id, t)
