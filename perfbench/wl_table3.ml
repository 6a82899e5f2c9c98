(* paper-table3: the paper's Fig 8 sweep — native, then 1–4 µC/OS
   guests each running GSM-LPC, IMA-ADPCM, cache churn and T_hw — run
   serially on one host domain with one simulated pCPU. Each cell is
   composed here exactly as [Scenario] builds it, so the correctness
   gate can require cycle-for-cycle agreement with
   [Scenario.run_table3]. Table III statistics start after the
   warm-up requests, with caches warm. The invariant plane is checked
   once at the end of every virtualized cell. *)

type inputs = Scenario.config

let inputs ~seed = { Scenario.default_config with Scenario.seed }

let kernel_config (cfg : inputs) =
  { Kernel.quantum = Cycles.of_ms cfg.Scenario.quantum_ms;
    vfp_policy = cfg.Scenario.vfp_policy;
    tlb_policy = cfg.Scenario.tlb_policy;
    kernel_tick = Some (Cycles.of_ms 1.0);
    ring_admission = `Fifo;
    partition = Hw_task_manager.Dynamic }

let register register_one =
  List.map (fun kind -> (register_one kind, kind)) Scenario.standard_task_set

(* The native baseline: µC/OS alone, the manager called as a plain
   function, execution timed around each granted request. *)
let native (cfg : inputs) =
  let sys = Span.with_ "platform.create" (fun () -> Port_native.create ()) in
  let tasks =
    Span.with_ "core.boot" (fun () -> register (Port_native.register_hw_task sys))
  in
  let z = Port_native.zynq sys in
  let exec_stats = ref (Stats.create ()) in
  let requests = ref 0 in
  let on_request () =
    incr requests;
    if !requests = cfg.Scenario.warmup_requests then exec_stats := Stats.create ()
  in
  let base = Port_native.port sys in
  let port =
    { base with
      Port.hw_request =
        (fun ~task ~iface_vaddr ~data_vaddr ~data_len ~want_irq ->
           let t0 = Clock.now z.Zynq.clock in
           let r =
             base.Port.hw_request ~task ~iface_vaddr ~data_vaddr ~data_len
               ~want_irq
           in
           (match r with
            | Hyper.R_hw _ ->
              Stats.add !exec_stats (float_of_int (Clock.now z.Zynq.clock - t0))
            | _ -> ());
           r) }
  in
  let t = Guests.tally () in
  let rng = Rng.create ~seed:cfg.Scenario.seed in
  let run () =
    Span.with_ "core.run" (fun () ->
        Port_native.run sys (fun _ ->
            let os = Ucos.create port in
            Layers.register_os os;
            Guests.install_table3 os ~rng ~cfg ~tasks ~on_request t;
            Ucos.run os))
  in
  let collect acc =
    Layers.board acc z;
    Layers.hwtm acc (Port_native.hwtm sys);
    let exec = Round.mean_us !exec_stats in
    (Clock.now z.Zynq.clock, [ 0.0; 0.0; 0.0; exec; exec ], t, [])
  in
  (run, collect)

(* One virtualized cell with [guests] parallel µC/OS VMs. *)
let virtualized (cfg : inputs) ~guests =
  let z = Span.with_ "platform.create" (fun () -> Zynq.create ()) in
  let kern =
    Span.with_ "core.boot" (fun () -> Kernel.boot ~config:(kernel_config cfg) z)
  in
  let tasks =
    Span.with_ "core.boot" (fun () -> register (Kernel.register_hw_task kern))
  in
  let probe = Kernel.probe kern in
  let total_requests = ref 0 in
  let warm_at = guests * cfg.Scenario.warmup_requests in
  let on_request () =
    incr total_requests;
    if !total_requests = warm_at then begin
      Probe.reset probe;
      Obs.reset z.Zynq.obs
    end
  in
  let t = Guests.tally () in
  for g = 0 to guests - 1 do
    let rng = Rng.create ~seed:(cfg.Scenario.seed + (97 * g)) in
    ignore
      (Span.with_ "core.create_vm" (fun () ->
           Kernel.create_vm kern ~name:(Printf.sprintf "ucos%d" g) (fun genv ->
               let os = Ucos.create (Port.paravirt genv) in
               Layers.register_os os;
               Guests.install_table3 os ~rng ~cfg ~tasks ~on_request t;
               Ucos.run os)))
  done;
  (* One [Kernel.run] to the cap, as [Scenario] does: stopping the
     kernel at a slice boundary that falls on a guest's pause leaves
     the scheduler in a different state than running through it, so a
     sliced cell can drift from the reference by a few million
     cycles. *)
  let cap = Cycles.of_ms (120_000.0 *. float_of_int guests) in
  let violations = ref [] in
  let run () =
    Span.with_ "core.run" (fun () -> Kernel.run kern ~until:cap);
    violations := Span.with_ "check" (fun () -> Invariant.check kern ~boundary:"cell_end")
  in
  let collect acc =
    Layers.board acc z;
    Layers.kernel acc kern;
    Layers.add acc "check.sweeps" 1;
    (Clock.now z.Zynq.clock, Round.hwtm_means (Probe.stats probe), t, !violations)
  in
  (run, collect)

let max_guests = 4

let setup (cfg : inputs) : Round.t =
  let cells =
    native cfg :: List.init max_guests (fun g -> virtualized cfg ~guests:(g + 1))
  in
  let collect () =
    let acc = Layers.create () in
    let outs = List.map (fun (_, collect) -> collect acc) cells in
    Layers.add_guest_tallies acc;
    Layers.add acc "core.vm_creates" (max_guests * (max_guests + 1) / 2);
    let columns = List.map (fun (_, col, _, _) -> col) outs in
    let cells = List.map (fun (c, col, _, _) -> (c, col)) outs in
    let tally = Guests.merge (List.map (fun (_, _, t, _) -> t) outs) in
    let violations = List.concat_map (fun (_, _, _, v) -> v) outs in
    { Round.sim_cycles = List.fold_left (fun a (c, _, _, _) -> a + c) 0 outs;
      counts = Layers.freeze acc;
      tally;
      hwtm_total_us = [ Round.total_of (List.nth columns max_guests) ];
      table3 = cells;
      victim = None;
      problems =
        List.map
          (fun v -> "invariant violated: " ^ Invariant.violation_to_string v)
          violations
        @
        if tally.Guests.mismatched > 0 then
          [ Printf.sprintf "%d hardware jobs disagree with the software reference"
              tally.Guests.mismatched ]
        else [] }
  in
  { Round.parts = List.map fst cells; collect }

let cell_of (o : Scenario.overheads) =
  ( o.Scenario.sim_cycles,
    [ o.Scenario.entry_us; o.Scenario.exit_us; o.Scenario.plirq_us;
      o.Scenario.exec_us; o.Scenario.total_us ] )

(* [Scenario]'s own sweeps at [seeds], cells run on two host domains
   (the result does not depend on the domain count). *)
let reference_sweeps seeds =
  Parallel_sweep.run ~domains:2
    (List.concat_map
       (fun seed ->
          let config = inputs ~seed in
          (fun () -> Scenario.run_native ~config ())
          :: List.init max_guests (fun g () ->
              Scenario.run_virtualized ~config ~guests:(g + 1) ()))
       seeds)
  |> List.map cell_of
