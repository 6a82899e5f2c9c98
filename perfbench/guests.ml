(* Guest programs of the two workloads, composed from the public
   [ucos], [workloads] and hypercall APIs. Every call into a
   [workloads] kernel goes through [Layers.kernel_call], which counts it
   and, in the traced run, wraps it in a span. *)

(* Outcome tallies of one workload instance, written by guest code and
   read once the instance has run. *)
type tally = {
  mutable attempted : int;  (* operations issued *)
  mutable refused : int;    (* busy, faulted or otherwise refused *)
  mutable mismatched : int; (* hardware result differs from the software
                               reference: a correctness failure *)
}

let tally () = { attempted = 0; refused = 0; mismatched = 0 }

let merge ts =
  List.fold_left
    (fun a t ->
       { attempted = a.attempted + t.attempted;
         refused = a.refused + t.refused;
         mismatched = a.mismatched + t.mismatched })
    (tally ()) ts

type job = Verified | Refused | Mismatch | Not_streamed

(* One real DMA job through an acquired handle, checked against the
   software reference. Same inputs, same RNG draws and same simulated
   work as [Scenario.verified_job]; the result separates a refused job
   (the helper returned [Error _]) from a wrong result. *)
let check_job os rng h kind =
  match kind with
  | Task_kind.Qam order ->
    let bps = Qam.bits_per_symbol (Qam.order_of_int order) in
    let bits = Array.init (bps * 32) (fun _ -> Rng.int rng 2) in
    (match Hw_task_api.run_qam_mod os h ~order ~bits with
     | Ok (i, q) ->
       if Layers.kernel_call (fun () -> Qam.demodulate (Qam.order_of_int order) ~i ~q)
          = bits
       then Verified
       else Mismatch
     | Error _ -> Refused)
  | (Task_kind.Fft points | Task_kind.Fft_stream points) when points <= 1024 ->
    let re = Array.init points (fun i -> sin (0.1 *. float_of_int i)) in
    let im = Array.make points 0.0 in
    (match Hw_task_api.run_fft os h ~inverse:false ~re ~im with
     | Ok (hr, hi) ->
       let err =
         Layers.kernel_call (fun () ->
             let sr = Array.copy re and si = Array.copy im in
             Fft.transform sr si;
             Float.max (Fft.max_error hr sr) (Fft.max_error hi si))
       in
       if err <= 0.05 *. float_of_int points then Verified else Mismatch
     | Error _ -> Refused)
  | _ -> Not_streamed

let count_job t = function
  | Verified -> ()
  | Refused -> t.refused <- t.refused + 1
  | Mismatch -> t.mismatched <- t.mismatched + 1
  | Not_streamed -> ()

(* {2 Table III guests}

   The paper's µC/OS image (Fig 8): GSM-LPC, IMA-ADPCM and cache-churn
   tasks plus T_hw. Footprints, priorities, delays and RNG use are
   those of [Scenario], so a composed cell reproduces
   [Scenario.run_virtualized] cycle for cycle. *)

let app = Ucos_layout.app_code_base
let gsm_buf = Guest_layout.user_base + 0x0010_0000
let adpcm_buf = Guest_layout.user_base + 0x0012_0000
let churn_buf = Guest_layout.user_base + 0x0020_0000

let fp ~label ~code_off ~code_len ~reads ~writes ~base_cycles =
  Exec.pin1
    { Exec.label;
      code = { Exec.base = app + code_off; len = code_len };
      reads; writes; base_cycles }

let gsm_task os rng () =
  let pins =
    Array.init 4 (fun i ->
        fp ~label:"gsm" ~code_off:0x0000 ~code_len:1792
          ~reads:[ { Exec.base = gsm_buf + (i * 4096); len = 4096 } ]
          ~writes:[ { Exec.base = gsm_buf + 16384; len = 256 } ]
          ~base_cycles:14000)
  in
  let phase = ref 0 in
  while true do
    let lars =
      Layers.kernel_call (fun () ->
          Gsm_lpc.analyze (Signal.speech_like rng Gsm_lpc.frame_size))
    in
    if Array.length lars <> 8 then failwith "gsm: bad LPC output";
    let i = !phase mod 4 in
    phase := !phase + 1;
    Ucos.compute_pinned os pins.(i);
    if !phase mod 4 = 0 then Ucos.delay os 1
  done

let adpcm_task os rng () =
  let pins =
    Array.init 4 (fun i ->
        let off = i * 4096 in
        fp ~label:"adpcm" ~code_off:0x1000 ~code_len:1280
          ~reads:[ { Exec.base = adpcm_buf + off; len = 4096 } ]
          ~writes:[ { Exec.base = adpcm_buf + 16384 + off; len = 2048 } ]
          ~base_cycles:11000)
  in
  let phase = ref 0 in
  while true do
    let err =
      Layers.kernel_call (fun () ->
          Adpcm.roundtrip_error (Signal.speech_like rng 1024))
    in
    if err > 20000 then failwith "adpcm: diverged";
    let i = !phase mod 4 in
    phase := !phase + 1;
    Ucos.compute_pinned os pins.(i);
    if !phase mod 5 = 0 then Ucos.delay os 1
  done

let churn_task os ~churn_kb () =
  let set_bytes = churn_kb * 1024 in
  let chunk = 8192 in
  let pins = Hashtbl.create 16 in
  let pin_for off =
    match Hashtbl.find_opt pins off with
    | Some p -> p
    | None ->
      let p =
        fp ~label:"churn" ~code_off:0x2000 ~code_len:512
          ~reads:[ { Exec.base = churn_buf + off; len = chunk } ]
          ~writes:
            [ { Exec.base = churn_buf + ((off + (set_bytes / 2)) mod set_bytes);
                len = chunk / 4 } ]
          ~base_cycles:26000
      in
      Hashtbl.replace pins off p;
      p
  in
  let pos = ref 0 in
  while true do
    let off = !pos in
    pos := (!pos + chunk) mod set_bytes;
    Ucos.compute_pinned os (pin_for off)
  done

let wait_ready os task =
  let port = Ucos.port os in
  let rec loop n =
    n > 0
    && (match port.Port.hw_status ~task with
        | Hyper.R_status { prr_ready = true; _ } -> true
        | _ ->
          Ucos.delay os 1;
          loop (n - 1))
  in
  loop 1000

exception Done_requests

(* T_hw: pick a random hardware task, request it, run a verified job
   on every [job_fraction]-th grant. Every request hypercall counts as
   an attempt, and each busy answer retried inside [acquire] as one
   refused. *)
let t_hw_task os rng ~(cfg : Scenario.config) ~tasks ~on_request t () =
  let task_arr = Array.of_list tasks in
  let requests = ref 0 in
  (try
     while true do
       Ucos.delay os (2 + Rng.int rng 5);
       let task_id, kind = Rng.pick rng task_arr in
       t.attempted <- t.attempted + 1;
       match
         Hw_task_api.acquire os ~task:task_id ~want_irq:true ~wait_ready:false ()
       with
       | Error _ -> t.refused <- t.refused + 1
       | Ok h ->
         t.attempted <- t.attempted + h.Hw_task_api.retries;
         t.refused <- t.refused + h.Hw_task_api.retries;
         incr requests;
         on_request ();
         if !requests mod cfg.Scenario.job_fraction = 0 && wait_ready os task_id
         then begin
           t.attempted <- t.attempted + 1;
           count_job t (check_job os rng h kind)
         end;
         if Rng.bool rng then Hw_task_api.release os h;
         if !requests >= cfg.Scenario.requests_per_guest then raise Done_requests
     done
   with Done_requests -> ());
  Ucos.stop os

let install_table3 os ~rng ~cfg ~tasks ~on_request t =
  ignore
    (Ucos.spawn os ~name:"t_hw" ~prio:8
       (t_hw_task os (Rng.split rng) ~cfg ~tasks ~on_request t));
  ignore (Ucos.spawn os ~name:"gsm" ~prio:10 (gsm_task os (Rng.split rng)));
  ignore (Ucos.spawn os ~name:"adpcm" ~prio:12 (adpcm_task os (Rng.split rng)));
  ignore
    (Ucos.spawn os ~name:"churn" ~prio:14
       (churn_task os ~churn_kb:cfg.Scenario.churn_kb))

(* {2 Victim}

   A µC/OS guest running real want_irq DMA jobs, each verified; its
   kernel-side vIRQ-turnaround cell measures interference from the
   rest of the workload. *)
let victim ~jobs ~rng ~tasks t genv =
  let os = Ucos.create (Port.paravirt genv) in
  Layers.register_os os;
  ignore
    (Ucos.spawn os ~name:"victim" ~prio:4 (fun () ->
         let n = ref 0 in
         while !n < jobs do
           incr n;
           Ucos.delay os (1 + Rng.int rng 2);
           let task, kind = Rng.pick rng tasks in
           t.attempted <- t.attempted + 1;
           match
             Hw_task_api.acquire os ~task ~want_irq:true ~backoff:true
               ~max_tries:25 ()
           with
           | Error _ -> t.refused <- t.refused + 1
           | Ok h ->
             count_job t (check_job os rng h kind);
             Hw_task_api.release os h
         done;
         Ucos.stop os));
  Ucos.run os

(* {2 ABI v2 ring fleet guest}

   Submits [jobs] acquire/release pairs in doorbell batches of [batch]:
   each round publishes the batch's pending requests together with the
   previous round's releases under one doorbell; busy descriptors are
   retried up to three more rounds. Every job is one attempted
   operation, counted as refused once if any of its completions came
   back busy or failed. *)
let release_tag_bias = 0x1000
let busy_retries = 3

let ring_fleet ~jobs ~batch ~choice t genv =
  let p = Port.paravirt genv in
  match Ring_api.setup p ~entries:32 ~cvirq_budget:8 () with
  | Error _ -> t.refused <- t.refused + 1
  | Ok r ->
    let to_release = ref [] in
    let flush_releases () =
      List.iter
        (fun (tag, task) ->
           ignore
             (Ring_api.enqueue p r ~op:`Release ~task
                ~tag:(tag + release_tag_bias) ()))
        !to_release;
      to_release := []
    in
    let submitted = ref 0 in
    while !submitted < jobs do
      let n = min batch (jobs - !submitted) in
      let chosen = Array.init n (fun i -> choice.(!submitted + i)) in
      let pending = ref (List.init n (fun i -> i + 1)) in
      let refused = Array.make (n + 1) false in
      t.attempted <- t.attempted + n;
      let round = ref 0 in
      while !pending <> [] && !round <= busy_retries do
        flush_releases ();
        List.iter
          (fun tag ->
             ignore
               (Ring_api.enqueue p r ~op:`Request ~task:chosen.(tag - 1) ~tag ()))
          !pending;
        ignore (Ring_api.doorbell p r);
        let retry = ref [] in
        List.iter
          (fun (c : Ring_api.cqe) ->
             let tag = c.Ring_api.tag in
             if tag >= 1 && tag <= n then begin
               if c.Ring_api.status = Ring_api.status_success
                  || c.Ring_api.status = Ring_api.status_reconfig
               then to_release := (tag, chosen.(tag - 1)) :: !to_release
               else begin
                 if not refused.(tag) then begin
                   refused.(tag) <- true;
                   t.refused <- t.refused + 1
                 end;
                 if c.Ring_api.status = Ring_api.status_busy then
                   retry := tag :: !retry
               end
             end)
          (Ring_api.drain_completions p r);
        pending := List.rev !retry;
        incr round;
        ignore (Hyper.pause ())
      done;
      submitted := !submitted + n
    done;
    if !to_release <> [] then begin
      flush_releases ();
      ignore (Ring_api.doorbell p r);
      ignore (Ring_api.drain_completions p r)
    end
