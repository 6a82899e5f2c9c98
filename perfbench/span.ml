(* Host-side spans recorded from the benchmark's own files around the
   calls it makes into each layer. Only calls that return without
   suspending a guest fiber are wrapped: a span around a yielding call
   would charge other VMs' work to itself. Every timed run uses one
   host domain, so the recorder keeps plain state. *)

type t = {
  id : int;
  parent : int;       (* 0 = root *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  minor_words : float;  (* allocated inside the span *)
}

let on = ref false
let next_id = ref 1
let current = ref 0   (* innermost open span *)
let recorded = ref []

let now_ns () = Monotonic_clock.now ()

let reset () = recorded := []

let with_ name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      let w1 = Gc.minor_words () in
      current := parent;
      recorded :=
        { id; parent; name; start_ns = t0; stop_ns = t1;
          minor_words = w1 -. w0 }
        :: !recorded
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let spans () = List.rev !recorded

let seconds s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

(* Self time: a span's duration minus the time its direct children
   cover. *)
let self_seconds spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
       if s.parent <> 0 then
         Hashtbl.replace child s.parent
           (seconds s
            +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
       (s, seconds s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

let to_json spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
       if i > 0 then Buffer.add_string b ",\n ";
       Buffer.add_string b
         (Printf.sprintf
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %Ld, \
             \"end_ns\": %Ld, \"minor_words\": %.0f}"
            s.id s.parent s.name s.start_ns s.stop_ns s.minor_words))
    spans;
  Buffer.add_string b "]\n";
  Buffer.contents b
