let frame_size = 160
let order = 8

let check frame =
  if Array.length frame <> frame_size then
    invalid_arg "Gsm_lpc: frame must be 160 samples"

(* Preemphasis then windowed autocorrelation, lags 0..order, in one
   pass over the frame: sample [i] adds [pre.(i) * pre.(i - lag)] to
   each lag's accumulator, so every lag still sums its products in
   increasing [i] — the same additions in the same order as one loop
   per lag, hence bit-identical. The nine accumulators (one per lag,
   [order] = 8) are local float refs, which the compiler keeps unboxed
   in registers; the first [order] samples feed only the lags they
   reach. *)
let autocorrelation frame =
  check frame;
  let pre = Array.make frame_size 0.0 in
  for i = 0 to frame_size - 1 do
    let x = float_of_int (Array.unsafe_get frame i) in
    let prev =
      if i = 0 then 0.0 else float_of_int (Array.unsafe_get frame (i - 1))
    in
    Array.unsafe_set pre i (x -. (0.86 *. prev))
  done;
  let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0
  and a4 = ref 0.0 and a5 = ref 0.0 and a6 = ref 0.0 and a7 = ref 0.0
  and a8 = ref 0.0 in
  for i = 0 to order - 1 do
    let x = Array.unsafe_get pre i in
    a0 := !a0 +. (x *. x);
    if i >= 1 then a1 := !a1 +. (x *. Array.unsafe_get pre (i - 1));
    if i >= 2 then a2 := !a2 +. (x *. Array.unsafe_get pre (i - 2));
    if i >= 3 then a3 := !a3 +. (x *. Array.unsafe_get pre (i - 3));
    if i >= 4 then a4 := !a4 +. (x *. Array.unsafe_get pre (i - 4));
    if i >= 5 then a5 := !a5 +. (x *. Array.unsafe_get pre (i - 5));
    if i >= 6 then a6 := !a6 +. (x *. Array.unsafe_get pre (i - 6));
    if i >= 7 then a7 := !a7 +. (x *. Array.unsafe_get pre (i - 7))
  done;
  for i = order to frame_size - 1 do
    let x = Array.unsafe_get pre i in
    a0 := !a0 +. (x *. x);
    a1 := !a1 +. (x *. Array.unsafe_get pre (i - 1));
    a2 := !a2 +. (x *. Array.unsafe_get pre (i - 2));
    a3 := !a3 +. (x *. Array.unsafe_get pre (i - 3));
    a4 := !a4 +. (x *. Array.unsafe_get pre (i - 4));
    a5 := !a5 +. (x *. Array.unsafe_get pre (i - 5));
    a6 := !a6 +. (x *. Array.unsafe_get pre (i - 6));
    a7 := !a7 +. (x *. Array.unsafe_get pre (i - 7));
    a8 := !a8 +. (x *. Array.unsafe_get pre (i - 8))
  done;
  [| !a0; !a1; !a2; !a3; !a4; !a5; !a6; !a7; !a8 |]

(* Schur recursion: autocorrelation -> reflection coefficients. *)
let reflection_coefficients frame =
  let acf = autocorrelation frame in
  let r = Array.make order 0.0 in
  if acf.(0) <= 0.0 then r
  else begin
    let p = Array.sub acf 0 (order + 1) in
    let k = Array.make (order + 1) 0.0 in
    Array.blit acf 1 k 1 order;
    (try
       for n = 0 to order - 1 do
         if p.(0) < Float.abs k.(n + 1) then raise Exit;
         let refl = -.k.(n + 1) /. p.(0) in
         r.(n) <- refl;
         p.(0) <- p.(0) +. (refl *. k.(n + 1));
         for m = 1 to order - 1 - n do
           p.(m) <- p.(m + 1) +. (refl *. k.(m + n + 1));
           k.(m + n + 1) <- k.(m + n + 1) +. (refl *. p.(m + 1))
         done
       done
     with Exit -> ());
    r
  end

(* Quantise reflection coefficients to integer log-area ratios,
   GSM-style companding. *)
let analyze frame =
  let r = reflection_coefficients frame in
  Array.map
    (fun refl ->
       let a = Float.abs refl in
       let lar =
         if a < 0.675 then refl
         else if a < 0.950 then Float.copy_sign ((2.0 *. a) -. 0.675) refl
         else Float.copy_sign ((8.0 *. a) -. 6.375) refl
       in
       int_of_float (Float.round (lar *. 16.0)))
    r

let residual_energy frame =
  let acf = autocorrelation frame in
  let r = reflection_coefficients frame in
  let e = ref acf.(0) in
  Array.iter (fun refl -> e := !e *. (1.0 -. (refl *. refl))) r;
  !e
