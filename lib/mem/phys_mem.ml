(* [frames] is the backing store. [memo_page]/[memo_frame] are a
   direct-mapped memo in front of it, indexed by the low bits of the
   page number: every word access would otherwise pay a polymorphic
   hash and compare. Frames are never freed or replaced, so an entry
   whose page number matches is always the current frame; a collision
   just refills the entry from the table. *)
type t = {
  frames : (int, Bytes.t) Hashtbl.t;
  memo_page : int array;       (* page number, -1 when empty *)
  memo_frame : Bytes.t array;
}

let memo_size = 64
let memo_mask = memo_size - 1

let create () =
  { frames = Hashtbl.create 1024;
    memo_page = Array.make memo_size (-1);
    memo_frame = Array.make memo_size Bytes.empty }

let frame_slow m page slot =
  let b =
    match Hashtbl.find_opt m.frames page with
    | Some b -> b
    | None ->
      let b = Bytes.make Addr.page_size '\000' in
      Hashtbl.replace m.frames page b;
      b
  in
  Array.unsafe_set m.memo_page slot page;
  Array.unsafe_set m.memo_frame slot b;
  b

let frame m a =
  let page = a lsr Addr.page_shift in
  let slot = page land memo_mask in
  if Array.unsafe_get m.memo_page slot = page then
    Array.unsafe_get m.memo_frame slot
  else frame_slow m page slot

let read_u8 m a = Char.code (Bytes.get (frame m a) (Addr.page_offset a))

let write_u8 m a v =
  Bytes.set (frame m a) (Addr.page_offset a) (Char.chr (v land 0xff))

(* Fast path when the access does not straddle a frame boundary. *)
let read_u32 m a =
  let off = a land (Addr.page_size - 1) in
  if off <= Addr.page_size - 4 then Bytes.get_int32_le (frame m a) off
  else
    let b0 = read_u8 m a
    and b1 = read_u8 m (a + 1)
    and b2 = read_u8 m (a + 2)
    and b3 = read_u8 m (a + 3) in
    Int32.logor
      (Int32.of_int (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
      (Int32.shift_left (Int32.of_int b3) 24)

let write_u32 m a v =
  let off = a land (Addr.page_size - 1) in
  if off <= Addr.page_size - 4 then Bytes.set_int32_le (frame m a) off v
  else begin
    let x = Int32.to_int (Int32.logand v 0xFFFFFFl) in
    write_u8 m a x;
    write_u8 m (a + 1) (x lsr 8);
    write_u8 m (a + 2) (x lsr 16);
    write_u8 m (a + 3) (Int32.to_int (Int32.shift_right_logical v 24))
  end

let read_u16 m a =
  let b0 = read_u8 m a and b1 = read_u8 m (a + 1) in
  b0 lor (b1 lsl 8)

let write_u16 m a v =
  write_u8 m a v;
  write_u8 m (a + 1) (v lsr 8)

let read_f32 m a = Int32.float_of_bits (read_u32 m a)
let write_f32 m a v = write_u32 m a (Int32.bits_of_float v)

let read_bytes m a len =
  let out = Bytes.create len in
  let rec loop pos =
    if pos < len then begin
      let addr = a + pos in
      let off = Addr.page_offset addr in
      let n = min (len - pos) (Addr.page_size - off) in
      Bytes.blit (frame m addr) off out pos n;
      loop (pos + n)
    end
  in
  loop 0;
  out

let write_bytes m a src =
  let len = Bytes.length src in
  let rec loop pos =
    if pos < len then begin
      let addr = a + pos in
      let off = Addr.page_offset addr in
      let n = min (len - pos) (Addr.page_size - off) in
      Bytes.blit src pos (frame m addr) off n;
      loop (pos + n)
    end
  in
  loop 0

let blit m ~src ~dst ~len = write_bytes m dst (read_bytes m src len)

let fill m a len v =
  let rec loop pos =
    if pos < len then begin
      let addr = a + pos in
      let off = Addr.page_offset addr in
      let n = min (len - pos) (Addr.page_size - off) in
      Bytes.fill (frame m addr) off n (Char.chr (v land 0xff));
      loop (pos + n)
    end
  in
  loop 0

let touched_frames m = Hashtbl.length m.frames
