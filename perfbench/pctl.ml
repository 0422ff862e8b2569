(* Percentile rule and sample buffers.

   Percentiles are nearest-rank: the p-th percentile of n sorted
   samples is the k-th smallest, k = ceil (p * n / 100), computed in
   integers (p in tenths of a percent) so that p99 of 100 samples is
   exactly the 99th and never drifts by a float rounding. *)

let rank ~per_mille n = max 1 (((per_mille * n) + 999) / 1000)

let percentile sorted ~per_mille =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pctl.percentile: no samples";
  sorted.(rank ~per_mille n - 1)

let median sorted = percentile sorted ~per_mille:500

(* The highest of these percentiles that still has at least ten samples
   above its rank — the tail a run of n samples can support. *)
let tail_candidates = [ 999; 990; 950; 900; 750; 500 ]

let supported_tail n =
  List.find_opt (fun pm -> n - rank ~per_mille:pm n >= 10) tail_candidates

let label per_mille =
  if per_mille mod 10 = 0 then Printf.sprintf "p%d" (per_mille / 10)
  else Printf.sprintf "p%d.%d" (per_mille / 10) (per_mille mod 10)

(* A growable float buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let last s = s.data.(s.len - 1)

let sorted_from s ~from =
  let a = Array.sub s.data from (s.len - from) in
  Array.sort Float.compare a;
  a

let sorted s = sorted_from s ~from:0

(* Per-position minima over repetitions of the same sequence of
   operations: the k-th value offered after [restart] is compared with
   the k-th value of every earlier repetition.  Noise from a shared host
   only ever adds time, so each operation's fastest repetition is the
   figure that repeats from run to run. *)
type best = { mutable mins : float array; mutable n : int; mutable pos : int }

let best () = { mins = Array.make 1024 0.0; n = 0; pos = 0 }
let restart b = b.pos <- 0

let offer b x =
  if b.pos < b.n then begin
    if x < b.mins.(b.pos) then b.mins.(b.pos) <- x
  end
  else begin
    if b.n = Array.length b.mins then begin
      let m = Array.make (2 * b.n) 0.0 in
      Array.blit b.mins 0 m 0 b.n;
      b.mins <- m
    end;
    b.mins.(b.n) <- x;
    b.n <- b.n + 1
  end;
  b.pos <- b.pos + 1

let best_count b = b.n

let best_sum b =
  let s = ref 0.0 in
  for i = 0 to b.n - 1 do
    s := !s +. b.mins.(i)
  done;
  !s
