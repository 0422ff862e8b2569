type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* The SplitMix64 finaliser: two xor-shift-multiply rounds.  The constants
   are Stafford's "Mix13" variant, the same ones used by Java's
   SplittableRandom. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = mix64 (int64 t) }

let bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  assert (bound > 0);
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling on 30 bits keeps the distribution exactly
       uniform for any bound, not just powers of two. *)
    let mask = bound - 1 in
    if bound land mask = 0 then bits30 t land mask
    else
      let rec loop () =
        let r = bits30 t in
        let v = r mod bound in
        if r - v + (bound - 1) < 0 then loop () else v
      in
      loop ()
  end
  else
    (* Large bounds: use 62 bits and accept the negligible modulo bias. *)
    let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    r mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits scaled into [0, 1), then into [0, bound). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.compare (int64 t) 0L < 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let gaussian t ~mean ~stddev =
  let rec polar () =
    let u = (2.0 *. float t 1.0) -. 1.0 in
    let v = (2.0 *. float t 1.0) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then polar ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  mean +. (stddev *. polar ())

let exponential t ~rate =
  assert (rate > 0.0);
  let u = float t 1.0 in
  -.log (1.0 -. u) /. rate
