(* Brute-force reference answers built from the day store, and the
   tally of checked operations.

   An answer is compared by its digest: the entry count plus a
   wrapping sum of a per-entry fingerprint.  The sum does not depend on
   order, so a probe that returns the right entries in another order
   (constituents are visited in slot order, epochs in snapshot order)
   still matches, while a missing, extra or altered entry does not. *)

open Wave_storage

type digest = { n : int; fp : int }

let empty = { n = 0; fp = 0 }
let add a b = { n = a.n + b.n; fp = a.fp + b.fp }

let fingerprint (e : Entry.t) =
  let x = (e.Entry.rid * 0x2545F4914F6CDD1D) + (e.Entry.day * 0x9E3779B1) + e.Entry.info in
  let x = x lxor (x lsr 29) in
  let x = x * 0x3F51AFD7ED558CCD in
  x lxor (x lsr 32)

let digest entries =
  List.fold_left (fun d e -> { n = d.n + 1; fp = d.fp + fingerprint e }) empty entries

type cell = { mutable c_n : int; mutable c_fp : int; mutable c_sum : int }

type t = {
  by_value : (int, cell) Hashtbl.t array;  (** per day: value -> postings *)
  totals : cell array;  (** per day: every posting *)
  last_day : int;
}

let build (days : Inputs.days) =
  let fresh () = { c_n = 0; c_fp = 0; c_sum = 0 } in
  let bump c (e : Entry.t) =
    c.c_n <- c.c_n + 1;
    c.c_fp <- c.c_fp + fingerprint e;
    c.c_sum <- c.c_sum + e.Entry.info
  in
  let n = days.Inputs.last_day + 1 in
  let by_value = Array.init n (fun _ -> Hashtbl.create 16) in
  let totals = Array.init n (fun _ -> fresh ()) in
  Array.iteri
    (fun d (b : Entry.batch) ->
      Array.iter
        (fun (p : Entry.posting) ->
          let c =
            match Hashtbl.find_opt by_value.(d) p.Entry.value with
            | Some c -> c
            | None ->
              let c = fresh () in
              Hashtbl.add by_value.(d) p.Entry.value c;
              c
          in
          bump c p.Entry.entry;
          bump totals.(d) p.Entry.entry)
        b.Entry.postings)
    days.Inputs.batches;
  { by_value; totals; last_day = days.Inputs.last_day }

let fold_days t ~t1 ~t2 f init =
  let acc = ref init in
  for d = max 1 t1 to min t.last_day t2 do
    acc := f !acc d
  done;
  !acc

let of_cell c = { n = c.c_n; fp = c.c_fp }

(* TimedIndexProbe (value, t1, t2). *)
let probe t ~value ~t1 ~t2 =
  fold_days t ~t1 ~t2
    (fun acc d ->
      match Hashtbl.find_opt t.by_value.(d) value with
      | Some c -> add acc (of_cell c)
      | None -> acc)
    empty

(* TimedSegmentScan (t1, t2). *)
let scan t ~t1 ~t2 = fold_days t ~t1 ~t2 (fun acc d -> add acc (of_cell t.totals.(d))) empty

(* Sum of [info] over TimedSegmentScan (t1, t2). *)
let sum_info t ~t1 ~t2 = fold_days t ~t1 ~t2 (fun acc d -> acc + t.totals.(d).c_sum) 0

(* Entries held for [value] on the given days: what a probe of a
   constituent with that time-set transfers before its day filter. *)
let held t ~value days =
  Wave_core.Dayset.fold
    (fun d acc ->
      if d < 1 || d > t.last_day then acc
      else
        match Hashtbl.find_opt t.by_value.(d) value with
        | Some c -> acc + c.c_n
        | None -> acc)
    days 0

(* Every operation the benchmark checks lands here.  [error_rate] is
   (exceptions + wrong answers + failed restart checks) / attempted. *)
type tally = {
  mutable attempted : int;
  mutable wrong : int;
  mutable exceptions : int;
  mutable restart_failures : int;
}

let tally () = { attempted = 0; wrong = 0; exceptions = 0; restart_failures = 0 }
let failed t = t.wrong + t.exceptions + t.restart_failures

let error_rate t =
  if t.attempted = 0 then 0.0
  else float_of_int (failed t) /. float_of_int t.attempted

let check t ~expected ~actual =
  t.attempted <- t.attempted + 1;
  if expected <> actual then t.wrong <- t.wrong + 1
