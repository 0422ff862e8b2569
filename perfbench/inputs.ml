(* Seeded inputs.  The day batches come from the repository's own
   generators (Wave_workload.Netnews and Tpcd) and the probe values from
   Wave_workload.Query_gen, so the benchmark feeds the library the same
   data its experiments use.  Everything is materialised here, from the
   seed alone and before anything is timed; the library under test sees
   only the finished day store and query arrays. *)

open Wave_storage
module Query_gen = Wave_workload.Query_gen

type days = {
  batches : Entry.batch array;  (** [batches.(d)] is day [d]'s batch; day 0 is empty *)
  probe_values : int array array;  (** [probe_values.(d)]: values probed on day [d] *)
  last_day : int;
}

(* Days 1..[last_day] of [store], and the probe values [queries] draws
   for every day after the initial [w]-day wave. *)
let generate ~(store : Wave_core.Env.day_store) ~(queries : Query_gen.spec) ~w ~last_day =
  let values day =
    if day <= w then [||]
    else
      Query_gen.day_queries queries ~day ~w
      |> List.filter_map (function
           | Query_gen.Probe { value; _ } -> Some value
           | Query_gen.Scan _ -> None)
      |> Array.of_list
  in
  {
    batches =
      Array.init (last_day + 1) (fun d ->
          if d = 0 then Entry.batch_create ~day:0 [||] else store d);
    probe_values = Array.init (last_day + 1) values;
    last_day;
  }

let store days d =
  if d < 1 || d > days.last_day then
    invalid_arg (Printf.sprintf "day store: day %d outside 1..%d" d days.last_day);
  days.batches.(d)

let postings days d = Array.length days.batches.(d).Entry.postings

let postings_between days d1 d2 =
  let s = ref 0 in
  for d = max 1 d1 to min days.last_day d2 do
    s := !s + postings days d
  done;
  !s

(* The largest W-day window of postings ending at or before [last]. *)
let max_window days ~w ~last =
  let best = ref 0 in
  for d = w to last do
    best := max !best (postings_between days (d - w + 1) d)
  done;
  !best
