open Wave_core
open Wave_storage
open Wave_disk
module Parallel = Wave_model.Parallel

type slot = {
  mutable index : Index.t;
  mutable days : Dayset.t;
  disk_id : int;
}

type t = {
  disks : Disk.t array;
  slots : slot array;
  store : Env.day_store;
  w : int;
  mutable day : int;
}

let create ?(icfg = Index.default_config) ~store ~w ~n ~disks () =
  if disks < 1 then invalid_arg "Multi_disk.create: need at least one disk";
  let disk_arr = Array.init disks (fun _ -> Index.make_disk icfg) in
  let parts = Split.contiguous ~first_day:1 ~days:w ~parts:n in
  (* LPT placement over per-slot day counts: [Split.contiguous] hands
     the first slots the larger ranges, so round-robin (slot [i] on
     disk [i mod disks]) could pile the big slots onto the low-id
     disks.  Balancing by weight keeps arm block counts within 2x of
     each other under uniform days. *)
  let placement =
    Wave_shard.Partition.place
      ~weights:
        (Array.of_list
           (List.map (fun (lo, hi) -> float_of_int (hi - lo + 1)) parts))
      ~arms:disks
  in
  let slots =
    Array.of_list
      (List.mapi
         (fun i (lo, hi) ->
           let disk_id = placement.(i) in
           let batches = List.init (hi - lo + 1) (fun k -> store (lo + k)) in
           {
             index = Index.build disk_arr.(disk_id) icfg batches;
             days = Dayset.range lo hi;
             disk_id;
           })
         parts)
  in
  { disks = disk_arr; slots; store; w; day = w }

let n_disks t = Array.length t.disks
let n_constituents t = Array.length t.slots
let current_day t = t.day

(* Run [f] on a fresh parallel clock over the arms, recording each
   disk's elapsed delta: each disk's work happens concurrently with the
   others'. *)
let timed t f =
  let before = Array.map Disk.elapsed t.disks in
  let result = f () in
  let clock = Parallel.create ~arms:(Array.length t.disks) in
  ignore
    (Parallel.record clock
       (List.init (Array.length t.disks) (fun i ->
            (i, Disk.elapsed t.disks.(i) -. before.(i)))));
  (result, clock)

let probe t ~value =
  timed t (fun () ->
      Array.fold_left (fun acc s -> acc @ Index.probe s.index value) [] t.slots)

let scan t =
  timed t (fun () ->
      Array.fold_left (fun acc s -> acc @ Index.scan s.index) [] t.slots)

let advance t =
  let new_day = t.day + 1 in
  let expired = new_day - t.w in
  let j =
    match
      Array.find_index (fun s -> Dayset.mem expired s.days) t.slots
    with
    | Some j -> j
    | None -> failwith "Multi_disk.advance: expired day not found"
  in
  let (), timing =
    timed t (fun () ->
        let s = t.slots.(j) in
        ignore (Index.delete_days s.index [ t.store expired ]);
        Index.add_batch s.index (t.store new_day);
        s.days <- Dayset.add new_day (Dayset.remove expired s.days))
  in
  t.day <- new_day;
  timing

let speedup_table ~store ~w ~n ~disks =
  let rows =
    List.map
      (fun d ->
        let m = create ~store ~w ~n ~disks:d () in
        (* a few maintenance days to reach steady state *)
        for _ = 1 to w do
          ignore (advance m)
        done;
        let _, pt = probe m ~value:1 in
        let _, st = scan m in
        [
          string_of_int d;
          Printf.sprintf "%.4f" (Parallel.serial pt);
          Printf.sprintf "%.4f" (Parallel.elapsed pt);
          Printf.sprintf "%.2fx" (Parallel.speedup pt);
          Printf.sprintf "%.4f" (Parallel.serial st);
          Printf.sprintf "%.4f" (Parallel.elapsed st);
          Printf.sprintf "%.2fx" (Parallel.speedup st);
        ])
      disks
  in
  Printf.sprintf
    "# Multi-disk wave index (Section 8): query parallelism, W=%d n=%d\n%s" w n
    (Wave_util.Table_print.render
       ~header:
         [
           "disks"; "probe serial(s)"; "probe parallel(s)"; "probe speedup";
           "scan serial(s)"; "scan parallel(s)"; "scan speedup";
         ]
       ~rows)
