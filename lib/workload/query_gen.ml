open Wave_util

type value_dist = Zipfian of { vocab : int; s : float } | Uniform of int

type range_kind = Whole_window | Current_day | Random_subrange

type spec = {
  seed : int;
  probes_per_day : int;
  probe_range : range_kind;
  scans_per_day : int;
  scan_range : range_kind;
  value_dist : value_dist;
}

type query = Probe of { value : int; t1 : int; t2 : int } | Scan of { t1 : int; t2 : int }

let range prng kind ~day ~w =
  let lo = day - w + 1 in
  match kind with
  | Whole_window -> (lo, day)
  | Current_day -> (day, day)
  | Random_subrange ->
    let a = Prng.int_in prng lo day and b = Prng.int_in prng lo day in
    (min a b, max a b)

let day_queries spec ~day ~w =
  let prng = Prng.create ((spec.seed * 31_337) + day) in
  let sample_value =
    match spec.value_dist with
    | Zipfian { vocab; s } ->
      let z = Zipf.create ~n:vocab ~s in
      fun () -> Zipf.sample z prng
    | Uniform n -> fun () -> 1 + Prng.int prng n
  in
  let probes =
    List.init spec.probes_per_day (fun _ ->
        let t1, t2 = range prng spec.probe_range ~day ~w in
        Probe { value = sample_value (); t1; t2 })
  in
  let scans =
    List.init spec.scans_per_day (fun _ ->
        let t1, t2 = range prng spec.scan_range ~day ~w in
        Scan { t1; t2 })
  in
  probes @ scans

let scam_spec =
  {
    seed = 1001;
    probes_per_day = 100;
    probe_range = Whole_window;
    scans_per_day = 1;
    scan_range = Current_day;
    value_dist = Zipfian { vocab = 5_000; s = 1.0 };
  }

let wse_spec =
  {
    seed = 1002;
    probes_per_day = 340;
    probe_range = Whole_window;
    scans_per_day = 0;
    scan_range = Whole_window;
    value_dist = Zipfian { vocab = 5_000; s = 1.0 };
  }
