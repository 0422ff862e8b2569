let fl = float_of_int

let x ~w ~n =
  if n < 1 || w < n then invalid_arg "Formulas.x: need 1 <= n <= w";
  fl w /. fl n

let y ~w ~n =
  if n < 2 || w < n then invalid_arg "Formulas.y: need 2 <= n <= w";
  fl (w - 1) /. fl (n - 1)

let theorem2_length_bound ~w ~n = w + ((w - 1 + (n - 2)) / (n - 1)) - 1

let kmrv_competitive_ratio ~n =
  if n < 2 then invalid_arg "Formulas.kmrv_competitive_ratio: need n >= 2";
  fl n /. fl (n - 1)

let space_days_del ~w = fl w
let space_days_reindex ~w = fl w
let space_days_reindex_plus_avg ~w ~n = fl w +. ((x ~w ~n -. 1.0) /. 2.0)
let space_days_reindex_plus_max ~w ~n = fl w +. x ~w ~n -. 1.0

let space_days_reindex_pp_max ~w ~n =
  let x = x ~w ~n in
  fl w +. (x *. (x -. 1.0) /. 2.0)

let space_days_wata_avg ~w ~n = fl w +. ((y ~w ~n -. 1.0) /. 2.0)
let space_days_wata_max ~w ~n = fl w +. y ~w ~n -. 1.0

let space_days_rata_max ~w ~n =
  let y = y ~w ~n in
  fl w +. (y *. (y -. 1.0) /. 2.0)

type ops = { build : float; add : float; del : float; cp : float; smcp : float }

let del_simple_shadow o ~w ~n = ((x ~w ~n *. o.cp) +. o.del, o.add)
let del_packed_shadow o ~w ~n = (0.0, (x ~w ~n *. o.smcp) +. o.build)
let reindex_any o ~w ~n = (0.0, x ~w ~n *. o.build)
let reindex_pp_transition o = o.add

let wata_transition_avg o ~w ~n =
  let y = y ~w ~n in
  (((y -. 1.0) *. o.add) +. o.build) /. y

let probe_seconds ~seek ~trans ~c_bucket ~w ~n ~probe_idx =
  fl probe_idx *. (seek +. (x ~w ~n *. c_bucket /. trans))

let scan_seconds ~seek ~trans ~bytes_per_day ~w ~n ~scan_idx =
  fl scan_idx *. (seek +. (x ~w ~n *. bytes_per_day /. trans))
