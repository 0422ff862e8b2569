open Wave_disk
open Wave_storage

type technique = In_place | Simple_shadow | Packed_shadow

let technique_name = function
  | In_place -> "in-place"
  | Simple_shadow -> "simple-shadow"
  | Packed_shadow -> "packed-shadow"

let technique_of_name = function
  | "in-place" -> Some In_place
  | "simple-shadow" -> Some Simple_shadow
  | "packed-shadow" -> Some Packed_shadow
  | _ -> None

type day_store = int -> Entry.batch

type op =
  | Build of int
  | Add of int
  | Delete of int
  | Copy of { days : int; live : bool }
  | Smart_copy of { days : int; add : int; live : bool }
  | Arrived
  | Visible

type t = {
  disk : Disk.t;
  icfg : Index.config;
  technique : technique;
  store : day_store;
  w : int;
  n : int;
  allow_deletes : bool;
  observer : (op -> unit) option;
}

let create ?disk ?(icfg = Index.default_config) ?(technique = In_place)
    ?(allow_deletes = true) ?observer ~store ~w ~n () =
  if n < 1 then invalid_arg "Env.create: n must be >= 1";
  if w < n then invalid_arg "Env.create: need n <= w";
  let disk = match disk with Some d -> d | None -> Index.make_disk icfg in
  { disk; icfg; technique; store; w; n; allow_deletes; observer }
