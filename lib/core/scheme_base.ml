type t = {
  env : Env.t;
  frame : Frame.t;
  mutable day : int;
  mutable mark : float;
  mutable arrived : float;
  mutable started : float;
}

let create env =
  {
    env;
    frame = Frame.create env;
    day = env.Env.w - 1;
    mark = 0.0;
    arrived = 0.0;
    started = 0.0;
  }

let report t op = match t.env.Env.observer with Some f -> f op | None -> ()

let mark_visible t =
  t.mark <- Wave_disk.Disk.elapsed t.env.Env.disk;
  report t Env.Visible

let install t j idx days = Frame.set_slot t.frame j idx days

let days_list ds = Dayset.elements ds

let begin_transition t =
  let now = Wave_disk.Disk.elapsed t.env.Env.disk in
  t.started <- now;
  t.arrived <- now

let data_arrives t =
  t.arrived <- Wave_disk.Disk.elapsed t.env.Env.disk;
  report t Env.Arrived

let arrival t = t.arrived
let transition_started t = t.started
