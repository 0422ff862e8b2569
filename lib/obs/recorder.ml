(* Always-on flight recorder: a bounded ring of the most recent
   observable events (span ends, gauge updates, alert firings, real-I/O
   syscall outcomes).  Recording is a couple of field writes plus one
   array store, cheap enough to leave on unconditionally; the ring
   overwrites its oldest entry once full, so memory stays O(capacity)
   no matter how long the process runs.

   This module sits below Metrics/Trace/Alert in the library: it
   depends only on Json (and Unix for the wall clock), so every other
   observability module — and Wave_disk.Io — can record into it without
   a dependency cycle.  Trace registers its model clock here at module
   init, giving events model timestamps whenever a traced run is
   active. *)

type kind =
  | Span of {
      sp_name : string;
      sp_model_s : float;
      sp_seeks : int;
      sp_blocks_read : int;
      sp_blocks_written : int;
      sp_bytes_read : int;
      sp_bytes_written : int;
    }
  | Metric of { m_name : string; m_value : float; m_delta : float }
  | Alert_fire of {
      a_rule : string;
      a_metric : string;
      a_value : float;
      a_day : int;
      a_scope : string;
    }
  | Io of { io_syscall : string; io_outcome : string; io_bytes : int }
  | Epoch of { e_event : string; e_gen : int; e_refcount : int }

type event = { seq : int; at_model : float; at_wall : float; kind : kind }

let schema = "waveidx-flight/1"
let default_capacity = 512

let ring : event option array ref = ref (Array.make default_capacity None)
let written = ref 0 (* events ever recorded since the last clear *)
let enabled = ref true
let model_clock : (unit -> float) ref = ref (fun () -> 0.0)
let dump_target : string option ref = ref None

let set_model_clock f = model_clock := f
let set_enabled b = enabled := b
let capacity () = Array.length !ring

let set_capacity c =
  if c < 1 then invalid_arg "Recorder.set_capacity: capacity < 1";
  ring := Array.make c None;
  written := 0

let clear () =
  Array.fill !ring 0 (Array.length !ring) None;
  written := 0

let record kind =
  if !enabled then begin
    let r = !ring in
    let e =
      {
        seq = !written;
        at_model = !model_clock ();
        at_wall = Unix.gettimeofday ();
        kind;
      }
    in
    r.(!written mod Array.length r) <- Some e;
    incr written
  end

let record_span ~name ~model_s ~seeks ~blocks_read ~blocks_written ~bytes_read
    ~bytes_written =
  record
    (Span
       {
         sp_name = name;
         sp_model_s = model_s;
         sp_seeks = seeks;
         sp_blocks_read = blocks_read;
         sp_blocks_written = blocks_written;
         sp_bytes_read = bytes_read;
         sp_bytes_written = bytes_written;
       })

let record_metric ~name ~value ~delta =
  record (Metric { m_name = name; m_value = value; m_delta = delta })

let record_alert ~rule ~metric ~value ~day ~scope =
  record
    (Alert_fire
       { a_rule = rule; a_metric = metric; a_value = value; a_day = day;
         a_scope = scope })

let record_io ~syscall ~outcome ~bytes =
  record (Io { io_syscall = syscall; io_outcome = outcome; io_bytes = bytes })

let record_epoch ~event ~gen ~refcount =
  record (Epoch { e_event = event; e_gen = gen; e_refcount = refcount })

let total () = !written
let count () = min !written (Array.length !ring)
let dropped () = !written - count ()

(* Oldest-first: the ring's live window is the last [count] sequence
   numbers, read in order. *)
let events () =
  let r = !ring in
  let cap = Array.length r in
  let n = count () in
  List.init n (fun i ->
      match r.((!written - n + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let event_json e =
  let envelope ty fields =
    Json.Obj
      (("type", Json.Str ty)
      :: ("seq", Json.int e.seq)
      :: ("model_s", Json.Num e.at_model)
      :: ("wall_s", Json.Num e.at_wall)
      :: fields)
  in
  match e.kind with
  | Span s ->
    envelope "span"
      [
        ("name", Json.Str s.sp_name);
        ("dur_model_s", Json.Num s.sp_model_s);
        ("seeks", Json.int s.sp_seeks);
        ("blocks_read", Json.int s.sp_blocks_read);
        ("blocks_written", Json.int s.sp_blocks_written);
        ("bytes_read", Json.int s.sp_bytes_read);
        ("bytes_written", Json.int s.sp_bytes_written);
      ]
  | Metric m ->
    envelope "metric"
      [
        ("name", Json.Str m.m_name);
        ("value", Json.Num m.m_value);
        ("delta", Json.Num m.m_delta);
      ]
  | Alert_fire a ->
    envelope "alert"
      [
        ("rule", Json.Str a.a_rule);
        ("metric", Json.Str a.a_metric);
        ("value", Json.Num a.a_value);
        ("day", Json.int a.a_day);
        ("scope", Json.Str a.a_scope);
      ]
  | Io io ->
    envelope "io"
      [
        ("syscall", Json.Str io.io_syscall);
        ("outcome", Json.Str io.io_outcome);
        ("bytes", Json.int io.io_bytes);
      ]
  | Epoch ep ->
    envelope "epoch"
      [
        ("event", Json.Str ep.e_event);
        ("gen", Json.int ep.e_gen);
        ("refcount", Json.int ep.e_refcount);
      ]

let to_jsonl ?(reason = "manual") () =
  let buf = Buffer.create 4096 in
  let header =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("reason", Json.Str reason);
        ("events", Json.int (count ()));
        ("dropped", Json.int (dropped ()));
      ]
  in
  Buffer.add_string buf (Json.to_string header);
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_json e));
      Buffer.add_char buf '\n')
    (events ());
  Buffer.contents buf

let dump_to ?reason path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl ?reason ()))

let set_dump_path p = dump_target := p
let dump_path () = !dump_target

let dump_if_configured ~reason =
  match !dump_target with
  | None -> ()
  | Some path -> ( try dump_to ~reason path with Sys_error _ -> ())
