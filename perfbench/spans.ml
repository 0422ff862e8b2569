(* In-memory span recorder for the traced run.

   A span is opened by the benchmark's own code around one call into a
   library layer: name, start, end, parent span and the id of the query
   it serves.  Spans live in flat arrays until the run ends, then are
   aggregated per name (count, total, self = total minus the time its
   children cover) and written out as TSV. *)

type name =
  | Checkpoint_start
  | Checkpoint_transition
  | Checkpoint_reopen
  | Frame_probe
  | Frame_scan
  | Index_probe
  | Index_scan
  | Epoch_open
  | Epoch_read
  | Epoch_probe
  | Epoch_drain
  | Router_create
  | Router_advance
  | Router_probe
  | Router_scan

let all =
  [
    Checkpoint_start; Checkpoint_transition; Checkpoint_reopen; Frame_probe; Frame_scan;
    Index_probe; Index_scan; Epoch_open; Epoch_read; Epoch_probe; Epoch_drain;
    Router_create; Router_advance; Router_probe; Router_scan;
  ]

let to_string = function
  | Checkpoint_start -> "checkpoint.start"
  | Checkpoint_transition -> "checkpoint.transition"
  | Checkpoint_reopen -> "checkpoint.reopen"
  | Frame_probe -> "frame.probe"
  | Frame_scan -> "frame.scan"
  | Index_probe -> "index.probe"
  | Index_scan -> "index.scan"
  | Epoch_open -> "epoch.open"
  | Epoch_read -> "epoch.read"
  | Epoch_probe -> "epoch.probe"
  | Epoch_drain -> "epoch.drain"
  | Router_create -> "router.create"
  | Router_advance -> "router.advance"
  | Router_probe -> "router.probe"
  | Router_scan -> "router.scan"

let index = function
  | Checkpoint_start -> 0
  | Checkpoint_transition -> 1
  | Checkpoint_reopen -> 2
  | Frame_probe -> 3
  | Frame_scan -> 4
  | Index_probe -> 5
  | Index_scan -> 6
  | Epoch_open -> 7
  | Epoch_read -> 8
  | Epoch_probe -> 9
  | Epoch_drain -> 10
  | Router_create -> 11
  | Router_advance -> 12
  | Router_probe -> 13
  | Router_scan -> 14

type t = {
  mutable len : int;
  mutable names : int array;
  mutable parents : int array;
  mutable qids : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable next_qid : int;
}

let create () =
  let a () = Array.make 4096 0 in
  { len = 0; names = a (); parents = a (); qids = a (); starts = a (); stops = a (); next_qid = 0 }

let grow t =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- g t.names;
  t.parents <- g t.parents;
  t.qids <- g t.qids;
  t.starts <- g t.starts;
  t.stops <- g t.stops

let new_query t =
  t.next_qid <- t.next_qid + 1;
  t.next_qid

(* Open a span; [parent] is -1 for a root.  Returns the span id. *)
let enter t nm ~parent ~qid =
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.names.(i) <- index nm;
  t.parents.(i) <- parent;
  t.qids.(i) <- qid;
  t.starts.(i) <- Clock.now_ns ();
  i

let leave t i = t.stops.(i) <- Clock.now_ns ()

let with_span t nm ~parent ~qid f =
  let i = enter t nm ~parent ~qid in
  let r = f i in
  leave t i;
  r

type agg = { count : int; total_ns : int; self_ns : int; children : int }

let aggregate t =
  let child_ns = Array.make t.len 0 and nchild = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (t.stops.(i) - t.starts.(i));
      nchild.(p) <- nchild.(p) + 1
    end
  done;
  let aggs = Array.make (List.length all) { count = 0; total_ns = 0; self_ns = 0; children = 0 } in
  for i = 0 to t.len - 1 do
    let a = aggs.(t.names.(i)) and d = t.stops.(i) - t.starts.(i) in
    aggs.(t.names.(i)) <-
      {
        count = a.count + 1;
        total_ns = a.total_ns + d;
        self_ns = a.self_ns + d - child_ns.(i);
        children = a.children + nchild.(i);
      }
  done;
  fun nm -> aggs.(index nm)

(* Mean duration of a span name, in the given unit (1e-3 for µs from
   ns, 1e-6 for ms); 0 when the workload never made that call. *)
let mean_duration agg ~scale =
  if agg.count = 0 then 0.0 else float_of_int agg.total_ns *. scale /. float_of_int agg.count

let write_tsv t path =
  let oc = open_out path in
  output_string oc "span\tparent\tquery\tname\tstart_ns\tend_ns\n";
  let names = Array.of_list (List.map to_string all) in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" i t.parents.(i) t.qids.(i)
      names.(t.names.(i)) t.starts.(i) t.stops.(i)
  done;
  close_out oc
