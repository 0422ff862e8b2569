exception Io_error of string

type syscall = Pread | Pwrite | Fsync | Rename

let syscall_name = function
  | Pread -> "pread"
  | Pwrite -> "pwrite"
  | Fsync -> "fsync"
  | Rename -> "rename"

type transient = Eintr | Eio | Short

type fault =
  | Fail_stop
  | Torn_write of float
  | Transient of transient * int
  | Stall of float

type retry_policy = {
  max_retries : int;
  backoff_s : float;
  backoff_mult : float;
  max_backoff_s : float;
}

let default_retry_policy =
  { max_retries = 4; backoff_s = 1e-3; backoff_mult = 2.0; max_backoff_s = 5e-2 }

let policy = ref default_retry_policy

let set_retry_policy p =
  if p.max_retries < 0 then invalid_arg "Io.set_retry_policy: max_retries < 0";
  if p.backoff_s <= 0.0 then invalid_arg "Io.set_retry_policy: backoff_s <= 0";
  if p.backoff_mult < 1.0 then invalid_arg "Io.set_retry_policy: backoff_mult < 1";
  if p.max_backoff_s < p.backoff_s then
    invalid_arg "Io.set_retry_policy: max_backoff_s < backoff_s";
  policy := p

let retry_policy () = !policy

let default_sleeper = Unix.sleepf
let sleeper = ref default_sleeper
let set_sleeper f = sleeper := f

(* --- metrics --------------------------------------------------------- *)

module M = Wave_obs.Metrics
module R = Wave_obs.Recorder

let m_preads = M.counter "disk.file.preads"
let m_pwrites = M.counter "disk.file.pwrites"
let m_fsyncs = M.counter "disk.file.fsyncs"
let m_renames = M.counter "disk.file.renames"
let m_bytes_read = M.counter "disk.file.bytes_read"
let m_bytes_written = M.counter "disk.file.bytes_written"
let m_retries = M.counter "disk.file.retries"
let m_giveups = M.counter "disk.file.giveups"
let m_stalls = M.counter "disk.file.stalls"
let m_wall = M.histogram "disk.file.io_wall_s"

(* --- fault plan ------------------------------------------------------ *)

type plan = { target : syscall; fault : fault; mutable countdown : int }

let armed_plan : plan option ref = ref None

let arm ?(at = 1) target fault =
  if at < 1 then invalid_arg "Io.arm: need at >= 1";
  (match fault with
  | Torn_write f ->
    if target <> Pwrite then invalid_arg "Io.arm: torn fault targets pwrite";
    if f < 0.0 || f > 1.0 then invalid_arg "Io.arm: torn fraction outside [0,1]"
  | Transient (_, k) -> if k < 0 then invalid_arg "Io.arm: negative transient count"
  | Stall s -> if s < 0.0 then invalid_arg "Io.arm: negative stall"
  | Fail_stop -> ());
  armed_plan := Some { target; fault; countdown = at }

let clear () = armed_plan := None

let armed () =
  match !armed_plan with
  | None -> None
  | Some p -> Some (p.target, p.fault, p.countdown)

(* An injected condition for the duration of one wrapped call: the plan
   fired on call entry and is consumed (disarmed); [injected] then
   feeds the call's attempt loop. *)
type injection = No_injection | Inject_transient of transient * int ref

let fire_plan target =
  match !armed_plan with
  | Some p when p.target = target ->
    p.countdown <- p.countdown - 1;
    if p.countdown > 0 then No_injection
    else begin
      armed_plan := None;
      match p.fault with
      | Fail_stop ->
        R.record_io ~syscall:(syscall_name target) ~outcome:"fault" ~bytes:0;
        raise (Io_error (Printf.sprintf "injected I/O fault: %s" (syscall_name target)))
      | Stall s ->
        M.inc m_stalls;
        R.record_io ~syscall:(syscall_name target) ~outcome:"stall" ~bytes:0;
        !sleeper s;
        No_injection
      | Transient (kind, k) -> Inject_transient (kind, ref k)
      | Torn_write _ ->
        (* handled by the pwrite path, which needs the payload *)
        armed_plan := Some p;
        No_injection
    end
  | _ -> No_injection

(* The torn-write plan is consumed by pwrite itself (it must write a
   prefix of this very payload before dying).  Until its call comes,
   [fire_plan] counts it down like any other plan. *)
let fire_torn_write () =
  match !armed_plan with
  | Some { target = Pwrite; fault = Torn_write frac; countdown = 1 } ->
    armed_plan := None;
    Some frac
  | _ -> None

(* --- retry loop ------------------------------------------------------ *)

type attempt = Done of int | Again of string  (* bytes moved | transient *)

let with_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  M.observe m_wall (Unix.gettimeofday () -. t0);
  r

(* Run [attempt] until the whole [len] is transferred, retrying
   transient conditions (injected or real EINTR/EAGAIN/EIO) under the
   policy.  [attempt done_so_far] moves some bytes and returns how
   many, or signals a transient failure. *)
let retry_exact ~what ~len attempt =
  let p = !policy in
  let rec go moved retries backoff =
    let outcome =
      match attempt moved with
      | a -> a
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
        Again "EINTR"
      | exception Unix.Unix_error (Unix.EIO, _, _) -> Again "EIO"
      | exception Unix.Unix_error (e, _, _) ->
        raise (Io_error (Printf.sprintf "%s: %s" what (Unix.error_message e)))
    in
    match outcome with
    | Done n when moved + n >= len -> ()
    | Done n when n > 0 ->
      (* short transfer with progress: keep going, no backoff *)
      go (moved + n) retries backoff
    | Done _ | Again _ ->
      let reason = match outcome with Again r -> r | Done _ -> "short transfer" in
      if retries >= p.max_retries then begin
        M.inc m_giveups;
        R.record_io ~syscall:what ~outcome:"giveup" ~bytes:moved;
        raise
          (Io_error
             (Printf.sprintf "%s: giving up after %d retries (%s)" what retries
                reason))
      end
      else begin
        M.inc m_retries;
        R.record_io ~syscall:what ~outcome:"retry" ~bytes:moved;
        !sleeper backoff;
        go moved (retries + 1) (Float.min (backoff *. p.backoff_mult) p.max_backoff_s)
      end
  in
  go 0 0 p.backoff_s

(* --- wrapped syscalls ------------------------------------------------ *)

(* [base] is the offset in the range of the chunk's first byte; each
   attempt reads into the room left in the current fill, and a full fill
   is delivered before the chunk is reused.  An injected short read
   fills part of that room and reports no progress, as on a plain
   buffer.  The wall histogram gets only the time outside [deliver]:
   [since] is when the current fill began (the call's start or the end
   of the previous delivery) and [io_s] sums the fills, so a call that
   fills the chunk once reads the clock twice, as a plain wrapped call
   does. *)
let pread_chunked fd ~off ~len ~chunk deliver =
  let size = Bytes.length chunk in
  if len < 0 || (len > 0 && size = 0) then
    invalid_arg "Io.pread_chunked: negative length or empty chunk";
  let injection = fire_plan Pread in
  M.inc m_preads;
  let io_s = ref 0.0 and since = ref (Unix.gettimeofday ()) in
  let base = ref 0 in
  let read_into moved want =
    ignore (Unix.lseek fd (off + moved) Unix.SEEK_SET);
    let n = Unix.read fd chunk (moved - !base) want in
    if n = 0 then raise (Io_error "pread: unexpected end of file");
    M.add m_bytes_read n;
    n
  in
  retry_exact ~what:"pread" ~len (fun moved ->
      let fill = Int.min size (len - !base) in
      let room = fill - (moved - !base) in
      match injection with
      | Inject_transient (Eintr, k) when !k > 0 ->
        decr k;
        Again "injected EINTR"
      | Inject_transient (Eio, k) when !k > 0 ->
        decr k;
        Again "injected EIO"
      | Inject_transient (Short, k) when !k > 0 ->
        decr k;
        ignore (read_into moved (Int.min room ((len - moved + 1) / 2)));
        (* report no progress so the short transfer is retried/backed off *)
        Again "injected short read"
      | _ ->
        let n = read_into moved room in
        if moved + n - !base = fill then begin
          io_s := !io_s +. (Unix.gettimeofday () -. !since);
          deliver chunk ~len:fill;
          base := !base + fill;
          if !base < len then since := Unix.gettimeofday ()
        end;
        Done n);
  M.observe m_wall !io_s;
  R.record_io ~syscall:"pread" ~outcome:"ok" ~bytes:len

let pread fd buf ~off =
  pread_chunked fd ~off ~len:(Bytes.length buf) ~chunk:buf (fun _ ~len:_ -> ())

let pwrite_chunked fd ~off ~len ~chunk fill =
  let size = Bytes.length chunk in
  if len < 0 || (len > 0 && size = 0) then
    invalid_arg "Io.pwrite_chunked: negative length or empty chunk";
  (* [base] is the offset in the range of the chunk's first byte. *)
  let base = ref 0 in
  let refill () =
    let n = Int.min size (len - !base) in
    fill chunk ~len:n;
    n
  in
  (match fire_torn_write () with
  | Some frac ->
    let torn = int_of_float (frac *. float_of_int len) in
    M.inc m_pwrites;
    while !base < torn do
      let n = Int.min (refill ()) (torn - !base) in
      ignore (Unix.lseek fd (off + !base) Unix.SEEK_SET);
      let w = Unix.write fd chunk 0 n in
      M.add m_bytes_written w;
      base := !base + n
    done;
    R.record_io ~syscall:"pwrite" ~outcome:"torn" ~bytes:torn;
    raise (Io_error "injected torn write")
  | None -> ());
  let injection = fire_plan Pwrite in
  M.inc m_pwrites;
  let filled = ref (if len > 0 then refill () else 0) in
  let io_s = ref 0.0 and since = ref (Unix.gettimeofday ()) in
  let write_from moved want =
    ignore (Unix.lseek fd (off + moved) Unix.SEEK_SET);
    let n = Unix.write fd chunk (moved - !base) want in
    M.add m_bytes_written n;
    (* the chunk is written out: take the next one *)
    if n > 0 && moved + n - !base = !filled && moved + n < len then begin
      let now = Unix.gettimeofday () in
      io_s := !io_s +. (now -. !since);
      base := moved + n;
      filled := refill ();
      since := Unix.gettimeofday ()
    end;
    Done n
  in
  retry_exact ~what:"pwrite" ~len (fun moved ->
      let room = !filled - (moved - !base) in
      match injection with
      | Inject_transient (Eintr, k) when !k > 0 ->
        decr k;
        Again "injected EINTR"
      | Inject_transient (Eio, k) when !k > 0 ->
        decr k;
        Again "injected EIO"
      | Inject_transient (Short, k) when !k > 0 ->
        decr k;
        write_from moved (Int.min room ((len - moved + 1) / 2))
      | _ -> write_from moved room);
  M.observe m_wall (!io_s +. (Unix.gettimeofday () -. !since));
  R.record_io ~syscall:"pwrite" ~outcome:"ok" ~bytes:len

let pwrite fd buf ~off =
  pwrite_chunked fd ~off ~len:(Bytes.length buf) ~chunk:buf (fun _ ~len:_ -> ())

(* A failed fsync may already have dropped the dirty pages and cleared
   the error, so a retry that succeeds proves nothing: EIO from fsync
   is fail-stop, never retried. *)
let fsync_eio () =
  R.record_io ~syscall:"fsync" ~outcome:"fault" ~bytes:0;
  raise (Io_error "fsync: EIO (not retried: the dirty pages may be lost)")

let fsync fd =
  let injection = fire_plan Fsync in
  M.inc m_fsyncs;
  with_wall @@ fun () ->
  retry_exact ~what:"fsync" ~len:1 (fun _ ->
      match injection with
      | Inject_transient (Eio, k) when !k > 0 -> fsync_eio ()
      | Inject_transient ((Eintr | Short), k) when !k > 0 ->
        decr k;
        Again "injected transient"
      | _ ->
        (try Unix.fsync fd with Unix.Unix_error (Unix.EIO, _, _) -> fsync_eio ());
        Done 1);
  R.record_io ~syscall:"fsync" ~outcome:"ok" ~bytes:0

let rename src dst =
  let injection = fire_plan Rename in
  M.inc m_renames;
  with_wall @@ fun () ->
  retry_exact ~what:"rename" ~len:1 (fun _ ->
      match injection with
      | Inject_transient ((Eintr | Eio | Short), k) when !k > 0 ->
        decr k;
        Again "injected transient"
      | _ ->
        (try Sys.rename src dst
         with Sys_error e -> raise (Io_error (Printf.sprintf "rename: %s" e)));
        Done 1);
  R.record_io ~syscall:"rename" ~outcome:"ok" ~bytes:0

(* --- durable whole-file writes --------------------------------------- *)

let fsync_dir dir =
  let fd =
    try Unix.openfile dir [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      raise (Io_error (Printf.sprintf "open %s: %s" dir (Unix.error_message e)))
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> fsync fd)

let write_file path contents =
  let tmp = path ^ ".tmp" in
  let fd =
    try Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (e, _, _) ->
      raise (Io_error (Printf.sprintf "open %s: %s" tmp (Unix.error_message e)))
  in
  (try
     pwrite fd (Bytes.of_string contents) ~off:0;
     fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  rename tmp path;
  fsync_dir (Filename.dirname path)
