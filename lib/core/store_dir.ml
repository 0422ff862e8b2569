open Wave_disk

let blocks_path dir = Filename.concat dir "BLOCKS"
let manifest_path dir = Filename.concat dir "MANIFEST"
let manifest_prev_path dir = Filename.concat dir "MANIFEST.prev"
let journal_path dir = Filename.concat dir "JOURNAL"

let rec init dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    init (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s

let remove_if_exists path =
  try Sys.remove path with Sys_error _ -> ()

let write_manifest dir m =
  let path = manifest_path dir in
  let tmp = path ^ ".tmp" in
  Io.write_file tmp (Manifest.to_string m);
  (* Io.write_file committed the contents to [MANIFEST.tmp] (its own temp
     was [MANIFEST.tmp.tmp]); now rotate and swap.  A kill between the
     renames leaves only [.prev] — still a committed checkpoint. *)
  if Sys.file_exists path then Io.rename path (manifest_prev_path dir);
  Io.rename tmp path;
  Io.fsync_dir dir

let read_manifest dir =
  remove_if_exists (manifest_path dir ^ ".tmp");
  remove_if_exists (manifest_path dir ^ ".tmp.tmp");
  let parse path =
    match read_file path with
    | None -> None
    | Some s -> (
      match Manifest.of_string s with Ok m -> Some m | Error _ -> None)
  in
  match parse (manifest_path dir) with
  | Some m -> (m, false)
  | None -> (
    match parse (manifest_prev_path dir) with
    | Some m -> (m, true)
    | None ->
      raise
        (Disk.Disk_error
           (Printf.sprintf "read_manifest: no readable manifest in %s" dir)))

let write_journal dir j = Io.write_file (journal_path dir) (Journal.to_string j)

let read_journal dir =
  remove_if_exists (journal_path dir ^ ".tmp");
  match read_file (journal_path dir) with
  | None -> Journal.create ()
  | Some s -> (
    match Journal.of_string s with Ok j -> j | Error _ -> Journal.create ())
