(* Tests for the batch codec, the wave manifest format and the
   file-backed day store. *)

open Wave_core
open Wave_storage

let batch ~day postings = Entry.batch_create ~day (Array.of_list postings)

let posting value rid info day = { Entry.value; entry = { Entry.rid; day; info } }

(* --- Codec --------------------------------------------------------- *)

let test_codec_roundtrip () =
  let b =
    batch ~day:7
      [ posting 5 100 3 7; posting 2 101 0 7; posting 9999 102 (-4) 7 ]
  in
  match Codec.decode_batch (Codec.encode_batch b) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok b' ->
    Alcotest.(check int) "day" 7 b'.Entry.day;
    Alcotest.(check int) "count" 3 (Entry.batch_size b');
    Array.iteri
      (fun i (p : Entry.posting) ->
        let q = b.Entry.postings.(i) in
        if p.Entry.value <> q.Entry.value
           || not (Entry.equal p.Entry.entry q.Entry.entry)
        then Alcotest.failf "posting %d differs" i)
      b'.Entry.postings

let test_codec_empty () =
  let b = batch ~day:1 [] in
  match Codec.decode_batch (Codec.encode_batch b) with
  | Ok b' -> Alcotest.(check int) "empty" 0 (Entry.batch_size b')
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_codec_negative_day () =
  (* ZigZag handles negative fields (e.g. epoch-relative days). *)
  let b = batch ~day:(-3) [ posting 1 1 1 (-3) ] in
  match Codec.decode_batch (Codec.encode_batch b) with
  | Ok b' -> Alcotest.(check int) "day -3" (-3) b'.Entry.day
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_codec_rejects_garbage () =
  let check_err name s =
    match Codec.decode_batch s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  check_err "empty" "";
  check_err "bad magic" "XXXX\x00\x00\x00";
  check_err "truncated" (String.sub (Codec.encode_batch (batch ~day:1 [ posting 1 1 1 1 ])) 0 6);
  let good = Codec.encode_batch (batch ~day:1 [ posting 1 1 1 1 ]) in
  check_err "trailing" (good ^ "z");
  (* flip a payload byte: checksum must catch it *)
  let corrupted = Bytes.of_string good in
  Bytes.set corrupted 5 (Char.chr ((Char.code (Bytes.get corrupted 5) + 1) land 0xff));
  check_err "bitflip" (Bytes.to_string corrupted)

let test_codec_batches () =
  let bs = [ batch ~day:1 [ posting 1 1 0 1 ]; batch ~day:2 [ posting 2 2 0 2 ] ] in
  match Codec.decode_batches (Codec.encode_batches bs) with
  | Ok [ b1; b2 ] ->
    Alcotest.(check int) "day1" 1 b1.Entry.day;
    Alcotest.(check int) "day2" 2 b2.Entry.day
  | Ok _ -> Alcotest.fail "wrong count"
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_codec_diagnostics () =
  (* Each corruption class gets its own diagnostic, so an operator can
     tell a chopped file from silent bit rot. *)
  let diag name expect s =
    match Codec.decode_batch s with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e -> Alcotest.(check string) name expect e
  in
  let good = Codec.encode_batch (batch ~day:3 [ posting 7 70 1 3; posting 2 71 0 3 ]) in
  diag "empty input" "missing magic" "";
  diag "foreign magic" "bad magic" "XXXX\x00\x00\x00\x00";
  diag "old format version" "bad magic" ("WVB1" ^ String.sub good 4 (String.length good - 4));
  diag "truncated payload" "truncated varint" (String.sub good 0 6);
  diag "trailing bytes" "trailing bytes" (good ^ "z");
  (* 20 bytes claiming 2^40 postings: the count alone must not size an
     allocation; decoding as far as the bytes go would end inside a
     varint *)
  let forged =
    "WVB2" ^ "\x02" ^ "\x80\x80\x80\x80\x80\x20" ^ String.make 9 '\x02'
  in
  Alcotest.(check int) "forged batch is 20 bytes" 20 (String.length forged);
  diag "forged posting count" "truncated varint" forged;
  (* flip a value bit inside the first posting: the varint structure is
     unchanged, so only the CRC can notice *)
  let flipped = Bytes.of_string good in
  Bytes.set flipped 6 (Char.chr (Char.code (Bytes.get flipped 6) lxor 0x01));
  diag "single bit flip" "checksum mismatch" (Bytes.to_string flipped)

let test_codec_crc_catches_transposition () =
  (* The old additive checksum was order-blind: swapping two payload
     bytes left the sum unchanged.  CRC-32 must reject it. *)
  let good = Codec.encode_batch (batch ~day:9 [ posting 3 5 1 9; posting 8 6 2 9 ]) in
  (* find two adjacent differing payload bytes (after the 4-byte magic,
     before the 4ish-byte checksum tail) *)
  let b = Bytes.of_string good in
  let swapped = ref false in
  let i = ref 4 in
  while (not !swapped) && !i < Bytes.length b - 6 do
    if Bytes.get b !i <> Bytes.get b (!i + 1) then begin
      let tmp = Bytes.get b !i in
      Bytes.set b !i (Bytes.get b (!i + 1));
      Bytes.set b (!i + 1) tmp;
      swapped := true
    end;
    incr i
  done;
  Alcotest.(check bool) "found bytes to swap" true !swapped;
  match Codec.decode_batch (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "transposed payload accepted"

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrips random batches" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 60)
        (list_size (int_range 0 40)
           (triple (int_range 1 10_000) nat (int_range (-1000) 1000))))
    (fun (day, triples) ->
      let b =
        batch ~day (List.map (fun (v, rid, info) -> posting v rid info day) triples)
      in
      match Codec.decode_batch (Codec.encode_batch b) with
      | Ok b' ->
        Entry.batch_size b = Entry.batch_size b'
        && Array.for_all2
             (fun (p : Entry.posting) (q : Entry.posting) ->
               p.Entry.value = q.Entry.value && Entry.equal p.Entry.entry q.Entry.entry)
             b.Entry.postings b'.Entry.postings
      | Error _ -> false)

let prop_codec_never_crashes_on_garbage =
  QCheck2.Test.make ~name:"codec rejects random garbage safely" ~count:300
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      match Codec.decode_batch s with
      | Ok _ | Error _ -> true)

(* --- Manifest ------------------------------------------------------- *)

let store day =
  Entry.batch_create ~day
    (Array.init 5 (fun i ->
         posting (1 + ((day + i) mod 4)) ((day * 10) + i) i day))

let test_manifest_roundtrip () =
  let env = Env.create ~store ~technique:Env.Packed_shadow ~w:8 ~n:3 () in
  let s = Scheme.start Scheme.Wata_star env in
  Scheme.advance_to s 15;
  let m = Manifest.capture s in
  match Manifest.of_string (Manifest.to_string m) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok m' ->
    Alcotest.(check bool) "scheme" true (m'.Manifest.scheme = Scheme.Wata_star);
    Alcotest.(check int) "day" 15 m'.Manifest.day;
    Alcotest.(check int) "w" 8 m'.Manifest.w;
    Alcotest.(check int) "n" 3 m'.Manifest.n;
    Alcotest.(check bool) "slots equal" true
      (List.for_all2 Dayset.equal m.Manifest.slots m'.Manifest.slots)

let test_manifest_bad_inputs () =
  let check_err name s =
    match Manifest.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  check_err "empty" "";
  check_err "bad header" "something else\n";
  check_err "unknown scheme" "wave-manifest v1\nscheme NOPE\ntechnique in-place\nw 5\nn 2\nday 5\nslot 1 1,2\nslot 2 3,4,5\n";
  check_err "slot mismatch" "wave-manifest v1\nscheme DEL\ntechnique in-place\nw 5\nn 2\nday 5\nslot 1 1,2\n";
  check_err "bad int" "wave-manifest v1\nscheme DEL\ntechnique in-place\nw five\nn 2\nday 5\nslot 1 1\nslot 2 2\n"

(* Random *valid* manifests built directly from the record type (not
   via a running scheme), so the parser is exercised over the whole
   value space: empty slots, unordered day lists, large days. *)
let manifest_gen =
  QCheck2.Gen.(
    let* kind_i = int_range 0 5 in
    let kind = List.nth Scheme.all kind_i in
    let* tech_i = int_range 0 2 in
    let technique =
      List.nth [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ] tech_i
    in
    let* w = int_range 2 20 in
    let* n = int_range (Scheme.min_indexes kind) (max (Scheme.min_indexes kind) w) in
    let* day = int_range w 10_000 in
    let* slots =
      list_repeat n
        (let* days = list_size (int_range 0 6) (int_range 1 10_000) in
         return (List.fold_left (fun a d -> Dayset.add d a) Dayset.empty days))
    in
    let* epoch = int_range 0 50 in
    return { Manifest.scheme = kind; technique; w; n; day; epoch; slots })

let prop_manifest_roundtrip_random =
  QCheck2.Test.make ~name:"manifest serialisation roundtrips random manifests"
    ~count:300 manifest_gen (fun m ->
      match Manifest.of_string (Manifest.to_string m) with
      | Error _ -> false
      | Ok m' ->
        m'.Manifest.scheme = m.Manifest.scheme
        && m'.Manifest.technique = m.Manifest.technique
        && m'.Manifest.w = m.Manifest.w
        && m'.Manifest.n = m.Manifest.n
        && m'.Manifest.day = m.Manifest.day
        && m'.Manifest.epoch = m.Manifest.epoch
        && List.length m'.Manifest.slots = List.length m.Manifest.slots
        && List.for_all2 Dayset.equal m'.Manifest.slots m.Manifest.slots)

let test_manifest_bad_corpus () =
  (* A corpus of near-miss manifests: each must be rejected with a
     diagnostic, never an exception or a silent partial parse. *)
  let base tech =
    Printf.sprintf
      "wave-manifest v1\nscheme DEL\ntechnique %s\nw 5\nn 2\nday 5\nslot 1 1,2\nslot 2 3,4,5\n"
      tech
  in
  let corpus =
    [
      ("future version", "wave-manifest v2\nscheme DEL\ntechnique in-place\nw 5\nn 2\nday 5\nslot 1 1,2\nslot 2 3,4,5\n");
      ("case-mangled header", "Wave-Manifest V1\nscheme DEL\ntechnique in-place\nw 5\nn 2\nday 5\nslot 1 1,2\nslot 2 3,4,5\n");
      ("unknown scheme", String.concat "\n" [ "wave-manifest v1"; "scheme BTREE"; "technique in-place"; "w 5"; "n 2"; "day 5"; "slot 1 1,2"; "slot 2 3,4,5"; "" ]);
      ("unknown technique", base "copy-on-write");
      ("garbled day set: letters", "wave-manifest v1\nscheme DEL\ntechnique in-place\nw 5\nn 2\nday 5\nslot 1 1,x\nslot 2 3,4,5\n");
      ("garbled day set: empty element", "wave-manifest v1\nscheme DEL\ntechnique in-place\nw 5\nn 2\nday 5\nslot 1 1,,2\nslot 2 3,4,5\n");
      ("slot line with extra tokens", "wave-manifest v1\nscheme DEL\ntechnique in-place\nw 5\nn 2\nday 5\nslot 1 1,2 junk\nslot 2 3,4,5\n");
      ("too many slots", "wave-manifest v1\nscheme DEL\ntechnique in-place\nw 5\nn 2\nday 5\nslot 1 1,2\nslot 2 3,4\nslot 3 5\n");
      ("missing day", "wave-manifest v1\nscheme DEL\ntechnique in-place\nw 5\nn 2\nslot 1 1,2\nslot 2 3,4,5\n");
      ("float geometry", "wave-manifest v1\nscheme DEL\ntechnique in-place\nw 5.5\nn 2\nday 5\nslot 1 1,2\nslot 2 3,4,5\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      match Manifest.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted" name)
    corpus;
  (* and the happy path still parses, so the corpus is near-miss *)
  match Manifest.of_string (base "in-place") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "baseline rejected: %s" e

let prop_manifest_parser_total =
  QCheck2.Test.make ~name:"manifest parser never raises on garbage" ~count:300
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun s ->
      match Manifest.of_string s with Ok _ | Error _ -> true)

(* --- File store ------------------------------------------------------ *)

let test_file_store_roundtrip () =
  let dir = Filename.temp_file "wave" "" in
  Sys.remove dir;
  Wave_workload.File_store.export ~dir ~store ~days:[ 1; 2; 3; 5 ];
  Alcotest.(check (list int)) "available" [ 1; 2; 3; 5 ]
    (Wave_workload.File_store.available_days ~dir);
  let fs = Wave_workload.File_store.store ~dir () in
  for d = 1 to 3 do
    let a = store d and b = fs d in
    Alcotest.(check int)
      (Printf.sprintf "day %d size" d)
      (Entry.batch_size a) (Entry.batch_size b)
  done;
  (* a wave can run directly off the files *)
  Wave_workload.File_store.export ~dir ~store ~days:(List.init 20 (fun i -> i + 1));
  let env = Env.create ~store:(Wave_workload.File_store.store ~dir ()) ~w:5 ~n:2 () in
  let s = Scheme.start Scheme.Del env in
  Scheme.advance_to s 15;
  Scheme.check_window_invariant s;
  (* missing day raises *)
  let fs = Wave_workload.File_store.store ~dir () in
  Alcotest.(check bool) "missing day raises" true
    (try
       ignore (fs 99);
       false
     with Failure _ -> true)

let test_file_store_rejects_corruption () =
  let dir = Filename.temp_file "wave" "" in
  Sys.remove dir;
  Wave_workload.File_store.export ~dir ~store ~days:[ 4 ];
  let path = Filename.concat dir (Wave_workload.File_store.day_filename 4) in
  let oc = open_out_bin path in
  output_string oc "WVB1 garbage";
  close_out oc;
  let fs = Wave_workload.File_store.store ~dir () in
  Alcotest.(check bool) "corrupt file rejected" true
    (try
       ignore (fs 4);
       false
     with Failure _ -> true)

let test_file_store_bounded_cache () =
  let dir = Filename.temp_file "wave" "" in
  Sys.remove dir;
  Wave_workload.File_store.export ~dir ~store ~days:[ 1; 2; 3 ];
  Alcotest.(check bool) "cache_days must be positive" true
    (try
       let (_ : Wave_core.Env.day_store) =
         Wave_workload.File_store.store ~cache_days:0 ~dir ()
       in
       false
     with Invalid_argument _ -> true);
  let fs = Wave_workload.File_store.store ~cache_days:2 ~dir () in
  ignore (fs 1);
  ignore (fs 2);
  ignore (fs 3);
  (* Capacity 2, LRU: day 1 was evicted; 2 and 3 are cached.  Deleting
     the backing files makes residency observable — cached days still
     answer, the evicted one must re-read and fails. *)
  List.iter
    (fun d ->
      Sys.remove (Filename.concat dir (Wave_workload.File_store.day_filename d)))
    [ 1; 2; 3 ];
  Alcotest.(check int) "day 3 served from cache" (Entry.batch_size (store 3))
    (Entry.batch_size (fs 3));
  Alcotest.(check int) "day 2 served from cache" (Entry.batch_size (store 2))
    (Entry.batch_size (fs 2));
  Alcotest.(check bool) "day 1 was evicted" true
    (try
       ignore (fs 1);
       false
     with Failure _ -> true);
  (* Day 2 was touched last, so filling the cache now evicts day 3. *)
  Wave_workload.File_store.export ~dir ~store ~days:[ 4 ];
  ignore (fs 4);
  Sys.remove (Filename.concat dir (Wave_workload.File_store.day_filename 4));
  Alcotest.(check int) "day 2 still cached (recency)"
    (Entry.batch_size (store 2))
    (Entry.batch_size (fs 2));
  Alcotest.(check bool) "day 3 evicted as LRU victim" true
    (try
       ignore (fs 3);
       false
     with Failure _ -> true)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "storage.codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "empty" `Quick test_codec_empty;
        Alcotest.test_case "negative day" `Quick test_codec_negative_day;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "corruption diagnostics" `Quick test_codec_diagnostics;
        Alcotest.test_case "crc catches transposition" `Quick
          test_codec_crc_catches_transposition;
        Alcotest.test_case "batch list" `Quick test_codec_batches;
      ]
      @ qcheck [ prop_codec_roundtrip; prop_codec_never_crashes_on_garbage ] );
    ( "core.manifest",
      [
        Alcotest.test_case "roundtrip" `Quick test_manifest_roundtrip;
        Alcotest.test_case "bad inputs" `Quick test_manifest_bad_inputs;
        Alcotest.test_case "bad corpus" `Quick test_manifest_bad_corpus;
      ]
      @ qcheck
          [
            prop_manifest_roundtrip_random;
            prop_manifest_parser_total;
          ] );
    ( "workload.file_store",
      [
        Alcotest.test_case "roundtrip" `Quick test_file_store_roundtrip;
        Alcotest.test_case "rejects corruption" `Quick
          test_file_store_rejects_corruption;
        Alcotest.test_case "bounded LRU day cache" `Quick
          test_file_store_bounded_cache;
      ] );
  ]


