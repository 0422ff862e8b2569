(* Tests for the text-indexing layer (tokenizer, vocabulary, corpus
   bridge), the boolean query engine, and the contention model. *)

open Wave_core
open Wave_text

(* --- Tokenizer ----------------------------------------------------- *)

let words text = List.map (fun (t : Tokenizer.token) -> t.Tokenizer.word) (Tokenizer.tokens text)

let test_tokenizer_basic () =
  Alcotest.(check (list string)) "lowercase words"
    [ "hello"; "world" ]
    (words "Hello, WORLD!")

let test_tokenizer_offsets () =
  let toks = Tokenizer.tokens "foo bar" in
  Alcotest.(check (list (pair string int)))
    "offsets"
    [ ("foo", 0); ("bar", 4) ]
    (List.map (fun (t : Tokenizer.token) -> (t.Tokenizer.word, t.Tokenizer.offset)) toks)

let test_tokenizer_stopwords () =
  Alcotest.(check (list string)) "stopwords removed"
    [ "quick"; "fox" ]
    (words "the quick and the fox");
  Alcotest.(check bool) "stopwords kept when off" true
    (List.mem "the" (List.map (fun (t : Tokenizer.token) -> t.Tokenizer.word)
       (Tokenizer.tokens ~stopwords:false "the fox")))

let test_tokenizer_min_length () =
  Alcotest.(check (list string)) "short dropped" [ "ab"; "abc" ]
    (words "x ab abc");
  Alcotest.(check (list string)) "min 3" [ "abc" ]
    (List.map (fun (t : Tokenizer.token) -> t.Tokenizer.word)
       (Tokenizer.tokens ~min_length:3 "x ab abc"))

let test_tokenizer_apostrophes () =
  Alcotest.(check (list string)) "inner kept, edges trimmed"
    [ "don't"; "rock" ]
    (words "don't 'rock'")

let test_tokenizer_digits () =
  Alcotest.(check (list string)) "alphanumerics" [ "tpc"; "d99" ] (words "TPC! d99")

let test_distinct_words () =
  Alcotest.(check (list string)) "sorted distinct" [ "bar"; "foo" ]
    (Tokenizer.distinct_words "foo bar foo BAR")

(* --- Vocab --------------------------------------------------------- *)

let test_vocab_roundtrip () =
  let v = Vocab.create () in
  let a = Vocab.intern v "alpha" in
  let b = Vocab.intern v "beta" in
  Alcotest.(check int) "stable" a (Vocab.intern v "alpha");
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check string) "reverse" "beta" (Vocab.word_of v b);
  Alcotest.(check int) "size" 2 (Vocab.size v);
  Alcotest.(check (option int)) "find" (Some a) (Vocab.find v "alpha");
  Alcotest.(check (option int)) "miss" None (Vocab.find v "gamma")

let test_vocab_growth () =
  let v = Vocab.create () in
  for i = 1 to 5000 do
    ignore (Vocab.intern v (Printf.sprintf "w%d" i))
  done;
  Alcotest.(check int) "size 5000" 5000 (Vocab.size v);
  Alcotest.(check string) "deep reverse" "w3777" (Vocab.word_of v 3777);
  Alcotest.check_raises "unknown id" Not_found (fun () ->
      ignore (Vocab.word_of v 6000))

(* --- Corpus bridge -------------------------------------------------- *)

let test_index_documents () =
  let v = Vocab.create () in
  let batch =
    Corpus.index_documents v ~day:3
      [
        { Corpus.rid = 1; text = "copyright notice inside" };
        { Corpus.rid = 2; text = "notice notice notice" };
      ]
  in
  (* doc 1: 3 distinct words; doc 2: 1 distinct word *)
  Alcotest.(check int) "postings" 4 (Wave_storage.Entry.batch_size batch);
  Array.iter
    (fun (p : Wave_storage.Entry.posting) ->
      if p.Wave_storage.Entry.entry.Wave_storage.Entry.day <> 3 then
        Alcotest.fail "bad day")
    batch.Wave_storage.Entry.postings;
  (* the info field carries the first byte offset *)
  let notice_id = Option.get (Vocab.find v "notice") in
  let offsets =
    Array.to_list batch.Wave_storage.Entry.postings
    |> List.filter_map (fun (p : Wave_storage.Entry.posting) ->
           if p.Wave_storage.Entry.value = notice_id then
             Some
               ( p.Wave_storage.Entry.entry.Wave_storage.Entry.rid,
                 p.Wave_storage.Entry.entry.Wave_storage.Entry.info )
           else None)
  in
  Alcotest.(check (list (pair int int))) "first offsets" [ (1, 10); (2, 0) ] offsets

let test_article_generator () =
  let g = Corpus.generator ~seed:5 ~vocab_size:500 () in
  let a1 = Corpus.article g ~words:50 in
  Alcotest.(check bool) "nonempty" true (String.length a1 > 100);
  let toks = Tokenizer.tokens ~stopwords:false a1 in
  Alcotest.(check bool) "tokenises back" true (List.length toks >= 45);
  (* determinism across generators *)
  let g2 = Corpus.generator ~seed:5 ~vocab_size:500 () in
  Alcotest.(check string) "deterministic" a1 (Corpus.article g2 ~words:50);
  (* lexicon words are unique *)
  let lex = List.init 500 (fun i -> Corpus.lexicon_word g (i + 1)) in
  Alcotest.(check int) "unique lexicon" 500 (List.length (List.sort_uniq compare lex))

(* --- Query engine --------------------------------------------------- *)

(* store: day d has records 10d+1 (values {1,2}), 10d+2 (values {2,3}). *)
let qstore day =
  Wave_storage.Entry.batch_create ~day
    [|
      { Wave_storage.Entry.value = 1; entry = { Wave_storage.Entry.rid = (10 * day) + 1; day; info = 0 } };
      { Wave_storage.Entry.value = 2; entry = { Wave_storage.Entry.rid = (10 * day) + 1; day; info = 0 } };
      { Wave_storage.Entry.value = 2; entry = { Wave_storage.Entry.rid = (10 * day) + 2; day; info = 0 } };
      { Wave_storage.Entry.value = 3; entry = { Wave_storage.Entry.rid = (10 * day) + 2; day; info = 0 } };
    |]

let query_frame () =
  let env = Env.create ~store:qstore ~w:4 ~n:2 () in
  let s = Scheme.start Scheme.Del env in
  Scheme.advance_to s 8;
  s

let rids set = Query.Rid_set.elements set

let test_query_word () =
  let s = query_frame () in
  Alcotest.(check (list int)) "word 1" [ 51; 61; 71; 81 ]
    (rids (Query.eval_window s (Query.Word 1)))

let test_query_and () =
  let s = query_frame () in
  (* values 1 and 2 co-occur only in the x1 records *)
  Alcotest.(check (list int)) "1 AND 2" [ 51; 61; 71; 81 ]
    (rids (Query.eval_window s (Query.And [ Query.Word 1; Query.Word 2 ])));
  Alcotest.(check (list int)) "1 AND 3 empty" []
    (rids (Query.eval_window s (Query.And [ Query.Word 1; Query.Word 3 ])))

let test_query_or_diff () =
  let s = query_frame () in
  Alcotest.(check int) "1 OR 3 = all" 8
    (List.length (rids (Query.eval_window s (Query.Or [ Query.Word 1; Query.Word 3 ]))));
  Alcotest.(check (list int)) "2 \\ 1 = the x2 records" [ 52; 62; 72; 82 ]
    (rids (Query.eval_window s (Query.Diff (Query.Word 2, Query.Word 1))));
  Alcotest.(check (list int)) "Or [] empty" []
    (rids (Query.eval_window s (Query.Or [])))

let test_query_range_restricted () =
  let s = query_frame () in
  let r = Query.eval (Scheme.frame s) ~t1:7 ~t2:8 (Query.Word 2) in
  Alcotest.(check (list int)) "last two days only" [ 71; 72; 81; 82 ] (rids r)

let test_query_and_empty_invalid () =
  let s = query_frame () in
  Alcotest.check_raises "And []" (Invalid_argument "Query.eval: And []")
    (fun () -> ignore (Query.eval_window s (Query.And [])))

let test_query_words_and_pp () =
  let q =
    Query.Diff (Query.And [ Query.Word 3; Query.Or [ Query.Word 1; Query.Word 2 ] ], Query.Word 9)
  in
  Alcotest.(check (list int)) "words" [ 1; 2; 3; 9 ] (Query.words q);
  Alcotest.(check string) "pp" "((w3 AND (w1 OR w2)) \\ w9)"
    (Format.asprintf "%a" Query.pp q)

let test_query_probe_cost_shared () =
  (* Repeating a word in the expression must not probe it twice. *)
  let s = query_frame () in
  let env = Scheme.env s in
  let disk = env.Env.disk in
  Wave_disk.Disk.reset_counters disk;
  ignore (Query.eval_window s (Query.And [ Query.Word 1; Query.Word 1; Query.Word 1 ]));
  let once = (Wave_disk.Disk.counters disk).Wave_disk.Disk.seeks in
  Wave_disk.Disk.reset_counters disk;
  ignore (Query.eval_window s (Query.Word 1));
  let single = (Wave_disk.Disk.counters disk).Wave_disk.Disk.seeks in
  Alcotest.(check int) "memoised probes" single once

(* --- parse_query ----------------------------------------------------- *)

let test_parse_query () =
  let v = Vocab.create () in
  let _ = Vocab.intern v "copyright" and _ = Vocab.intern v "notice" in
  (match Corpus.parse_query v "Copyright -notice" with
  | Some (Query.Diff (Query.And [ Query.Word a ], Query.Or [ Query.Word b ])) ->
    Alcotest.(check (option int)) "pos" (Vocab.find v "copyright") (Some a);
    Alcotest.(check (option int)) "neg" (Vocab.find v "notice") (Some b)
  | _ -> Alcotest.fail "unexpected parse");
  Alcotest.(check bool) "unknown positive word -> None" true
    (Corpus.parse_query v "unseenword" = None);
  Alcotest.(check bool) "unknown negation dropped" true
    (match Corpus.parse_query v "copyright -unseen" with
    | Some (Query.And [ Query.Word _ ]) -> true
    | _ -> false);
  Alcotest.(check bool) "empty -> None" true (Corpus.parse_query v "" = None)

(* --- End-to-end text search ------------------------------------------ *)

let test_text_end_to_end () =
  let vocab = Vocab.create () in
  let gen = Corpus.generator ~seed:3 ~vocab_size:300 () in
  let store =
    let cache = Hashtbl.create 16 in
    fun day ->
      match Hashtbl.find_opt cache day with
      | Some b -> b
      | None ->
        let docs =
          List.init 5 (fun i ->
              { Corpus.rid = (day * 100) + i; text = Corpus.article gen ~words:40 })
        in
        let b = Corpus.index_documents vocab ~day docs in
        Hashtbl.add cache day b;
        b
  in
  let env = Env.create ~store ~technique:Env.Packed_shadow ~w:5 ~n:2 () in
  let s = Scheme.start Scheme.Reindex env in
  Scheme.advance_to s 12;
  Scheme.check_window_invariant s;
  (* The most frequent lexicon word should appear in most documents. *)
  let top = Corpus.lexicon_word gen 1 in
  match Corpus.parse_query vocab top with
  | None -> Alcotest.fail "top word unknown to vocab"
  | Some q ->
    let hits = Query.eval_window s q in
    Alcotest.(check bool)
      (Printf.sprintf "top word hits %d docs" (Query.Rid_set.cardinal hits))
      true
      (Query.Rid_set.cardinal hits > 10)

(* --- Contention ------------------------------------------------------ *)

let cstore day =
  Wave_storage.Entry.batch_create ~day
    (Array.init 40 (fun i ->
         {
           Wave_storage.Entry.value = 1 + (i mod 10);
           entry = { Wave_storage.Entry.rid = (day * 100) + i; day; info = 0 };
         }))

let test_contention_shadow_beats_inplace () =
  let measure technique =
    Wave_sim.Contention.measure ~day_seconds:10.0 ~scheme:Scheme.Del ~technique
      ~store:cstore ~w:6 ~n:2 ~days:12 ~queries_per_day:50 ()
  in
  let ip = measure Env.In_place in
  let ss = measure Env.Simple_shadow in
  Alcotest.(check bool)
    (Printf.sprintf "in-place wait %.4f > shadow wait %.4f"
       ip.Wave_sim.Contention.avg_wait_seconds ss.Wave_sim.Contention.avg_wait_seconds)
    true
    (ip.Wave_sim.Contention.avg_wait_seconds
    > ss.Wave_sim.Contention.avg_wait_seconds);
  Alcotest.(check bool) "in-place blocks someone" true
    (ip.Wave_sim.Contention.blocked_fraction > 0.0)

let test_contention_table () =
  let out =
    Wave_sim.Contention.compare_table ~day_seconds:10.0 ~scheme:Scheme.Del
      ~store:cstore ~w:6 ~n:2 ~days:6 ~queries_per_day:20 ()
  in
  Alcotest.(check bool) "renders" true (String.length out > 100)

let test_contention_validation () =
  Alcotest.check_raises "bad days"
    (Invalid_argument "Contention.measure: need positive days and queries")
    (fun () ->
      ignore
        (Wave_sim.Contention.measure ~scheme:Scheme.Del ~technique:Env.In_place
           ~store:cstore ~w:4 ~n:2 ~days:0 ~queries_per_day:1 ()))

let suites =
  [
    ( "text.tokenizer",
      [
        Alcotest.test_case "basic" `Quick test_tokenizer_basic;
        Alcotest.test_case "offsets" `Quick test_tokenizer_offsets;
        Alcotest.test_case "stopwords" `Quick test_tokenizer_stopwords;
        Alcotest.test_case "min length" `Quick test_tokenizer_min_length;
        Alcotest.test_case "apostrophes" `Quick test_tokenizer_apostrophes;
        Alcotest.test_case "digits" `Quick test_tokenizer_digits;
        Alcotest.test_case "distinct words" `Quick test_distinct_words;
      ] );
    ( "text.vocab",
      [
        Alcotest.test_case "roundtrip" `Quick test_vocab_roundtrip;
        Alcotest.test_case "growth" `Quick test_vocab_growth;
      ] );
    ( "text.corpus",
      [
        Alcotest.test_case "index documents" `Quick test_index_documents;
        Alcotest.test_case "article generator" `Quick test_article_generator;
        Alcotest.test_case "parse query" `Quick test_parse_query;
        Alcotest.test_case "end to end" `Quick test_text_end_to_end;
      ] );
    ( "core.query",
      [
        Alcotest.test_case "word" `Quick test_query_word;
        Alcotest.test_case "and" `Quick test_query_and;
        Alcotest.test_case "or/diff" `Quick test_query_or_diff;
        Alcotest.test_case "range restricted" `Quick test_query_range_restricted;
        Alcotest.test_case "And [] invalid" `Quick test_query_and_empty_invalid;
        Alcotest.test_case "words and pp" `Quick test_query_words_and_pp;
        Alcotest.test_case "probe cost shared" `Quick test_query_probe_cost_shared;
      ] );
    ( "sim.contention",
      [
        Alcotest.test_case "shadow beats in-place" `Quick
          test_contention_shadow_beats_inplace;
        Alcotest.test_case "table renders" `Quick test_contention_table;
        Alcotest.test_case "validation" `Quick test_contention_validation;
      ] );
  ]
