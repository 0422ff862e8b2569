type token = { word : string; offset : int }

let stopword_list =
  [
    "a"; "an"; "and"; "are"; "as"; "at"; "be"; "but"; "by"; "for"; "from";
    "has"; "he"; "in"; "is"; "it"; "its"; "of"; "on"; "or"; "that"; "the";
    "this"; "to"; "was"; "we"; "were"; "will"; "with"; "you"; "not"; "have";
    "had"; "his"; "her"; "she"; "they"; "them"; "their"; "i"; "my"; "me";
  ]

let stopword_set = Hashtbl.create 64

let () = List.iter (fun w -> Hashtbl.replace stopword_set w ()) stopword_list

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '\''

let tokens ?(min_length = 2) ?(stopwords = true) text =
  let n = String.length text in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_word_char text.[!i] then begin
      let start = !i in
      while !i < n && is_word_char text.[!i] do
        incr i
      done;
      (* trim edge apostrophes *)
      let lo = ref start and hi = ref !i in
      while !lo < !hi && text.[!lo] = '\'' do
        incr lo
      done;
      while !hi > !lo && text.[!hi - 1] = '\'' do
        decr hi
      done;
      let w = String.lowercase_ascii (String.sub text !lo (!hi - !lo)) in
      if
        String.length w >= min_length
        && ((not stopwords) || not (Hashtbl.mem stopword_set w))
      then out := { word = w; offset = !lo } :: !out
    end
    else incr i
  done;
  List.rev !out

let distinct_words ?min_length ?stopwords text =
  tokens ?min_length ?stopwords text
  |> List.map (fun t -> t.word)
  |> List.sort_uniq String.compare
