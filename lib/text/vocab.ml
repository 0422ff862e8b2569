type t = {
  by_word : (string, int) Hashtbl.t;
  mutable by_id : string array; (* slot i holds the word for id i+1 *)
  mutable next : int;
}

let create () = { by_word = Hashtbl.create 1024; by_id = Array.make 1024 ""; next = 1 }

let size t = t.next - 1

let intern t w =
  match Hashtbl.find_opt t.by_word w with
  | Some id -> id
  | None ->
    let id = t.next in
    t.next <- id + 1;
    Hashtbl.add t.by_word w id;
    if id > Array.length t.by_id then begin
      let grown = Array.make (2 * Array.length t.by_id) "" in
      Array.blit t.by_id 0 grown 0 (Array.length t.by_id);
      t.by_id <- grown
    end;
    t.by_id.(id - 1) <- w;
    id

let find t w = Hashtbl.find_opt t.by_word w

let word_of t id =
  if id < 1 || id >= t.next then raise Not_found else t.by_id.(id - 1)
