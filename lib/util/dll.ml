(* A ring through a sentinel: [root.next] is the head, [root.prev] the
   tail, and an empty list is [root] linked to itself. Every link is a
   plain pointer, so no operation allocates an option box. A detached
   node is linked to itself too, which is how [remove] recognises a
   node that is already out. *)
type 'a node = { mutable value : 'a; mutable prev : 'a node; mutable next : 'a node }

type 'a t = { root : 'a node; mutable length : int }

let create placeholder =
  let rec root = { value = placeholder; prev = root; next = root } in
  { root; length = 0 }

let length t = t.length

let link_before anchor n =
  let p = anchor.prev in
  n.prev <- p;
  n.next <- anchor;
  p.next <- n;
  anchor.prev <- n

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let append t v =
  let rec n = { value = v; prev = n; next = n } in
  link_before t.root n;
  t.length <- t.length + 1;
  n

let remove t n =
  if n.next != n then begin
    unlink n;
    n.prev <- n;
    n.next <- n;
    t.length <- t.length - 1
  end

let move_to_back t n =
  if t.root.prev != n then begin
    unlink n;
    link_before t.root n
  end

let value n = n.value

let set_value n v = n.value <- v

let last_value t = t.root.prev.value

let fold_left f init t =
  let rec loop acc n = if n == t.root then acc else loop (f acc n.value) n.next in
  loop init t.root.next

(* Closed over nothing, so a call allocates only its cons cells. *)
let rec take_from p root acc n =
  if n != root && p n.value then take_from p root (n.value :: acc) n.prev else acc

let take_while_rev p t = take_from p t.root [] t.root.prev

let to_list t = take_while_rev (fun _ -> true) t
