type t = int array

type comparison = Equal | Dominates | Dominated | Concurrent

let create ~n =
  if n <= 0 then invalid_arg "Version_vector.create: dimension must be positive";
  Array.make n 0

let of_array a =
  Array.iter (fun v -> if v < 0 then invalid_arg "Version_vector.of_array: negative component") a;
  Array.copy a

let init n f =
  let t = Array.init n f in
  Array.iter (fun v -> if v < 0 then invalid_arg "Version_vector.init: negative component") t;
  t

let to_array t = Array.copy t

let copy t = Array.copy t

let dimension t = Array.length t

let get t j = t.(j)

let set t j v =
  if v < 0 then invalid_arg "Version_vector.set: negative component";
  t.(j) <- v

let incr t j = t.(j) <- t.(j) + 1

let check_dimensions a b =
  if Array.length a <> Array.length b then
    invalid_arg "Version_vector: dimension mismatch"

let merge_into t ~from =
  check_dimensions t from;
  for j = 0 to Array.length t - 1 do
    if from.(j) > t.(j) then t.(j) <- from.(j)
  done

let add_diff_into t ~newer ~older =
  check_dimensions t newer;
  check_dimensions t older;
  for l = 0 to Array.length t - 1 do
    let d = newer.(l) - older.(l) in
    if d < 0 then
      invalid_arg "Version_vector.add_diff_into: newer does not dominate older";
    t.(l) <- t.(l) + d
  done

(* Top-level worker (not a local closure — this path must not allocate;
   it runs on every adoption and every no-op session). Early exit: once
   components have been seen in both directions the verdict is
   Concurrent no matter what the remaining components say. *)
let rec compare_scan a b n j some_less some_greater =
  if j >= n then
    match (some_less, some_greater) with
    | false, false -> Equal
    | false, true -> Dominates
    | true, false -> Dominated
    | true, true -> Concurrent
  else
    let av = Array.unsafe_get a j and bv = Array.unsafe_get b j in
    if av < bv then
      if some_greater then Concurrent else compare_scan a b n (j + 1) true some_greater
    else if av > bv then
      if some_less then Concurrent else compare_scan a b n (j + 1) some_less true
    else compare_scan a b n (j + 1) some_less some_greater

let compare_vv a b =
  check_dimensions a b;
  compare_scan a b (Array.length a) 0 false false

let equal a b = compare_vv a b = Equal

let dominates_or_equal a b =
  match compare_vv a b with Equal | Dominates -> true | Dominated | Concurrent -> false

let strictly_dominates a b = compare_vv a b = Dominates

let concurrent a b = compare_vv a b = Concurrent

let sum t = Array.fold_left ( + ) 0 t

let extend t =
  let n = Array.length t in
  let r = Array.make (n + 1) 0 in
  Array.blit t 0 r 0 n;
  r

let remove_component t ~at =
  let n = Array.length t in
  if n <= 1 then invalid_arg "Version_vector.remove_component: dimension would be zero";
  if at < 0 || at >= n then
    invalid_arg
      (Printf.sprintf "Version_vector.remove_component: index %d out of bounds [0,%d)"
         at n);
  let r = Array.make (n - 1) 0 in
  Array.blit t 0 r 0 at;
  Array.blit t (at + 1) r at (n - 1 - at);
  r

(* Early exit: stop scanning as soon as a witness is known in each
   direction — later components cannot change the answer. Top-level for
   the same no-closure reason as [compare_scan]; witnesses are encoded
   as negative ints until found so the scan itself allocates nothing. *)
let rec conflict_scan a b n j less greater =
  if less >= 0 && greater >= 0 then Some (less, greater)
  else if j >= n then None
  else
    let av = Array.unsafe_get a j and bv = Array.unsafe_get b j in
    if av < bv && less < 0 then conflict_scan a b n (j + 1) j greater
    else if av > bv && greater < 0 then conflict_scan a b n (j + 1) less j
    else conflict_scan a b n (j + 1) less greater

let conflicting_components a b =
  check_dimensions a b;
  conflict_scan a b (Array.length a) 0 (-1) (-1)

let pp fmt t =
  Format.fprintf fmt "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
       Format.pp_print_int)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
