type t = Log_component.t array

let create ?capacities ~n () =
  if n <= 0 then invalid_arg "Log_vector.create: dimension must be positive";
  match capacities with
  | None -> Array.init n (fun _ -> Log_component.create ())
  | Some caps ->
    if Array.length caps <> n then invalid_arg "Log_vector.create: capacities dimension";
    Array.map (fun capacity -> Log_component.create ~capacity ()) caps

let dimension t = Array.length t

let component t j = t.(j)

let add t ~origin ~item ~seq = Log_component.add t.(origin) ~item ~seq

let total_records t =
  Array.fold_left (fun acc c -> acc + Log_component.length c) 0 t

let check_invariants t =
  let rec loop j =
    if j >= Array.length t then Ok ()
    else
      match Log_component.check_invariants t.(j) with
      | Ok () -> loop (j + 1)
      | Error msg -> Error (Printf.sprintf "component %d: %s" j msg)
  in
  loop 0
