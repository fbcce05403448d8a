(** The log vector [L_i]: one {!Log_component} per origin node
    (paper §4.2).

    Component [j] holds the records of updates originated at node [j]
    that node [i] knows about, in origin order, deduplicated to the
    latest record per item. *)

type t

val create : n:int -> unit -> t
(** [create ~n ()] is a log vector with [n] empty components. *)

val dimension : t -> int

val component : t -> int -> Log_component.t
(** [component t j] is [L_i[j]]. *)

val add : t -> origin:int -> item:string -> seq:int -> unit
(** [add t ~origin ~item ~seq] runs [AddLogRecord] on component
    [origin]. *)

val total_records : t -> int
(** [total_records t] is the number of retained records across all
    components — bounded by [n · N] (paper §4.2). *)

val check_invariants : t -> (unit, string) result
(** All components' invariants. *)
