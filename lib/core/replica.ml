module Vv = Edb_vv.Version_vector
module Store = Edb_store.Store
module Item = Edb_store.Item
module Log_vector = Edb_log.Log_vector
module Aux_log = Edb_log.Aux_log

type t = {
  store : Store.t;
  dbvv : Vv.t;
  logs : Log_vector.t;
  aux_items : (string, Item.t) Hashtbl.t;
  aux_log : Aux_log.t;
  histories : (string, Edb_store.Item_history.t) Hashtbl.t;
}

let create ?items ?log_records ~n () =
  {
    store = Store.create ?capacity:items ~n ();
    dbvv = Vv.create ~n;
    logs = Log_vector.create ?capacities:log_records ~n ();
    aux_items = Hashtbl.create 8;
    aux_log = Aux_log.create ();
    histories = Hashtbl.create 8;
  }

let aux_count t = Hashtbl.length t.aux_items
