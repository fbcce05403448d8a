type writer = { channel : out_channel; path : string }

let open_writer ~path =
  let channel = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  { channel; path }

module Fault = Edb_fault.Fault

(* Frames [record] with [sum], its Adler-32. *)
let write_frame ~flush w record sum =
  let header = Bytes.create 8 in
  Bytes.set_int64_le header 0 (Int64.of_int (String.length record));
  output_bytes w.channel header;
  if Fault.active "wal.append.partial" then begin
    (* Torn-write injection: flush the header plus half the payload so
       that much is on disk, then give the failpoint its chance to
       "crash". If it fires, the file ends in a torn tail exactly as a
       real mid-write power cut would leave it; if the trigger says not
       yet, finish the frame normally (a mid-frame flush is invisible). *)
    let half = String.length record / 2 in
    output_string w.channel (String.sub record 0 half);
    Stdlib.flush w.channel;
    Fault.hit "wal.append.partial";
    output_string w.channel (String.sub record half (String.length record - half))
  end
  else output_string w.channel record;
  let trailer = Bytes.create 4 in
  Bytes.set_int32_le trailer 0 (Int32.of_int sum);
  output_bytes w.channel trailer;
  if flush then Stdlib.flush w.channel

let append ?(flush = true) w record = write_frame ~flush w record (Codec.adler32 record)

(* A codec blob's last 4 bytes are the Adler-32 of the bytes before
   them, so the sum of the whole blob is that stored sum combined with
   the sum of the 4 trailer bytes: no pass over the payload. *)
let append_blob ?(flush = true) w blob =
  let body = String.length blob - 4 in
  if body < 0 then invalid_arg "Wal.append_blob: shorter than a codec trailer";
  let stored = Int32.to_int (String.get_int32_le blob body) land 0xFFFFFFFF in
  write_frame ~flush w blob
    (Codec.adler32_combine stored (Codec.adler32 ~off:body ~len:4 blob) 4)

(* Group commit: callers append several records with [~flush:false] and
   release the whole batch with one [sync]. Until the sync, the records
   live in the channel buffer only — a crash loses the unsynced suffix
   as if those appends never happened (each is a complete frame, so
   replay stops cleanly at the synced prefix, or at worst in the torn
   tail of the record being written when the crash hit the flush
   itself). *)
let sync w = Stdlib.flush w.channel

let close_writer w = close_out w.channel

type replay_result = { records : int; torn_tail : bool; intact : int }

(* Applies [f data ~off ~len ~body] to every intact frame, where [body]
   is the Adler-32 of the record's first [len - 4] bytes (its codec
   payload, when the record is a blob). The frame's own sum is derived
   from it, so each record is read once, and the verdicts are those of
   summing the whole record directly. *)
let scan ~path ~f =
  if not (Sys.file_exists path) then Ok { records = 0; torn_tail = false; intact = 0 }
  else
    match open_in_bin path with
    | exception Sys_error msg -> Error ("cannot open WAL: " ^ msg)
    | ic ->
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let limit = String.length data in
      (* A frame that runs off the end of the file is the torn tail of
         the last append — expected after a crash, everything before it
         is sound. A frame that is fully present but does not checksum
         (or claims an absurd length) is damage to data that was once
         durably written: silently dropping it, and everything after it,
         would un-acknowledge updates other replicas may already have
         observed, so that is a hard error. *)
      let rec loop pos count =
        if pos = limit then Ok { records = count; torn_tail = false; intact = pos }
        else if pos + 8 > limit then Ok { records = count; torn_tail = true; intact = pos }
        else
          let len = Int64.to_int (String.get_int64_le data pos) in
          if len < 0 then
            Error
              (Printf.sprintf
                 "WAL damaged: record %d at offset %d has negative length %d" count
                 pos len)
          else if len > limit - pos - 12 then
            (* Written so it cannot overflow ([pos + 8 + len + 4] wraps
               for a length near [max_int]), as in [Codec.Reader.need]. *)
            Ok { records = count; torn_tail = true; intact = pos }
          else
            let off = pos + 8 in
            let stored = Int32.to_int (String.get_int32_le data (off + len)) land 0xFFFFFFFF in
            let body_len = max 0 (len - 4) in
            let body = Codec.adler32 ~off ~len:body_len data in
            let frame =
              Codec.adler32_combine body
                (Codec.adler32 ~off:(off + body_len) ~len:(len - body_len) data)
                (len - body_len)
            in
            if stored <> frame then
              Error
                (Printf.sprintf
                   "WAL damaged: checksum mismatch in record %d at offset %d" count
                   pos)
            else begin
              f data ~off ~len ~body;
              loop (off + len + 4) (count + 1)
            end
      in
      loop 0 0

let replay ~path ~f = scan ~path ~f:(fun data ~off ~len ~body:_ -> f data ~off ~len)

let replay_blobs ~path ~f =
  scan ~path ~f:(fun data ~off ~len ~body ->
      let checksum ~off:o ~len:l =
        if o = off && l = len - 4 then body else Codec.adler32 ~off:o ~len:l data
      in
      f (Codec.Reader.create ~off ~len ~checksum data))

let reset ~path =
  let oc = open_out_gen [ Open_trunc; Open_creat; Open_binary ] 0o644 path in
  close_out oc
