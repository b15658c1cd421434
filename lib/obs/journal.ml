(* The flight recorder's writer: one minified JSON record per line,
   appended to FILE, with size-based rotation to FILE.1 — at most two
   generations on disk, so a long-lived daemon's post-mortem record is
   bounded while still covering a full window of recent history.

   Durability is deliberately two-tier: per-record writes are
   buffered + flushed (a crash loses at most the OS page cache, and a
   daemon crash — not a host crash — loses nothing), while rotation
   and shutdown fsync, so the completed generation and the final
   records of a clean termination are on the platter.  A torn last
   line after a power cut is expected and the replay reader skips
   it. *)

type t = {
  path : string;
  max_bytes : int;
  mutable oc : out_channel;
  mutable bytes : int;  (* bytes written to the current generation *)
}

let default_max_bytes = 1 lsl 20  (* 1 MiB per generation *)

let rotated_path path = path ^ ".1"

let open_gen path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let create ?(max_bytes = default_max_bytes) path =
  let oc = open_gen path in
  { path;
    max_bytes = max 1 max_bytes;
    oc;
    bytes = out_channel_length oc }

let fsync_oc oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error _ -> ()  (* e.g. journal on a pipe *)

let rotate t =
  (* The generation being retired is made durable before the rename:
     after a rotation, FILE.1 is always a complete, fsynced record. *)
  fsync_oc t.oc;
  close_out_noerr t.oc;
  (try Sys.rename t.path (rotated_path t.path)
   with Sys_error _ -> ());
  t.oc <- open_gen t.path;
  t.bytes <- 0

let record t j =
  let line = Json.to_string ~minify:true j ^ "\n" in
  output_string t.oc line;
  flush t.oc;
  t.bytes <- t.bytes + String.length line;
  if t.bytes >= t.max_bytes then rotate t

let close t =
  fsync_oc t.oc;
  close_out_noerr t.oc
