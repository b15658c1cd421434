(* A fork/join pool over OCaml 5 domains.  Deliberately minimal: one
   spawn per task per run, no work stealing, no shared queues — the
   bulk-validation workload is a handful of coarse shards, so spawn
   cost is noise and the absence of shared mutable state is the whole
   point.  Task 0 runs on the calling domain: [run tasks] with one
   task spawns nothing, and with [n] tasks uses [n - 1] fresh
   domains. *)

(* [shard n xs] splits [xs] into [n] contiguous runs whose lengths
   differ by at most one (the first [len mod n] runs get the extra
   element), preserving order.  Never returns an empty run for
   non-empty input with n <= len. *)
let shard n xs =
  let len = List.length xs in
  let n = max 1 (min n len) in
  let base = len / n and extra = len mod n in
  let rec take k xs =
    if k = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: tl ->
          let run, rest = take (k - 1) tl in
          (x :: run, rest)
  in
  let rec go i xs =
    if i = n then []
    else
      let k = base + if i < extra then 1 else 0 in
      let run, rest = take k xs in
      run :: go (i + 1) rest
  in
  go 0 xs

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

let run (tasks : (unit -> 'a) list) : 'a list =
  match tasks with
  | [] -> []
  | first :: rest ->
      let capture f = try Value (f ()) with
        | e -> Raised (e, Printexc.get_raw_backtrace ())
      in
      (* The runtime caps live domains (128 on OCaml 5.1, configurable
         from 5.2) and [Domain.spawn] fails with [Failure] past the
         cap.  Such a task runs on the calling domain after the head
         task instead, so the domains already spawned are still
         joined. *)
      let spawned =
        List.map
          (fun f ->
            match Domain.spawn (fun () -> capture f) with
            | d -> Either.Left d
            | exception Failure _ -> Either.Right f)
          rest
      in
      (* The caller works its own shard while the others run; capture
         its exception too so every domain is joined before anything
         re-raises. *)
      let head = capture first in
      let outcomes =
        head
        :: List.map (Either.fold ~left:Domain.join ~right:capture) spawned
      in
      List.map
        (function
          | Value v -> v
          | Raised (e, bt) -> Printexc.raise_with_backtrace e bt)
        outcomes
