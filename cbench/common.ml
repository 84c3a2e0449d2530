(* Shared plumbing: statistics over samples, per-op verdicts, and the
   metric record every workload reports. *)

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks (the numpy default). *)
let quantile q samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = quantile 0.5 samples

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
      | _ -> scan ()
      | exception End_of_file -> 0.0
    in
    scan ()
  with Sys_error _ -> 0.0

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* One timed round: its wall time and per-operation latencies, in
   seconds, plus whatever the workload records per round. *)
type 'a round = { wall : float; latencies : float array; data : 'a }

(* Failure bookkeeping across rounds: one verdict per attempted
   operation; a failing operation is reported once on stderr. *)
type tally = { mutable attempted : int; mutable failed : int; reported : (string, unit) Hashtbl.t }

let tally () = { attempted = 0; failed = 0; reported = Hashtbl.create 8 }

let record t ~op verdict =
  t.attempted <- t.attempted + 1;
  match verdict with
  | Ok () -> ()
  | Error why ->
      t.failed <- t.failed + 1;
      if not (Hashtbl.mem t.reported op) then begin
        Hashtbl.replace t.reported op ();
        Printf.eprintf "cbench: operation %s failed: %s\n%!" op why
      end

let exn_verdict f = try f () with e -> Error ("exception " ^ Printexc.to_string e)

(* Run rounds until their summed wall time reaches [seconds]: always at
   least [min_rounds] whole rounds, never a partial one. [round k]
   returns the round record. *)
let run_rounds ~seconds ~min_rounds round =
  let rec go k spent acc =
    if k >= min_rounds && spent >= seconds then List.rev acc
    else
      let r = round k in
      Printf.eprintf "cbench: round %d: %.3f s\n%!" k r.wall;
      go (k + 1) (spent +. r.wall) (r :: acc)
  in
  go 0 0.0 []
