(* Per-layer wall-clock accumulators for traced rounds, and the timing
   backend wrapper that splits a colony run into its four phases.

   [Compile.run_region] re-registers the product backends on every call,
   so a wrapper cannot replace ["par"] or ["seq"] in the registry.
   Instead it is registered under its own name ([timed_name]) and a
   traced round dispatches to that name; the wrapper delegates every
   call to the real backend and only adds clock reads around them. The
   traced reports therefore differ from untraced ones only in the
   backend name, which {!untimed} maps back before digests are compared
   — the comparison is what proves the split timed the same work. *)

let now = Unix.gettimeofday

type t = { mutable ms : float }

let table : (string, t) Hashtbl.t = Hashtbl.create 32

let get name =
  match Hashtbl.find_opt table name with
  | Some t -> t
  | None ->
      let t = { ms = 0.0 } in
      Hashtbl.add table name t;
      t

let reset () = Hashtbl.iter (fun _ t -> t.ms <- 0.0) table
let ms name = (get name).ms
let add name v = (get name).ms <- (get name).ms +. v

(* [time name f]: run [f], charging its wall time to [name]. *)
let time name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add name ((now () -. t0) *. 1000.0)) f

let suffix = "+t"
let timed_name real = real ^ suffix

let backend_layers =
  [ "backend.prepare_ms"; "backend.pass1_ms"; "backend.pass2_ms"; "backend.teardown_ms" ]

let backend_ms () = List.fold_left (fun acc l -> acc +. ms l) 0.0 backend_layers

let register_timed real =
  Pipeline.Compile.ensure_backends ();
  let module B = (val Engine.Registry.find_exn real : Engine.Backend.S) in
  let module W = struct
    let name = timed_name real
    let caps = B.caps
    let objective = B.objective

    type state = B.state

    let prepare ctx rc = time "backend.prepare_ms" (fun () -> B.prepare ctx rc)
    let run_order_pass s r = time "backend.pass1_ms" (fun () -> B.run_order_pass s r)
    let run_schedule_pass s r = time "backend.pass2_ms" (fun () -> B.run_schedule_pass s r)
    let teardown s = time "backend.teardown_ms" (fun () -> B.teardown s)
  end in
  Engine.Registry.register (module W : Engine.Backend.S)

let real_name name =
  if String.ends_with ~suffix name then String.sub name 0 (String.length name - String.length suffix)
  else name

(* The report an untraced compile would have produced. *)
let untimed (r : Pipeline.Compile.region_report) =
  {
    r with
    Pipeline.Compile.product_backend = real_name r.Pipeline.Compile.product_backend;
    runs =
      List.map
        (fun (run : Pipeline.Compile.backend_run) ->
          { run with Pipeline.Compile.backend = real_name run.Pipeline.Compile.backend })
        r.Pipeline.Compile.runs;
  }
