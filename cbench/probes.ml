(* Layer probes of a traced run: timed calls into the public functions of
   one layer, made after the traced rounds on the same inputs. They
   attribute time inside a layer the rounds can only time as a whole
   (the analysis breakdown) or that a workload does not exercise on its
   own path (ingest parsing, the serve loop). Their time is not part of
   any round's wall. *)

(* The analysis of each structurally distinct region, split into the
   steps [Engine.Region_ctx.of_region] is made of. *)
let analysis occ regions =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun region ->
      let key = Engine.Region_ctx.fingerprint_of_region region in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        let g = Layers.time "ddg.build_ms" (fun () -> Ddg.Graph.build region) in
        let closure = Layers.time "ddg.closure_ms" (fun () -> Ddg.Closure.compute g) in
        ignore (Layers.time "ddg.critpath_ms" (fun () -> Ddg.Critpath.compute g));
        Layers.time "ddg.bounds_ms" (fun () ->
            ignore (Ddg.Lower_bounds.schedule_length g);
            ignore (Ddg.Lower_bounds.register_pressure g Ir.Reg.Vgpr);
            ignore (Ddg.Lower_bounds.register_pressure g Ir.Reg.Sgpr));
        ignore (Layers.time "sched.heuristic_ms" (fun () -> Sched.Amd_scheduler.run occ g));
        ignore (Layers.time "sched.rp_layout_ms" (fun () -> Sched.Rp_tracker.layout_of_graph ~closure g))
      end)
    regions

(* Parse the wire form of each region, as the serve loop ingests inline
   requests. *)
let parse texts =
  List.iter
    (fun text ->
      match Layers.time "ir.parse_ms" (fun () -> Ir.Parse.region_of_string text) with
      | Ok _ -> ()
      | Error e -> failwith ("wire text does not parse: " ^ Ir.Parse.error_to_string e))
    texts

let inline_payload ~id text = Printf.sprintf "op=compile id=%s\n%s" id text

(* A short closed-loop serve session over [regions], each sent twice (the
   repeat is a memo hit): the serve ingest layer on this workload's
   regions. Returns the memo hit ratio. *)
let serve (compile : Pipeline.Compile.config) regions =
  let replies = ref 0 in
  let srv =
    Pipeline.Serve.create ~on_reply:(fun _ -> incr replies) (Pipeline.Serve.default_config compile)
  in
  let payloads = List.mapi (fun i r -> inline_payload ~id:(Printf.sprintf "p%d" i) (Ir.Parse.region_to_wire r)) regions in
  List.iter
    (fun p ->
      Layers.time "serve.handle_ms" (fun () -> Pipeline.Serve.handle srv p);
      ignore (Layers.time "serve.process_ms" (fun () -> Pipeline.Serve.process srv)))
    (payloads @ payloads);
  if !replies <> 2 * List.length regions then failwith "serve probe: a request went unanswered";
  let hits, misses, _ = Pipeline.Serve.memo_stats srv in
  float_of_int hits /. float_of_int (max 1 (hits + misses))

(* Arena and Fmat pool traffic: (takes, reuses), process-wide. *)
let pool_counters () =
  ( Support.Arena.takes () + Support.Fmat.takes (),
    Support.Arena.reuses () + Support.Fmat.reuses () )

(* Sums over the product runs' two passes. The GPU-model colony meters
   its ant construction steps; the CPU colony does not, and each of its
   simulated ants is counted as [n] steps, one per issued instruction
   (stall steps of latency-aware ants are not included). *)
type aco = {
  iterations : int;
  ant_steps : int;
  minor_words : float;
  scored : int;
  pruned : int;
  lockstep : int;
  serialized : int;
  single_path : int;
}

let aco_zero =
  { iterations = 0; ant_steps = 0; minor_words = 0.0; scored = 0; pruned = 0; lockstep = 0; serialized = 0; single_path = 0 }

let aco_add acc (r : Pipeline.Compile.region_report) =
  let res = (Pipeline.Compile.product_run r).Pipeline.Compile.result in
  List.fold_left
    (fun a (p : Engine.Types.pass_stats) ->
      {
        iterations = a.iterations + p.Engine.Types.iterations;
        ant_steps =
          (a.ant_steps
          +
          if p.Engine.Types.ant_steps > 0 then p.Engine.Types.ant_steps
          else p.Engine.Types.ants_simulated * r.Pipeline.Compile.n);
        minor_words = a.minor_words +. p.Engine.Types.minor_words;
        scored = a.scored + p.Engine.Types.scored_candidates;
        pruned = a.pruned + p.Engine.Types.pruned_candidates;
        lockstep = a.lockstep + p.Engine.Types.lockstep_steps;
        serialized = a.serialized + p.Engine.Types.serialized_ops;
        single_path = a.single_path + p.Engine.Types.single_path_ops;
      })
    acc
    [ res.Engine.Types.pass1; res.Engine.Types.pass2 ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The [aco.*] and [gpusim.*] metrics; [pass_ms] is the wall time the
   backends spent in their two passes over the same runs. *)
let aco_metrics (a : aco) ~pass_ms =
  let steps = float_of_int (max 1 a.ant_steps) in
  Common.
    [
      metric "aco.iterations" "count" (float_of_int a.iterations);
      metric "aco.ant_steps" "count" (float_of_int a.ant_steps);
      metric "aco.ns_per_ant_step" "ns" (pass_ms *. 1e6 /. steps);
      metric "aco.minor_words_per_ant_step" "words" (a.minor_words /. steps);
      metric "aco.scored" "count" (float_of_int a.scored);
      metric "aco.pruned" "count" (float_of_int a.pruned);
      metric "gpusim.lockstep_steps" "count" (float_of_int a.lockstep);
      metric "gpusim.divergence_efficiency" "ratio" (ratio a.single_path a.serialized);
    ]
