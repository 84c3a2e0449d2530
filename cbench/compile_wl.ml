(* The [suite] and [colony] workloads: one operation is one region
   compiled through the executor's job path, in job order, with a fresh
   analysis cache per round. *)

open Common

type input = {
  cfg : Pipeline.Compile.config;
  backend : string;  (** the dispatched backend *)
  jobs : Pipeline.Executor.job array;
  warm : (int * string) list;  (** job index and report digest of the warm-up compiles *)
}

let config ~backend seed =
  {
    (Pipeline.Compile.make_config ~dispatch:(Engine.Dispatch.Fixed backend) ()) with
    Pipeline.Compile.run_sequential = false;
    seq_seed = 101 + seed;
    par_seed = 202 + seed;
  }

(* The untimed warm-up: registration, the domain pool and the arena/Fmat
   pools see their first use here, on a few cheap jobs. *)
let warm_up cfg jobs indices =
  let cache = Pipeline.Analysis.create () in
  List.map
    (fun i ->
      (i, Pipeline.Report_digest.digest_region (Pipeline.Executor.run_job ~cache cfg jobs.(i))))
    indices

let smallest k jobs =
  Array.to_list (Array.mapi (fun i (j : Pipeline.Executor.job) -> (Ir.Region.size j.Pipeline.Executor.j_region, i)) jobs)
  |> List.sort compare
  |> List.filteri (fun r _ -> r < k)
  |> List.map snd

(* [suite]: the bench-scale rocPRIM facsimile in suite order — exactly
   [Executor.run_suite ~jobs:1] — on the product dispatch. The suite is
   the fixed bench-scale one; the seed drives the colonies' random
   streams. *)
let suite ~short seed =
  let cfg = config ~backend:"par" seed in
  let scale = if short then Workload.Suite.test_scale else Workload.Suite.bench_scale in
  let jobs = Pipeline.Executor.jobs_of_suite cfg (Workload.Suite.generate scale) in
  let jobs = if short then Array.sub jobs 0 (min 12 (Array.length jobs)) else jobs in
  { cfg; backend = "par"; jobs; warm = warm_up cfg jobs (smallest (if short then 2 else 16) jobs) }

(* Bench-scale generator seeds the colony pool is drawn from. *)
let colony_suites = [ 906; 907; 908 ]

(* [colony]: every region of 50–200 instructions of three bench-scale
   suites, compiled by the CPU colony. *)
let colony ~short seed =
  let cfg = config ~backend:"seq" seed in
  let regions =
    List.concat_map
      (fun gen ->
        let suite = Workload.Suite.generate { Workload.Suite.bench_scale with Workload.Suite.seed = gen } in
        List.concat_map
          (fun (k : Workload.Suite.kernel) ->
            List.filteri (fun _ (_, r) -> let n = Ir.Region.size r in n >= 50 && n <= 200)
              (List.mapi (fun i r -> (Printf.sprintf "%s/r%d@%d" k.Workload.Suite.kernel_name i gen, r)) k.Workload.Suite.regions))
          suite.Workload.Suite.kernels)
      colony_suites
  in
  let jobs =
    Array.of_list
      (List.mapi
         (fun i (name, region) ->
           {
             Pipeline.Executor.j_index = i;
             j_kernel = 0;
             j_name = name;
             j_region = region;
             j_budget_ns = Pipeline.Robust.budget_for cfg.Pipeline.Compile.robust ~n:(Ir.Region.size region);
             j_seq_seed = cfg.Pipeline.Compile.seq_seed;
             j_par_seed = cfg.Pipeline.Compile.par_seed;
           })
         regions)
  in
  let jobs = if short then Array.of_list (List.map (fun i -> jobs.(i)) (List.sort compare (smallest 3 jobs))) else jobs in
  { cfg; backend = "seq"; jobs; warm = warm_up cfg jobs (smallest (if short then 1 else 2) jobs) }

(* --- rounds ------------------------------------------------------------- *)

type outcome = (Pipeline.Compile.region_report, string) result

type data = {
  outs : outcome array;
  layers : (string * float) list;  (** traced rounds: per-layer ms *)
  hit_ratio : float;
  reuse_ratio : float;
}

let untraced_round input _ =
  let cache = Pipeline.Analysis.create () in
  let n = Array.length input.jobs in
  let latencies = Array.make n 0.0 and outs = Array.make n (Error "not run") in
  let t0 = now () in
  Array.iteri
    (fun i job ->
      let s = now () in
      outs.(i) <- (try Ok (Pipeline.Executor.run_job ~cache input.cfg job) with e -> Error (Printexc.to_string e));
      latencies.(i) <- now () -. s)
    input.jobs;
  let wall = now () -. t0 in
  { wall; latencies; data = { outs; layers = []; hit_ratio = 0.0; reuse_ratio = 0.0 } }

(* The layers a traced round's wall time is split into. *)
let round_layers =
  [ "analysis.ms"; "compile.self_ms"; "report.digest_ms"; "sched.validate_ms" ] @ Layers.backend_layers

(* The same compiles as [untraced_round], decomposed: the analysis lookup
   [Executor.run_job] makes, then [Compile.run_region] on its result
   through the timing wrapper, then the report digest and a re-validation
   of the shipped schedule. *)
let traced_round input _ =
  Layers.reset ();
  let cache = Pipeline.Analysis.create () in
  let cfg = { input.cfg with Pipeline.Compile.dispatch = Engine.Dispatch.Fixed (Layers.timed_name input.backend) } in
  let n = Array.length input.jobs in
  let latencies = Array.make n 0.0 and outs = Array.make n (Error "not run") in
  let takes0, reuses0 = Probes.pool_counters () in
  let compile (j : Pipeline.Executor.job) =
    let rc =
      Layers.time "analysis.ms" (fun () -> Pipeline.Analysis.get cache cfg.Pipeline.Compile.occ j.Pipeline.Executor.j_region)
    in
    (* The wrapper is not named "seq", so it draws the parallel seed. *)
    let cfg =
      {
        cfg with
        Pipeline.Compile.seq_seed = j.Pipeline.Executor.j_seq_seed;
        par_seed = (if input.backend = "seq" then j.Pipeline.Executor.j_seq_seed else j.Pipeline.Executor.j_par_seed);
      }
    in
    let b0 = Layers.backend_ms () and c0 = now () in
    let r =
      Pipeline.Compile.run_region ~ctx:rc ~budget_ns:j.Pipeline.Executor.j_budget_ns cfg
        ~name:j.Pipeline.Executor.j_name j.Pipeline.Executor.j_region
    in
    Layers.add "compile.self_ms" (((now () -. c0) *. 1000.0) -. (Layers.backend_ms () -. b0));
    let r = Layers.untimed r in
    ignore (Layers.time "report.digest_ms" (fun () -> Pipeline.Report_digest.digest_region r));
    let shipped = (Pipeline.Compile.product_run r).Pipeline.Compile.result.Engine.Types.schedule in
    ignore (Layers.time "sched.validate_ms" (fun () -> Sched.Schedule.validate shipped ~latency_aware:true));
    r
  in
  let t0 = now () in
  Array.iteri
    (fun i job ->
      let s = now () in
      outs.(i) <- (try Ok (compile job) with e -> Error (Printexc.to_string e));
      latencies.(i) <- now () -. s)
    input.jobs;
  let wall = now () -. t0 in
  let takes1, reuses1 = Probes.pool_counters () in
  let layers = List.map (fun l -> (l, Layers.ms l)) round_layers in
  {
    wall;
    latencies;
    data =
      {
        outs;
        layers;
        hit_ratio = Pipeline.Analysis.hit_rate (Pipeline.Analysis.stats cache);
        reuse_ratio = Probes.ratio (reuses1 - reuses0) (takes1 - takes0);
      };
  }

(* --- checks ------------------------------------------------------------- *)

(* What a round leaves once its reports are checked and dropped. *)
type summary = {
  cycles : int;
  occupancy : float;  (** mean over successful operations *)
  sim_ms : float;
  aco : Probes.aco;
  layers : (string * float) list;
  hit_ratio : float;
  reuse_ratio : float;
}

let ( let* ) = Result.bind

(* Check every operation of a round and fold its figures. [reference]
   holds each operation's digest from the first round (filled by it), so
   later rounds — traced ones included — must reproduce it exactly. *)
let check_round input tally reference (round : data round) =
  let occ = input.cfg.Pipeline.Compile.occ in
  let cycles = ref 0 and occ_sum = ref 0 and ok = ref 0 and sim = ref 0.0 and aco = ref Probes.aco_zero in
  Array.iteri
    (fun i out ->
      let job = input.jobs.(i) in
      record tally ~op:job.Pipeline.Executor.j_name
        (exn_verdict (fun () ->
             let* r = out in
             let* () = Checker.check_report occ job.Pipeline.Executor.j_region r in
             let digest = Pipeline.Report_digest.digest_region r in
             let* () =
               match reference.(i) with
               | None ->
                   reference.(i) <- Some digest;
                   Ok ()
               | Some d when d = digest -> Ok ()
               | Some _ -> Error "report differs from the first round's"
             in
             let* () =
               match List.assoc_opt i input.warm with
               | Some d when d <> digest -> Error "report differs from the warm-up's"
               | _ -> Ok ()
             in
             let p = Pipeline.Compile.product_run r in
             cycles := !cycles + r.Pipeline.Compile.aco_cost.Sched.Cost.length;
             occ_sum := !occ_sum + r.Pipeline.Compile.aco_cost.Sched.Cost.rp.Sched.Cost.occupancy;
             incr ok;
             sim := !sim +. ((p.Pipeline.Compile.run_pass1_time_ns +. p.Pipeline.Compile.run_pass2_time_ns) /. 1e6);
             aco := Probes.aco_add !aco r;
             Ok ())))
    round.data.outs;
  {
    round with
    data =
      {
        cycles = !cycles;
        occupancy = float_of_int !occ_sum /. float_of_int (max 1 !ok);
        sim_ms = !sim;
        aco = !aco;
        layers = round.data.layers;
        hit_ratio = round.data.hit_ratio;
        reuse_ratio = round.data.reuse_ratio;
      };
  }

(* Checker self-test material: a few reports the checker accepts, with
   their regions. *)
let self_test_cases input (round : data round) =
  let occ = input.cfg.Pipeline.Compile.occ in
  let cases = ref [] in
  Array.iteri
    (fun i out ->
      let region = input.jobs.(i).Pipeline.Executor.j_region in
      match out with
      | Ok r when List.length !cases < 8 && Ir.Region.size region >= 2 && Checker.check_report occ region r = Ok () ->
          cases := (region, r) :: !cases
      | _ -> ())
    round.data.outs;
  List.rev !cases

(* Per-layer probes after the traced rounds. *)
let probes input =
  Layers.reset ();
  let regions = Array.to_list (Array.map (fun (j : Pipeline.Executor.job) -> j.Pipeline.Executor.j_region) input.jobs) in
  Probes.analysis input.cfg.Pipeline.Compile.occ regions;
  Probes.parse (List.map Ir.Parse.region_to_wire regions);
  let sample = List.filteri (fun i _ -> i < 8) regions in
  let traced = { input.cfg with Pipeline.Compile.dispatch = Engine.Dispatch.Fixed (Layers.timed_name input.backend) } in
  let traced =
    if input.backend = "seq" then { traced with Pipeline.Compile.par_seed = traced.Pipeline.Compile.seq_seed } else traced
  in
  let memo_hit_ratio = Probes.serve traced sample in
  let names =
    [ "ddg.build_ms"; "ddg.closure_ms"; "ddg.critpath_ms"; "ddg.bounds_ms"; "sched.heuristic_ms"; "sched.rp_layout_ms";
      "ir.parse_ms"; "serve.handle_ms"; "serve.process_ms" ]
  in
  (List.map (fun l -> (l, Layers.ms l)) names, memo_hit_ratio)
