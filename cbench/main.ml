(* cbench — the repository's compile benchmark.

     cbench --workload suite|colony|serve --seed N --seconds S --trace 0|1
     cbench --short

   One invocation runs one workload: it sets the workload up (timed
   several times; the median is [setup_s]), then runs whole rounds of
   identical operations until the rounds' wall time reaches [--seconds],
   checks every operation's output, and prints one JSON object as the
   last line of standard output. [--trace 0] reports the end-to-end
   metrics; [--trace 1] reports the per-layer ones. [--short] runs every
   workload on tiny inputs, plus the checker self-test, and exits non-zero
   on any failure. See README.md. *)

open Common

let setup_repeats = 5

(* Set the workload up [setup_repeats] times; keep the last instance and
   the median set-up time. *)
let setups make =
  let times, inputs =
    List.split
      (List.init setup_repeats (fun _ ->
           let t0 = now () in
           let input = make () in
           (now () -. t0, input)))
  in
  (median times, List.nth inputs (setup_repeats - 1))

type report = { correct : bool; tally : tally; metrics : metric list }

let latency_metrics rounds =
  let lat = List.concat_map (fun r -> Array.to_list (Array.map (fun s -> s *. 1000.0) r.latencies)) rounds in
  [ metric "op_p50_ms" "ms" (quantile 0.5 lat); metric "op_p90_ms" "ms" (quantile 0.9 lat) ]

let end_to_end ~setup_s rounds ~cycles ~occupancy ~sim_ms =
  [ metric "setup_s" "s" setup_s; metric "wall_s" "s" (median (List.map (fun r -> r.wall) rounds)) ]
  @ latency_metrics rounds
  @ [
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
      metric "sched_cycles" "cycles" (float_of_int cycles);
      metric "occupancy_mean" "waves" occupancy;
      metric "sim_compile_ms" "ms" sim_ms;
    ]

let layer_median rounds name = median (List.map (fun (layers, _) -> List.assoc name layers) rounds)

(* Per-layer metrics shared by every workload: [in_round] are the
   traced rounds' (layers, wall) pairs, [partition] the layers among them
   that split the round's wall time between them (the others nest inside
   one of these), [probes] the probe layers. *)
let layer_metrics ~in_round ~partition ~probes ~aco ~hit_ratio ~memo_ratio ~reuse_ratio =
  let names = List.map fst (fst (List.hd in_round)) in
  let ms name =
    match List.assoc_opt name probes with Some v -> v | None -> layer_median in_round name
  in
  let covered =
    median
      (List.map
         (fun (layers, wall) -> List.fold_left (fun a l -> a +. List.assoc l layers) 0.0 partition /. (wall *. 1000.0))
         in_round)
  in
  let timed =
    List.sort_uniq compare (names @ List.map fst probes @ Layers.backend_layers)
    |> List.map (fun name -> metric name "ms" (ms name))
  in
  timed
  @ Probes.aco_metrics aco ~pass_ms:(ms "backend.pass1_ms" +. ms "backend.pass2_ms")
  @ [
      metric "analysis.hit_ratio" "ratio" hit_ratio;
      metric "serve.memo_hit_ratio" "ratio" memo_ratio;
      metric "pool.reuse_ratio" "ratio" reuse_ratio;
      metric "trace.covered_share" "share" covered;
    ]

let self_test occ cases =
  match Checker.self_test occ cases with
  | [] -> true
  | failures ->
      List.iter (Printf.eprintf "cbench: checker self-test: %s\n%!") failures;
      false

(* --- suite and colony --------------------------------------------------- *)

let run_compile ~make ~seconds ~traced =
  let setup_s, input = setups make in
  let tally = tally () in
  let reference = Array.make (Array.length input.Compile_wl.jobs) None in
  let cases = ref [] in
  (* In a traced run the first round is an untraced reference: every
     traced round must reproduce its reports. *)
  let rounds =
    run_rounds ~seconds ~min_rounds:(if traced then 2 else 1) (fun k ->
        let r = if traced && k > 0 then Compile_wl.traced_round input k else Compile_wl.untraced_round input k in
        if k = 0 then cases := Compile_wl.self_test_cases input r;
        Compile_wl.check_round input tally reference r)
  in
  let ok = self_test input.Compile_wl.cfg.Pipeline.Compile.occ !cases in
  let s0 = (List.hd rounds).data in
  let metrics =
    if not traced then
      end_to_end ~setup_s rounds ~cycles:s0.Compile_wl.cycles ~occupancy:s0.Compile_wl.occupancy
        ~sim_ms:s0.Compile_wl.sim_ms
    else begin
      let traced_rounds = List.tl rounds in
      let probes, memo_ratio = Compile_wl.probes input in
      let field f = median (List.map (fun r -> f r.data) traced_rounds) in
      layer_metrics
        ~in_round:(List.map (fun r -> (r.data.Compile_wl.layers, r.wall)) traced_rounds)
        ~partition:Compile_wl.round_layers ~probes
        ~aco:(List.hd traced_rounds).data.Compile_wl.aco
        ~hit_ratio:(field (fun d -> d.Compile_wl.hit_ratio))
        ~memo_ratio
        ~reuse_ratio:(field (fun d -> d.Compile_wl.reuse_ratio))
    end
  in
  { correct = ok; tally; metrics }

(* --- serve ---------------------------------------------------------------- *)

let run_serve ~short ~seed ~seconds ~traced =
  let setup_s, input = setups (fun () -> Serve_wl.setup ~short seed) in
  let rounds =
    run_rounds ~seconds ~min_rounds:(if traced then 2 else 1) (fun k ->
        Serve_wl.round input ~traced:(traced && k > 0) k)
  in
  let direct = Serve_wl.direct_compiles input input.Serve_wl.compile ~traced:false in
  let probed = if traced then Some (Serve_wl.probes input) else None in
  (* The traced direct compiles must be the untraced ones under another
     backend name. *)
  let traced_direct =
    Option.map
      (fun (_, tdirect, _) ->
        Array.map2
          (fun t d ->
            match (t, d) with
            | Some (t : Serve_wl.direct), Some (d : Serve_wl.direct) ->
                if Pipeline.Report_digest.digest_region (Layers.untimed t.Serve_wl.report) = d.Serve_wl.digest then Some t
                else Some { t with Serve_wl.verdict = Error "traced compile differs from the untraced one" }
            | t, _ -> t)
          tdirect direct)
      probed
  in
  let tally = tally () in
  let reference = Array.make (Array.length input.Serve_wl.requests) None in
  let summaries =
    List.mapi
      (fun k r ->
        let d = match traced_direct with Some t when k > 0 -> t | _ -> direct in
        Serve_wl.check_round input tally d reference r)
      rounds
  in
  let ok = self_test input.Serve_wl.compile.Pipeline.Compile.occ (Serve_wl.self_test_cases input direct) in
  let s0 = List.hd summaries in
  let metrics =
    match probed with
    | None ->
        end_to_end ~setup_s rounds ~cycles:s0.Serve_wl.cycles ~occupancy:s0.Serve_wl.occupancy ~sim_ms:s0.Serve_wl.sim_ms
    | Some (probes, _, aco) ->
        let traced_rounds = List.tl rounds in
        let field f = median (List.map (fun r -> f r.data) traced_rounds) in
        layer_metrics
          ~in_round:(List.map (fun r -> (r.data.Serve_wl.layers, r.wall)) traced_rounds)
          ~partition:Serve_wl.partition ~probes ~aco
          ~hit_ratio:(field (fun d -> d.Serve_wl.hit_ratio))
          ~memo_ratio:(field (fun d -> d.Serve_wl.memo_ratio))
          ~reuse_ratio:(field (fun d -> d.Serve_wl.reuse_ratio))
  in
  { correct = ok; tally; metrics }

(* --- driver ----------------------------------------------------------------- *)

let workloads = [ "suite"; "colony"; "serve" ]

let run ~short ~workload ~seed ~seconds ~traced =
  List.iter Layers.register_timed [ "par"; "seq" ];
  match workload with
  | "suite" -> run_compile ~make:(fun () -> Compile_wl.suite ~short seed) ~seconds ~traced
  | "colony" -> run_compile ~make:(fun () -> Compile_wl.colony ~short seed) ~seconds ~traced
  | "serve" -> run_serve ~short ~seed ~seconds ~traced
  | w -> invalid_arg ("unknown workload " ^ w)

(* [--describe]: the make-up of a workload's inputs and where one
   untraced round's time goes, for the README's tables. *)
let describe ~short ~workload ~seed =
  let histogram sizes =
    let bins = [ (0, 11); (12, 23); (24, 49); (50, 99); (100, 199); (200, max_int) ] in
    String.concat ", "
      (List.map
         (fun (lo, hi) ->
           let c = List.length (List.filter (fun n -> n >= lo && n <= hi) sizes) in
           if hi = max_int then Printf.sprintf ">=%d: %d" lo c else Printf.sprintf "%d-%d: %d" lo hi c)
         bins)
  in
  Layers.register_timed "par";
  match workload with
  | "serve" ->
      let input = Serve_wl.build ~short seed in
      let reqs = Array.to_list input.Serve_wl.requests in
      let r = Serve_wl.round input ~traced:false 0 in
      let count p = List.length (List.filter p reqs) in
      Printf.printf "requests: %d (shape= %d, inline %d, label variants %d, repeats %d)\n" (List.length reqs)
        (count (fun q -> q.Serve_wl.inline = None))
        (count (fun q -> q.Serve_wl.inline <> None))
        (count (fun q -> q.Serve_wl.id.[0] = 'v'))
        (count (fun q -> q.Serve_wl.original <> None));
      Printf.printf "sizes: %s\n" (histogram (List.map (fun q -> Ir.Region.size q.Serve_wl.region) reqs));
      Printf.printf "memo hit share: %.3f, analysis hit share: %.3f, round wall %.3f s\n" r.data.Serve_wl.memo_ratio
        r.data.Serve_wl.hit_ratio r.wall
  | _ ->
      let input = if workload = "suite" then Compile_wl.suite ~short seed else Compile_wl.colony ~short seed in
      let r = Compile_wl.untraced_round input 0 in
      let sizes = Array.map (fun (j : Pipeline.Executor.job) -> Ir.Region.size j.Pipeline.Executor.j_region) input.Compile_wl.jobs in
      let big = ref 0.0 in
      Array.iteri (fun i n -> if n >= 200 then big := !big +. r.latencies.(i)) sizes;
      Printf.printf "regions: %d\nsizes: %s\n" (Array.length sizes) (histogram (Array.to_list sizes));
      Printf.printf "round wall %.3f s, share in regions of >=200 instructions: %.3f\n" r.wall (!big /. r.wall)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json (r : report) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.tally.attempted r.tally.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_number m.value) m.unit)
          r.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and short = ref false
  and describe_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME suite, colony or serve");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--short", Arg.Set short, " tiny inputs; with no --workload, every workload and the checker self-test");
      ("--describe", Arg.Set describe_only, " print the workload's input make-up and one round's time split");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "cbench --workload NAME --seed N --seconds S --trace 0|1 | cbench --short";
  if !workload = "" && !short then begin
    (* The benchmark's own test: every workload, traced and untraced, on
       tiny inputs, with the checker's self-test. *)
    let ok =
      List.for_all
        (fun w ->
          List.for_all
            (fun traced ->
              let r = run ~short:true ~workload:w ~seed:!seed ~seconds:0.0 ~traced in
              Printf.printf "%s trace=%b: %s\n%!" w traced (json r);
              r.correct && r.tally.failed = 0 && r.tally.attempted > 0)
            [ false; true ])
        workloads
    in
    exit (if ok then 0 else 1)
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline "cbench: --workload must be one of suite, colony, serve";
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "cbench: --trace must be 0 or 1";
    exit 2
  end;
  if !describe_only then begin
    describe ~short:!short ~workload:!workload ~seed:!seed;
    exit 0
  end;
  let r = run ~short:!short ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) in
  print_endline (json r)
