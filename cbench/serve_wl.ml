(* The [serve] workload: a closed loop with one client driving
   [Pipeline.Serve] without a pool. One operation is one request: its
   frame is decoded, handed to [Serve.handle], the service is pumped with
   [Serve.process] until the reply arrives, and the reply is rendered and
   framed — latency runs from the frame to the framed reply. *)

open Common

type request = {
  id : string;
  frame : string;  (** the request as framed wire bytes *)
  name : string;  (** the region name the service compiles under *)
  region : Ir.Region.t;  (** the region the service compiles *)
  inline : string option;  (** inline region text, for the parse probe *)
  original : int option;  (** for a repeat: the request it repeats *)
}

type input = { compile : Pipeline.Compile.config; requests : request array }

let min_n = 12
let max_n = 48

(* Size dial per family that lands closest to [target] instructions
   within [min_n, max_n]. Sizes depend on the dial, not on the generator
   seed, so the table is built at one seed. *)
let dial_table () =
  List.map
    (fun family ->
      ( family,
        List.filter_map
          (fun dial ->
            let n = Ir.Region.size (Option.get (Workload.Shapes.of_spec ~name:family ~size:dial ~seed:1)) in
            if n >= min_n && n <= max_n then Some (dial, n) else None)
          (List.init 63 (fun i -> i + 2)) ))
    Workload.Shapes.spec_names

let pick_dial table family target =
  match List.assoc family table with
  | [] -> invalid_arg ("serve workload: no size of " ^ family ^ " fits")
  | first :: rest ->
      fst
        (List.fold_left
           (fun (bd, bn) (d, n) -> if abs (n - target) < abs (bn - target) then (d, n) else (bd, bn))
           first rest)

let rename name (r : Ir.Region.t) =
  Ir.Region.create_exn ~name ~live_out:r.Ir.Region.live_out (Array.to_list r.Ir.Region.instrs)

(* Shares of a full round: distinct [shape=] requests, distinct inline
   ones, inline label-only variants of [shape=] requests (same structure,
   new name: an analysis-cache hit but a memo miss) and verbatim repeats
   (memo hits). The 300 distinct requests stay below the service's default
   memo and analysis-cache capacities (512), so no repeat is evicted
   before it is served. *)
let full_mix = (150, 120, 30, 100)
let short_mix = (5, 4, 2, 3)

let build ~short seed =
  let n_spec, n_inline, n_variant, n_repeat = if short then short_mix else full_mix in
  let rng = Support.Rng.create (7919 + seed) in
  let table = dial_table () in
  let families = Array.of_list Workload.Shapes.spec_names in
  let nf = Array.length families in
  (* Sizes are stratified: the [k]th request of a kind takes family
     [k mod nf] at the [k / nf]th step of an even ladder over
     [min_n, max_n], so every seed sends the same families at the same
     sizes; the seed picks the generator seeds and the request order. *)
  let target ~count k = min max_n (min_n + (k / nf * (max_n - min_n) / max 1 ((count - 1) / nf))) in
  let frame header body = Support.Frame.encode (if body = "" then header else header ^ "\n" ^ body) in
  let spec k =
    let family = families.(k mod nf) in
    let size = pick_dial table family (target ~count:n_spec k) and gen = Support.Rng.int rng 1_000_000 in
    let id = Printf.sprintf "s%d" k in
    {
      id;
      frame = frame (Printf.sprintf "op=compile id=%s shape=%s size=%d seed=%d" id family size gen) "";
      name = family;
      region = Option.get (Workload.Shapes.of_spec ~name:family ~size ~seed:gen);
      inline = None;
      original = None;
    }
  in
  let inline id region =
    let text = Ir.Parse.region_to_wire region in
    {
      id;
      frame = frame ("op=compile id=" ^ id) text;
      name = region.Ir.Region.name;
      region;
      inline = Some text;
      original = None;
    }
  in
  let specs = Array.init n_spec spec in
  let fresh =
    Array.init n_inline (fun k ->
        let family = families.((k + 3) mod nf) in
        let size = pick_dial table family (target ~count:n_inline k) and gen = Support.Rng.int rng 1_000_000 in
        let region = Option.get (Workload.Shapes.of_spec ~name:family ~size ~seed:gen) in
        inline (Printf.sprintf "i%d" k) (rename (Printf.sprintf "i%d-%s" k family) region))
  in
  let base = Array.append specs fresh in
  Support.Rng.shuffle rng base;
  (* Variants and repeats go after their original, at a random later
     position. *)
  let order = ref (Array.to_list base) in
  let insert_after orig_id r =
    let rec split i = function
      | [] -> invalid_arg "serve workload: original missing"
      | x :: rest when x.id = orig_id -> (i, x, rest)
      | _ :: rest -> split (i + 1) rest
    in
    let p, _, _ = split 0 !order in
    let len = List.length !order in
    let at = p + 1 + Support.Rng.int rng (len - p) in
    order := List.filteri (fun i _ -> i < at) !order @ (r :: List.filteri (fun i _ -> i >= at) !order)
  in
  for k = 0 to n_variant - 1 do
    let s = specs.(k * n_spec / n_variant) in
    insert_after s.id (inline (Printf.sprintf "v%d" k) (rename (Printf.sprintf "v%d-%s" k s.name) s.region))
  done;
  for k = 0 to n_repeat - 1 do
    let o = if k mod 2 = 0 then specs.(k / 2 * n_spec * 2 / n_repeat) else fresh.(k / 2 * n_inline * 2 / n_repeat) in
    insert_after o.id { o with id = o.id ^ "'" }
  done;
  (* Resolve repeat links to positions. *)
  let requests = Array.of_list !order in
  let pos = Hashtbl.create 256 in
  Array.iteri (fun i r -> if not (String.ends_with ~suffix:"'" r.id) then Hashtbl.replace pos r.id i) requests;
  let requests =
    Array.map
      (fun r ->
        if String.ends_with ~suffix:"'" r.id then
          { r with original = Some (Hashtbl.find pos (String.sub r.id 0 (String.length r.id - 1))) }
        else r)
      requests
  in
  let compile =
    { (Pipeline.Compile.make_config ()) with Pipeline.Compile.run_sequential = false; par_seed = 202 + seed }
  in
  { compile; requests }

let service_config compile = Pipeline.Serve.default_config compile
let traced_compile input = { input.compile with Pipeline.Compile.dispatch = Engine.Dispatch.Fixed (Layers.timed_name "par") }

(* The untimed warm-up: a throwaway service answers the first requests. *)
let warm_up input =
  let srv = Pipeline.Serve.create (service_config input.compile) in
  Array.iteri
    (fun i r ->
      if i < 8 then
        match Support.Frame.decode r.frame ~pos:0 with
        | Ok (payload, _) ->
            Pipeline.Serve.handle srv payload;
            ignore (Pipeline.Serve.process srv)
        | Error _ -> ())
    input.requests

let setup ~short seed =
  let input = build ~short seed in
  warm_up input;
  input

(* --- rounds ------------------------------------------------------------- *)

type data = {
  replies : (Pipeline.Serve.compile_reply, string) result array;
  layers : (string * float) list;
  hit_ratio : float;
  memo_ratio : float;
  reuse_ratio : float;
}

(* [partition] splits a traced round's wall; the backend phases nest
   inside [serve.process_ms]. *)
let partition = [ "serve.handle_ms"; "serve.process_ms" ]
let round_layers = partition @ Layers.backend_layers

let round input ~traced _ =
  Layers.reset ();
  let last = ref None in
  let compile = if traced then traced_compile input else input.compile in
  let srv = Pipeline.Serve.create ~on_reply:(fun r -> last := Some r) (service_config compile) in
  let timed name f = if traced then Layers.time name f else f () in
  let n = Array.length input.requests in
  let latencies = Array.make n 0.0 and replies = Array.make n (Error "no reply") in
  let takes0, reuses0 = Probes.pool_counters () in
  let t0 = now () in
  Array.iteri
    (fun i r ->
      let s = now () in
      last := None;
      timed "serve.handle_ms" (fun () ->
          match Support.Frame.decode r.frame ~pos:0 with
          | Ok (payload, _) -> Pipeline.Serve.handle srv payload
          | Error (`Error e) -> Pipeline.Serve.handle_frame_error srv e
          | Error `Need_more ->
              Pipeline.Serve.handle_frame_error srv (Support.Frame.Truncated { expected = 0; got = 0 }));
      let wire =
        timed "serve.process_ms" (fun () ->
            while Option.is_none !last && Pipeline.Serve.queue_depth srv > 0 do
              ignore (Pipeline.Serve.process srv)
            done;
            Option.map (fun reply -> (reply, Support.Frame.encode (Pipeline.Serve.render_reply reply))) !last)
      in
      latencies.(i) <- now () -. s;
      replies.(i) <-
        (match wire with
        | Some (Pipeline.Serve.Compiled c, _) -> Ok c
        | Some (reply, _) -> Error ("reply: " ^ Pipeline.Serve.render_reply reply)
        | None -> Error "no reply"))
    input.requests;
  let wall = now () -. t0 in
  let takes1, reuses1 = Probes.pool_counters () in
  let hits, misses, _ = Pipeline.Serve.memo_stats srv in
  {
    wall;
    latencies;
    data =
      {
        replies;
        layers = List.map (fun l -> (l, Layers.ms l)) round_layers;
        hit_ratio = Pipeline.Analysis.hit_rate (Pipeline.Serve.analysis_stats srv);
        memo_ratio = Probes.ratio hits (hits + misses);
        reuse_ratio = Probes.ratio (reuses1 - reuses0) (takes1 - takes0);
      };
  }

(* --- checks ------------------------------------------------------------- *)

(* A direct compile of every distinct request, outside any round, with
   the checker's verdict on its shipped schedule; [None] at repeats.
   Traced compiles also charge the compile, report and guard layers. *)
type direct = { report : Pipeline.Compile.region_report; digest : string; verdict : (unit, string) result }

let direct_compiles input compile ~traced =
  Array.map
    (fun r ->
      match r.original with
      | Some _ -> None
      | None ->
          let b0 = Layers.backend_ms () and c0 = now () in
          let report = Pipeline.Compile.run_region compile ~name:r.name r.region in
          if traced then Layers.add "compile.self_ms" (((now () -. c0) *. 1000.0) -. (Layers.backend_ms () -. b0));
          let digest =
            if traced then Layers.time "report.digest_ms" (fun () -> Pipeline.Report_digest.digest_region report)
            else Pipeline.Report_digest.digest_region report
          in
          if traced then begin
            let shipped = (Pipeline.Compile.product_run report).Pipeline.Compile.result.Engine.Types.schedule in
            ignore (Layers.time "sched.validate_ms" (fun () -> Sched.Schedule.validate shipped ~latency_aware:true))
          end;
          Some
            {
              report;
              digest;
              verdict = exn_verdict (fun () -> Checker.check_report compile.Pipeline.Compile.occ r.region report);
            })
    input.requests

type summary = { cycles : int; occupancy : float; sim_ms : float }

let ( let* ) = Result.bind

(* Check a round's replies against the direct compiles, against each
   repeat's original, and against the first round ([reference], filled
   by it): the same order and cost for every request. *)
let check_round input tally (direct : direct option array) reference (round : data round) =
  let cycles = ref 0 and occ_sum = ref 0 and ok = ref 0 and sim = ref 0.0 in
  Array.iteri
    (fun i reply ->
      let r = input.requests.(i) in
      let first = Option.value r.original ~default:i in
      record tally ~op:r.id
        (exn_verdict (fun () ->
             let* c = reply in
             let d = Option.get direct.(first) in
             let* () = d.verdict in
             let* () = if c.Pipeline.Serve.rep_memo = `Shed then Error "request shed" else Ok () in
             let* () =
               if c.Pipeline.Serve.rep_digest <> d.digest then Error "reply digest differs from a direct compile's"
               else if c.Pipeline.Serve.rep_order <> d.report.Pipeline.Compile.aco_order then
                 Error "reply order differs from a direct compile's"
               else if c.Pipeline.Serve.rep_cost <> d.report.Pipeline.Compile.aco_cost then
                 Error "reply cost differs from a direct compile's"
               else Ok ()
             in
             let* () =
               match round.data.replies.(first) with
               | Ok o when o.Pipeline.Serve.rep_order <> c.Pipeline.Serve.rep_order -> Error "repeat changed the order"
               | _ -> Ok ()
             in
             let* () =
               match reference.(i) with
               | None ->
                   reference.(i) <- Some (c.Pipeline.Serve.rep_order, c.Pipeline.Serve.rep_cost);
                   Ok ()
               | Some o when o = (c.Pipeline.Serve.rep_order, c.Pipeline.Serve.rep_cost) -> Ok ()
               | Some _ -> Error "reply differs from the first round's"
             in
             cycles := !cycles + c.Pipeline.Serve.rep_cost.Sched.Cost.length;
             occ_sum := !occ_sum + c.Pipeline.Serve.rep_cost.Sched.Cost.rp.Sched.Cost.occupancy;
             incr ok;
             sim := !sim +. (c.Pipeline.Serve.rep_latency_ns /. 1e6);
             Ok ())))
    round.data.replies;
  { cycles = !cycles; occupancy = float_of_int !occ_sum /. float_of_int (max 1 !ok); sim_ms = !sim }

let self_test_cases input (direct : direct option array) =
  List.filteri
    (fun k _ -> k < 8)
    (List.filter_map
       (fun (r, d) -> match d with Some d when d.verdict = Ok () -> Some (r.region, d.report) | _ -> None)
       (Array.to_list (Array.map2 (fun r d -> (r, d)) input.requests direct)))

(* Per-layer probes after the traced rounds: the analysis the service's
   requests need (in request order, through a fresh cache), its
   breakdown, inline parsing, and the compile/report/guard layers of the
   traced direct compiles (one per distinct request, so one per miss).
   Returns the probe layers, the traced direct compiles and their
   [aco] sums. *)
let probes input =
  Layers.reset ();
  let occ = input.compile.Pipeline.Compile.occ in
  let cache = Pipeline.Analysis.create () in
  Array.iter
    (fun r -> ignore (Layers.time "analysis.ms" (fun () -> Pipeline.Analysis.get cache occ r.region)))
    input.requests;
  Probes.analysis occ (Array.to_list (Array.map (fun r -> r.region) input.requests));
  Probes.parse (List.filter_map (fun r -> r.inline) (Array.to_list input.requests));
  let direct = direct_compiles input (traced_compile input) ~traced:true in
  let aco = Array.fold_left (fun a d -> match d with Some d -> Probes.aco_add a d.report | None -> a) Probes.aco_zero direct in
  let names =
    [ "analysis.ms"; "ddg.build_ms"; "ddg.closure_ms"; "ddg.critpath_ms"; "ddg.bounds_ms"; "sched.heuristic_ms";
      "sched.rp_layout_ms"; "ir.parse_ms"; "compile.self_ms"; "report.digest_ms"; "sched.validate_ms" ]
  in
  (List.map (fun l -> (l, Layers.ms l)) names, direct, aco)
