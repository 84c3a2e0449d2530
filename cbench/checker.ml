(* An independent schedule checker.

   Everything here is re-derived from the region's instruction list —
   def/use registers, latencies, live-outs — and from the slot array of
   the schedule under test. Nothing is taken from the dependence graph,
   the pressure tracker or the cost functions of the program that
   produced the schedule; only the occupancy table of the target machine
   ([Machine.Occupancy]) is shared, because it is the machine's
   definition rather than the scheduler's.

   Register dependences:
   - flow (read after write): the latest earlier definer of a used
     register must issue at least its latency before the reader;
   - anti (write after read): every reader since the latest earlier
     definer must issue before the new definer;
   - output (write after write): the latest earlier definer must issue
     before the new definer.
   Issue is single-slot, so every dependence needs a distance of at
   least one cycle; a flow dependence needs [max 1 latency]. *)

type dep = { src : int; dst : int; distance : int }

type cost = { length : int; vgpr : int; sgpr : int; aprp_v : int; aprp_s : int; occupancy : int }

let deps_of_region (region : Ir.Region.t) =
  let last_def = Hashtbl.create 64 in
  let readers = Hashtbl.create 64 in
  let deps = ref [] in
  let add src dst distance = if src <> dst then deps := { src; dst; distance } :: !deps in
  Array.iteri
    (fun i (ins : Ir.Instr.t) ->
      List.iter
        (fun r ->
          (match Hashtbl.find_opt last_def r with
          | Some d -> add d i (max 1 region.Ir.Region.instrs.(d).Ir.Instr.latency)
          | None -> ());
          Hashtbl.replace readers r (i :: Option.value (Hashtbl.find_opt readers r) ~default:[]))
        ins.Ir.Instr.uses;
      List.iter
        (fun r ->
          (match Hashtbl.find_opt last_def r with Some d -> add d i 1 | None -> ());
          List.iter (fun k -> add k i 1) (Option.value (Hashtbl.find_opt readers r) ~default:[]);
          Hashtbl.replace last_def r i;
          Hashtbl.replace readers r [])
        ins.Ir.Instr.defs)
    region.Ir.Region.instrs;
  Array.of_list !deps

(* Longest dependence chain, in cycles, plus the issue slot of its last
   instruction: no schedule that honours the register dependences is
   shorter. Program order is a topological order of [deps]. *)
let length_bound (region : Ir.Region.t) deps =
  let n = Array.length region.Ir.Region.instrs in
  let earliest = Array.make n 0 in
  let by_dst = Array.make n [] in
  Array.iter (fun d -> by_dst.(d.dst) <- d :: by_dst.(d.dst)) deps;
  for i = 0 to n - 1 do
    List.iter (fun d -> earliest.(i) <- max earliest.(i) (earliest.(d.src) + d.distance)) by_dst.(i)
  done;
  max n (1 + Array.fold_left max 0 earliest)

let is_vgpr (r : Ir.Reg.t) = match r.Ir.Reg.cls with Ir.Reg.Vgpr -> true | Ir.Reg.Sgpr -> false

(* Peak live registers per class over an issue order. A register is live
   from region entry when it is read before any definition in program
   order, otherwise from its first definition; it dies at its last read
   unless it is live-out. A definition that is never read is counted at
   its own issue point only. *)
let peak_pressure (region : Ir.Region.t) order =
  let instrs = region.Ir.Region.instrs in
  let reads_left = Hashtbl.create 64 in
  Array.iter
    (fun (ins : Ir.Instr.t) ->
      List.iter
        (fun r -> Hashtbl.replace reads_left r (1 + Option.value (Hashtbl.find_opt reads_left r) ~default:0))
        ins.Ir.Instr.uses)
    instrs;
  let live_out r = List.exists (Ir.Reg.equal r) region.Ir.Region.live_out in
  let live = Hashtbl.create 64 in
  let v = ref 0 and s = ref 0 in
  let bump r d = if is_vgpr r then v := !v + d else s := !s + d in
  let defined = Hashtbl.create 64 in
  Array.iter
    (fun (ins : Ir.Instr.t) ->
      List.iter
        (fun r ->
          if (not (Hashtbl.mem defined r)) && not (Hashtbl.mem live r) then begin
            Hashtbl.replace live r ();
            bump r 1
          end)
        ins.Ir.Instr.uses;
      List.iter (fun r -> Hashtbl.replace defined r ()) ins.Ir.Instr.defs)
    instrs;
  let peak_v = ref !v and peak_s = ref !s in
  let kill r =
    if Hashtbl.mem live r && (not (live_out r)) && Hashtbl.find reads_left r = 0 then begin
      Hashtbl.remove live r;
      bump r (-1)
    end
  in
  Array.iter
    (fun i ->
      let ins = instrs.(i) in
      List.iter
        (fun r ->
          Hashtbl.replace reads_left r (Hashtbl.find reads_left r - 1);
          kill r)
        ins.Ir.Instr.uses;
      List.iter
        (fun r ->
          if not (Hashtbl.mem reads_left r) then Hashtbl.replace reads_left r 0;
          if not (Hashtbl.mem live r) then begin
            Hashtbl.replace live r ();
            bump r 1
          end)
        ins.Ir.Instr.defs;
      peak_v := max !peak_v !v;
      peak_s := max !peak_s !s;
      List.iter kill ins.Ir.Instr.defs)
    order;
  (!peak_v, !peak_s)

(* [slots.(c)] is the instruction issued at cycle [c], or [-1] for a
   stall. *)
let slots_of_schedule (s : Sched.Schedule.t) =
  Array.map (function Sched.Schedule.Instr i -> i | Sched.Schedule.Stall -> -1) s.Sched.Schedule.slots

let order_of_slots slots = Array.of_list (List.filter (fun i -> i >= 0) (Array.to_list slots))

let ( let* ) = Result.bind

(* Validate a schedule and measure it: a permutation of the region's
   instructions, every register dependence at its distance, then the
   cost re-derived from scratch. *)
let measure occ (region : Ir.Region.t) deps slots =
  let n = Array.length region.Ir.Region.instrs in
  let cycle = Array.make n (-1) in
  let* () =
    Array.fold_left
      (fun acc (c, i) ->
        let* () = acc in
        if i < -1 || i >= n then Error (Printf.sprintf "slot %d holds unknown instruction %d" c i)
        else if i >= 0 && cycle.(i) >= 0 then Error (Printf.sprintf "instruction %d issued twice" i)
        else begin
          if i >= 0 then cycle.(i) <- c;
          Ok ()
        end)
      (Ok ())
      (Array.mapi (fun c i -> (c, i)) slots)
  in
  let* () =
    match Array.find_index (fun c -> c < 0) cycle with
    | Some i -> Error (Printf.sprintf "instruction %d never issued" i)
    | None -> Ok ()
  in
  let* () =
    match Array.find_opt (fun d -> cycle.(d.dst) - cycle.(d.src) < d.distance) deps with
    | Some d ->
        Error
          (Printf.sprintf "dependence %d -> %d needs %d cycles, got %d" d.src d.dst d.distance
             (cycle.(d.dst) - cycle.(d.src)))
    | None -> Ok ()
  in
  let vgpr, sgpr = peak_pressure region (order_of_slots slots) in
  Ok
    {
      length = 1 + Array.fold_left max (-1) cycle;
      vgpr;
      sgpr;
      aprp_v = Machine.Occupancy.aprp occ Ir.Reg.Vgpr vgpr;
      aprp_s = Machine.Occupancy.aprp occ Ir.Reg.Sgpr sgpr;
      occupancy = Machine.Occupancy.of_pressures occ ~vgpr ~sgpr;
    }

let agrees (own : cost) (claim : Sched.Cost.t) =
  let rp = claim.Sched.Cost.rp in
  if own.length <> claim.Sched.Cost.length then
    Error (Printf.sprintf "length %d reported as %d" own.length claim.Sched.Cost.length)
  else if
    own.aprp_v <> rp.Sched.Cost.aprp_vgpr
    || own.aprp_s <> rp.Sched.Cost.aprp_sgpr
    || own.occupancy <> rp.Sched.Cost.occupancy
  then
    Error
      (Printf.sprintf "APRP v%d/s%d occ %d reported as v%d/s%d occ %d" own.aprp_v own.aprp_s
         own.occupancy rp.Sched.Cost.aprp_vgpr rp.Sched.Cost.aprp_sgpr rp.Sched.Cost.occupancy)
  else Ok ()

(* The full verdict on one shipped schedule: valid, its reported cost
   re-derived exactly, never worse than the heuristic baseline
   (occupancy first, then length at equal occupancy), and no shorter
   than the dependence-chain bound. *)
let check occ region ~shipped ~claim ~heuristic ~heuristic_claim =
  let deps = deps_of_region region in
  let* own = measure occ region deps shipped in
  let* () = agrees own claim in
  let* base = measure occ region deps heuristic in
  let* () = Result.map_error (( ^ ) "heuristic: ") (agrees base heuristic_claim) in
  let* () =
    if own.occupancy < base.occupancy then
      Error (Printf.sprintf "occupancy %d below the heuristic's %d" own.occupancy base.occupancy)
    else if own.occupancy = base.occupancy && own.length > base.length then
      Error (Printf.sprintf "length %d above the heuristic's %d at equal occupancy" own.length base.length)
    else Ok ()
  in
  let bound = length_bound region deps in
  if own.length < bound then Error (Printf.sprintf "length %d below the dependence bound %d" own.length bound)
  else Ok ()

let check_report occ region (r : Pipeline.Compile.region_report) =
  let result = (Pipeline.Compile.product_run r).Pipeline.Compile.result in
  let shipped = slots_of_schedule result.Engine.Types.schedule in
  if order_of_slots shipped <> r.Pipeline.Compile.aco_order then Error "reported order is not the shipped schedule's"
  else
    check occ region ~shipped ~claim:r.Pipeline.Compile.aco_cost
      ~heuristic:(slots_of_schedule result.Engine.Types.heuristic_schedule)
      ~heuristic_claim:r.Pipeline.Compile.heuristic_cost

(* --- self-test ------------------------------------------------------------ *)

(* Corruptions of a known-good report that the checker must reject. Each
   is [None] when the region offers no instance of it (for example no
   dependent pair issued back to back). *)
let corruptions (region : Ir.Region.t) shipped (claim : Sched.Cost.t) =
  let deps = deps_of_region region in
  let swapped =
    let cycle = Array.make (Array.length region.Ir.Region.instrs) 0 in
    Array.iteri (fun c i -> if i >= 0 then cycle.(i) <- c) shipped;
    Option.map
      (fun d ->
        let s = Array.copy shipped in
        s.(cycle.(d.src)) <- d.dst;
        s.(cycle.(d.dst)) <- d.src;
        s)
      (if Array.length deps = 0 then None else Some deps.(0))
  in
  let dropped =
    match Array.find_index (fun i -> i >= 0) shipped with
    | Some c -> Some (Array.append (Array.sub shipped 0 c) (Array.sub shipped (c + 1) (Array.length shipped - c - 1)))
    | None -> None
  in
  let rp = claim.Sched.Cost.rp in
  List.filter_map
    (fun (what, c) -> Option.map (fun (s, cl) -> (what, s, cl)) c)
    [
      ("swapped dependent pair", Option.map (fun s -> (s, claim)) swapped);
      ("dropped instruction", Option.map (fun s -> (s, claim)) dropped);
      ("misstated length", Some (shipped, { claim with Sched.Cost.length = claim.Sched.Cost.length + 1 }));
      ( "misstated APRP",
        Some (shipped, { claim with Sched.Cost.rp = { rp with Sched.Cost.aprp_vgpr = rp.Sched.Cost.aprp_vgpr + 1 } }) );
    ]

(* Feed the checker the shipped schedules of [reports] and every
   corruption of each; return the list of failures (empty = passed). At
   least one instance of every corruption kind must be exercised. *)
let self_test occ (cases : (Ir.Region.t * Pipeline.Compile.region_report) list) =
  let seen = Hashtbl.create 4 in
  let failures = ref [] in
  List.iter
    (fun (region, (r : Pipeline.Compile.region_report)) ->
      let result = (Pipeline.Compile.product_run r).Pipeline.Compile.result in
      let heuristic = slots_of_schedule result.Engine.Types.heuristic_schedule in
      let shipped = slots_of_schedule result.Engine.Types.schedule in
      let verdict shipped claim =
        check occ region ~shipped ~claim ~heuristic ~heuristic_claim:r.Pipeline.Compile.heuristic_cost
      in
      (match verdict shipped r.Pipeline.Compile.aco_cost with
      | Ok () -> ()
      | Error e -> failures := Printf.sprintf "%s: good schedule rejected: %s" r.Pipeline.Compile.region_name e :: !failures);
      List.iter
        (fun (what, s, claim) ->
          Hashtbl.replace seen what ();
          match verdict s claim with
          | Ok () -> failures := Printf.sprintf "%s: %s accepted" r.Pipeline.Compile.region_name what :: !failures
          | Error _ -> ())
        (corruptions region shipped r.Pipeline.Compile.aco_cost))
    cases;
  List.iter
    (fun what -> if not (Hashtbl.mem seen what) then failures := ("no instance of " ^ what) :: !failures)
    [ "swapped dependent pair"; "dropped instruction"; "misstated length"; "misstated APRP" ];
  List.rev !failures
