(* Property-based tests over randomized inputs: random RTL designs through
   the entire flow (with emulator lockstep against the RTL simulator),
   random gate netlists through partitioning/scheduling, and algebraic
   invariants of the core data structures. *)

module Rtl = Nanomap_rtl.Rtl
module Truth_table = Nanomap_logic.Truth_table
module Gate_netlist = Nanomap_logic.Gate_netlist
module Gen = Nanomap_logic.Gen
module Lut_network = Nanomap_techmap.Lut_network
module Partition = Nanomap_techmap.Partition
module Decompose = Nanomap_techmap.Decompose
module Simplify = Nanomap_techmap.Simplify
module Flowmap = Nanomap_techmap.Flowmap
module Sched = Nanomap_core.Sched
module Fds = Nanomap_core.Fds
module Mapper = Nanomap_core.Mapper
module Arch = Nanomap_arch.Arch
module Cluster = Nanomap_cluster.Cluster
module Emulator = Nanomap_emu.Emulator
module Rng = Nanomap_util.Rng
module Flow = Nanomap_flow.Flow
module Check = Nanomap_flow.Check
module Diag = Nanomap_util.Diag
module Place = Nanomap_place.Place
module Gen_rtl = Nanomap_verify.Gen_rtl

(* ------------------------------------------------ random RTL designs *)

(* A small synthesizable design with registers, feedback and a mix of every
   operator; deterministic in the seed. *)
let random_design seed =
  let rng = Rng.create seed in
  let d = Rtl.create (Printf.sprintf "rand%d" seed) in
  let pool = ref [] in
  let add id = pool := id :: !pool in
  let num_inputs = 2 + Rng.int rng 2 in
  for i = 0 to num_inputs - 1 do
    add (Rtl.add_input d (Printf.sprintf "in%d" i) (2 + Rng.int rng 4))
  done;
  let num_regs = 1 + Rng.int rng 2 in
  let regs =
    List.init num_regs (fun i ->
        let r = Rtl.add_register d ~name:(Printf.sprintf "r%d" i) ~width:(2 + Rng.int rng 4) () in
        add r;
        r)
  in
  let width_of id = (Rtl.signal d id).Rtl.width in
  let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
  let pick_width w =
    match List.filter (fun id -> width_of id = w) !pool with
    | [] -> Rtl.add_const d ~width:w (Rng.int rng (1 lsl w))
    | candidates -> List.nth candidates (Rng.int rng (List.length candidates))
  in
  let num_ops = 6 + Rng.int rng 10 in
  for _ = 1 to num_ops do
    let a = pick () in
    let w = width_of a in
    let op =
      match Rng.int rng 10 with
      | 0 -> Rtl.Add (a, pick_width w)
      | 1 -> Rtl.Sub (a, pick_width w)
      | 2 when 2 * w <= 10 -> Rtl.Mult (a, a)
      | 2 -> Rtl.Bit_and (a, pick_width w)
      | 3 -> Rtl.Bit_or (a, pick_width w)
      | 4 -> Rtl.Bit_xor (a, pick_width w)
      | 5 -> Rtl.Bit_not a
      | 6 -> Rtl.Mux (pick_width 1, a, pick_width w)
      | 7 -> Rtl.Eq (a, pick_width w)
      | 8 -> Rtl.Lt (a, pick_width w)
      | _ ->
        let b = pick () in
        Rtl.Concat (a, b)
    in
    let width =
      match op with
      | Rtl.Mult _ -> 2 * w
      | Rtl.Eq _ | Rtl.Lt _ -> 1
      | Rtl.Concat (x, y) -> width_of x + width_of y
      | Rtl.Add _ | Rtl.Sub _ | Rtl.Bit_and _ | Rtl.Bit_or _ | Rtl.Bit_xor _
      | Rtl.Bit_not _ | Rtl.Mux _ -> w
      | Rtl.Slice _ | Rtl.Table _ -> w
    in
    if width <= 12 then add (Rtl.add_op d ~width op)
  done;
  List.iter
    (fun r -> Rtl.connect_register d r ~d:(pick_width (width_of r)))
    regs;
  Rtl.mark_output d "out0" (pick ());
  Rtl.mark_output d "out1" (pick_width 1);
  d

let random_stimulus rng design =
  List.map
    (fun (s : Rtl.signal) -> (s.Rtl.name, Rng.int rng (1 lsl min s.Rtl.width 12)))
    (Rtl.inputs design)

(* Whole-flow equivalence: RTL simulator vs fabric emulation of the mapped,
   scheduled, clustered design, at a random folding level. *)
let full_chain_prop =
  QCheck.Test.make ~name:"random designs: RTL == folded fabric execution"
    ~count:25
    QCheck.(pair (int_range 0 5000) (int_range 1 4))
    (fun (seed, level) ->
      QCheck.assume (level >= 1 && seed >= 0);
      let design = random_design seed in
      let arch = Arch.unbounded_k in
      let p = Mapper.prepare design in
      match Mapper.plan_level p ~arch ~level with
      | exception Sched.Infeasible _ -> true (* level too shallow: fine *)
      | plan ->
        let cl = Cluster.pack plan ~arch in
        Cluster.validate cl plan;
        let emu = Emulator.create design plan cl in
        let sim = Rtl.sim_create design in
        let rng = Rng.create (seed + 7919) in
        let ok = ref true in
        for _ = 1 to 25 do
          let stimulus = random_stimulus rng design in
          let expected = Rtl.sim_cycle sim stimulus in
          let got = Emulator.macro_cycle emu stimulus in
          List.iter
            (fun (name, v) ->
              match List.assoc_opt name got with
              | Some g -> if g <> v then ok := false
              | None -> ok := false)
            expected
        done;
        !ok)

(* Random designs through place & route: the router must converge (with
   channel widening if needed) and produce a legal routing. *)
let physical_prop =
  QCheck.Test.make ~name:"random designs: place & route legal" ~count:10
    QCheck.(int_range 0 2000)
    (fun seed ->
      QCheck.assume (seed >= 0);
      let design = random_design seed in
      let arch = Arch.unbounded_k in
      let p = Mapper.prepare design in
      match Mapper.plan_level p ~arch ~level:1 with
      | exception Sched.Infeasible _ -> true
      | plan ->
        let cl = Cluster.pack plan ~arch in
        let place = Nanomap_place.Place.place ~effort:`Fast cl in
        Nanomap_place.Place.validate place cl;
        let r, _ = Nanomap_route.Router.route_adaptive place cl in
        if r.Nanomap_route.Router.success then begin
          Nanomap_route.Router.validate r;
          true
        end
        else false)

(* The annealer merges temporal nets that share an endpoint set and keeps
   its cost incrementally; neither may change the HPWL it reports. The
   reference here is the plain definition: one bounding box per cluster
   net, every folding cycle summed. *)
let reference_hpwl (p : Place.t) (cl : Cluster.t) =
  List.fold_left
    (fun acc (n : Cluster.net) ->
      let xy = function
        | Cluster.At_smb s -> p.Place.smb_xy.(s)
        | Cluster.At_pad q -> p.Place.pad_xy.(q)
      in
      let pts = List.map xy (n.Cluster.driver :: n.Cluster.sinks) in
      let span l = List.fold_left max min_int l - List.fold_left min max_int l in
      acc +. float_of_int (span (List.map fst pts) + span (List.map snd pts)))
    0.0 cl.Cluster.nets

(* SMBs of two LEs, so even small designs spread over a grid to anneal *)
let small_smb_arch = { Arch.unbounded_k with Arch.mbs_per_smb = 1; les_per_mb = 2 }

let place_hpwl_prop =
  QCheck.Test.make ~name:"place: reported HPWL = per-net reference" ~count:12
    (Gen_rtl.arbitrary { Gen_rtl.default_params with Gen_rtl.steps = 48 })
    (fun spec ->
      let design = Gen_rtl.build spec in
      let arch = small_smb_arch in
      match Mapper.plan_level (Mapper.prepare design) ~arch ~level:1 with
      | exception Sched.Infeasible _ -> true
      | plan ->
        let cl = Cluster.pack plan ~arch in
        let fast = Place.place ~effort:`Fast cl in
        let detailed = Place.place ~effort:`Detailed ~init:fast cl in
        List.for_all
          (fun (label, (p : Place.t)) ->
            let want = reference_hpwl p cl in
            if Float.equal p.Place.hpwl want && Float.equal (Place.hpwl p cl) want
            then true
            else
              QCheck.Test.fail_reportf "%s: reported %g, recomputed %g, reference %g"
                label p.Place.hpwl (Place.hpwl p cl) want)
          [ ("fast", fast); ("detailed", detailed) ])

(* The two router algorithms are different search strategies over the same
   contract: both must terminate with a legal routing of the same nets, and
   the incremental variant (A* + partial rip-up) must never end more
   congested than the full re-route it replaces. *)
let router_differential_prop =
  QCheck.Test.make ~name:"router: incremental agrees with full" ~count:8
    QCheck.(int_range 0 1500)
    (fun seed ->
      QCheck.assume (seed >= 0);
      let design = random_design seed in
      let arch = Arch.unbounded_k in
      let p = Mapper.prepare design in
      match Mapper.plan_level p ~arch ~level:1 with
      | exception Sched.Infeasible _ -> true
      | plan ->
        let cl = Cluster.pack plan ~arch in
        let place = Nanomap_place.Place.place ~effort:`Fast cl in
        let module R = Nanomap_route.Router in
        let full, _ = R.route_adaptive ~alg:R.Full place cl in
        let inc, _ = R.route_adaptive ~alg:R.Incremental place cl in
        if not (full.R.success && inc.R.success) then false
        else begin
          R.validate full;
          R.validate inc;
          inc.R.overused <= full.R.overused
          && full.R.total_nets = inc.R.total_nets
          && List.length full.R.routed = List.length inc.R.routed
        end)

(* Totality of the guarded flow: run_result must never raise — every
   failure (infeasible level, budget overrun, unroutable fabric) comes back
   as a structured diagnostic — and any Ok report must satisfy every
   Full-level inter-stage checker after the fact. *)
let flow_result_total_prop =
  QCheck.Test.make ~name:"flow: run_result is total, Ok passes all checkers"
    ~count:8
    QCheck.(pair (int_range 0 1500) (int_range 1 4))
    (fun (seed, level) ->
      QCheck.assume (level >= 1 && seed >= 0);
      let design = random_design seed in
      let options =
        { Flow.default_options with
          Flow.objective = Flow.Fixed_level level;
          check_level = Check.Full;
          seed = seed + 1 }
      in
      match Flow.run_result ~options ~arch:Arch.unbounded_k design with
      | exception e ->
        QCheck.Test.fail_reportf "run_result raised %s" (Printexc.to_string e)
      | Error d ->
        (* a well-formed diagnostic names the stage and carries a code *)
        d.Diag.stage <> "" && d.Diag.code <> ""
      | Ok r ->
        (match Flow.validate_report ~level:Check.Full r with
         | Ok () -> true
         | Error d ->
           QCheck.Test.fail_reportf "Ok report rejected by oracle: %s"
             (Diag.to_string d)))

(* ------------------------------------------- partition invariants *)

let tag_netlist nl =
  { Decompose.gates = nl;
    tags = Array.make (Gate_netlist.size nl) (-1);
    input_origins =
      List.mapi (fun i (_, gid) -> (gid, Lut_network.Pi_bit (i, 0))) (Gate_netlist.inputs nl);
    output_targets =
      List.map (fun (n, gid) -> (Lut_network.Po_target n, gid)) (Gate_netlist.outputs nl) }

let random_lut_network seed =
  let rng = Rng.create seed in
  let nl =
    Gen.random_layered rng ~num_inputs:(4 + Rng.int rng 5)
      ~layers:(3 + Rng.int rng 8)
      ~layer_width:(4 + Rng.int rng 10)
      ~num_outputs:(2 + Rng.int rng 4)
  in
  Flowmap.map ~k:4 (Simplify.run (tag_netlist nl))

(* Any topological assignment respecting the partition's strict and weak
   edges keeps each folding cycle at most [level] LUT levels deep. We check
   the structural invariant directly: within a band, chains are <= level;
   across bands, edges go strictly forward. *)
let partition_invariants_prop =
  QCheck.Test.make ~name:"partition bands: in-band chains <= level, bands ordered"
    ~count:40
    QCheck.(pair (int_range 0 5000) (int_range 1 5))
    (fun (seed, level) ->
      QCheck.assume (level >= 1 && seed >= 0);
      let network = random_lut_network seed in
      let part = Partition.partition network ~level in
      Partition.validate part;
      (* in-band chain length per LUT via longest path within its band *)
      let band_of l =
        let u = part.Partition.unit_of_lut.(l) in
        if u < 0 then -1 else part.Partition.units.(u).Partition.band
      in
      let chain = Array.make (Lut_network.size network) 0 in
      let ok = ref true in
      Lut_network.iter
        (fun l -> function
          | Lut_network.Input _ -> ()
          | Lut_network.Lut { fanins; _ } ->
            let b = band_of l in
            let longest =
              Array.fold_left
                (fun acc f -> if band_of f = b then max acc chain.(f) else acc)
                0 fanins
            in
            chain.(l) <- longest + 1;
            if chain.(l) > level then ok := false;
            Array.iter
              (fun f ->
                match Lut_network.node network f with
                | Lut_network.Lut _ -> if band_of f > b then ok := false
                | Lut_network.Input _ -> ())
              fanins)
        network;
      (* number of bands is exactly ceil(depth / level) *)
      let depth = Lut_network.depth network in
      !ok && part.Partition.num_bands = max 1 ((depth + level - 1) / level))

(* ------------------------------------------- scheduling invariants *)

(* FDS optimizes expected concurrency, not the exact LE ceiling; on tiny
   graphs the storage it introduces can cost an LE or two relative to ASAP.
   The property is that it stays valid and within a small slack of ASAP. *)
let fds_props =
  QCheck.Test.make ~name:"FDS: valid schedule, close to or better than ASAP" ~count:40
    QCheck.(pair (int_range 0 5000) (int_range 1 4))
    (fun (seed, level) ->
      QCheck.assume (level >= 1 && seed >= 0);
      let network = random_lut_network seed in
      let part = Partition.partition network ~level in
      let stages = Partition.critical_path_units part + Rng.int (Rng.create seed) 3 in
      match Sched.problem network part ~stages ~base_ff_bits:10 with
      | exception Sched.Infeasible _ -> true
      | prob ->
        let arch = Arch.default in
        let fds = Fds.schedule prob ~arch in
        Sched.check_schedule prob fds;
        let asap = Fds.asap_schedule prob in
        Sched.check_schedule prob asap;
        let fds_les = Sched.les_needed prob ~arch fds in
        let asap_les = Sched.les_needed prob ~arch asap in
        fds_les <= max (asap_les + 2) (asap_les * 6 / 5))

let lut_dg_conservation_prop =
  QCheck.Test.make ~name:"LUT DG mass equals total LUT count" ~count:40
    QCheck.(pair (int_range 0 5000) (int_range 1 4))
    (fun (seed, level) ->
      QCheck.assume (level >= 1 && seed >= 0);
      let network = random_lut_network seed in
      let part = Partition.partition network ~level in
      let stages = Partition.critical_path_units part + 2 in
      match Sched.problem network part ~stages ~base_ff_bits:0 with
      | exception Sched.Infeasible _ -> true
      | prob ->
        let fr = Sched.frames prob ~fixed:(Array.make (Array.length prob.Sched.weights) None) in
        let dg = Sched.lut_dg prob fr in
        let mass = Array.fold_left ( +. ) 0.0 dg in
        Float.abs (mass -. float_of_int (Lut_network.num_luts network)) < 1e-6)

(* ------------------------------------------- simplify invariants *)

let simplify_idempotent_prop =
  QCheck.Test.make ~name:"simplify is idempotent on netlist size" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      QCheck.assume (seed >= 0);
      let rng = Rng.create seed in
      let nl =
        Gen.random_layered rng ~num_inputs:6 ~layers:5 ~layer_width:8 ~num_outputs:4
      in
      let once = Simplify.run (tag_netlist nl) in
      let twice = Simplify.run once in
      Gate_netlist.size twice.Decompose.gates = Gate_netlist.size once.Decompose.gates)

(* Simplify rewrites into the AND/OR/XOR/NOT basis, so each NAND/NOR/XNOR
   can cost one extra inverter (absorbed for free by FlowMap later); that is
   the only way the gate count can grow. *)
let simplify_bounded_growth_prop =
  QCheck.Test.make ~name:"simplify growth bounded by inverting-gate count" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      QCheck.assume (seed >= 0);
      let rng = Rng.create seed in
      let nl =
        Gen.random_layered rng ~num_inputs:5 ~layers:6 ~layer_width:9 ~num_outputs:3
      in
      let inverting =
        let stats = Gate_netlist.stats nl in
        let get k = Option.value ~default:0 (List.assoc_opt k stats) in
        get "nand2" + get "nor2" + get "xnor2" + get "not"
      in
      let simplified = Simplify.run (tag_netlist nl) in
      Gate_netlist.num_gates simplified.Decompose.gates
      <= Gate_netlist.num_gates nl + inverting)

(* ------------------------------------------- arithmetic generators *)

let adder_random_prop =
  QCheck.Test.make ~name:"carry-select adder matches + on random widths" ~count:60
    QCheck.(triple (int_range 2 10) (int_range 0 1023) (int_range 0 1023))
    (fun (w, a0, b0) ->
      QCheck.assume (w >= 2 && a0 >= 0 && b0 >= 0);
      let a0 = a0 land ((1 lsl w) - 1) and b0 = b0 land ((1 lsl w) - 1) in
      let t = Gate_netlist.create () in
      let a = Gen.input_bus t "a" w in
      let b = Gen.input_bus t "b" w in
      let sums, cout = Gen.carry_select_adder ~block:3 t a b in
      let bits v width = Array.init width (fun i -> v land (1 lsl i) <> 0) in
      let values = Gate_netlist.simulate t (Array.append (bits a0 w) (bits b0 w)) in
      let got =
        Array.to_list sums
        |> List.mapi (fun i id -> if values.(id) then 1 lsl i else 0)
        |> List.fold_left ( + ) 0
      in
      let carry = if values.(cout) then 1 lsl w else 0 in
      got + carry = a0 + b0)

let multiplier_random_prop =
  QCheck.Test.make ~name:"wallace multiplier matches * on random widths" ~count:60
    QCheck.(triple (int_range 2 7) (int_range 0 127) (int_range 0 127))
    (fun (w, a0, b0) ->
      QCheck.assume (w >= 2 && a0 >= 0 && b0 >= 0);
      let a0 = a0 land ((1 lsl w) - 1) and b0 = b0 land ((1 lsl w) - 1) in
      let t = Gate_netlist.create () in
      let a = Gen.input_bus t "a" w in
      let b = Gen.input_bus t "b" w in
      let prod = Gen.wallace_multiplier t a b in
      let bits v width = Array.init width (fun i -> v land (1 lsl i) <> 0) in
      let values = Gate_netlist.simulate t (Array.append (bits a0 w) (bits b0 w)) in
      let got =
        Array.to_list prod
        |> List.mapi (fun i id -> if values.(id) then 1 lsl i else 0)
        |> List.fold_left ( + ) 0
      in
      got = a0 * b0)

(* ------------------------------------------- RTL sim vs random design *)

let rtl_design_valid_prop =
  QCheck.Test.make ~name:"random designs validate and simulate" ~count:60
    QCheck.(int_range 0 10000)
    (fun seed ->
      QCheck.assume (seed >= 0);
      let design = random_design seed in
      Rtl.validate design;
      let sim = Rtl.sim_create design in
      let rng = Rng.create seed in
      for _ = 1 to 10 do
        ignore (Rtl.sim_cycle sim (random_stimulus rng design))
      done;
      true)

let () =
  let to_alco = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [ ("full-chain", [ to_alco full_chain_prop ]);
      ( "physical",
        [ to_alco physical_prop; to_alco place_hpwl_prop;
          to_alco router_differential_prop;
          to_alco flow_result_total_prop ] );
      ( "partition",
        [ to_alco partition_invariants_prop ] );
      ("scheduling", [ to_alco fds_props; to_alco lut_dg_conservation_prop ]);
      ( "simplify",
        [ to_alco simplify_idempotent_prop; to_alco simplify_bounded_growth_prop ] );
      ( "arithmetic",
        [ to_alco adder_random_prop; to_alco multiplier_random_prop ] );
      ("rtl", [ to_alco rtl_design_valid_prop ]) ]
