(* Tests for the physical back-end: temporal clustering, placement,
   routing-resource graph, PathFinder routing and bitstream generation. *)

module Rtl = Nanomap_rtl.Rtl
module Mapper = Nanomap_core.Mapper
module Sched = Nanomap_core.Sched
module Arch = Nanomap_arch.Arch
module Cluster = Nanomap_cluster.Cluster
module Place = Nanomap_place.Place
module Rr_graph = Nanomap_route.Rr_graph
module Router = Nanomap_route.Router
module Timing = Nanomap_route.Timing
module Bitstream = Nanomap_bitstream.Bitstream
module Circuits = Nanomap_circuits.Circuits
module Partition = Nanomap_techmap.Partition
module Lut_network = Nanomap_techmap.Lut_network

let check = Alcotest.check

let small_plan level =
  let b = Circuits.ex1_small () in
  let p = Mapper.prepare b.Circuits.design in
  let arch = Arch.unbounded_k in
  let plan =
    if level = 0 then Mapper.no_folding p ~arch else Mapper.plan_level p ~arch ~level
  in
  (plan, arch)

(* --- cluster --- *)

let test_cluster_all_luts_placed () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  Cluster.validate cl plan;
  let total_luts =
    Array.fold_left
      (fun acc pl -> acc + Lut_network.num_luts pl.Mapper.network)
      0 plan.Mapper.planes
  in
  check Alcotest.int "every LUT has a slot" total_luts (Hashtbl.length cl.Cluster.lut_slots)

let test_cluster_no_le_conflicts () =
  (* validate already checks; also confirm a mid folding level *)
  let plan, arch = small_plan 2 in
  let cl = Cluster.pack plan ~arch in
  Cluster.validate cl plan

let test_cluster_area_close_to_plan () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  check Alcotest.bool "clustering within 2x of scheduler bound" true
    (cl.Cluster.les_used <= 2 * plan.Mapper.les);
  check Alcotest.bool "clustering not below LUT need" true
    (Cluster.area_les cl >= plan.Mapper.les)

let test_cluster_state_bits_have_homes () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  (* every register bit read by some plane must have a home flip-flop *)
  Array.iter
    (fun (pl : Mapper.plane_plan) ->
      Lut_network.iter
        (fun _ -> function
          | Lut_network.Input (Lut_network.Register_bit (r, b)) ->
            check Alcotest.bool "state home exists" true
              (Hashtbl.mem cl.Cluster.ff_slots (Cluster.V_state (r, b)))
          | Lut_network.Input
              (Lut_network.Pi_bit _ | Lut_network.Const_bit _ | Lut_network.Wire_bit _)
          | Lut_network.Lut _ -> ())
        pl.Mapper.network)
    plan.Mapper.planes

let test_cluster_nets_have_sinks () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  List.iter
    (fun (n : Cluster.net) ->
      check Alcotest.bool "non-empty" true (n.Cluster.sinks <> []);
      check Alcotest.bool "driver not in sinks" true
        (not (List.mem n.Cluster.driver n.Cluster.sinks)))
    cl.Cluster.nets

let test_cluster_stats () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  let stats = Cluster.interconnect_stats cl in
  check Alcotest.int "net count" (List.length cl.Cluster.nets) (List.assoc "nets" stats)

let test_smb_local_analysis () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  let before = Nanomap_cluster.Smb_local.analyze cl plan in
  (* the packer's conservative pin guard must keep the exact count legal *)
  check Alcotest.int "no SMB pin violations" 0 before.Nanomap_cluster.Smb_local.smb_pin_violations;
  check Alcotest.bool "pin usage within cap" true
    (before.Nanomap_cluster.Smb_local.max_smb_inputs <= arch.Arch.smb_input_pins);
  let _moved = Nanomap_cluster.Smb_local.rebalance cl plan in
  Cluster.validate cl plan;
  let after = Nanomap_cluster.Smb_local.analyze cl plan in
  check Alcotest.int "rebalance keeps pins legal" 0
    after.Nanomap_cluster.Smb_local.smb_pin_violations;
  check Alcotest.bool "rebalance does not hurt MB ports" true
    (after.Nanomap_cluster.Smb_local.max_mb_ports
    <= before.Nanomap_cluster.Smb_local.max_mb_ports);
  check Alcotest.bool "some locality" true
    (after.Nanomap_cluster.Smb_local.local_connections > 0)

let test_smb_pin_guard_spreads () =
  (* a tiny pin budget must force the packer onto more SMBs, legally *)
  let b = Circuits.ex1_small () in
  let p = Mapper.prepare b.Circuits.design in
  let tight = { Arch.unbounded_k with Arch.smb_input_pins = 8 } in
  let plan = Mapper.plan_level p ~arch:tight ~level:2 in
  let cl = Cluster.pack plan ~arch:tight in
  Cluster.validate cl plan;
  let r = Nanomap_cluster.Smb_local.analyze cl plan in
  check Alcotest.int "still no violations" 0 r.Nanomap_cluster.Smb_local.smb_pin_violations;
  let roomy = Arch.unbounded_k in
  let cl2 = Cluster.pack (Mapper.plan_level p ~arch:roomy ~level:2) ~arch:roomy in
  check Alcotest.bool "tight pins need at least as many SMBs" true
    (cl.Cluster.num_smbs >= cl2.Cluster.num_smbs)

(* --- place --- *)

let test_place_legal_and_deterministic () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  let p1 = Place.place ~seed:7 cl in
  let p2 = Place.place ~seed:7 cl in
  Place.validate p1 cl;
  check Alcotest.bool "deterministic" true (p1.Place.smb_xy = p2.Place.smb_xy)

let test_place_improves_over_initial () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  (* an "identity" placement is the annealer's starting point; the detailed
     result should not be worse *)
  let detailed = Place.place ~effort:`Detailed cl in
  let fast = Place.place ~effort:`Fast cl in
  check Alcotest.bool "hpwl positive" true (detailed.Place.hpwl > 0.0);
  check Alcotest.bool "detailed <= fast * 1.05" true
    (detailed.Place.hpwl <= (fast.Place.hpwl *. 1.05) +. 1.0)

let test_place_routability_positive () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  let p = Place.place ~effort:`Fast cl in
  check Alcotest.bool "routability finite" true (Place.routability p cl > 0.0);
  let r, _ = Router.route_adaptive p cl in
  check Alcotest.bool "routed delay positive" true
    (Timing.routed_delay_ns r cl plan > 0.0)

(* --- sat place: the exact engine against the annealer --- *)

module Defect = Nanomap_arch.Defect
module Sat_place = Nanomap_place.Sat_place
module Check = Nanomap_flow.Check
module Diag = Nanomap_util.Diag

let sat_fixture () =
  let plan, arch = small_plan 1 in
  (Cluster.pack plan ~arch, arch)

let test_sat_place_clean_fabric () =
  let cl, _ = sat_fixture () in
  match Sat_place.solve cl with
  | Sat_place.Placed p ->
    Place.validate p cl;
    check Alcotest.bool "hpwl positive" true (p.Place.hpwl > 0.0);
    (match Check.place Check.Full cl p with
     | Ok () -> ()
     | Error d -> Alcotest.failf "clean SAT placement rejected: %s" (Diag.to_string d))
  | Sat_place.Unsat_proven -> Alcotest.fail "clean fabric proven unplaceable"
  | Sat_place.Gave_up -> Alcotest.fail "solver gave up on a clean fabric"

(* Differential battery: across defect rates 0-20%, every Placed outcome
   passes the Full checkers, and Unsat_proven agrees with exhaustive
   backtracking enumeration — the solver is never allowed to be
   undecided at this size. *)
let test_sat_place_defect_sweep () =
  let cl, arch = sat_fixture () in
  let width, height = Place.grid_dims cl in
  List.iter
    (fun rate ->
      List.iter
        (fun seed ->
          let defects =
            if rate = 0.0 then Defect.none
            else Defect.random_les ~seed ~fraction:rate ~width ~height arch
          in
          let tag = Printf.sprintf "rate %.2f seed %d" rate seed in
          match Sat_place.solve ~defects cl with
          | Sat_place.Placed p ->
            Place.validate p cl;
            (match Check.place Check.Full ~defects cl p with
             | Ok () -> ()
             | Error d ->
               Alcotest.failf "%s: placement rejected: %s" tag (Diag.to_string d));
            check Alcotest.bool (tag ^ ": witness implies exhaustive") true
              (Sat_place.exhaustive_exists ~defects cl)
          | Sat_place.Unsat_proven ->
            check Alcotest.bool (tag ^ ": certificate implies no assignment") false
              (Sat_place.exhaustive_exists ~defects cl)
          | Sat_place.Gave_up -> Alcotest.failf "%s: solver gave up" tag)
        [ 1; 2; 3; 4; 5 ])
    [ 0.0; 0.05; 0.10; 0.20 ]

let test_sat_place_all_dead_unsat () =
  let cl, arch = sat_fixture () in
  let width, height = Place.grid_dims cl in
  let les = ref [] in
  for x = 0 to width - 1 do
    for y = 0 to height - 1 do
      for mb = 0 to arch.Arch.mbs_per_smb - 1 do
        for le = 0 to arch.Arch.les_per_mb - 1 do
          les := (x, y, mb, le) :: !les
        done
      done
    done
  done;
  let defects = { Defect.none with Defect.les = List.rev !les } in
  (match Sat_place.solve ~defects cl with
   | Sat_place.Unsat_proven -> ()
   | Sat_place.Placed _ -> Alcotest.fail "placed on an all-dead fabric"
   | Sat_place.Gave_up -> Alcotest.fail "gave up on a trivially unsat fabric");
  check Alcotest.bool "exhaustive agrees" false
    (Sat_place.exhaustive_exists ~defects cl)

(* distance_bound is solved un-refined (the annealer does not model it):
   every connected SMB pair in the decoded placement must obey the bound,
   and an impossible bound must come back Unsat, not Placed. *)
let test_sat_place_distance_bound () =
  let cl, _ = sat_fixture () in
  let width, height = Place.grid_dims cl in
  let loose = width + height in
  (match Sat_place.solve ~distance_bound:loose ~refine:false cl with
   | Sat_place.Placed p -> Place.validate p cl
   | Sat_place.Unsat_proven -> Alcotest.fail "loose bound proven unsat"
   | Sat_place.Gave_up -> Alcotest.fail "solver gave up under a loose bound");
  match Sat_place.solve ~distance_bound:0 ~refine:false cl with
  | Sat_place.Placed p ->
    (* a 0 bound is satisfiable only if no two connected SMBs exist;
       validate the claim rather than assuming the fixture's shape *)
    Place.validate p cl
  | Sat_place.Unsat_proven | Sat_place.Gave_up -> ()

(* --- rr graph --- *)

let test_rr_graph_shapes () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  let p = Place.place ~effort:`Fast cl in
  let g = Rr_graph.build ~arch p in
  let stats = Rr_graph.stats g in
  check Alcotest.bool "has len1 wires" true (List.assoc "len1" stats > 0);
  check Alcotest.bool "has globals" true (List.assoc "global" stats > 0);
  (* all adjacency targets in range *)
  Array.iter
    (List.iter (fun v ->
         check Alcotest.bool "edge target in range" true (v >= 0 && v < g.Rr_graph.num_nodes)))
    g.Rr_graph.adj

let test_rr_graph_full_reachability () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  let p = Place.place ~effort:`Fast cl in
  let g = Rr_graph.build ~arch p in
  (* BFS from SMB 0's source must reach every SMB sink and pad sink *)
  let seen = Array.make g.Rr_graph.num_nodes false in
  let q = Queue.create () in
  Queue.add g.Rr_graph.src_of_smb.(0) q;
  seen.(g.Rr_graph.src_of_smb.(0)) <- true;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v q
        end)
      g.Rr_graph.adj.(u)
  done;
  Array.iter
    (fun snk -> check Alcotest.bool "smb sink reachable" true seen.(snk))
    g.Rr_graph.sink_of_smb;
  Array.iter
    (fun snk -> check Alcotest.bool "pad sink reachable" true seen.(snk))
    g.Rr_graph.sink_of_pad

(* --- router --- *)

let routed_fixture level =
  let plan, arch = small_plan level in
  let cl = Cluster.pack plan ~arch in
  let p = Place.place ~effort:`Fast cl in
  let r, factor = Router.route_adaptive p cl in
  (plan, cl, r, factor)

let test_router_succeeds_and_validates () =
  let _, _, r, _ = routed_fixture 1 in
  check Alcotest.bool "success" true r.Router.success;
  Router.validate r

let test_router_no_folding () =
  let _, _, r, _ = routed_fixture 0 in
  check Alcotest.bool "success" true r.Router.success;
  Router.validate r

let test_router_all_nets_routed () =
  let _, cl, r, _ = routed_fixture 1 in
  check Alcotest.int "every net routed" (List.length cl.Cluster.nets) r.Router.total_nets

let test_router_timing_positive () =
  let plan, cl, r, _ = routed_fixture 1 in
  let period =
    Timing.routed_delay_ns r cl plan
    /. float_of_int (Array.length plan.Mapper.planes * plan.Mapper.stages)
  in
  check Alcotest.bool "period sane" true (period > 0.3 && period < 50.0)

let test_router_usage_stats_consistent () =
  let _, _, r, _ = routed_fixture 1 in
  let total_by_kind =
    List.fold_left (fun acc (_, v) -> acc + v) 0 r.Router.usage_by_kind
  in
  check Alcotest.int "usage = wirelength" r.Router.wirelength total_by_kind

(* --- bitstream --- *)

let test_bitstream_shape () =
  let plan, cl, r, _ = routed_fixture 1 in
  let bs = Bitstream.generate plan cl r in
  check Alcotest.bool "magic" true
    (Bytes.length bs.Bitstream.bytes > 5
    && Bytes.sub_string bs.Bitstream.bytes 0 5 = "NMAP2");
  check Alcotest.int "configs" plan.Mapper.configs_used bs.Bitstream.configs;
  check Alcotest.bool "nonzero luts" true (bs.Bitstream.lut_bits > 0);
  check Alcotest.bool "nonzero switches" true (bs.Bitstream.switch_bits > 0)

let test_bitstream_deterministic () =
  let plan, cl, r, _ = routed_fixture 1 in
  let b1 = Bitstream.generate plan cl r in
  let b2 = Bitstream.generate plan cl r in
  check Alcotest.bool "identical bytes" true
    (Bytes.equal b1.Bitstream.bytes b2.Bitstream.bytes)

let test_bitstream_roundtrip () =
  let plan, cl, r, _ = routed_fixture 1 in
  let bs = Bitstream.generate plan cl r in
  let configs = Bitstream.parse bs.Bitstream.bytes in
  check Alcotest.int "config count" plan.Mapper.configs_used (Array.length configs);
  (* total LE configurations = total scheduled LUTs *)
  let total_les =
    Array.fold_left (fun acc c -> acc + List.length c.Bitstream.les) 0 configs
  in
  let total_luts =
    Array.fold_left
      (fun acc pl -> acc + Lut_network.num_luts pl.Mapper.network)
      0 plan.Mapper.planes
  in
  check Alcotest.int "LE sections cover all LUTs" total_luts total_les;
  (* switch records match the router's wirelength *)
  let total_switches =
    Array.fold_left (fun acc c -> acc + List.length c.Bitstream.switches) 0 configs
  in
  check Alcotest.int "switch records = wirelength" r.Router.wirelength total_switches;
  (* corrupt magic is rejected *)
  let bad = Bytes.copy bs.Bitstream.bytes in
  Bytes.set bad 0 'X';
  check Alcotest.bool "bad magic rejected" true
    (match Bitstream.parse bad with exception Bitstream.Corrupt _ -> true | _ -> false)

let test_bitstream_nram_accounting () =
  let plan, cl, r, _ = routed_fixture 1 in
  let bs = Bitstream.generate plan cl r in
  let used, cap = Bitstream.nram_bits_required bs Arch.default in
  check Alcotest.int "configs used" plan.Mapper.configs_used used;
  check Alcotest.bool "cap is k" true (cap = Some 16)

(* --- parallel-vs-serial equivalence for the physical layers: the pool
   must change the wall clock only. Both the placement portfolio and the
   folding-level sweep are compared field-by-field against their serial
   runs; the jobs=4 leg exercises the pool code path even on machines
   where physical workers cap at one domain. --- *)

module Pool = Nanomap_util.Pool

let place_fingerprint (p : Place.t) =
  let b = Buffer.create 256 in
  Printf.bprintf b "hpwl=%.6f xy=" p.Place.hpwl;
  Array.iter (fun (x, y) -> Printf.bprintf b "%d,%d;" x y) p.Place.smb_xy;
  Array.iter (fun (x, y) -> Printf.bprintf b "%d,%d!" x y) p.Place.pad_xy;
  Buffer.contents b

let test_portfolio_jobs_equivalent () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        Place.portfolio ~pool ~count:6 ~seed:3 ~effort:`Detailed cl)
  in
  (* the annealer's work counter is charged once per candidate anneal, so
     the pool changes it no more than the placement *)
  let net_evals = Nanomap_util.Telemetry.counter "place.net_evals" in
  let counted f =
    let before = Nanomap_util.Telemetry.value net_evals in
    let p = f () in
    (p, Nanomap_util.Telemetry.value net_evals - before)
  in
  let serial, e_serial =
    counted (fun () -> Place.portfolio ~count:6 ~seed:3 ~effort:`Detailed cl)
  in
  let p1, e1 = counted (fun () -> run 1) in
  let p4, e4 = counted (fun () -> run 4) in
  check Alcotest.string "jobs=1 = no pool" (place_fingerprint serial)
    (place_fingerprint p1);
  check Alcotest.string "jobs=4 = jobs=1" (place_fingerprint p1)
    (place_fingerprint p4);
  check Alcotest.bool "net evals counted" true (e_serial > cl.Cluster.num_smbs);
  check Alcotest.int "net evals jobs=1 = no pool" e_serial e1;
  check Alcotest.int "net evals jobs=4 = jobs=1" e1 e4

let test_portfolio_best_of () =
  (* The portfolio winner can never be worse than its own first seed,
     which is exactly what a plain [place] at the same seed produces. *)
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  let single = Place.place ~seed:3 ~effort:`Detailed cl in
  let best = Place.portfolio ~count:6 ~seed:3 ~effort:`Detailed cl in
  Place.validate best cl;
  check Alcotest.bool "portfolio <= single" true
    (best.Place.hpwl <= single.Place.hpwl);
  (* count=1 degenerates to the plain placer *)
  let one = Place.portfolio ~count:1 ~seed:3 ~effort:`Detailed cl in
  check Alcotest.string "count=1 = place" (place_fingerprint single)
    (place_fingerprint one)

(* The SA-vs-SAT race must pick the identical winner — same arm, same
   placement — whether the two arms run serially or overlap on a
   four-worker pool: the winner rule is a pure function of the two
   arms' results. Checked on a clean fabric and on a defective one. *)
let test_race_jobs_equivalent () =
  let plan, arch = small_plan 1 in
  let cl = Cluster.pack plan ~arch in
  let width, height = Place.grid_dims cl in
  let fingerprint (p, winner) =
    Printf.sprintf "%s|%s"
      (match winner with `Sa -> "sa" | `Sat -> "sat")
      (place_fingerprint p)
  in
  List.iter
    (fun (label, defects) ->
      let run jobs =
        Pool.with_pool ~jobs (fun pool ->
            fingerprint (Sat_place.race ~pool ~count:4 ~seed:3 ~defects cl))
      in
      let serial = fingerprint (Sat_place.race ~count:4 ~seed:3 ~defects cl) in
      check Alcotest.string (label ^ ": jobs=1 = no pool") serial (run 1);
      check Alcotest.string (label ^ ": jobs=4 = no pool") serial (run 4))
    [ ("clean", Defect.none);
      ("defective",
       Defect.random_les ~seed:11 ~fraction:0.05 ~width ~height arch) ]

let test_sweep_jobs_equivalent () =
  let b = Circuits.ex1_small () in
  let p = Mapper.prepare b.Circuits.design in
  let arch = Arch.unbounded_k in
  let fingerprint plans =
    List.map
      (fun ((level, plan) : int * Mapper.plan) ->
        Printf.sprintf "%d:%d:%d:%.6f" level plan.Mapper.stages
          plan.Mapper.les plan.Mapper.delay_ns)
      plans
    |> String.concat "|"
  in
  let serial = fingerprint (Mapper.sweep p ~arch) in
  let pooled jobs =
    Pool.with_pool ~jobs (fun pool ->
        fingerprint (Mapper.sweep ~pool p ~arch))
  in
  check Alcotest.string "jobs=1 = serial" serial (pooled 1);
  check Alcotest.string "jobs=4 = serial" serial (pooled 4)

(* --- golden placements: the annealer's exact output on the paper
   circuits, pinned byte for byte. The cost bookkeeping inside [Place] may
   change only if every placement here stays the same; refresh with
   `make regen-golden` after an intentional change. Clusters come from the
   default flow without its physical half, as [map] would build them. --- *)

module Flow = Nanomap_flow.Flow

let paper_clusters =
  lazy
    (List.map
       (fun (b : Circuits.benchmark) ->
         let options = { Flow.default_options with Flow.physical = false } in
         (b.Circuits.name, (Flow.run ~options b.Circuits.design).Flow.cluster))
       (Circuits.all ()))

let golden_place_line label (p : Place.t) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s hpwl=%.17g tried=%d accepted=%d xy=" label p.Place.hpwl
    p.Place.moves_tried p.Place.moves_accepted;
  Array.iter (fun (x, y) -> Printf.bprintf b "%d,%d;" x y) p.Place.smb_xy;
  Buffer.contents b

let golden_placements () =
  let clusters = Lazy.force paper_clusters in
  let per_design =
    List.concat_map
      (fun (name, cl) ->
        let fast = Place.place ~effort:`Fast cl in
        let detailed = Place.place ~effort:`Detailed ~init:fast cl in
        [ golden_place_line (name ^ " fast") fast;
          golden_place_line (name ^ " detailed") detailed ])
      clusters
  in
  let name, cl = List.hd clusters in
  let width, height = Place.grid_dims cl in
  let defects =
    Defect.random_les ~seed:7 ~fraction:0.05 ~width ~height cl.Cluster.arch
  in
  let fast = Place.place ~effort:`Fast cl in
  let defective = Place.place ~effort:`Fast ~defects cl in
  per_design
  @ [ golden_place_line (name ^ " fast joint=false")
        (Place.place ~effort:`Fast ~joint:false cl);
      golden_place_line (name ^ " fast defects") defective;
      golden_place_line (name ^ " detailed defects")
        (Place.place ~effort:`Detailed ~init:defective ~defects cl);
      golden_place_line (name ^ " portfolio count=3")
        (Place.portfolio ~count:3 ~effort:`Detailed ~init:fast cl) ]

let test_golden_placements () =
  let got = String.concat "\n" (golden_placements ()) ^ "\n" in
  match Sys.getenv_opt "NANOMAP_REGEN_GOLDEN" with
  | Some dir ->
    let path = Filename.concat dir "placements.txt" in
    let oc = open_out_bin path in
    output_string oc got;
    close_out oc;
    Printf.printf "regenerated %s\n%!" path
  | None ->
    let path = Filename.concat "golden" "placements.txt" in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing golden file %s — run `make regen-golden`" path;
    let ic = open_in_bin path in
    let want = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let rec first_diff = function
      | w :: ws, g :: gs -> if w = g then first_diff (ws, gs) else Some (w, g)
      | w :: _, [] -> Some (w, "")
      | [], g :: _ -> Some ("", g)
      | [], [] -> None
    in
    match
      first_diff
        (String.split_on_char '\n' want, String.split_on_char '\n' got)
    with
    | None -> ()
    | Some (w, g) ->
      Alcotest.failf
        "placement differs from golden:\n-%s\n+%s\nrun `make regen-golden` \
         if the change is intentional"
        w g

let () =
  Alcotest.run "physical"
    [ ( "cluster",
        [ Alcotest.test_case "all LUTs placed" `Quick test_cluster_all_luts_placed;
          Alcotest.test_case "no LE conflicts" `Quick test_cluster_no_le_conflicts;
          Alcotest.test_case "area close to plan" `Quick test_cluster_area_close_to_plan;
          Alcotest.test_case "state homes" `Quick test_cluster_state_bits_have_homes;
          Alcotest.test_case "net shape" `Quick test_cluster_nets_have_sinks;
          Alcotest.test_case "stats" `Quick test_cluster_stats ] );
      ( "smb-local",
        [ Alcotest.test_case "analysis + rebalance" `Quick test_smb_local_analysis;
          Alcotest.test_case "pin guard spreads" `Quick test_smb_pin_guard_spreads ] );
      ( "place",
        [ Alcotest.test_case "legal + deterministic" `Quick
            test_place_legal_and_deterministic;
          Alcotest.test_case "quality" `Quick test_place_improves_over_initial;
          Alcotest.test_case "estimates" `Quick test_place_routability_positive ] );
      ( "sat-place",
        [ Alcotest.test_case "clean fabric" `Quick test_sat_place_clean_fabric;
          Alcotest.test_case "defect sweep vs exhaustive" `Quick
            test_sat_place_defect_sweep;
          Alcotest.test_case "all-dead fabric unsat" `Quick
            test_sat_place_all_dead_unsat;
          Alcotest.test_case "distance bound" `Quick
            test_sat_place_distance_bound ] );
      ( "rr_graph",
        [ Alcotest.test_case "shapes" `Quick test_rr_graph_shapes;
          Alcotest.test_case "reachability" `Quick test_rr_graph_full_reachability ] );
      ( "router",
        [ Alcotest.test_case "success + valid" `Quick test_router_succeeds_and_validates;
          Alcotest.test_case "no-folding" `Quick test_router_no_folding;
          Alcotest.test_case "all nets routed" `Quick test_router_all_nets_routed;
          Alcotest.test_case "timing" `Quick test_router_timing_positive;
          Alcotest.test_case "usage stats" `Quick test_router_usage_stats_consistent ] );
      ( "bitstream",
        [ Alcotest.test_case "shape" `Quick test_bitstream_shape;
          Alcotest.test_case "deterministic" `Quick test_bitstream_deterministic;
          Alcotest.test_case "roundtrip" `Quick test_bitstream_roundtrip;
          Alcotest.test_case "nram accounting" `Quick test_bitstream_nram_accounting ] );
      ( "parallel",
        [ Alcotest.test_case "portfolio jobs-equivalent" `Quick
            test_portfolio_jobs_equivalent;
          Alcotest.test_case "portfolio best-of" `Quick test_portfolio_best_of;
          Alcotest.test_case "race jobs-equivalent" `Quick
            test_race_jobs_equivalent;
          Alcotest.test_case "folding sweep jobs-equivalent" `Quick
            test_sweep_jobs_equivalent ] );
      ( "golden",
        [ Alcotest.test_case "paper-circuit placements" `Quick
            test_golden_placements ] ) ]
