(* Router correctness harness: heap ordering invariants, generation-stamp
   scratch semantics, A* lookahead admissibility on hand-built and real
   routing graphs, deterministic net ordering, full-vs-incremental
   agreement, routed timing against the router's former inline pass, and
   the golden routed-result regression corpus.

   Golden files live in test/golden/ and are compared byte-for-byte; to
   refresh them after an intentional router change run `make regen-golden`
   (it re-runs just this suite with NANOMAP_REGEN_GOLDEN pointing at the
   source tree). *)

module Arch = Nanomap_arch.Arch
module Mapper = Nanomap_core.Mapper
module Cluster = Nanomap_cluster.Cluster
module Place = Nanomap_place.Place
module Rr_graph = Nanomap_route.Rr_graph
module Router = Nanomap_route.Router
module Timing = Nanomap_route.Timing
module Partition = Nanomap_techmap.Partition
module Lut_network = Nanomap_techmap.Lut_network
module Circuits = Nanomap_circuits.Circuits
module Min_heap = Nanomap_util.Min_heap
module Rng = Nanomap_util.Rng

let check = Alcotest.check

(* --- min-heap --- *)

let test_heap_ordering () =
  let h = Min_heap.create ~capacity:2 () in
  let rng = Rng.create 42 in
  let n = 500 in
  for i = 0 to n - 1 do
    Min_heap.push h (float_of_int (Rng.int rng 10_000) /. 7.0) i
  done;
  check Alcotest.int "length" n (Min_heap.length h);
  let last = ref neg_infinity in
  let popped = ref 0 in
  let seen = Array.make n false in
  let continue_ = ref true in
  while !continue_ do
    match Min_heap.pop h with
    | None -> continue_ := false
    | Some (k, v) ->
      check Alcotest.bool "keys nondecreasing" true (k >= !last);
      last := k;
      seen.(v) <- true;
      incr popped
  done;
  check Alcotest.int "all entries popped" n !popped;
  Array.iteri
    (fun i s -> check Alcotest.bool (Printf.sprintf "payload %d seen" i) true s)
    seen

let test_heap_interleaved () =
  let h = Min_heap.create () in
  Min_heap.push h 3.0 3;
  Min_heap.push h 1.0 1;
  check Alcotest.(option (pair (float 1e-9) int)) "min first" (Some (1.0, 1))
    (Min_heap.pop h);
  Min_heap.push h 2.0 2;
  Min_heap.push h 0.5 0;
  check Alcotest.(option (pair (float 1e-9) int)) "new min" (Some (0.5, 0))
    (Min_heap.pop h);
  check Alcotest.int "two left" 2 (Min_heap.length h);
  Min_heap.clear h;
  check Alcotest.bool "cleared" true (Min_heap.is_empty h);
  check Alcotest.(option (pair (float 1e-9) int)) "empty pop" None (Min_heap.pop h);
  check Alcotest.bool "pop_unsafe raises" true
    (match Min_heap.pop_unsafe h with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* duplicate keys must all surface, in some order, without loss *)
let test_heap_duplicates () =
  let h = Min_heap.create () in
  List.iter (fun v -> Min_heap.push h 1.0 v) [ 10; 11; 12 ];
  Min_heap.push h 0.0 0;
  let order = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match Min_heap.pop h with
    | None -> continue_ := false
    | Some (_, v) -> order := v :: !order
  done;
  let popped = List.rev !order in
  check Alcotest.int "four pops" 4 (List.length popped);
  check Alcotest.int "strict min first" 0 (List.hd popped);
  check Alcotest.bool "duplicates preserved" true
    (List.sort compare (List.tl popped) = [ 10; 11; 12 ])

(* --- generation-stamped scratch --- *)

let test_scratch_reset () =
  let s = Router.Scratch.create 8 in
  check Alcotest.int "size" 8 (Router.Scratch.size s);
  for v = 0 to 7 do
    check (Alcotest.float 0.0) "fresh dist" infinity (Router.Scratch.dist s v);
    check Alcotest.int "fresh prev" (-1) (Router.Scratch.prev s v)
  done;
  Router.Scratch.begin_search s;
  Router.Scratch.set s 3 ~dist:1.5 ~prev:2;
  Router.Scratch.set s 5 ~dist:0.25 ~prev:3;
  check (Alcotest.float 1e-12) "set dist" 1.5 (Router.Scratch.dist s 3);
  check Alcotest.int "set prev" 2 (Router.Scratch.prev s 3);
  check (Alcotest.float 0.0) "untouched stays inf" infinity (Router.Scratch.dist s 4);
  (* a new search must see pristine state without any refill *)
  Router.Scratch.begin_search s;
  for v = 0 to 7 do
    check (Alcotest.float 0.0) "reset dist" infinity (Router.Scratch.dist s v);
    check Alcotest.int "reset prev" (-1) (Router.Scratch.prev s v)
  done;
  (* stale cells from an old generation are invisible but overwritable *)
  Router.Scratch.set s 3 ~dist:9.0 ~prev:7;
  check (Alcotest.float 1e-12) "rewrite after reset" 9.0 (Router.Scratch.dist s 3);
  check Alcotest.int "rewrite prev" 7 (Router.Scratch.prev s 3)

let test_scratch_many_generations () =
  let s = Router.Scratch.create 4 in
  for round = 1 to 1000 do
    Router.Scratch.begin_search s;
    let v = round mod 4 in
    check (Alcotest.float 0.0) "clean each round" infinity (Router.Scratch.dist s v);
    Router.Scratch.set s v ~dist:(float_of_int round) ~prev:round;
    check (Alcotest.float 1e-12) "written" (float_of_int round)
      (Router.Scratch.dist s v)
  done

(* --- A* lookahead admissibility --- *)

(* Reference forward Dijkstra: cheapest sum of per-node entry costs from
   [src] to every node, where entering node [v] costs [cost v]. Mirrors
   the router's relaxation exactly. *)
let ref_dijkstra g ~cost src =
  let n = g.Rr_graph.num_nodes in
  let dist = Array.make n infinity in
  let h = Min_heap.create () in
  dist.(src) <- 0.0;
  Min_heap.push h 0.0 src;
  let continue_ = ref true in
  while !continue_ do
    match Min_heap.pop h with
    | None -> continue_ := false
    | Some (d, u) ->
      if d <= dist.(u) then
        List.iter
          (fun v ->
            let nd = d +. cost v in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              Min_heap.push h nd v
            end)
          g.Rr_graph.adj.(u)
  done;
  dist

(* hand-built diamond with a dead-end branch:
     src0 -> len1 -> len1 -> sink0   (cheap two-hop path)
     src0 -> global -> sink0        (expensive shortcut)
     src0 -> direct dead-end        (unreachable from the sink) *)
let hand_graph () =
  Rr_graph.make
    ~kind:
      [| Rr_graph.Src 0;
         Rr_graph.Wire Rr_graph.Len1;
         Rr_graph.Wire Rr_graph.Len1;
         Rr_graph.Wire Rr_graph.Global;
         Rr_graph.Sink 0;
         Rr_graph.Wire Rr_graph.Direct |]
    ~delay:[| 0.0; 0.35; 0.35; 0.9; 0.0; 0.25 |]
    ~adj:[| [ 1; 3; 5 ]; [ 2 ]; [ 4 ]; [ 4 ]; []; [] |]
    ~src_of_smb:[| 0 |] ~sink_of_smb:[| 4 |] ~src_of_pad:[||] ~sink_of_pad:[||]
    ()

let check_admissible g sink =
  let lb = Rr_graph.lookahead g sink in
  (* uncongested: the lookahead is the exact remaining cost, so for every
     node u reachable to the sink, dist(src->u) + lb(u) >= dist(src->sink),
     and lb along the base-cost metric never overestimates. Verify against
     a reference Dijkstra from each source. *)
  let base v = Rr_graph.base_cost g v in
  Array.iter
    (fun src ->
      let d = ref_dijkstra g ~cost:base src in
      for u = 0 to g.Rr_graph.num_nodes - 1 do
        if d.(u) < infinity && d.(sink) < infinity then
          (* admissibility: going through u cannot beat the true optimum,
             i.e. lb(u) <= true remaining cost whenever u lies on a path *)
          check Alcotest.bool
            (Printf.sprintf "lb consistent at node %d" u)
            true
            (lb.(u) = infinity || d.(u) +. lb.(u) >= d.(sink) -. 1e-9)
      done;
      (* exactness at the source: A* from src sees f = true optimum *)
      if d.(sink) < infinity then
        check (Alcotest.float 1e-9) "lookahead exact at source" d.(sink) lb.(src))
    g.Rr_graph.src_of_smb;
  (* congestion only raises costs, so lb stays a lower bound on the
     remaining cost under any history/present multipliers >= 1; sample
     starting nodes to keep the quadratic reference affordable *)
  let rng = Rng.create (17 * sink + 3) in
  let mult =
    Array.init g.Rr_graph.num_nodes (fun _ ->
        1.0 +. (float_of_int (Rng.int rng 400) /. 100.0))
  in
  let congested v = base v *. mult.(v) in
  let stride = max 1 (g.Rr_graph.num_nodes / 40) in
  let u = ref 0 in
  while !u < g.Rr_graph.num_nodes do
    if lb.(!u) < infinity then begin
      let du = ref_dijkstra g ~cost:congested !u in
      if du.(sink) < infinity then
        check Alcotest.bool
          (Printf.sprintf "admissible under congestion at node %d" !u)
          true
          (lb.(!u) <= du.(sink) +. 1e-9)
    end;
    u := !u + stride
  done

let test_lookahead_hand_graph () =
  let g = hand_graph () in
  let lb = Rr_graph.lookahead g 4 in
  check (Alcotest.float 1e-9) "sink lb is 0" 0.0 lb.(4);
  check (Alcotest.float 1e-9) "last hop lb" 0.01 lb.(2);
  check (Alcotest.float 1e-9) "global shortcut lb" 0.01 lb.(3);
  check (Alcotest.float 1e-9) "two-hop path lb" 0.37 lb.(1);
  (* src: min(0.36 + 0.37 via len1, 0.91 + 0.01 via global) *)
  check (Alcotest.float 1e-9) "src takes cheap path" 0.73 lb.(0);
  check (Alcotest.float 0.0) "dead-end is infinity" infinity lb.(5);
  check_admissible g 4;
  (* the cache returns the same physical array *)
  check Alcotest.bool "cached" true (Rr_graph.lookahead g 4 == lb)

let small_fixture ?(seed = 7) level (b : Circuits.benchmark) =
  let p = Mapper.prepare b.Circuits.design in
  let arch = Arch.unbounded_k in
  let plan =
    if level = 0 then Mapper.no_folding p ~arch else Mapper.plan_level p ~arch ~level
  in
  let cl = Cluster.pack plan ~arch in
  let place = Place.place ~seed ~effort:`Fast cl in
  (plan, cl, place)

let test_lookahead_real_graph () =
  let _, _, place = small_fixture 1 (Circuits.ex1_small ()) in
  let g = Rr_graph.build ~arch:Arch.unbounded_k place in
  check_admissible g g.Rr_graph.sink_of_smb.(0);
  if Array.length g.Rr_graph.sink_of_pad > 0 then
    check_admissible g g.Rr_graph.sink_of_pad.(0)

(* --- deterministic net ordering --- *)

let test_group_by_slot_sorted_and_stable () =
  let _, cl, _ = small_fixture 1 (Circuits.ex1_small ()) in
  let slots = Router.group_by_slot cl.Cluster.nets in
  let keys = List.map fst slots in
  check Alcotest.bool "slot keys strictly ascending" true
    (List.for_all2 (fun a b -> a < b) (List.filteri (fun i _ -> i < List.length keys - 1) keys)
       (List.tl keys));
  (* nets within a slot keep their cluster order (stable grouping) *)
  List.iter
    (fun (key, nets) ->
      let expected =
        List.filter
          (fun (n : Cluster.net) -> (n.Cluster.plane, n.Cluster.cycle) = key)
          cl.Cluster.nets
      in
      check Alcotest.bool "slot preserves input order" true (nets = expected))
    slots;
  (* grouping loses nothing *)
  check Alcotest.int "all nets grouped" (List.length cl.Cluster.nets)
    (List.fold_left (fun acc (_, ns) -> acc + List.length ns) 0 slots)

let test_route_deterministic () =
  let _, cl, place = small_fixture 1 (Circuits.ex1_small ()) in
  let tree_sets (r : Router.result) =
    List.map (fun (rn : Router.routed_net) -> List.sort compare rn.Router.tree) r.Router.routed
  in
  List.iter
    (fun alg ->
      let r1, f1 = Router.route_adaptive ~alg place cl in
      let r2, f2 = Router.route_adaptive ~alg place cl in
      check Alcotest.int "same channel factor" f1 f2;
      check Alcotest.bool "identical trees" true (tree_sets r1 = tree_sets r2))
    [ Router.Full; Router.Incremental ]

(* --- full vs incremental --- *)

let test_algorithms_agree () =
  List.iter
    (fun level ->
      let _, cl, place = small_fixture level (Circuits.ex1_small ()) in
      let full, _ = Router.route_adaptive ~alg:Router.Full place cl in
      let inc, _ = Router.route_adaptive ~alg:Router.Incremental place cl in
      check Alcotest.bool "full legal" true full.Router.success;
      check Alcotest.bool "incremental legal" true inc.Router.success;
      Router.validate full;
      Router.validate inc;
      check Alcotest.int "full zero overuse" 0 full.Router.overused;
      check Alcotest.int "incremental zero overuse" 0 inc.Router.overused;
      check Alcotest.int "same net count" full.Router.total_nets inc.Router.total_nets)
    [ 0; 1; 2 ]

(* --- golden corpus --- *)

let golden_cases () =
  [ ("ex1s-l0", Circuits.ex1_small (), 0);
    ("ex1s-l1", Circuits.ex1_small (), 1);
    ("ex1s-l2", Circuits.ex1_small (), 2);
    ("ex1-l1", Circuits.ex1 (), 1) ]

let string_of_value = function
  | Cluster.V_lut (p, l) -> Printf.sprintf "lut:%d:%d" p l
  | Cluster.V_state (r, b) -> Printf.sprintf "state:%d:%d" r b
  | Cluster.V_pi (s, b) -> Printf.sprintf "pi:%d:%d" s b

let string_of_ep = function
  | Cluster.At_smb s -> "smb:" ^ string_of_int s
  | Cluster.At_pad p -> "pad:" ^ string_of_int p

let serialize_routing alg_name (r : Router.result) =
  List.map
    (fun (rn : Router.routed_net) ->
      let net = rn.Router.net in
      Printf.sprintf "%s plane=%d cycle=%d value=%s driver=%s sinks=%s wires=%s"
        alg_name net.Cluster.plane net.Cluster.cycle
        (string_of_value net.Cluster.value)
        (string_of_ep net.Cluster.driver)
        (String.concat "," (List.sort compare (List.map string_of_ep net.Cluster.sinks)))
        (String.concat ","
           (List.map string_of_int (List.sort compare rn.Router.tree))))
    r.Router.routed

let golden_text (b : Circuits.benchmark) level =
  let _, cl, place = small_fixture level b in
  let lines =
    List.concat_map
      (fun (alg, alg_name) ->
        let r, factor = Router.route_adaptive ~alg place cl in
        check Alcotest.bool (alg_name ^ " legal") true r.Router.success;
        Router.validate r;
        Printf.sprintf "# alg=%s channel_factor=%d nets=%d wirelength=%d"
          alg_name factor r.Router.total_nets r.Router.wirelength
        :: List.sort compare (serialize_routing alg_name r))
      [ (Router.Full, "full"); (Router.Incremental, "incremental") ]
  in
  String.concat "\n" lines ^ "\n"

(* --- routed timing against the reference pass --- *)

(* The per-sink delays as the router used to compute them inline: a
   Bellman-style fixpoint over each net's tree, relaxing from a copy of the
   table until nothing changes. Timing's single Dijkstra must reproduce it
   bit for bit. *)
let reference_sink_delays (r : Router.result) arch =
  let g = r.Router.graph in
  List.map
    (fun (rn : Router.routed_net) ->
      let net = rn.Router.net in
      let allowed = Hashtbl.create 16 in
      List.iter (fun nd -> Hashtbl.replace allowed nd ()) rn.Router.tree;
      let src = Rr_graph.src_node g net.Cluster.driver in
      Hashtbl.replace allowed src ();
      List.iter
        (fun ep -> Hashtbl.replace allowed (Rr_graph.sink_node g ep) ())
        net.Cluster.sinks;
      let d = Hashtbl.create 16 in
      Hashtbl.replace d src 0.0;
      let changed = ref true in
      while !changed do
        changed := false;
        Hashtbl.iter
          (fun u du ->
            List.iter
              (fun v ->
                if Hashtbl.mem allowed v then begin
                  let cand = du +. g.Rr_graph.delay.(v) in
                  match Hashtbl.find_opt d v with
                  | Some dv when dv <= cand -> ()
                  | _ ->
                    Hashtbl.replace d v cand;
                    changed := true
                end)
              g.Rr_graph.adj.(u))
          (Hashtbl.copy d)
      done;
      List.map
        (fun ep ->
          Option.value ~default:arch.Arch.t_global
            (Hashtbl.find_opt d (Rr_graph.sink_node g ep)))
        net.Cluster.sinks)
    r.Router.routed

(* The router's former inline arrival-time pass over those delays: the
   routed folding period. *)
let reference_period (r : Router.result) (cl : Cluster.t) (plan : Mapper.plan) =
  let arch = cl.Cluster.arch in
  let delay_lookup = Hashtbl.create 256 in
  List.iter2
    (fun (rn : Router.routed_net) delays ->
      let net = rn.Router.net in
      List.iter2
        (fun ep d ->
          Hashtbl.replace delay_lookup
            (net.Cluster.plane, net.Cluster.cycle, net.Cluster.value, ep)
            d)
        net.Cluster.sinks delays)
    r.Router.routed
    (reference_sink_delays r arch);
  let worst = ref 0.0 in
  Array.iter
    (fun (plp : Mapper.plane_plan) ->
      let plane = plp.Mapper.plane_index in
      let network = plp.Mapper.network in
      let part = plp.Mapper.partition in
      let arrival = Array.make (Lut_network.size network) 0.0 in
      Lut_network.iter
        (fun l -> function
          | Lut_network.Input _ -> ()
          | Lut_network.Lut { fanins; _ } ->
            let c = plp.Mapper.schedule.(part.Partition.unit_of_lut.(l)) in
            let my_slot = Hashtbl.find cl.Cluster.lut_slots (plane, l) in
            let my_smb = my_slot.Cluster.smb in
            let local_delay = function
              | Some (slot : Cluster.slot)
                when slot.Cluster.smb = my_smb && slot.Cluster.mb = my_slot.Cluster.mb
                -> arch.Arch.t_intra_mb
              | Some _ | None -> arch.Arch.t_local
            in
            let slot_of_value = function
              | Cluster.V_lut (p', l') -> Hashtbl.find_opt cl.Cluster.lut_slots (p', l')
              | (Cluster.V_state _ | Cluster.V_pi _) as v ->
                Option.map fst (Hashtbl.find_opt cl.Cluster.ff_slots v)
            in
            let net_delay value =
              match
                Hashtbl.find_opt delay_lookup (plane, c, value, Cluster.At_smb my_smb)
              with
              | Some d -> d
              | None -> local_delay (slot_of_value value)
            in
            let input_arrival f =
              match Lut_network.node network f with
              | Lut_network.Lut _ ->
                let fc = plp.Mapper.schedule.(part.Partition.unit_of_lut.(f)) in
                (if fc = c then arrival.(f) else 0.0)
                +. net_delay (Cluster.V_lut (plane, f))
              | Lut_network.Input (Lut_network.Register_bit (r, b))
              | Lut_network.Input (Lut_network.Wire_bit (r, b)) ->
                net_delay (Cluster.V_state (r, b))
              | Lut_network.Input (Lut_network.Pi_bit (s, b)) ->
                net_delay (Cluster.V_pi (s, b))
              | Lut_network.Input (Lut_network.Const_bit _) -> 0.0
            in
            let worst_in =
              Array.fold_left (fun acc f -> Float.max acc (input_arrival f)) 0.0 fanins
            in
            arrival.(l) <- worst_in +. arch.Arch.t_lut;
            if arrival.(l) > !worst then worst := arrival.(l))
        network)
    plan.Mapper.planes;
  !worst +. arch.Arch.t_reconf +. arch.Arch.t_setup

let test_timing_matches_reference (b : Circuits.benchmark) level () =
  let plan, cl, place = small_fixture level b in
  List.iter
    (fun (alg, alg_name) ->
      let r, _ = Router.route_adaptive ~alg place cl in
      Router.validate r;
      let got = Timing.sink_delays r in
      let want = reference_sink_delays r cl.Cluster.arch in
      check Alcotest.int (alg_name ^ ": one delay list per net")
        (List.length want) (List.length got);
      List.iter2
        (List.iter2 (fun w g ->
             if not (Float.equal w g) then
               Alcotest.failf "%s: sink delay %h, reference %h" alg_name g w))
        want got;
      let n = Array.length plan.Mapper.planes * plan.Mapper.stages in
      let want_delay = float_of_int n *. reference_period r cl plan in
      let got_delay = Timing.routed_delay_ns r cl plan in
      if not (Float.equal want_delay got_delay) then
        Alcotest.failf "%s: routed delay %h, reference %h" alg_name got_delay
          want_delay)
    [ (Router.Full, "full"); (Router.Incremental, "incremental") ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_golden name b level () =
  let got = golden_text b level in
  match Sys.getenv_opt "NANOMAP_REGEN_GOLDEN" with
  | Some dir ->
    let path = Filename.concat dir (name ^ ".txt") in
    let oc = open_out_bin path in
    output_string oc got;
    close_out oc;
    Printf.printf "regenerated %s\n%!" path
  | None ->
    let path = Filename.concat "golden" (name ^ ".txt") in
    if not (Sys.file_exists path) then
      Alcotest.fail
        (Printf.sprintf "missing golden file %s — run `make regen-golden`" path);
    let want = read_file path in
    if got <> want then begin
      let got_lines = String.split_on_char '\n' got in
      let want_lines = String.split_on_char '\n' want in
      let missing =
        List.filter (fun l -> not (List.mem l got_lines)) want_lines
      and extra =
        List.filter (fun l -> not (List.mem l want_lines)) got_lines
      in
      Alcotest.fail
        (Printf.sprintf
           "routed result for %s differs from golden (%d line(s) missing, %d \
            unexpected); first diff:\n-%s\n+%s\nrun `make regen-golden` if the \
            change is intentional"
           name (List.length missing) (List.length extra)
           (match missing with l :: _ -> l | [] -> "")
           (match extra with l :: _ -> l | [] -> ""))
    end

let () =
  Alcotest.run "router"
    [ ( "heap",
        [ Alcotest.test_case "ordering invariant" `Quick test_heap_ordering;
          Alcotest.test_case "interleaved ops" `Quick test_heap_interleaved;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates ] );
      ( "scratch",
        [ Alcotest.test_case "generation reset" `Quick test_scratch_reset;
          Alcotest.test_case "many generations" `Quick test_scratch_many_generations ] );
      ( "lookahead",
        [ Alcotest.test_case "hand-built graph" `Quick test_lookahead_hand_graph;
          Alcotest.test_case "real graph" `Quick test_lookahead_real_graph ] );
      ( "determinism",
        [ Alcotest.test_case "group_by_slot" `Quick test_group_by_slot_sorted_and_stable;
          Alcotest.test_case "repeat routes" `Quick test_route_deterministic ] );
      ( "differential",
        [ Alcotest.test_case "full vs incremental" `Quick test_algorithms_agree ] );
      ( "timing",
        List.map
          (fun (name, b, level) ->
            Alcotest.test_case (name ^ " matches reference") `Quick
              (test_timing_matches_reference b level))
          (golden_cases ()) );
      ( "golden",
        List.map
          (fun (name, b, level) ->
            Alcotest.test_case name `Quick (test_golden name b level))
          (golden_cases ()) ) ]
