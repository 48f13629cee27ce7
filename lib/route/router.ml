module Defect = Nanomap_arch.Defect
module Diag = Nanomap_util.Diag
module Cluster = Nanomap_cluster.Cluster
module Place = Nanomap_place.Place
module Telemetry = Nanomap_util.Telemetry
module Min_heap = Nanomap_util.Min_heap

let c_pathfinder_iters = Telemetry.counter "route.pathfinder_iters"
let c_heap_pushes = Telemetry.counter "route.heap_pushes"
let c_heap_pops = Telemetry.counter "route.heap_pops"
let c_nodes_expanded = Telemetry.counter "route.nodes_expanded"
let c_nets_rerouted = Telemetry.counter "route.nets_rerouted"
let c_astar_pruned = Telemetry.counter "route.astar_pruned"

type algorithm = Full | Incremental

type routed_net = {
  net : Cluster.net;
  tree : int list;
}

type result = {
  graph : Rr_graph.t;
  routed : routed_net list;
  success : bool;
  iterations : int;
  overused : int;
  usage_by_kind : (string * int) list;
  nets_using_global : int;
  total_nets : int;
  wirelength : int;
}

(* Wavefront scratch (distances and backpointers) over flat arrays indexed
   by rr-node id. A search is invalidated in O(1) by bumping the generation
   stamp instead of refilling the arrays or walking a touched list: a cell
   belongs to the current search only if its stamp matches. *)
module Scratch = struct
  type t = {
    dist_a : float array;
    prev_a : int array;
    gen : int array;
    mutable stamp : int;
  }

  let create n =
    { dist_a = Array.make n infinity;
      prev_a = Array.make n (-1);
      gen = Array.make n 0;
      stamp = 0 }

  let size s = Array.length s.gen

  let begin_search s = s.stamp <- s.stamp + 1

  let dist s v = if s.gen.(v) = s.stamp then s.dist_a.(v) else infinity

  let prev s v = if s.gen.(v) = s.stamp then s.prev_a.(v) else -1

  let set s v ~dist ~prev =
    s.dist_a.(v) <- dist;
    s.prev_a.(v) <- prev;
    s.gen.(v) <- s.stamp
end

let is_wire (g : Rr_graph.t) n =
  match g.Rr_graph.kind.(n) with
  | Rr_graph.Wire _ -> true
  | Rr_graph.Src _ | Rr_graph.Sink _ | Rr_graph.Pad_src _ | Rr_graph.Pad_sink _ ->
    false

(* Deterministic timeslot buckets: slots ascending by (plane, cycle), nets
   within a slot in their original cluster order. The Hashtbl only groups;
   its iteration order never reaches the routing order, so same-seed runs
   route nets identically. *)
let group_by_slot nets =
  let by_slot = Hashtbl.create 32 in
  List.iter
    (fun (net : Cluster.net) ->
      let key = (net.Cluster.plane, net.Cluster.cycle) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_slot key) in
      Hashtbl.replace by_slot key (net :: cur))
    nets;
  Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) by_slot []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let ep_string = function
  | Cluster.At_smb s -> "smb:" ^ string_of_int s
  | Cluster.At_pad p -> "pad:" ^ string_of_int p

let route ?(caps = Rr_graph.default_caps) ?(defects = Defect.none)
    ?(max_iterations = 12) ?(alg = Incremental) (pl : Place.t) (cl : Cluster.t) =
  let g = Rr_graph.build ~caps ~defects ~arch:cl.Cluster.arch pl in
  let n = g.Rr_graph.num_nodes in
  let astar = alg = Incremental in
  let slots = group_by_slot cl.Cluster.nets in
  (* scratch state reused across nets and timeslots *)
  let usage = Array.make n 0 in
  let history = Array.make n 0.0 in
  let scratch = Scratch.create n in
  let heap = Min_heap.create () in
  (* tree membership by stamp: on_tree.(v) = current net's stamp *)
  let on_tree = Array.make n 0 in
  let tree_stamp = ref 0 in
  let all_routed = ref [] in
  let worst_iters = ref 0 in
  let total_overused = ref 0 in
  let all_success = ref true in
  List.iter
    (fun (_slot, nets) ->
      Array.fill usage 0 n 0;
      Array.fill history 0 n 0.0;
      let trees : (Cluster.net * int list) array =
        Array.of_list (List.map (fun net -> (net, [])) nets)
      in
      let pres_fac = ref 0.5 in
      let cost_of nd =
        let base = Rr_graph.base_cost g nd in
        if is_wire g nd then begin
          let over = usage.(nd) in
          let pres =
            if over > 0 then 1.0 +. (!pres_fac *. float_of_int over) else 1.0
          in
          base *. (1.0 +. history.(nd)) *. pres
        end
        else base
      in
      (* Rip up [old_tree] and grow a fresh Steiner-ish tree, sink by sink.
         Multi-source Dijkstra from the current tree; with [astar] the
         priority is dist + lookahead-to-sink, and discoveries the bound
         proves useless (unreachable sink, or provably no better than an
         already-found path to the sink) never enter the heap. *)
      let route_one (net : Cluster.net) old_tree =
        Telemetry.incr c_nets_rerouted;
        List.iter (fun nd -> usage.(nd) <- usage.(nd) - 1) old_tree;
        let src = Rr_graph.src_node g net.Cluster.driver in
        incr tree_stamp;
        let stamp = !tree_stamp in
        on_tree.(src) <- stamp;
        let tree_nodes = ref [ src ] in
        let tree_wires = ref [] in
        List.iter
          (fun sink_ep ->
            let target = Rr_graph.sink_node g sink_ep in
            let lb = if astar then Rr_graph.lookahead g target else [||] in
            let h v = if astar then lb.(v) else 0.0 in
            Scratch.begin_search scratch;
            Min_heap.clear heap;
            List.iter
              (fun t ->
                Scratch.set scratch t ~dist:0.0 ~prev:(-1);
                let f = h t in
                if f < infinity then begin
                  Telemetry.incr c_heap_pushes;
                  Min_heap.push heap f t
                end)
              !tree_nodes;
            (* tightest complete-path cost discovered so far; with A* any
               frontier entry at least this expensive is dead weight *)
            let upper = ref infinity in
            let found = ref false in
            while not !found do
              match Min_heap.pop heap with
              | None ->
                Diag.fail ~stage:"route" ~code:"unreachable-sink"
                  ~context:
                    [ ("plane", string_of_int net.Cluster.plane);
                      ("cycle", string_of_int net.Cluster.cycle);
                      ("driver", ep_string net.Cluster.driver);
                      ("sink", ep_string sink_ep) ]
                  "no path to sink exists in the routing graph"
              | Some (f, u) ->
                Telemetry.incr c_heap_pops;
                let du = Scratch.dist scratch u in
                if f <= du +. h u +. 1e-9 then begin
                  if u = target then found := true
                  else begin
                    Telemetry.incr c_nodes_expanded;
                    List.iter
                      (fun v ->
                        let nd = du +. cost_of v in
                        if nd < Scratch.dist scratch v then begin
                          if astar && nd +. lb.(v) >= !upper then
                            Telemetry.incr c_astar_pruned
                          else begin
                            Scratch.set scratch v ~dist:nd ~prev:u;
                            if v = target then upper := nd;
                            Telemetry.incr c_heap_pushes;
                            Min_heap.push heap (nd +. h v) v
                          end
                        end)
                      g.Rr_graph.adj.(u)
                  end
                end
            done;
            (* walk back, add new nodes to the tree *)
            let rec walk v acc =
              if on_tree.(v) = stamp then acc
              else walk (Scratch.prev scratch v) (v :: acc)
            in
            let path = walk target [] in
            List.iter
              (fun v ->
                on_tree.(v) <- stamp;
                tree_nodes := v :: !tree_nodes;
                if is_wire g v then begin
                  usage.(v) <- usage.(v) + 1;
                  tree_wires := v :: !tree_wires
                end)
              path)
          net.Cluster.sinks;
        !tree_wires
      in
      let iter = ref 0 in
      let overused = ref 1 in
      while !overused > 0 && !iter < max_iterations do
        incr iter;
        Telemetry.incr c_pathfinder_iters;
        Array.iteri
          (fun idx (net, old_tree) ->
            (* Full: classic PathFinder, every net re-negotiates every
               iteration. Incremental: after the first iteration only nets
               sitting on an overused node are ripped up; legal nets keep
               their routes (their usage still shapes everyone's costs). *)
            let must_reroute =
              !iter = 1 || alg = Full
              || List.exists (fun nd -> usage.(nd) > 1) old_tree
            in
            if must_reroute then trees.(idx) <- (net, route_one net old_tree))
          trees;
        (* congestion accounting *)
        overused := 0;
        for nd = 0 to n - 1 do
          if usage.(nd) > 1 then begin
            incr overused;
            history.(nd) <- history.(nd) +. 1.0
          end
        done;
        pres_fac := !pres_fac *. 2.0
      done;
      if !overused > 0 then all_success := false;
      total_overused := !total_overused + !overused;
      if !iter > !worst_iters then worst_iters := !iter;
      Array.iter
        (fun (net, wires) -> all_routed := { net; tree = wires } :: !all_routed)
        trees)
    slots;
  let routed = !all_routed in
  (* usage stats *)
  let count kind_name pred =
    ( kind_name,
      List.fold_left
        (fun acc rn ->
          acc + List.length (List.filter (fun nd -> pred g.Rr_graph.kind.(nd)) rn.tree))
        0 routed )
  in
  let usage_by_kind =
    [ count "direct" (function Rr_graph.Wire Rr_graph.Direct -> true | _ -> false);
      count "len1" (function Rr_graph.Wire Rr_graph.Len1 -> true | _ -> false);
      count "len4" (function Rr_graph.Wire Rr_graph.Len4 -> true | _ -> false);
      count "global" (function Rr_graph.Wire Rr_graph.Global -> true | _ -> false) ]
  in
  (* Core nets only: pad I/O legitimately rides the global lines, so the
     paper's "global interconnect usage" claim is about SMB-to-SMB traffic. *)
  let is_core rn =
    let smb_only = function Cluster.At_smb _ -> true | Cluster.At_pad _ -> false in
    smb_only rn.net.Cluster.driver && List.for_all smb_only rn.net.Cluster.sinks
  in
  let nets_using_global =
    List.length
      (List.filter
         (fun rn ->
           is_core rn
           && List.exists
                (fun nd ->
                  match g.Rr_graph.kind.(nd) with
                  | Rr_graph.Wire Rr_graph.Global -> true
                  | _ -> false)
                rn.tree)
         routed)
  in
  let wirelength = List.fold_left (fun acc rn -> acc + List.length rn.tree) 0 routed in
  { graph = g;
    routed;
    success = !all_success;
    iterations = !worst_iters;
    overused = !total_overused;
    usage_by_kind;
    nets_using_global;
    total_nets = List.length routed;
    wirelength }

let validate r =
  let g = r.graph in
  (* per-timeslot single use of each wire node; never a defective node *)
  let used = Hashtbl.create 256 in
  List.iter
    (fun rn ->
      let slot = (rn.net.Cluster.plane, rn.net.Cluster.cycle) in
      List.iter
        (fun nd ->
          if g.Rr_graph.defective.(nd) then
            Diag.fail ~stage:"route" ~code:"defective-track"
              ~context:
                [ ("node", string_of_int nd);
                  ("kind", match g.Rr_graph.kind.(nd) with
                           | Rr_graph.Wire wk -> Rr_graph.wire_kind_name wk
                           | _ -> "non-wire") ]
              "routed net uses a wire marked defective";
          if Hashtbl.mem used (slot, nd) then
            Diag.fail ~stage:"route" ~code:"wire-shared"
              ~context:
                [ ("node", string_of_int nd);
                  ("plane", string_of_int rn.net.Cluster.plane);
                  ("cycle", string_of_int rn.net.Cluster.cycle) ]
              "wire node shared by two nets within one timeslot";
          Hashtbl.replace used (slot, nd) ())
        rn.tree)
    r.routed;
  (* connectivity: driver reaches every sink through tree edges *)
  List.iter
    (fun rn ->
      let allowed = Hashtbl.create 16 in
      List.iter (fun nd -> Hashtbl.replace allowed nd ()) rn.tree;
      let src = Rr_graph.src_node g rn.net.Cluster.driver in
      let sinks = List.map (Rr_graph.sink_node g) rn.net.Cluster.sinks in
      let reached = Hashtbl.create 16 in
      let rec visit u =
        if not (Hashtbl.mem reached u) then begin
          Hashtbl.replace reached u ();
          List.iter
            (fun v ->
              if Hashtbl.mem allowed v || List.mem v sinks then visit v)
            g.Rr_graph.adj.(u)
        end
      in
      visit src;
      List.iter
        (fun snk ->
          if not (Hashtbl.mem reached snk) then
            Diag.fail ~stage:"route" ~code:"sink-unreached"
              ~context:
                [ ("plane", string_of_int rn.net.Cluster.plane);
                  ("cycle", string_of_int rn.net.Cluster.cycle);
                  ("driver", ep_string rn.net.Cluster.driver) ]
              "sink not reached through the net's routed tree")
        sinks)
    r.routed

let route_adaptive ?(caps = Rr_graph.default_caps) ?(defects = Defect.none)
    ?(max_doublings = 4) ?(alg = Incremental) pl cl =
  let rec attempt factor =
    let result =
      route ~caps:(Rr_graph.scale_caps caps factor) ~defects ~alg pl cl
    in
    if result.success || factor >= 1 lsl max_doublings then (result, factor)
    else attempt (2 * factor)
  in
  attempt 1
