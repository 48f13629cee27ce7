module Arch = Nanomap_arch.Arch
module Cluster = Nanomap_cluster.Cluster
module Mapper = Nanomap_core.Mapper
module Partition = Nanomap_techmap.Partition
module Lut_network = Nanomap_techmap.Lut_network
module Min_heap = Nanomap_util.Min_heap

(* One Dijkstra per net from its source, relaxing only into nodes of the
   net's own stamp; delays are non-negative, so it settles each node at
   its cheapest path through the tree. *)
let sink_delays (r : Router.result) =
  let g = r.Router.graph in
  let n = g.Rr_graph.num_nodes in
  let dist = Router.Scratch.create n in
  let member = Array.make n 0 in
  let heap = Min_heap.create () in
  List.mapi
    (fun i (rn : Router.routed_net) ->
      let net = rn.Router.net in
      let stamp = i + 1 in
      let src = Rr_graph.src_node g net.Cluster.driver in
      let sinks = List.map (Rr_graph.sink_node g) net.Cluster.sinks in
      List.iter (fun nd -> member.(nd) <- stamp) (src :: sinks);
      List.iter (fun nd -> member.(nd) <- stamp) rn.Router.tree;
      Router.Scratch.begin_search dist;
      Min_heap.clear heap;
      Router.Scratch.set dist src ~dist:0.0 ~prev:(-1);
      Min_heap.push heap 0.0 src;
      let rec settle () =
        match Min_heap.pop heap with
        | None -> ()
        | Some (du, u) ->
          if du <= Router.Scratch.dist dist u then
            List.iter
              (fun v ->
                let dv = du +. g.Rr_graph.delay.(v) in
                if member.(v) = stamp && dv < Router.Scratch.dist dist v then begin
                  Router.Scratch.set dist v ~dist:dv ~prev:u;
                  Min_heap.push heap dv v
                end)
              g.Rr_graph.adj.(u);
          settle ()
      in
      settle ();
      List.map (Router.Scratch.dist dist) sinks)
    r.Router.routed

let routed_delay_ns (r : Router.result) (cl : Cluster.t) (plan : Mapper.plan) =
  let arch = cl.Cluster.arch in
  (* wire delay by (plane, cycle, value, sink) *)
  let delay_lookup = Hashtbl.create 256 in
  List.iter2
    (fun (rn : Router.routed_net) delays ->
      let net = rn.Router.net in
      List.iter2
        (fun ep d ->
          Hashtbl.replace delay_lookup
            (net.Cluster.plane, net.Cluster.cycle, net.Cluster.value, ep)
            (if d < infinity then d else arch.Arch.t_global))
        net.Cluster.sinks delays)
    r.Router.routed (sink_delays r);
  (* longest LUT chain within any folding cycle *)
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
            let u = part.Partition.unit_of_lut.(l) in
            let c = plp.Mapper.schedule.(u) in
            let my_slot = Hashtbl.find cl.Cluster.lut_slots (plane, l) in
            let my_smb = my_slot.Cluster.smb in
            (* absorbed nets stay inside the SMB: LEs of one MB talk over
               the fast local crossbar, different MBs over the SMB-level
               crossbar *)
            let local_delay source_slot =
              match source_slot with
              | Some (slot : Cluster.slot)
                when slot.Cluster.smb = my_smb && slot.Cluster.mb = my_slot.Cluster.mb
                -> arch.Arch.t_intra_mb
              | Some _ | None -> arch.Arch.t_local
            in
            let slot_of_value = function
              | Cluster.V_lut (p', l') -> Hashtbl.find_opt cl.Cluster.lut_slots (p', l')
              | (Cluster.V_state _ | Cluster.V_pi _) as v ->
                (match Hashtbl.find_opt cl.Cluster.ff_slots v with
                 | Some (slot, _) -> Some slot
                 | None -> None)
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
                let fu = part.Partition.unit_of_lut.(f) in
                let chain =
                  if plp.Mapper.schedule.(fu) = c then arrival.(f) else 0.0
                in
                chain +. net_delay (Cluster.V_lut (plane, f))
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
  let folding_period_ns = !worst +. arch.Arch.t_reconf +. arch.Arch.t_setup in
  float_of_int (Array.length plan.Mapper.planes * plan.Mapper.stages)
  *. folding_period_ns
