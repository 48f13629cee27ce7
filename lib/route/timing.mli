(** Routed static timing: the delay the flow reports for a mapping
    (paper Fig. 2), read off the accepted routing.

    Each net's per-sink wire delay is one Dijkstra from the net's source
    over the subgraph its routed tree induces (tree wires, the source and
    the net's sink nodes), summing node delays. The arrival-time pass then
    walks every plane's LUT network in topological order: a LUT's arrival
    is [t_lut] after its latest input, where an input produced earlier in
    the same folding cycle adds its producer's arrival, and each input adds
    its routed wire delay or, for a value that stays inside the SMB, the
    intra-MB or SMB crossbar delay. The worst arrival plus [t_reconf] and
    [t_setup] is the folding period. *)

val routed_delay_ns :
  Router.result ->
  Nanomap_cluster.Cluster.t ->
  Nanomap_core.Mapper.plan ->
  float
(** [num_planes * stages * folding period] of a routed mapping, in ns.
    [t_reconf] is charged per period even when [stages = 1], where
    {!Nanomap_arch.Arch.plane_cycle_ns} leaves it out. A sink its tree does
    not reach (impossible after {!Router.validate}) costs [t_global]. *)

(** {1 Internals exposed for the test harness} *)

val sink_delays : Router.result -> float list list
(** For each net of [routed], in order, the wire delay to each of its
    sinks, in [sinks] order; [infinity] for a sink the tree does not
    reach. *)
