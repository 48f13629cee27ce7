(** PathFinder negotiated-congestion routing (the VPR router the paper
    builds on), applied per folding cycle.

    Every folding cycle of every plane is a separate configuration of the
    same physical switches, so each (plane, cycle) timeslot is routed
    independently on a fresh congestion state of the shared
    {!Rr_graph.t}. Within a timeslot the PathFinder loop runs: nets are
    ripped up and re-routed by wavefront search over node costs
    [(delay + eps) * (1 + history) * present], sink by sink growing a
    Steiner-ish tree; present-sharing penalties double each iteration until
    no node is overused.

    Two {!algorithm}s share that contract:
    - {!Full} — the classic formulation: every iteration rips up and
      re-routes every net with plain Dijkstra wavefronts;
    - {!Incremental} (default) — iterations after the first rip up only
      the nets sitting on an overused node, and every wavefront is an A*
      search ordered by [dist + lookahead], where the lookahead is the
      exact uncongested distance-to-sink of {!Rr_graph.lookahead} —
      admissible (congestion only raises costs), so routes are identical
      in quality while the wavefront stops flooding the fabric.

    Search state (distances, backpointers, tree membership) lives in flat
    arrays indexed by rr-node id and is invalidated between searches by
    generation stamps, never reallocated or refilled.

    Routing is hierarchical in cost, as in the paper: direct links are the
    cheapest, then length-1 and length-4 segments, then the global lines —
    the router naturally prefers the shortest hierarchy level that works.

    The router computes trees only, never delays: {!Timing} evaluates the
    routing the flow accepts. *)

type algorithm =
  | Full         (** re-route every net each iteration, plain Dijkstra *)
  | Incremental  (** A* lookahead + rip up only congested nets *)

type routed_net = {
  net : Nanomap_cluster.Cluster.net;
  tree : int list;                       (** rr wire nodes used *)
}

type result = {
  graph : Rr_graph.t;
  routed : routed_net list;
  success : bool;                        (** no overused node in any timeslot *)
  iterations : int;                      (** max PathFinder iterations used *)
  overused : int;                        (** nodes still overused at exit,
                                             summed over timeslots (0 iff
                                             [success]) *)
  usage_by_kind : (string * int) list;   (** wire-node usages summed over all
                                             timeslots/configurations *)
  nets_using_global : int;                (** core (SMB-to-SMB) nets touching a
                                              global line; pad I/O excluded *)
  total_nets : int;
  wirelength : int;                      (** total wire nodes over all nets *)
}

val route :
  ?caps:Rr_graph.caps ->
  ?defects:Nanomap_arch.Defect.t ->
  ?max_iterations:int ->
  ?alg:algorithm ->
  Nanomap_place.Place.t ->
  Nanomap_cluster.Cluster.t ->
  result
(** Deterministic. [max_iterations] defaults to 12, [alg] to
    {!Incremental}. [defects] (default {!Nanomap_arch.Defect.none}) removes
    the named wire segments from the routing graph before any search, so
    routes avoid them by construction. Raises [Nanomap_util.Diag.Fail]
    (stage ["route"], code ["unreachable-sink"]) if some sink has no path at
    all — e.g. the fabric is too damaged or the track caps are zero. *)

val route_adaptive :
  ?caps:Rr_graph.caps ->
  ?defects:Nanomap_arch.Defect.t ->
  ?max_doublings:int ->
  ?alg:algorithm ->
  Nanomap_place.Place.t ->
  Nanomap_cluster.Cluster.t ->
  result * int
(** Minimum-channel-width style search: retry with doubled track counts
    until the router succeeds (or [max_doublings], default 4, is
    exhausted). Returns the result and the scale factor used. *)

val validate : result -> unit
(** Every net's tree connects its driver to every sink through existing
    edges, no wire node is used by two nets of the same timeslot, and no
    routed tree touches a node the defect map marked bad. Raises
    [Nanomap_util.Diag.Fail] (stage ["route"], codes ["wire-shared"],
    ["sink-unreached"], ["defective-track"]). *)

(** {1 Internals exposed for the test harness} *)

val group_by_slot :
  Nanomap_cluster.Cluster.net list ->
  ((int * int) * Nanomap_cluster.Cluster.net list) list
(** Buckets nets into (plane, cycle) timeslots: slots sorted ascending by
    key, nets within a slot in their input order — the routing order is a
    pure function of the net list, independent of hash-table iteration. *)

(** Generation-stamped wavefront scratch: [dist]/[prev] reads outside the
    current search (see {!Scratch.begin_search}) give [infinity]/[-1]
    without any per-search refill. *)
module Scratch : sig
  type t

  val create : int -> t
  val size : t -> int
  val begin_search : t -> unit
  (** Invalidate every cell in O(1). *)

  val dist : t -> int -> float
  val prev : t -> int -> int
  val set : t -> int -> dist:float -> prev:int -> unit
end
