(** Architecture design-space exploration ("what should NATURE look
    like?") — ROADMAP item 3.

    A COFFE-style sweep: enumerate a grid of architecture points (LUT size
    K, cluster shape, switch-block and connection-block flexibility,
    folding regime), compile the benchmark suite at every point, binary
    search the minimum routable channel width per point (the
    routability-driven methodology: fix the placement the flow produced,
    then shrink the channels until routing fails), and report the Pareto
    frontier over (area, delay, minimum channel width).

    Everything is deterministic: points are enumerated in a fixed nested
    order, each point's measurement is an independent task fanned out on
    the {!Nanomap_util.Pool} (worker count changes wall-clock only), and
    the JSON/ASCII renderings are stable — the j1/j4 fingerprints are
    byte-identical. *)

module Arch = Nanomap_arch.Arch

type folding =
  | F_none          (** no temporal folding *)
  | F_level of int  (** fixed folding level *)

val folding_to_string : folding -> string
(** ["none"] or the level as a decimal string. *)

type grid = {
  ks : int list;           (** LUT input counts *)
  les_per_mbs : int list;
  mbs_per_smbs : int list;
  fss : int list;          (** switch-block flexibilities *)
  fcs : float list;        (** connection-block Fc (applied to both in/out) *)
  foldings : folding list;
}

val default_grid : grid
(** The full sweep: K 3..6, cluster shapes 2/4/8, Fs 3 and 6, Fc 0.5 and
    1.0, folding none/1/2. *)

val smoke_grid : grid
(** A pinned 2x2x2 mini-grid (K in 3/4, LEs per MB in 2/4, folding
    none/1, everything else the paper default) — the golden-test and CI
    smoke grid. *)

type point = {
  arch : Arch.t;
  folding : folding;
}

val arch_point :
  ?k:int ->
  ?les_per_mb:int ->
  ?mbs_per_smb:int ->
  ?fs:int ->
  ?fc:float ->
  unit ->
  Arch.t
(** The default architecture with the given knobs overridden and the
    crossbar pin counts re-derived from the cluster shape (the default
    shape reproduces {!Arch.default}'s 14 MB ports / 40 SMB pins).
    [num_reconf] is unbounded so folding depth never disqualifies a
    point. The result satisfies {!Arch.validate_result}. *)

val enumerate : grid -> point list
(** Cartesian product in a fixed nested order (K outermost, folding
    innermost); every architecture passes {!Arch.validate_result}. *)

(** {2 Minimum-channel-width search} *)

val width_caps : Arch.t -> int -> Nanomap_route.Rr_graph.caps
(** [width_caps arch w] is the track-count vector with [w] length-1
    tracks and the other wire types scaled proportionally to the
    architecture's channel ratios (each at least 1). *)

val routable_at :
  ?defects:Nanomap_arch.Defect.t ->
  cluster:Nanomap_cluster.Cluster.t ->
  Nanomap_place.Place.t ->
  int ->
  bool
(** Does routing succeed on the fixed placement with [width_caps arch w]
    channels? (A routing-graph disconnection counts as unroutable.) *)

val min_channel_width :
  ?max_width:int ->
  ?defects:Nanomap_arch.Defect.t ->
  cluster:Nanomap_cluster.Cluster.t ->
  plan:Nanomap_core.Mapper.plan ->
  Nanomap_place.Place.t ->
  (int, Nanomap_util.Diag.t) result
(** Binary search (on the monotone routability predicate {!routable_at})
    for the least channel width in [1 .. max_width] (default 64) that
    routes. [Error] carries stage ["explore"], code ["unroutable-at-max"]
    when even [max_width] fails. Routing reads no plan: [plan] is ignored
    and stays only so existing callers keep compiling. *)

(** {2 Sweeping} *)

type status =
  | Feasible of int      (** minimum routable channel width *)
  | Unroutable           (** not routable even at the search's max width *)
  | Infeasible of string (** the flow failed; the diagnostic's code *)

type measure = {
  design : string;
  area_um2 : float;     (** 0 when the flow failed *)
  delay_ns : float;     (** routed delay when available, else the model *)
  status : status;
}

type point_result = {
  point : point;
  measures : measure list;      (** one per design, in suite order *)
  total_area : float;           (** sum over designs *)
  mean_delay : float;           (** geometric mean over designs *)
  status : status;              (** worst over designs; [Feasible] = max *)
  mutable pareto : bool;        (** on the (area, delay, width) frontier *)
}

val measure_point : designs:string list -> point -> point_result
(** Compile every design (by {!Nanomap_circuits.Circuits.by_name}) at the
    point's architecture and folding, then run the channel-width search
    on each result. [pareto] is left [false]; {!run} sets it. *)

val run :
  ?pool:Nanomap_util.Pool.t ->
  ?designs:string list ->
  grid ->
  point_result list
(** The whole sweep: enumerate, fan one task per point out on the pool
    (serial when [pool] is [None]; byte-identical results either way),
    and mark the Pareto frontier. [designs] defaults to
    ["ex1_small"; "crc8"]. *)

val pareto_mark : point_result list -> unit
(** Set [pareto] on every point no other [Feasible] point dominates
    (lower-or-equal area, delay and width, strictly lower somewhere).
    Points that are not [Feasible] never join the frontier. *)

(** {2 Reporting} *)

val to_json : designs:string list -> point_result list -> Nanomap_util.Json.t
(** Stable JSON: the grid axes are implicit in the per-point fields;
    floats are rounded to 0.01 so the rendering is platform-stable. *)

val fingerprint : designs:string list -> point_result list -> string
(** MD5 hex of the JSON rendering — what the j1-vs-j4 CI gate compares. *)

val report_ascii : designs:string list -> point_result list -> string
(** The COFFE-style table: one row per point, frontier rows starred. *)
