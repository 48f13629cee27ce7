(** Temporal placement (paper Section 4.4).

    SMBs are placed on a square island grid with I/O pads on the perimeter,
    by VPR-style simulated annealing: random swap/relocate moves inside a
    shrinking range window, adaptive temperature schedule, half-perimeter
    wirelength (HPWL) cost. Temporal folding enters through the cost: the
    nets of {e all} folding cycles are summed, so two SMBs that only talk
    in a late folding cycle still attract each other (the paper adds the
    Manhattan distance between SMB pairs of other folding stages to the
    current cycle's cost — summing every cycle's HPWL generalizes that).
    [joint:false] restricts the cost to first-cycle nets, which is the
    ablation knob for that design choice.

    Temporal nets with the same endpoint set share one bounding box, so
    the annealer scores them as one weighted net; every cost is an integer
    and the result is exactly that of scoring each temporal net on its
    own. Moves are evaluated without allocating: unboxed coordinates, pad
    boxes computed once, per-net costs cached, and each touched net scored
    once. The [place.net_evals] counter records the boxes scored.

    The flow runs {!place} twice, mirroring Fig. 2: a [`Fast] low-precision
    pass whose result is screened by {!routability}, then a [`Detailed]
    pass seeded with it. Timing is judged after routing, not here. *)

type t = {
  width : int;
  height : int;                    (** SMB grid dimensions *)
  smb_xy : (int * int) array;      (** SMB id -> grid coordinates *)
  pad_xy : (int * int) array;      (** pad id -> perimeter coordinates *)
  hpwl : float;                    (** final joint HPWL *)
  moves_tried : int;
  moves_accepted : int;
}

val grid_dims : Nanomap_cluster.Cluster.t -> int * int
(** [(width, height)] of the SMB grid {!place} will use for this cluster
    (square-ish, with one slack row so relocation moves always exist).
    Exposed so defect maps can be generated in fabric coordinates. *)

val default_pad_xy :
  Nanomap_cluster.Cluster.t -> width:int -> height:int -> (int * int) array
(** The fixed perimeter-ring positions every placer pins the cluster's
    pads to (pad [i] evenly spread around the ring). Exposed so exact
    placers produce placements directly comparable with the annealer's. *)

val illegal_sites :
  Nanomap_arch.Defect.t ->
  Nanomap_cluster.Cluster.t ->
  n_smb:int ->
  width:int ->
  height:int ->
  bool array option
(** [illegal_sites defects cl ~n_smb ~width ~height] is [None] when the
    defect map is empty; otherwise [Some arr] with
    [arr.(s * width * height + site)] true iff placing SMB [s] on [site]
    would put one of its occupied [(mb, le)] slots on a defective fabric
    LE. The shared legality oracle for the annealer and the SAT
    encoding, so both engines agree on what "legal" means. *)

val place :
  ?seed:int ->
  ?effort:[ `Fast | `Detailed ] ->
  ?joint:bool ->
  ?init:t ->
  ?defects:Nanomap_arch.Defect.t ->
  Nanomap_cluster.Cluster.t ->
  t
(** [joint] defaults to [true]. Deterministic in [seed] (default 1).
    [init] seeds the annealer with a previous placement of the {e same}
    cluster and switches to a low-temperature refinement schedule, so the
    detailed pass improves on the accepted fast placement instead of
    re-deriving the global structure; an [init] of mismatched dimensions is
    ignored. A valid [init] replaces the initial-assignment scan
    entirely, so a placement found by the exact engine can be refined
    even on fabrics where the greedy scan would fail. [defects] (default {!Nanomap_arch.Defect.none}) lists known-bad
    fabric LEs: an SMB whose cluster assignment occupies a defective
    [(mb, le)] is never placed on that site — the initial assignment routes
    around them, annealing moves that would land on one are rejected, and an
    [init] that violates the map is discarded. Raises [Diag.Fail] (code
    ["defect-unplaceable"]) if no defect-free site remains for some SMB. *)

val portfolio :
  ?pool:Nanomap_util.Pool.t ->
  ?count:int ->
  ?seed:int ->
  ?effort:[ `Fast | `Detailed ] ->
  ?joint:bool ->
  ?init:t ->
  ?defects:Nanomap_arch.Defect.t ->
  Nanomap_cluster.Cluster.t ->
  t
(** Multi-seed annealing portfolio: run {!place} on [count] (default 1)
    independent seeds — [seed + 7919*i] for candidate [i] — validate each,
    and keep the lowest-HPWL placement (ties: lowest candidate index).
    With [pool] the candidates anneal concurrently; the chosen placement
    is a pure function of [count] and [seed], independent of the worker
    count. [count <= 1] is exactly {!place}. Other arguments are passed
    through to each candidate run. *)

val hpwl : t -> Nanomap_cluster.Cluster.t -> float
(** Joint HPWL of a placement, recomputed from scratch (used by tests and
    the ablation); equal to the [hpwl] field of a joint {!place} result. *)

val routability : t -> Nanomap_cluster.Cluster.t -> float
(** RISA-flavoured routability estimate: expected peak channel utilization
    (demand / supply) given per-net bounding boxes, in [0, inf); values
    under ~1 predict routable. The folding cycles are independent
    configurations, so the estimate is the max over cycles. *)

val validate : t -> Nanomap_cluster.Cluster.t -> unit
(** No two SMBs on one site, all coordinates on the grid, pads on the
    perimeter. Raises [Nanomap_util.Diag.Fail] (stage ["place"], codes
    ["off-grid"], ["site-conflict"], ["pad-perimeter"]). *)
