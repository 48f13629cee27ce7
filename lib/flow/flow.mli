(** The complete NanoMap flow of Fig. 2: logic mapping with iterative
    folding-level selection, temporal clustering with the post-clustering
    area check, two-phase temporal placement gated by routability and delay
    analysis, PathFinder routing, and configuration-bitmap generation.

    The loops of Fig. 2 are realized as:
    - {e area loop}: if clustering needs more LEs than the constraint
      allows, the folding level decreases by one and mapping repeats;
    - {e placement loop}: if the fast placement's routability estimate is
      poor, placement is retried with fresh seeds before the detailed pass
      (and the detailed router can still widen its channels).

    {2 Failure semantics}

    The flow has two entry points with one behavior:

    - {!run_result} never raises on flow problems — every stage failure
      becomes a typed {!Nanomap_util.Diag.t} carrying the stage, a stable
      code, and context, and is journaled in the telemetry event stream
      before being returned as [Error];
    - {!run} is a thin wrapper that raises {!Flow_failed} with the rendered
      diagnostic.

    Inter-stage invariant checkers ({!Check}) run between stages at
    {!options.check_level}. The placement and the routing are validated
    once per compile at every level: by {!Check.place} / {!Check.route},
    or, at [Off], by the flow's own [Place.validate] / [Router.validate]
    call. A failed {e physical} stage (placement, routing, bitstream)
    triggers bounded graceful degradation before the flow gives up: retry
    with a fresh placement seed, then widen the routing fabric 2x, then
    lower the folding level while one remains.
    Every degradation step is journaled (event ["flow.degradation"]) and
    counted (counter [flow.degradations]); steps taken appear in
    {!report.degradations} and, on failure, in the diagnostic's
    ["degradations"] context key. *)

type objective =
  | Delay_min of int option       (** minimize delay, optional LE budget *)
  | Area_min of float option      (** minimize LEs, optional delay budget (ns) *)
  | At_min                        (** minimize the area-delay product *)
  | Both of int * float           (** satisfy LE and delay budgets *)
  | Fixed_level of int            (** force one folding level (sweeps) *)
  | No_folding                    (** baseline *)
  | Pipelined_delay_min of int    (** Eq. 4: planes resident simultaneously,
                                      minimize delay within an LE budget *)

type options = {
  objective : objective;
  physical : bool;      (** run place & route & bitstream (else stop after
                            clustering) *)
  seed : int;
  routability_threshold : float;
  max_place_retries : int;
  route_alg : Nanomap_route.Router.algorithm;
                        (** router variant: [Full] (classic PathFinder) or
                            [Incremental] (A* lookahead + incremental
                            rip-up) *)
  check_level : Check.level;
                        (** inter-stage invariant checking: [Off], [Fast]
                            (default) or [Full] *)
  defects : Nanomap_arch.Defect.t;
                        (** known-bad fabric LEs and wire segments that
                            placement and routing must avoid *)
  route_caps : Nanomap_route.Rr_graph.caps option;
                        (** base per-channel track counts (the adaptive
                            router and the degradation policy scale them);
                            [None] (default) derives them from the
                            architecture's [chan_*] knobs *)
  mapper : Nanomap_core.Mapper.mapper;
                        (** technology mapper: the seed FlowMap truth-table
                            path or the AIG priority-cut mapper *)
  aig_effort : int;     (** 1..3, AIG cut budget / refinement rounds
                            (ignored by the truth-table mapper) *)
  jobs : int;           (** worker domains for the folding-level sweep and
                            the placement portfolio (1 = serial, spawns
                            nothing). Changes wall-clock only: the report
                            is byte-identical for every value *)
  portfolio : int;      (** independent detailed-placement seeds annealed
                            per attempt, best HPWL kept (1 = single
                            anneal). Part of the result, NOT tied to
                            [jobs], so output stays worker-count
                            independent *)
  placer : Nanomap_place.Sat_place.strategy;
                        (** detailed-placement engine: [Sa] (annealing
                            portfolio, default), [Sat] (exact CNF
                            assignment refined by annealing; proves
                            unplaceability), or [Race] (both, pure
                            winner rule — see {!Nanomap_place.Sat_place.race}).
                            With [Sat]/[Race], a fast-pass
                            ["defect-unplaceable"] is not fatal: the
                            exact engine still gets its shot. *)
}

val default_options : options
(** [At_min], physical, seed 1, threshold 8.0, 2 retries, incremental
    routing, [Fast] checks, no defects, default track caps,
    [mapper = Truth_table], [aig_effort = 2], [jobs = 1],
    [portfolio = 1], [placer = Sa]. *)

type report = {
  design_name : string;
  prepared : Nanomap_core.Mapper.prepared;
  plan : Nanomap_core.Mapper.plan;
  cluster : Nanomap_cluster.Cluster.t;
  area_les : int;                     (** post-clustering LE count *)
  area_smbs : int;
  area_um2 : float;                   (** SMB-granular silicon area (100 nm) *)
  delay_model_ns : float;             (** analytical circuit delay *)
  placement : Nanomap_place.Place.t option;
  routing : Nanomap_route.Router.result option;
  channel_factor : int;               (** track-count multiplier the router
                                          needed (1 = base fabric) *)
  delay_routed_ns : float option;     (** {!Nanomap_route.Timing.routed_delay_ns}
                                          of the accepted routing *)
  bitstream : Nanomap_bitstream.Bitstream.t option;
  mapping_retries : int;              (** area-loop iterations taken *)
  degradations : string list;         (** graceful-degradation steps taken,
                                          in order ([] = clean run) *)
  telemetry : Nanomap_util.Telemetry.run;
                                      (** completed per-stage span tree,
                                          counter deltas, gauges, and the
                                          event journal for this run *)
}

exception Flow_failed of string

val run_result :
  ?cancel:Nanomap_util.Cancel.t ->
  ?options:options ->
  ?arch:Nanomap_arch.Arch.t ->
  Nanomap_rtl.Rtl.t ->
  (report, Nanomap_util.Diag.t) result
(** End-to-end flow on a validated RTL design; [arch] defaults to
    {!Nanomap_arch.Arch.default} (k = 16). Returns [Error] instead of
    raising on any flow failure — infeasible mapping, budget overrun,
    stage-validator rejection, checker violation, unroutable fabric — after
    exhausting the graceful-degradation policy. The diagnostic is also the
    last ["diag"] event of {!report.telemetry}'s journal.

    [cancel] is a cooperative cancellation token (the compile service's
    per-job deadline): it is checked at {e every stage boundary}, and an
    expired token aborts the run with the token's [serve/timeout]
    diagnostic — immediately, without entering the degradation ladder. A
    run already inside a stage finishes that stage first (cancellation is
    cooperative, never preemptive). *)

val run :
  ?options:options -> ?arch:Nanomap_arch.Arch.t -> Nanomap_rtl.Rtl.t -> report
(** [run_result] unwrapped: raises {!Flow_failed} with the rendered
    diagnostic on [Error]. *)

val validate_report :
  ?level:Check.level ->
  ?defects:Nanomap_arch.Defect.t ->
  report ->
  (unit, Nanomap_util.Diag.t) result
(** Re-run every applicable inter-stage checker on a finished report
    ([Full] by default) — the property tests' oracle that an [Ok] report is
    internally consistent. *)

val set_stage_hook : (stage:string -> design:string -> unit) option -> unit
(** Test-only chaos instrumentation: install a hook invoked at every
    stage boundary of every {!run_result} (after the cancellation check,
    before the stage body). Whatever it raises is adopted by the stage's
    diagnostic protection exactly like a stage failure — which is how
    {!Fault.Chaos} makes a chosen design crash or stall mid-compile
    deterministically. Pass [None] to disarm. Not for production use. *)

val pp_report : Format.formatter -> report -> unit
