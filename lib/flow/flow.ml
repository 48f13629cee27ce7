module Arch = Nanomap_arch.Arch
module Defect = Nanomap_arch.Defect
module Mapper = Nanomap_core.Mapper
module Fold = Nanomap_core.Fold
module Sched = Nanomap_core.Sched
module Cluster = Nanomap_cluster.Cluster
module Place = Nanomap_place.Place
module Sat_place = Nanomap_place.Sat_place
module Router = Nanomap_route.Router
module Rr_graph = Nanomap_route.Rr_graph
module Timing = Nanomap_route.Timing
module Bitstream = Nanomap_bitstream.Bitstream
module Telemetry = Nanomap_util.Telemetry
module Diag = Nanomap_util.Diag
module Cancel = Nanomap_util.Cancel

let log = Logs.Src.create "nanomap.flow" ~doc:"NanoMap end-to-end flow"

module Log = (val Logs.src_log log)

let c_degradations = Telemetry.counter "flow.degradations"

(* Test-only chaos hook: invoked at every stage boundary, after the
   cancellation check and before the stage body. The service chaos
   harness uses it to make a specific design crash or stall mid-compile
   deterministically; anything it raises is adopted by the stage's
   diagnostic protection like a real stage failure. Atomic because pool
   workers read it while a test (an)arms it. *)
let stage_hook :
    (stage:string -> design:string -> unit) option Atomic.t =
  Atomic.make None

let set_stage_hook h = Atomic.set stage_hook h

type objective =
  | Delay_min of int option
  | Area_min of float option
  | At_min
  | Both of int * float
  | Fixed_level of int
  | No_folding
  | Pipelined_delay_min of int

type options = {
  objective : objective;
  physical : bool;
  seed : int;
  routability_threshold : float;
  max_place_retries : int;
  route_alg : Router.algorithm;
  check_level : Check.level;
  defects : Defect.t;
  route_caps : Rr_graph.caps option;  (* None: derive from the arch knobs *)
  mapper : Mapper.mapper;
  aig_effort : int;
  jobs : int;
  portfolio : int;
  placer : Sat_place.strategy;
}

let default_options =
  { objective = At_min;
    physical = true;
    seed = 1;
    routability_threshold = 8.0;
    max_place_retries = 2;
    route_alg = Router.Incremental;
    check_level = Check.Fast;
    defects = Defect.none;
    route_caps = None;
    mapper = Mapper.Truth_table;
    aig_effort = 2;
    jobs = 1;
    portfolio = 1;
    placer = Sat_place.Sa }

type report = {
  design_name : string;
  prepared : Mapper.prepared;
  plan : Mapper.plan;
  cluster : Cluster.t;
  area_les : int;
  area_smbs : int;
  area_um2 : float;
  delay_model_ns : float;
  placement : Place.t option;
  routing : Router.result option;
  channel_factor : int;
  delay_routed_ns : float option;
  bitstream : Bitstream.t option;
  mapping_retries : int;
  degradations : string list;
  telemetry : Telemetry.run;
}

exception Flow_failed of string

let initial_plan ?pool options prepared ~arch =
  match options.objective with
  | Delay_min area -> Mapper.delay_min ?area prepared ~arch
  | Area_min delay_ns -> Mapper.area_min ?delay_ns ?pool prepared ~arch
  | At_min -> Mapper.at_min ?pool prepared ~arch
  | Both (area, delay_ns) -> Mapper.both_constraints ?pool ~area ~delay_ns prepared ~arch
  | Fixed_level level -> Mapper.plan_level prepared ~arch ~level
  | No_folding -> Mapper.no_folding prepared ~arch
  | Pipelined_delay_min area -> Mapper.delay_min_pipelined ~area prepared ~arch

let area_budget options =
  match options.objective with
  | Delay_min (Some area) -> Some area
  | Both (area, _) -> Some area
  | Pipelined_delay_min area -> Some area
  | Delay_min None | Area_min _ | At_min | Fixed_level _ | No_folding -> None

let is_pipelined options =
  match options.objective with
  | Pipelined_delay_min _ -> true
  | Delay_min _ | Area_min _ | At_min | Both _ | Fixed_level _ | No_folding ->
    false

(* The Fig. 2 area loop: clustering is the ground truth for LE usage; if it
   exceeds the budget, fold one level deeper and redo mapping. Every
   iteration is a fresh cluster/rebalance stage pair in the telemetry run,
   and each re-fold lands in the event journal. *)
let rec map_and_cluster ?(retries = 0) tele options prepared ~arch plan =
  let cluster = Telemetry.span tele "cluster" (fun () -> Cluster.pack plan ~arch) in
  let moved =
    Telemetry.span tele "rebalance" (fun () ->
        Nanomap_cluster.Smb_local.rebalance cluster plan)
  in
  Log.debug (fun m -> m "intra-SMB rebalance moved %d LUTs" moved);
  Cluster.validate cluster plan;
  match area_budget options with
  | Some budget when cluster.Cluster.les_used > budget ->
    let min_level =
      Fold.min_level ~depth_max:prepared.Mapper.depth_max
        ~num_planes:prepared.Mapper.num_planes ~num_reconf:arch.Arch.num_reconf
    in
    let next_level = plan.Mapper.level - 1 in
    if next_level < min_level then
      Diag.fail ~stage:"cluster" ~code:"area-budget"
        ~context:
          [ ("clustered_les", string_of_int cluster.Cluster.les_used);
            ("budget", string_of_int budget);
            ("level", string_of_int plan.Mapper.level);
            ("min_level", string_of_int min_level) ]
        "clustering exceeds the LE budget and no deeper folding level remains"
    else begin
      Log.info (fun m ->
          m "area loop: clustered %d LEs > %d, retrying at level %d"
            cluster.Cluster.les_used budget next_level);
      Telemetry.event tele "area_loop.refold"
        ~data:
          [ ("clustered_les", string_of_int cluster.Cluster.les_used);
            ("budget", string_of_int budget);
            ("next_level", string_of_int next_level) ];
      let pipelined = is_pipelined options in
      let plan =
        Telemetry.span tele "plan" (fun () ->
            Mapper.plan_level ~pipelined prepared ~arch ~level:next_level)
      in
      map_and_cluster ~retries:(retries + 1) tele options prepared ~arch plan
    end
  | Some _ | None -> (plan, cluster, retries)

let ( let* ) = Result.bind

let run_result ?cancel ?(options = default_options) ?(arch = Arch.default)
    design =
  let design_name = Nanomap_rtl.Rtl.name design in
  let tele = Telemetry.start ("flow:" ^ design_name) in
  (* Every diagnostic — fatal or recovered-from — lands in the event
     journal, so [--trace] shows the full failure/recovery path. *)
  let journal d =
    Telemetry.event tele "diag" ~data:(Diag.event_data d);
    d
  in
  let protect stage f =
    match
      (* Stage boundary: the cancellation token (deadline or manual) is
         honored before any new stage work starts, so a deadlined job
         costs at most the stage it is currently inside. The chaos hook
         runs under the same exception adoption as the stage body. *)
      (match cancel with Some c -> Cancel.check c | None -> ());
      (match Atomic.get stage_hook with
      | Some h -> h ~stage ~design:design_name
      | None -> ());
      f ()
    with
    | v -> Ok v
    | exception Diag.Fail d -> Error (journal d)
    | exception Mapper.No_feasible_mapping msg ->
      Error (journal (Diag.make ~stage ~code:"no-feasible-mapping" msg))
    | exception Sched.Infeasible msg ->
      Error (journal (Diag.make ~stage ~code:"infeasible-schedule" msg))
    | exception Flow_failed msg ->
      Error (journal (Diag.make ~stage ~code:"flow-failed" msg))
    | exception Failure msg ->
      Error (journal (Diag.make ~stage ~code:"uncaught-failure" msg))
    | exception Invalid_argument msg ->
      Error (journal (Diag.make ~stage ~code:"invalid-argument" msg))
    | exception Stack_overflow -> raise Stack_overflow
    | exception Out_of_memory -> raise Out_of_memory
    | exception exn ->
      Error (journal (Diag.make ~stage ~code:"exception" (Printexc.to_string exn)))
  in
  let checked result =
    match result with Ok () -> Ok () | Error d -> Error (journal d)
  in
  let level = options.check_level in
  let finish_with result =
    Telemetry.finish tele;
    result
  in
  let body pool =
    let* prepared =
      protect "prepare" (fun () ->
          Telemetry.span tele "prepare" (fun () ->
              Nanomap_rtl.Rtl.validate design;
              Mapper.prepare ~k:arch.Arch.lut_inputs ~mapper:options.mapper
                ~aig_effort:options.aig_effort design))
    in
    let* () = checked (Check.techmap level prepared) in
    let* plan0 =
      protect "plan" (fun () ->
          Telemetry.span tele "plan" (fun () ->
              initial_plan ?pool options prepared ~arch))
    in
    let* plan, cluster, mapping_retries =
      protect "cluster" (fun () ->
          map_and_cluster tele options prepared ~arch plan0)
    in
    let* () = checked (Check.fds level ~arch plan) in
    let* () = checked (Check.cluster level plan cluster) in
    Telemetry.set_gauge tele "cluster.les_used"
      (float_of_int cluster.Cluster.les_used);
    let report ~plan ~cluster ~mapping_retries ~degradations physical_part =
      let placement, routing, channel_factor, delay_routed_ns, bitstream =
        match physical_part with
        | None -> (None, None, 1, None, None)
        | Some (placement, routing, channel_factor, delay_routed_ns, bitstream) ->
          ( Some placement,
            Some routing,
            channel_factor,
            Some delay_routed_ns,
            Some bitstream )
      in
      { design_name = Nanomap_rtl.Rtl.name design;
        prepared;
        plan;
        cluster;
        area_les = cluster.Cluster.les_used;
        area_smbs = cluster.Cluster.num_smbs;
        area_um2 = float_of_int cluster.Cluster.num_smbs *. arch.Arch.smb_area;
        delay_model_ns = plan.Mapper.delay_ns;
        placement;
        routing;
        channel_factor;
        delay_routed_ns;
        bitstream;
        mapping_retries;
        degradations;
        telemetry = tele }
    in
    if not options.physical then
      Ok (report ~plan ~cluster ~mapping_retries ~degradations:[] None)
    else begin
      (* One end-to-end physical attempt: fast placement screened by
         routability (Fig. 2 steps 9-13) seeding the detailed pass, adaptive
         routing, bitstream — each stage validated per [check_level]. *)
      let physical_attempt ~seed ~caps plan cluster =
        let* chosen_try, fast =
          protect "place" (fun () ->
              let rec attempt_placement try_no =
                let fast =
                  Telemetry.span tele "place_fast" (fun () ->
                      Place.place ~seed:(seed + try_no) ~effort:`Fast
                        ~defects:options.defects cluster)
                in
                let estimate = Place.routability fast cluster in
                if
                  estimate <= options.routability_threshold
                  || try_no >= options.max_place_retries
                then begin
                  Log.info (fun m ->
                      m "fast placement %d: routability %.2f%s" try_no estimate
                        (if estimate > options.routability_threshold then
                           " (accepted anyway)"
                         else ""));
                  Telemetry.set_gauge tele "place.routability" estimate;
                  (try_no, fast)
                end
                else begin
                  Telemetry.event tele "place.retry"
                    ~data:
                      [ ("try", string_of_int try_no);
                        ("routability", Printf.sprintf "%.2f" estimate) ];
                  attempt_placement (try_no + 1)
                end
              in
              match attempt_placement 0 with
              | try_no, fast -> (try_no, Some fast)
              | exception Diag.Fail d
                when options.placer <> Sat_place.Sa
                     && d.Diag.code = "defect-unplaceable" ->
                (* The greedy fast pass can't seed anything, but the
                   exact engine may still find (or refute) an
                   assignment — let it run from scratch. *)
                Telemetry.event tele "place.fast_unplaceable"
                  ~data:Diag.(event_data d);
                (0, None))
        in
        let* placement =
          protect "place" (fun () ->
              let placement =
                Telemetry.span tele "place_detailed" (fun () ->
                    match options.placer with
                    | Sat_place.Sa ->
                      Place.portfolio ?pool ~count:options.portfolio
                        ~seed:(seed + chosen_try) ~effort:`Detailed ?init:fast
                        ~defects:options.defects cluster
                    | Sat_place.Sat -> (
                      match
                        Sat_place.solve ~seed:(seed + chosen_try)
                          ~defects:options.defects cluster
                      with
                      | Sat_place.Placed p -> p
                      | Sat_place.Unsat_proven ->
                        Diag.fail ~stage:"place" ~code:"unplaceable-proven"
                          "SAT certifies that no legal placement exists"
                      | Sat_place.Gave_up ->
                        Diag.fail ~stage:"place" ~code:"sat-gave-up"
                          "SAT conflict budget exhausted without a verdict")
                    | Sat_place.Race ->
                      let p, winner =
                        Sat_place.race ?pool ~count:options.portfolio
                          ~seed:(seed + chosen_try) ~effort:`Detailed ?init:fast
                          ~defects:options.defects cluster
                      in
                      Telemetry.event tele "place.race_winner"
                        ~data:
                          [ ( "winner",
                              match winner with `Sa -> "sa" | `Sat -> "sat" ) ];
                      p)
              in
              (* every level validates the placement once: [Check.place]
                 runs [Place.validate] itself *)
              if level = Check.Off then Place.validate placement cluster;
              placement)
        in
        let* () =
          checked (Check.place level ~defects:options.defects cluster placement)
        in
        Telemetry.set_gauge tele "place.hpwl" placement.Place.hpwl;
        let* routing, channel_factor =
          protect "route" (fun () ->
              Telemetry.span tele "route" (fun () ->
                  Router.route_adaptive ~caps ~defects:options.defects
                    ~alg:options.route_alg placement cluster))
        in
        let* () =
          if routing.Router.success then
            checked (Check.route level cluster routing)
          else
            Error
              (journal
                 (Diag.make ~stage:"route" ~code:"congested"
                    ~context:
                      [ ("overused", string_of_int routing.Router.overused);
                        ("channel_factor", string_of_int channel_factor) ]
                    "adaptive routing still overuses wires at the widest fabric"))
        in
        let* delay_routed_ns =
          protect "route" (fun () ->
              (* as for placement, [Check.route] already ran
                 [Router.validate] unless checks are off *)
              if level = Check.Off then Router.validate routing;
              let delay = Timing.routed_delay_ns routing cluster plan in
              Telemetry.set_gauge tele "timing.routed_over_model"
                (delay /. plan.Mapper.delay_ns);
              delay)
        in
        Telemetry.set_gauge tele "route.wirelength"
          (float_of_int routing.Router.wirelength);
        Telemetry.set_gauge tele "route.channel_factor"
          (float_of_int channel_factor);
        let* bitstream =
          protect "bitstream" (fun () ->
              Telemetry.span tele "bitstream" (fun () ->
                  Bitstream.generate plan cluster routing))
        in
        let* () = checked (Check.bitstream level ~arch bitstream) in
        Ok (placement, routing, channel_factor, delay_routed_ns, bitstream)
      in
      (* Bounded graceful degradation: a failed physical attempt retries
         with a fresh seed, then a widened fabric, then progressively lower
         folding levels; each step is journaled and counted so the recovery
         path is visible in --trace. The last diagnostic carries the trail. *)
      let degrade_step step detail d =
        Telemetry.incr c_degradations;
        Telemetry.event tele "flow.degradation"
          ~data:
            [ ("step", step);
              ("detail", detail);
              ("after", Diag.to_string d) ]
      in
      let rec with_degradation ~trail ~step plan cluster mapping_retries ~seed
          ~caps =
        match physical_attempt ~seed ~caps plan cluster with
        | Ok phys ->
          Ok
            (report ~plan ~cluster ~mapping_retries
               ~degradations:(List.rev trail) (Some phys))
        | Error d ->
          let give_up () =
            Error
              (Diag.add_context d
                 (match trail with
                 | [] -> []
                 | t -> [ ("degradations", String.concat "," (List.rev t)) ]))
          in
          (* A deadline expiry must not enter the degradation ladder:
             reseeding or widening a job that is already past its budget
             only burns more of the worker the cancellation exists to
             free. *)
          if d.Diag.stage = "serve" && d.Diag.code = "timeout" then give_up ()
          else
          (match step with
          | 0 ->
            let seed' = seed + 17 in
            degrade_step "reseed" (string_of_int seed') d;
            with_degradation ~trail:("reseed" :: trail) ~step:1 plan cluster
              mapping_retries ~seed:seed' ~caps
          | 1 ->
            let caps' = Rr_graph.scale_caps caps 2 in
            degrade_step "widen" "2x" d;
            with_degradation ~trail:("widen" :: trail) ~step:2 plan cluster
              mapping_retries ~seed ~caps:caps'
          | _ ->
            let min_level =
              Fold.min_level ~depth_max:prepared.Mapper.depth_max
                ~num_planes:prepared.Mapper.num_planes
                ~num_reconf:arch.Arch.num_reconf
            in
            let next_level = plan.Mapper.level - 1 in
            if next_level < min_level then give_up ()
            else begin
              degrade_step "refold" (string_of_int next_level) d;
              match
                protect "plan" (fun () ->
                    let plan' =
                      Telemetry.span tele "plan" (fun () ->
                          Mapper.plan_level ~pipelined:(is_pipelined options)
                            prepared ~arch ~level:next_level)
                    in
                    map_and_cluster tele options prepared ~arch plan')
              with
              | Ok (plan', cluster', retries') ->
                with_degradation ~trail:("refold" :: trail) ~step:2 plan'
                  cluster'
                  (mapping_retries + retries' + 1)
                  ~seed ~caps
              | Error _ -> give_up ()
            end)
      in
      with_degradation ~trail:[] ~step:0 plan cluster mapping_retries
        ~seed:options.seed
        ~caps:
          (match options.route_caps with
          | Some c -> c
          | None -> Rr_graph.caps_of_arch arch)
    end
  in
  (* [jobs] buys wall-clock only: the folding-level sweep and the
     placement portfolio merge deterministically, so the report is
     byte-identical for every worker count. jobs = 1 spawns nothing. *)
  let result =
    if options.jobs > 1 then
      Nanomap_util.Pool.with_pool ~jobs:options.jobs (fun p -> body (Some p))
    else body None
  in
  finish_with result

let run ?options ?arch design =
  match run_result ?options ?arch design with
  | Ok report -> report
  | Error d -> raise (Flow_failed (Diag.to_string d))

let validate_report ?(level = Check.Full) ?(defects = Defect.none) r =
  let arch = r.cluster.Cluster.arch in
  let* () = Check.techmap level r.prepared in
  let* () = Check.fds level ~arch r.plan in
  let* () = Check.cluster level r.plan r.cluster in
  let* () =
    match r.placement with
    | None -> Ok ()
    | Some pl -> Check.place level ~defects r.cluster pl
  in
  let* () =
    match r.routing with
    | None -> Ok ()
    | Some rt -> Check.route level r.cluster rt
  in
  match r.bitstream with
  | None -> Ok ()
  | Some bs -> Check.bitstream level ~arch bs

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>design %s:@ mapper %s@ level %d, %d stage(s), %d plane(s)@ LEs %d \
     (plan %d), SMBs %d (%.0f um^2)@ delay (model) %.2f ns%a@ configurations \
     %d%a@]"
    r.design_name
    (Mapper.string_of_mapper r.prepared.Mapper.mapper)
    r.plan.Mapper.level r.plan.Mapper.stages
    r.prepared.Mapper.num_planes r.area_les r.plan.Mapper.les r.area_smbs
    r.area_um2 r.delay_model_ns
    (fun fmt -> function
      | Some d -> Format.fprintf fmt "@ delay (routed) %.2f ns" d
      | None -> ())
    r.delay_routed_ns r.plan.Mapper.configs_used
    (fun fmt -> function
      | [] -> ()
      | steps ->
        Format.fprintf fmt "@ degraded via %s" (String.concat " -> " steps))
    r.degradations
