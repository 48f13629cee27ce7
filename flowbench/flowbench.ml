(* flowbench: the compile latency of the Fig. 2 flow on three closed-loop
   workloads, with per-layer numbers from a traced run and correctness
   gates outside the timed region. README.md has the rationale; run.py
   builds this program, checks its metric names against BENCHMARK.json and
   keeps the fingerprint ledger.

     flowbench --workload paper-suite|map-stress|arch-sweep --seed N
               --seconds S --trace 0|1 [--designs a,b,...]
     flowbench --selftest

   Every timed or traced compile is one [Flow.run_result] call and every
   sweep one [Explore.run] call. The last line of standard output is one
   JSON object: the gate counts, the metrics, the output digests and the
   count metrics that did not repeat. *)

module Flow = Nanomap_flow.Flow
module Check = Nanomap_flow.Check
module Explore = Nanomap_explore.Explore
module Circuits = Nanomap_circuits.Circuits
module Pool = Nanomap_util.Pool
module Json = Nanomap_util.Json
module Diag = Nanomap_util.Diag
module Arch = Nanomap_arch.Arch
module Rtl = Nanomap_rtl.Rtl
module Mapper = Nanomap_core.Mapper
module Place = Nanomap_place.Place
module Router = Nanomap_route.Router
module Bitstream = Nanomap_bitstream.Bitstream
module Lut_network = Nanomap_techmap.Lut_network
module Telemetry = Nanomap_util.Telemetry
module Oracle = Nanomap_verify.Oracle
module T = Stage_trace

let now_s = T.now_s
let printf = Printf.printf

(* ------------------------------------------------------------ statistics *)

(* Linear interpolation between order statistics. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sumf = List.fold_left ( +. ) 0.0
let mean xs = sumf xs /. float_of_int (max 1 (List.length xs))

let geomean = function
  | [] -> nan
  | xs -> exp (sumf (List.map log xs) /. float_of_int (List.length xs))

let ratio num den = if den = 0.0 then 0.0 else num /. den
let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* ------------------------------------------------------------ the gates *)

(* Every gate is one attempted operation; a failed one is counted and
   printed. The timed regions never contain a gate. *)
let attempted = ref 0
let failed = ref 0

let gate what ok detail =
  incr attempted;
  if not ok then begin
    incr failed;
    printf "FAIL %s: %s\n%!" what detail
  end

let md5 s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------ workloads *)

type workload = Paper_suite | Map_stress | Arch_sweep

let workload_of_string = function
  | "paper-suite" -> Paper_suite
  | "map-stress" -> Map_stress
  | "arch-sweep" -> Arch_sweep
  | w -> failwith ("unknown workload " ^ w)

type job = {
  key : string;  (** [Circuits.by_name] key, or "ex1-24bit" *)
  name : string;
  design : Rtl.t;
}

let job_of_key key =
  let b =
    if key = "ex1-24bit" then Circuits.ex1 ~width:24 () else Circuits.by_name key
  in
  let name = if key = "ex1-24bit" then key else b.Circuits.name in
  { key; name; design = b.Circuits.design }

let paper_keys = [ "ex1"; "fir"; "ex2"; "c5315"; "biquad"; "paulin"; "aspp4" ]

let default_keys = function
  | Paper_suite -> paper_keys
  | Map_stress -> "ex1-24bit" :: paper_keys
  | Arch_sweep -> [ "ex1_small"; "crc8"; "sorter"; "c5315" ]

(* The seed becomes [Flow.options.seed]; it also rotates the round-robin
   order, the only input [Explore.run] (which fixes its own flow seed) and
   the logical-only flow (which never places) take from it. *)
let rotate n xs =
  let n = n mod max 1 (List.length xs) in
  List.filteri (fun i _ -> i >= n) xs @ List.filteri (fun i _ -> i < n) xs

let sweep_workers = 2

type inputs = {
  jobs : job list;
  points : Explore.point list;  (** arch-sweep only *)
  pool : Pool.t option;  (** arch-sweep only *)
}

(* Build and validate the workload's inputs: no compile work. *)
let set_up workload keys =
  let jobs = List.map job_of_key keys in
  List.iter (fun j -> Rtl.validate j.design) jobs;
  Arch.validate Arch.default;
  match workload with
  | Arch_sweep ->
    let points = Explore.enumerate Explore.smoke_grid in
    List.iter (fun (p : Explore.point) -> Arch.validate p.Explore.arch) points;
    { jobs; points; pool = Some (Pool.create ~jobs:sweep_workers ()) }
  | Paper_suite | Map_stress -> { jobs; points = []; pool = None }

let setup_reps = 51

(* Set up [setup_reps] times and keep the last; setup_s is the median. *)
let timed_setup workload keys =
  let rec go n times last =
    if n = 0 then (Option.get last, median times)
    else begin
      Option.iter (fun i -> Option.iter Pool.shutdown i.pool) last;
      let t0 = now_s () in
      let inputs = set_up workload keys in
      go (n - 1) ((now_s () -. t0) :: times) (Some inputs)
    end
  in
  go setup_reps [] None

(* ------------------------------------------------- what a compile made *)

type quality = {
  les : int;
  area_um2 : float;
  delay_ns : float;  (** routed where routed, else the model *)
  wirelength : int;
  luts : int;
  depth : int;
  stages : int;
  hpwl : float;
  bytes : int;
  fast_tries : int;
  screen_passes : int;
  channel_factor : int;
  degradations : int;
  mapping_retries : int;
}

let quality_of (r : Flow.report) =
  let tele = r.Flow.telemetry in
  let fast_tries = List.length (Telemetry.find_spans tele "place_fast") in
  (* A fast try fails the routability screen when the flow retries after
     it, or when the estimate it was accepted with is over the threshold. *)
  let retried =
    List.length
      (List.filter
         (fun (e : Telemetry.event) -> e.Telemetry.label = "place.retry")
         (Telemetry.events tele))
  in
  let accepted_over =
    match List.assoc_opt "place.routability" (Telemetry.gauges tele) with
    | Some est when est > Flow.default_options.Flow.routability_threshold -> 1
    | Some _ | None -> 0
  in
  { les = r.Flow.area_les;
    area_um2 = r.Flow.area_um2;
    delay_ns = Option.value r.Flow.delay_routed_ns ~default:r.Flow.delay_model_ns;
    wirelength =
      (match r.Flow.routing with Some rt -> rt.Router.wirelength | None -> 0);
    luts = r.Flow.prepared.Mapper.total_luts;
    depth = r.Flow.prepared.Mapper.depth_max;
    stages = r.Flow.plan.Mapper.stages;
    hpwl = (match r.Flow.placement with Some p -> p.Place.hpwl | None -> 0.0);
    bytes =
      (match r.Flow.bitstream with
      | Some b -> Bytes.length b.Bitstream.bytes
      | None -> 0);
    fast_tries;
    screen_passes = max 0 (fast_tries - retried - accepted_over);
    channel_factor = (if Option.is_none r.Flow.routing then 0 else r.Flow.channel_factor);
    degradations = List.length r.Flow.degradations;
    mapping_retries = r.Flow.mapping_retries }

(* Output digests: the mapped networks, the placement, the configuration
   bitmap, and a summary of the plan and cluster. *)
let digest_of (r : Flow.report) =
  let luts =
    md5
      (String.concat "\n"
         (Array.to_list
            (Array.map Lut_network.fingerprint r.Flow.prepared.Mapper.networks)))
  in
  let summary =
    md5
      (Printf.sprintf "level=%d stages=%d les=%d smbs=%d model=%h routed=%s cf=%d"
         r.Flow.plan.Mapper.level r.Flow.plan.Mapper.stages r.Flow.area_les
         r.Flow.area_smbs r.Flow.delay_model_ns
         (match r.Flow.delay_routed_ns with
         | Some d -> Printf.sprintf "%h" d
         | None -> "-")
         r.Flow.channel_factor)
  in
  [ ("luts", luts); ("summary", summary) ]
  @ (match r.Flow.placement with
    | Some p ->
      let xy a =
        String.concat ";"
          (Array.to_list (Array.map (fun (x, y) -> Printf.sprintf "%d,%d" x y) a))
      in
      [ ("placement",
         md5 (Printf.sprintf "%s|%s|%h" (xy p.Place.smb_xy) (xy p.Place.pad_xy)
                p.Place.hpwl)) ]
    | None -> [])
  @
  match r.Flow.bitstream with
  | Some b -> [ ("bitstream", md5 (Bytes.to_string b.Bitstream.bytes)) ]
  | None -> []

(* The flow's counters, as (name, delta) between two readings. *)
let counter_list c0 c1 =
  Array.to_list
    (Array.mapi (fun i n -> (T.counter_names.(i), float_of_int n)) (Array.map2 ( - ) c1 c0))

(* The count metrics one compile determines, for the repeat check. *)
let counts_of q c0 c1 =
  [ ("techmap.luts", float_of_int q.luts);
    ("techmap.depth", float_of_int q.depth);
    ("core.stages", float_of_int q.stages);
    ("cluster.les", float_of_int q.les);
    ("place.fast_tries", float_of_int q.fast_tries);
    ("place.screen_passes", float_of_int q.screen_passes);
    ("place.hpwl", q.hpwl);
    ("route.wirelength", float_of_int q.wirelength);
    ("route.channel_factor", float_of_int q.channel_factor);
    ("bitstream.bytes", float_of_int q.bytes);
    ("flow.degradations", float_of_int q.degradations);
    ("flow.mapping_retries", float_of_int q.mapping_retries) ]
  @ counter_list c0 c1

(* -------------------------------------------------- per-design records *)

type acc = {
  job : job;
  mutable times : float list;  (** untraced wall times *)
  mutable traces : T.t list;  (** traced compiles *)
  mutable digest : (string * string) list option;
  mutable quality : quality option;
  mutable counts : (string * float) list list;  (** one list per compile *)
  mutable minor_gcs : int list;  (** per untraced compile *)
  mutable major_gcs : int list;
}

let new_acc job =
  { job; times = []; traces = []; digest = None; quality = None; counts = [];
    minor_gcs = []; major_gcs = [] }

let peak_words = ref 0

let note_peak () =
  peak_words := max !peak_words (Gc.quick_stat ()).Gc.top_heap_words

(* The once-per-design gates on a design's first report: the full
   inter-stage checkers, and the four-level differential oracle whose
   reference is RTL simulation. *)
let deep_gates name (r : Flow.report) =
  (match Flow.validate_report ~level:Check.Full r with
  | Ok () -> gate "validate-full" true ""
  | Error d -> gate "validate-full" false (name ^ ": " ^ Diag.to_string d));
  match Oracle.run (Oracle.subject_of_report r) with
  | Oracle.Pass _ -> gate "oracle" true ""
  | outcome -> gate "oracle" false (name ^ ": " ^ Oracle.describe outcome)

(* Record one report's outputs against the design's first compile. *)
let observe acc (r : Flow.report) c0 c1 =
  let d = digest_of r in
  let q = quality_of r in
  (match acc.digest with
  | None ->
    acc.digest <- Some d;
    acc.quality <- Some q;
    deep_gates acc.job.name r
  | Some d0 ->
    gate "repeat-identical" (d0 = d)
      (Printf.sprintf "%s: %s moved" acc.job.name
         (String.concat ","
            (List.filter_map
               (fun (part, h) ->
                 if List.assoc_opt part d0 = Some h then None else Some part)
               d))));
  acc.counts <- counts_of q c0 c1 :: acc.counts

(* One compile of the design, timed (untraced) or traced. The caller drops
   the report before the next compile, which starts from a collected heap. *)
let compile ?arch ~traced options acc =
  Gc.full_major ();
  let c0 = T.read_counters () in
  let g0 = Gc.quick_stat () in
  let run () = Flow.run_result ~options ?arch acc.job.design in
  let result =
    if traced then begin
      let result, trace = T.run run in
      acc.traces <- trace :: acc.traces;
      result
    end
    else begin
      let t0 = now_s () in
      let result = run () in
      acc.times <- (now_s () -. t0) :: acc.times;
      result
    end
  in
  let g1 = Gc.quick_stat () in
  let c1 = T.read_counters () in
  note_peak ();
  if not traced then begin
    acc.minor_gcs <- (g1.Gc.minor_collections - g0.Gc.minor_collections) :: acc.minor_gcs;
    acc.major_gcs <- (g1.Gc.major_collections - g0.Gc.major_collections) :: acc.major_gcs
  end;
  match result with
  | Ok r ->
    gate "compile" true "";
    observe acc r c0 c1;
    Some r
  | Error d ->
    gate "compile" false (acc.job.name ^ ": " ^ Diag.to_string d);
    None

(* Counts that did not repeat exactly across one design's count lists,
   as "count@design". *)
let unrepeated design = function
  | [] | [ _ ] -> []
  | first :: rest ->
    List.filter_map
      (fun (name, v) ->
        if List.for_all (fun c -> List.assoc_opt name c = Some v) rest then None
        else Some (name ^ "@" ^ design))
      first

let unrepeated_in accs = List.concat_map (fun a -> unrepeated a.job.name a.counts) accs

(* Round-robin passes over the designs until the deadline; the first pass
   always completes, so every design has at least one sample. *)
let round_robin ~seconds accs f =
  let deadline = now_s () +. seconds in
  let rec pass n =
    if n = 0 || now_s () < deadline then begin
      List.iter (fun acc -> if n = 0 || now_s () < deadline then f n acc) accs;
      pass (n + 1)
    end
    else n
  in
  pass 0

(* ------------------------------------------------------------- reporting *)

let print_rows ~label accs value_of =
  printf "%-10s %3s %9s %9s %9s %6s %9s %6s\n" "design" "n" label "q1" "q3" "LEs"
    "delay_ns" "wire";
  List.iter
    (fun acc ->
      let xs = value_of acc in
      match acc.quality with
      | Some q ->
        printf "%-10s %3d %9.4f %9.4f %9.4f %6d %9.2f %6d\n" acc.job.name
          (List.length xs) (median xs) (quantile xs 0.25) (quantile xs 0.75) q.les
          q.delay_ns q.wirelength
      | None -> printf "%-10s %3d (no successful compile)\n" acc.job.name (List.length xs))
    accs

let qualities accs = List.filter_map (fun a -> a.quality) accs

(* The per-layer metrics of a set of traced compiles: time and allocation
   are per-design means over the design's traced compiles, summed over
   designs (one traced pass); counts are the first traced compile's. *)
let per_design_mean accs f =
  sumf
    (List.map
       (fun acc -> if acc.traces = [] then 0.0 else mean (List.map f acc.traces))
       accs)

let first_trace_sum accs f =
  List.fold_left
    (fun s acc ->
      match List.rev acc.traces with t :: _ -> s +. float_of_int (f t) | [] -> s)
    0.0 accs

type layer_extra = {
  width_search_s : float;
  width_heap_pops : float;
  min_width_sum : float;
  pool_efficiency : float;
  overhead_s : float;
  minor_gcs : float;
  major_gcs : float;
}

let layer_metrics accs qs x =
  let secs layer = per_design_mean accs (T.layer_seconds layer) in
  let stage stage = per_design_mean accs (T.stage_seconds stage) in
  let alloc layer = mb_of_words (per_design_mean accs (T.layer_alloc_words layer)) in
  let count layer name = first_trace_sum accs (T.layer_counter layer name) in
  let qsum f = float_of_int (List.fold_left (fun s q -> s + f q) 0 qs) in
  let tried = count "place" "place.moves_tried" in
  let fast_tries = qsum (fun q -> q.fast_tries) in
  let routed = List.filter (fun q -> q.channel_factor > 0) qs in
  [ ("techmap.s", secs "techmap", "s");
    ("techmap.alloc_mb", alloc "techmap", "MB");
    ("techmap.luts", qsum (fun q -> q.luts), "count");
    ("techmap.depth", qsum (fun q -> q.depth), "count");
    ("core.s", secs "core", "s");
    ("core.fds_force_evals", count "core" "fds.force_evals", "count");
    ("core.sched_frame_passes", count "core" "sched.frame_passes", "count");
    ("core.stages", qsum (fun q -> q.stages), "count");
    ("cluster.s", secs "cluster", "s");
    ("cluster.luts_packed", count "cluster" "cluster.luts_packed", "count");
    ("cluster.rebalance_moves", count "cluster" "cluster.rebalance_moves", "count");
    ("cluster.les", qsum (fun q -> q.les), "count");
    ("place.s", secs "place", "s");
    ("place.fast_s", stage "place_fast", "s");
    ("place.detailed_s", stage "place_detailed", "s");
    ("place.alloc_mb", alloc "place", "MB");
    ("place.moves_tried", tried, "count");
    ("place.accept_ratio", ratio (count "place" "place.moves_accepted") tried, "ratio");
    ("place.temperature_steps", count "place" "place.temperature_steps", "count");
    ("place.fast_tries", fast_tries, "count");
    ("place.screen_pass_ratio", ratio (qsum (fun q -> q.screen_passes)) fast_tries, "ratio");
    ("place.hpwl", sumf (List.map (fun q -> q.hpwl) qs), "tiles");
    ("route.s", secs "route", "s");
    ("route.alloc_mb", alloc "route", "MB");
    ("route.heap_pops", count "route" "route.heap_pops", "count");
    ("route.nodes_expanded", count "route" "route.nodes_expanded", "count");
    ("route.nets_rerouted", count "route" "route.nets_rerouted", "count");
    ("route.astar_pruned", count "route" "route.astar_pruned", "count");
    ("route.pathfinder_iters", count "route" "route.pathfinder_iters", "count");
    ( "route.channel_factor",
      mean (List.map (fun q -> float_of_int q.channel_factor) routed),
      "x" );
    ("route.wirelength", qsum (fun q -> q.wirelength), "count");
    ("explore.width_search_s", x.width_search_s, "s");
    ("explore.route_heap_pops", x.width_heap_pops, "count");
    ("explore.min_width_sum", x.min_width_sum, "tracks");
    ("bitstream.s", secs "bitstream", "s");
    ("bitstream.bytes", qsum (fun q -> q.bytes), "bytes");
    ("flow.degradations", qsum (fun q -> q.degradations), "count");
    ("flow.mapping_retries", qsum (fun q -> q.mapping_retries), "count");
    ("pool.efficiency", x.pool_efficiency, "ratio");
    ("gc.minor_collections", x.minor_gcs, "count");
    ("gc.major_collections", x.major_gcs, "count");
    ("trace.compile_s", per_design_mean accs T.total_seconds, "s");
    ("trace.overhead_s", x.overhead_s, "s") ]

(* The stage breakdown the traced run reports next to its metrics. *)
let print_shares accs =
  let total = per_design_mean accs T.total_seconds in
  let wall = per_design_mean accs (fun t -> t.T.wall_s) in
  let share layer = 100.0 *. ratio (per_design_mean accs (T.layer_seconds layer)) total in
  printf
    "traced compile %.3f s per pass; stages account for %.2f%% of it\n\
     shares: prepare %.1f%%  plan %.1f%%  cluster %.1f%%  place %.1f%%  route \
     %.1f%%  bitstream %.1f%%  before-first-stage %.2f%%\n"
    total (100.0 *. ratio total wall) (share "techmap") (share "core")
    (share "cluster") (share "place") (share "route") (share "bitstream")
    (share "flow")

(* ------------------------------------------- paper-suite and map-stress *)

type outcome = {
  metrics : (string * float * string) list;
  digests : (string * (string * string) list) list;
  unrepeated_counts : string list;
}

let compile_workload workload ~seed ~seconds ~trace inputs setup_s =
  let options =
    { Flow.default_options with Flow.seed; physical = workload <> Map_stress }
  in
  let accs = List.map new_acc (rotate seed inputs.jobs) in
  let passes =
    round_robin ~seconds accs (fun pass acc ->
        let once traced = ignore (compile ~traced options acc) in
        if not trace then once false
        else if pass mod 2 = 0 then (once false; once true)
        else (once true; once false))
  in
  let qs = qualities accs in
  print_rows ~label:"median_s" accs (fun a -> a.times);
  printf "%d pass(es) in the timed loop\n" passes;
  let metrics =
    if not trace then begin
      let medians = List.map (fun a -> median a.times) accs in
      [ ("setup_s", setup_s, "s");
        ("compile_s_geomean", geomean medians, "s");
        ("suite_s", sumf medians, "s");
        ("peak_heap_mb", mb_of_words (float_of_int !peak_words), "MB");
        ("area_um2", sumf (List.map (fun q -> q.area_um2) qs), "um2");
        ("delay_ns_geomean", geomean (List.map (fun q -> q.delay_ns) qs), "ns") ]
    end
    else begin
      print_shares accs;
      let mean_of f = sumf (List.map (fun a -> mean (List.map float_of_int (f a))) accs) in
      let traced_wall =
        sumf (List.map (fun a -> median (List.map (fun t -> t.T.wall_s) a.traces)) accs)
      in
      let untraced_wall = sumf (List.map (fun a -> median a.times) accs) in
      layer_metrics accs qs
        { width_search_s = 0.0;
          width_heap_pops = 0.0;
          min_width_sum = 0.0;
          pool_efficiency = 0.0;
          overhead_s = traced_wall -. untraced_wall;
          minor_gcs = mean_of (fun a -> a.minor_gcs);
          major_gcs = mean_of (fun a -> a.major_gcs) }
    end
  in
  { metrics;
    digests =
      List.filter_map
        (fun a -> Option.map (fun d -> (a.job.name, d)) a.digest)
        accs;
    unrepeated_counts = unrepeated_in accs }

(* ------------------------------------------------------------ arch-sweep *)

let sweep_measures (results : Explore.point_result list) =
  List.concat_map (fun (r : Explore.point_result) -> r.Explore.measures) results

(* The Pareto marking must be exactly the set of feasible points no other
   feasible point dominates in (area, delay, width). *)
let pareto_consistent (results : Explore.point_result list) =
  let key (r : Explore.point_result) =
    match r.Explore.status with
    | Explore.Feasible w -> Some (r.Explore.total_area, r.Explore.mean_delay, w)
    | Explore.Unroutable | Explore.Infeasible _ -> None
  in
  let dominates (a1, d1, w1) (a2, d2, w2) =
    a1 <= a2 && d1 <= d2 && w1 <= w2 && (a1 < a2 || d1 < d2 || w1 < w2)
  in
  List.for_all
    (fun (r : Explore.point_result) ->
      match key r with
      | None -> not r.Explore.pareto
      | Some k ->
        let dominated =
          List.exists
            (fun r' -> r' != r && match key r' with Some k' -> dominates k' k | None -> false)
            results
        in
        r.Explore.pareto = not dominated)
    results

let all_feasible results =
  List.for_all
    (fun (m : Explore.measure) ->
      match m.Explore.status with Explore.Feasible _ -> true | _ -> false)
    (sweep_measures results)

(* The options [Explore] compiles a point with, for the traced serial pass;
   the pass's (area, delay, width) must equal [Explore.run]'s measures, so
   a drift between the two fails a gate rather than going unseen. *)
let sweep_options (pt : Explore.point) =
  { Flow.default_options with
    Flow.objective =
      (match pt.Explore.folding with
      | Explore.F_none -> Flow.No_folding
      | Explore.F_level l -> Flow.Fixed_level l);
    physical = true;
    check_level = Check.Off;
    jobs = 1 }

type sweep_acc = {
  sjob : job;
  mutable pooled : float list;  (** pooled Explore.run wall times *)
  mutable serial : float list;  (** serial Explore.run wall times *)
  mutable traced : float list;  (** traced serial pass: compiles + width searches *)
  mutable width_s : float list;  (** width searches of one traced pass *)
  mutable width_pops : int list;
  mutable fingerprint : string option;  (** the first serial sweep's *)
  mutable results : Explore.point_result list;
  mutable sweep_counts : (string * float) list list;
      (** counter deltas of each serial sweep and each traced pass *)
  mutable pool_minor : int list;
  mutable pool_major : int list;
  points : acc list;  (** the traced pass's compiles, one record per point *)
}

let serial_sweep grid acc =
  Gc.full_major ();
  let c0 = T.read_counters () in
  let t0 = now_s () in
  let results = Explore.run ~designs:[ acc.sjob.key ] grid in
  let dt = now_s () -. t0 in
  let c1 = T.read_counters () in
  note_peak ();
  acc.serial <- dt :: acc.serial;
  acc.sweep_counts <- counter_list c0 c1 :: acc.sweep_counts;
  let fp = Explore.fingerprint ~designs:[ acc.sjob.key ] results in
  gate "sweep-feasible" (all_feasible results) acc.sjob.name;
  gate "pareto-consistent" (pareto_consistent results) acc.sjob.name;
  match acc.fingerprint with
  | None ->
    acc.fingerprint <- Some fp;
    acc.results <- results;
    print_string (Explore.report_ascii ~designs:[ acc.sjob.key ] results)
  | Some fp0 -> gate "sweep-repeat-identical" (fp = fp0) acc.sjob.name

let pooled_sweep pool grid acc =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = now_s () in
  let results = Explore.run ~pool ~designs:[ acc.sjob.key ] grid in
  let dt = now_s () -. t0 in
  let g1 = Gc.quick_stat () in
  note_peak ();
  acc.pooled <- dt :: acc.pooled;
  acc.pool_minor <- (g1.Gc.minor_collections - g0.Gc.minor_collections) :: acc.pool_minor;
  acc.pool_major <- (g1.Gc.major_collections - g0.Gc.major_collections) :: acc.pool_major;
  gate "pooled-equals-serial"
    (Some (Explore.fingerprint ~designs:[ acc.sjob.key ] results) = acc.fingerprint)
    acc.sjob.name;
  gate "pareto-consistent" (pareto_consistent results) acc.sjob.name

(* Compile point [i] of the grid with [Flow.run_result], then time
   [Explore.min_channel_width] on its placement. The (area, delay, width)
   must equal the serial sweep's measure. Returns the compile's and the
   search's wall times and the search's router heap pops. *)
let sweep_point ~traced acc i (pt : Explore.point) =
  let pacc = List.nth acc.points i in
  let expected = List.hd (List.nth acc.results i).Explore.measures in
  let report = compile ~arch:pt.Explore.arch ~traced (sweep_options pt) pacc in
  let compile_s =
    if traced then (List.hd pacc.traces).T.wall_s else List.hd pacc.times
  in
  match report with
  | None -> (compile_s, 0.0, 0)
  | Some r ->
    let i_pops = T.counter_index "route.heap_pops" in
    let placement = Option.get r.Flow.placement in
    let h0 = T.read_counters () in
    let t0 = now_s () in
    let w = Explore.min_channel_width ~cluster:r.Flow.cluster ~plan:r.Flow.plan placement in
    let dt = now_s () -. t0 in
    let h1 = T.read_counters () in
    let q = Option.get pacc.quality in
    let status = match w with Ok w -> Explore.Feasible w | Error _ -> Explore.Unroutable in
    gate "point-equals-explore"
      (q.area_um2 = expected.Explore.area_um2
      && q.delay_ns = expected.Explore.delay_ns
      && status = expected.Explore.status)
      (Printf.sprintf "%s at point %d (k=%d, folding %s)" acc.sjob.name i
         pt.Explore.arch.Arch.lut_inputs (Explore.folding_to_string pt.Explore.folding));
    (compile_s, dt, h1.(i_pops) - h0.(i_pops))

(* The traced serial pass: every point of the grid through the hook. *)
let traced_sweep points acc =
  let c0 = T.read_counters () in
  let parts = List.mapi (sweep_point ~traced:true acc) points in
  let c1 = T.read_counters () in
  acc.traced <- sumf (List.map (fun (c, w, _) -> c +. w) parts) :: acc.traced;
  acc.width_s <- sumf (List.map (fun (_, w, _) -> w) parts) :: acc.width_s;
  acc.width_pops <- List.fold_left (fun n (_, _, p) -> n + p) 0 parts :: acc.width_pops;
  acc.sweep_counts <- counter_list c0 c1 :: acc.sweep_counts

let sweep_workload ~seed ~seconds ~trace inputs setup_s =
  let pool = Option.get inputs.pool in
  let grid = Explore.smoke_grid in
  let accs =
    List.map
      (fun job ->
        { sjob = job; pooled = []; serial = []; traced = []; width_s = [];
          width_pops = []; fingerprint = None; results = []; sweep_counts = [];
          pool_minor = []; pool_major = [];
          points = List.map (fun _ -> new_acc job) inputs.points })
      (rotate seed inputs.jobs)
  in
  (* The serial sweep is the reference every pooled sweep must reproduce
     byte for byte; in the untraced run it stays outside the timed loop. *)
  if not trace then List.iter (serial_sweep grid) accs;
  let passes =
    round_robin ~seconds accs (fun _ acc ->
        if not trace then pooled_sweep pool grid acc
        else begin
          serial_sweep grid acc;
          pooled_sweep pool grid acc;
          traced_sweep inputs.points acc
        end)
  in
  let peak = !peak_words in
  (* The once-per-design gates: the traced run has put every point through
     them; the untraced run compiles one point per design, chosen by the
     seed, after the timed loop and after the peak heap is read, since the
     oracle's heap would count as the compiler's. *)
  if not trace then begin
    let i = seed mod List.length inputs.points in
    List.iter (fun acc -> ignore (sweep_point ~traced:false acc i (List.nth inputs.points i))) accs
  end;
  let workers = Pool.workers pool in
  Pool.shutdown pool;
  printf "%-10s %3s %9s %9s %9s %9s %10s\n" "design" "n" "pooled_s" "q1" "q3"
    "serial_s" "area_um2";
  List.iter
    (fun a ->
      printf "%-10s %3d %9.4f %9.4f %9.4f %9.4f %10.0f\n" a.sjob.name
        (List.length a.pooled) (median a.pooled) (quantile a.pooled 0.25)
        (quantile a.pooled 0.75) (median a.serial)
        (sumf (List.map (fun (r : Explore.point_result) -> r.Explore.total_area) a.results)))
    accs;
  printf "%d pass(es) in the timed loop\n" passes;
  let results = List.concat_map (fun a -> a.results) accs in
  let metrics =
    if not trace then begin
      let medians = List.map (fun a -> median a.pooled) accs in
      [ ("setup_s", setup_s, "s");
        ("compile_s_geomean", geomean medians, "s");
        ("suite_s", sumf medians, "s");
        ("peak_heap_mb", mb_of_words (float_of_int peak), "MB");
        ( "area_um2",
          sumf (List.map (fun (r : Explore.point_result) -> r.Explore.total_area) results),
          "um2" );
        ( "delay_ns_geomean",
          geomean (List.map (fun (r : Explore.point_result) -> r.Explore.mean_delay) results),
          "ns" ) ]
    end
    else begin
      let compiles = List.concat_map (fun a -> a.points) accs in
      print_shares compiles;
      let per_pass f = sumf (List.map (fun a -> mean (f a)) accs) in
      let per_pass_int f = per_pass (fun a -> List.map float_of_int (f a)) in
      let serial = per_pass (fun a -> a.serial) in
      let widths =
        List.map
          (fun (m : Explore.measure) ->
            match m.Explore.status with Explore.Feasible w -> float_of_int w | _ -> 0.0)
          (sweep_measures results)
      in
      layer_metrics compiles (qualities compiles)
        { width_search_s = per_pass (fun a -> a.width_s);
          width_heap_pops = per_pass_int (fun a -> a.width_pops);
          min_width_sum = sumf widths;
          pool_efficiency =
            ratio serial (per_pass (fun a -> a.pooled) *. float_of_int workers);
          overhead_s =
            sumf (List.map (fun a -> median a.traced -. median a.serial) accs);
          minor_gcs = per_pass_int (fun a -> a.pool_minor);
          major_gcs = per_pass_int (fun a -> a.pool_major) }
    end
  in
  (* A serial sweep and a traced pass do the same counted work. *)
  let unrepeated_sweep =
    List.concat_map (fun a -> unrepeated a.sjob.name a.sweep_counts) accs
  in
  { metrics;
    digests =
      List.filter_map
        (fun a -> Option.map (fun fp -> (a.sjob.name, [ ("sweep", fp) ])) a.fingerprint)
        accs;
    unrepeated_counts =
      unrepeated_sweep @ unrepeated_in (List.concat_map (fun a -> a.points) accs) }

(* ------------------------------------------------------------- self-test *)

(* The hook must not change what the flow produces, and the time it
   charges to stages must add up to the traced compile. *)
let selftest () =
  let job = job_of_key "ex1_small" in
  let options = Flow.default_options in
  let plain = new_acc job and traced = new_acc job in
  ignore (compile ~traced:false options plain);
  ignore (compile ~traced:true options traced);
  gate "hook-keeps-fingerprints" (plain.digest <> None && plain.digest = traced.digest)
    "ex1-4bit digests differ with the stage hook installed";
  let t = List.hd traced.traces in
  let staged = T.total_seconds t and wall = t.T.wall_s in
  let before_first = T.stage_seconds "flow" t in
  printf "ex1-4bit traced: wall %.6f s, stages %.6f s, before first stage %.6f s\n"
    wall staged before_first;
  gate "stages-sum-to-compile"
    (Float.abs (wall -. staged) <= 0.01 *. wall && before_first <= 0.01 *. wall)
    (Printf.sprintf "stages %.6f s vs compile %.6f s" staged wall);
  gate "place-split"
    (T.stage_seconds "place_fast" t > 0.0 && T.stage_seconds "place_detailed" t > 0.0)
    "no fast or no detailed placement segment";
  printf "selftest: %d of %d checks passed\n" (!attempted - !failed) !attempted;
  exit (if !failed = 0 then 0 else 1)

(* ------------------------------------------------------------------ main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let designs = ref "" and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "paper-suite|map-stress|arch-sweep");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--designs", Arg.Set_string designs, "a,b,... replace the workload's designs");
      ("--selftest", Arg.Set self, " check the stage hook on ex1-4bit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "flowbench --workload W --seed N --seconds S --trace 0|1";
  if !self then selftest ();
  let workload = workload_of_string !workload in
  let keys =
    if !designs = "" then default_keys workload else String.split_on_char ',' !designs
  in
  let trace = !trace = 1 in
  let inputs, setup_s = timed_setup workload keys in
  printf "workload %s, seed %d, %.0f s, trace %b; setup %.6f s (median of %d)\n%!"
    (match workload with
    | Paper_suite -> "paper-suite"
    | Map_stress -> "map-stress"
    | Arch_sweep -> "arch-sweep")
    !seed !seconds trace setup_s setup_reps;
  let run = match workload with Arch_sweep -> sweep_workload | _ -> compile_workload workload in
  let o = run ~seed:!seed ~seconds:!seconds ~trace inputs setup_s in
  (match o.unrepeated_counts with
  | [] -> printf "count determinism: every count repeated exactly\n"
  | xs -> printf "count determinism: did not repeat: %s\n" (String.concat " " xs));
  let json =
    Json.Obj
      [ ("correct", Json.Bool (!failed = 0));
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) ->
                 (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
               o.metrics) );
        ( "digests",
          Json.Obj
            (List.map
               (fun (d, parts) ->
                 (d, Json.Obj (List.map (fun (p, h) -> (p, Json.String h)) parts)))
               o.digests) );
        ( "unrepeated_counts",
          Json.List (List.map (fun s -> Json.String s) o.unrepeated_counts) ) ]
  in
  print_endline (Json.to_string json)
