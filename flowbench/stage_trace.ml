(* Per-stage accounting of one [Flow.run_result] call, taken from outside
   the flow at the stage boundaries it exposes through
   [Flow.set_stage_hook]. At every boundary the tracer records the
   monotonic clock, the GC's allocation and collection counts and the
   values of the flow's named counters; the deltas up to the next boundary,
   or up to the return of [run_result], are charged to the stage just
   entered. Nothing here knows the flow's stage order or retry ladder: a
   stage is whatever name the flow hands the hook. *)

module Flow = Nanomap_flow.Flow
module Telemetry = Nanomap_util.Telemetry

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The flow's named counters the per-layer metrics read. *)
let counter_names =
  [| "fds.force_evals"; "sched.frame_passes"; "cluster.luts_packed";
     "cluster.rebalance_moves"; "place.moves_tried"; "place.moves_accepted";
     "place.temperature_steps"; "route.heap_pops"; "route.nodes_expanded";
     "route.nets_rerouted"; "route.astar_pruned"; "route.pathfinder_iters";
     "flow.degradations" |]

let counters = Array.map Telemetry.counter counter_names

let counter_index name =
  let rec go i =
    if i >= Array.length counter_names then invalid_arg ("counter " ^ name)
    else if counter_names.(i) = name then i
    else go (i + 1)
  in
  go 0

let read_counters () = Array.map Telemetry.value counters

type snapshot = {
  at : float;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
  values : int array;
}

let snapshot () =
  let g = Gc.quick_stat () in
  { at = now_s ();
    alloc_words = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words;
    minor_gcs = g.Gc.minor_collections;
    major_gcs = g.Gc.major_collections;
    values = read_counters () }

type segment = {
  stage : string;
      (** the hook's stage name; a "place" boundary that follows the fast
          pass's boundary is named "place_detailed", the other
          "place_fast". "flow" is the time before the first boundary. *)
  seconds : float;
  alloc_words : float;
  deltas : int array;  (** indexed like {!counter_names} *)
}

type t = {
  segments : segment list;  (** in execution order *)
  wall_s : float;
      (** the same call timed on its own, outside the snapshots *)
}

let segment stage (a : snapshot) (b : snapshot) =
  { stage;
    seconds = b.at -. a.at;
    alloc_words = b.alloc_words -. a.alloc_words;
    deltas = Array.map2 ( - ) b.values a.values }

(* The flow crosses a "place" boundary before its fast pass and another
   before its detailed pass; a degraded run repeats the pair. *)
let name_places stages =
  let _, named =
    List.fold_left
      (fun (prev, acc) stage ->
        let stage =
          if stage <> "place" then stage
          else if prev = "place_fast" then "place_detailed"
          else "place_fast"
        in
        (stage, stage :: acc))
      ("", []) stages
  in
  List.rev named

(* [run f] calls [f] (a [Flow.run_result] application) with the hook
   installed and returns its result with the stage accounting. *)
let run f =
  let marks = ref [] in
  let hook ~stage ~design:_ = marks := (stage, snapshot ()) :: !marks in
  let c0 = now_s () in
  let first = snapshot () in
  Flow.set_stage_hook (Some hook);
  let result = Fun.protect ~finally:(fun () -> Flow.set_stage_hook None) f in
  let last = snapshot () in
  let wall_s = now_s () -. c0 in
  let marks = List.rev !marks in
  let names = "flow" :: name_places (List.map fst marks) in
  let starts = first :: List.map snd marks in
  let ends = List.map snd marks @ [ last ] in
  let segments =
    List.map2 (fun name (a, b) -> segment name a b) names
      (List.combine starts ends)
  in
  (result, { segments; wall_s })

let layer_of_stage = function
  | "prepare" -> "techmap"
  | "plan" -> "core"
  | "cluster" -> "cluster"
  | "place_fast" | "place_detailed" -> "place"
  | "route" -> "route"
  | "bitstream" -> "bitstream"
  | other -> other

let seconds_where pred t =
  List.fold_left
    (fun acc s -> if pred s.stage then acc +. s.seconds else acc)
    0.0 t.segments

let layer_seconds layer t = seconds_where (fun st -> layer_of_stage st = layer) t
let stage_seconds stage t = seconds_where (( = ) stage) t

let layer_alloc_words layer t =
  List.fold_left
    (fun acc s ->
      if layer_of_stage s.stage = layer then acc +. s.alloc_words else acc)
    0.0 t.segments

let layer_counter layer name t =
  let i = counter_index name in
  List.fold_left
    (fun acc s -> if layer_of_stage s.stage = layer then acc + s.deltas.(i) else acc)
    0 t.segments

let total_seconds t = List.fold_left (fun acc s -> acc +. s.seconds) 0.0 t.segments
