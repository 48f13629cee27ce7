module Arch = Nanomap_arch.Arch
module Defect = Nanomap_arch.Defect
module Mapper = Nanomap_core.Mapper
module Cluster = Nanomap_cluster.Cluster
module Place = Nanomap_place.Place
module Router = Nanomap_route.Router
module Rr_graph = Nanomap_route.Rr_graph
module Flow = Nanomap_flow.Flow
module Check = Nanomap_flow.Check
module Circuits = Nanomap_circuits.Circuits
module Diag = Nanomap_util.Diag
module Json = Nanomap_util.Json
module Pool = Nanomap_util.Pool

type folding =
  | F_none
  | F_level of int

let folding_to_string = function
  | F_none -> "none"
  | F_level l -> string_of_int l

type grid = {
  ks : int list;
  les_per_mbs : int list;
  mbs_per_smbs : int list;
  fss : int list;
  fcs : float list;
  foldings : folding list;
}

let default_grid =
  { ks = [ 3; 4; 5; 6 ];
    les_per_mbs = [ 2; 4; 8 ];
    mbs_per_smbs = [ 2; 4; 8 ];
    fss = [ 3; 6 ];
    fcs = [ 0.5; 1.0 ];
    foldings = [ F_none; F_level 1; F_level 2 ] }

let smoke_grid =
  { ks = [ 3; 4 ];
    les_per_mbs = [ 2; 4 ];
    mbs_per_smbs = [ 4 ];
    fss = [ 3 ];
    fcs = [ 1.0 ];
    foldings = [ F_none; F_level 1 ] }

type point = {
  arch : Arch.t;
  folding : folding;
}

(* Crossbar pin counts re-derived from the cluster shape, calibrated so
   the default shape (K=4, 4 LEs/MB, 4 MBs/SMB) reproduces Arch.default's
   14 MB input ports and 40 SMB input pins. *)
let arch_point ?(k = 4) ?(les_per_mb = 4) ?(mbs_per_smb = 4) ?(fs = 3)
    ?(fc = 1.0) () =
  let mb_input_ports = max k ((les_per_mb * k) - 2) in
  let smb_input_pins =
    max mb_input_ports (mbs_per_smb * mb_input_ports * 5 / 7)
  in
  { Arch.default with
    Arch.lut_inputs = k;
    les_per_mb;
    mbs_per_smb;
    mb_input_ports;
    smb_input_pins;
    num_reconf = None;
    fs;
    fc_in = fc;
    fc_out = fc }

let enumerate g =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun les_per_mb ->
          List.concat_map
            (fun mbs_per_smb ->
              List.concat_map
                (fun fs ->
                  List.concat_map
                    (fun fc ->
                      let arch =
                        arch_point ~k ~les_per_mb ~mbs_per_smb ~fs ~fc ()
                      in
                      match Arch.validate_result arch with
                      | Error _ -> []
                      | Ok () ->
                        List.map (fun folding -> { arch; folding }) g.foldings)
                    g.fcs)
                g.fss)
            g.mbs_per_smbs)
        g.les_per_mbs)
    g.ks

(* ------------------------------------ minimum-channel-width search *)

let width_caps (a : Arch.t) w =
  let ceil_div n d = (n + d - 1) / d in
  let scale n = max 1 (ceil_div (n * w) a.Arch.chan_len1) in
  { Rr_graph.direct_tracks = scale a.Arch.chan_direct;
    len1_tracks = max 1 w;
    len4_tracks = scale a.Arch.chan_len4;
    global_tracks = scale a.Arch.chan_global }

let routable_at ?(defects = Defect.none) ~cluster pl w =
  let caps = width_caps cluster.Cluster.arch w in
  match Router.route ~caps ~defects pl cluster with
  | r -> r.Router.success
  | exception Diag.Fail _ -> false

let min_channel_width ?(max_width = 64) ?(defects = Defect.none) ~cluster
    ~plan:_ pl =
  let routable w = routable_at ~defects ~cluster pl w in
  if not (routable max_width) then
    Error
      (Diag.make ~stage:"explore" ~code:"unroutable-at-max"
         ~context:[ ("max_width", string_of_int max_width) ]
         "not routable even at the search's maximum channel width")
  else if routable 1 then Ok 1
  else begin
    (* invariant: lo unroutable, hi routable *)
    let lo = ref 1 and hi = ref max_width in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if routable mid then hi := mid else lo := mid
    done;
    Ok !hi
  end

(* ------------------------------------------------------- sweeping *)

type status =
  | Feasible of int
  | Unroutable
  | Infeasible of string

type measure = {
  design : string;
  area_um2 : float;
  delay_ns : float;
  status : status;
}

type point_result = {
  point : point;
  measures : measure list;
  total_area : float;
  mean_delay : float;
  status : status;
  mutable pareto : bool;
}

let flow_options folding =
  { Flow.default_options with
    Flow.objective =
      (match folding with
      | F_none -> Flow.No_folding
      | F_level l -> Flow.Fixed_level l);
    physical = true;
    check_level = Check.Off;
    jobs = 1 }

let measure_design pt name =
  let bench = Circuits.by_name name in
  match
    Flow.run_result ~options:(flow_options pt.folding) ~arch:pt.arch
      bench.Circuits.design
  with
  | Error d ->
    { design = name;
      area_um2 = 0.0;
      delay_ns = 0.0;
      status = Infeasible d.Diag.code }
  | Ok report -> (
    let area_um2 = report.Flow.area_um2 in
    let delay_ns =
      match report.Flow.delay_routed_ns with
      | Some d -> d
      | None -> report.Flow.delay_model_ns
    in
    match report.Flow.placement with
    | None ->
      { design = name; area_um2; delay_ns; status = Infeasible "no-placement" }
    | Some pl -> (
      match
        min_channel_width ~cluster:report.Flow.cluster ~plan:report.Flow.plan
          pl
      with
      | Ok w -> { design = name; area_um2; delay_ns; status = Feasible w }
      | Error _ -> { design = name; area_um2; delay_ns; status = Unroutable }))

let measure_point ~designs pt =
  let measures = List.map (measure_design pt) designs in
  let total_area = List.fold_left (fun a (m : measure) -> a +. m.area_um2) 0.0 measures in
  let feasible_delays =
    List.filter_map
      (fun (m : measure) ->
        match m.status with
        | Feasible _ when m.delay_ns > 0.0 -> Some m.delay_ns
        | _ -> None)
      measures
  in
  let mean_delay =
    match feasible_delays with
    | [] -> 0.0
    | ds ->
      exp (List.fold_left (fun a d -> a +. log d) 0.0 ds
           /. float_of_int (List.length ds))
  in
  let status =
    let worst acc (m : measure) =
      match (acc, m.status) with
      | (Infeasible _ as i), _ -> i
      | _, (Infeasible _ as i) -> i
      | Unroutable, _ | _, Unroutable -> Unroutable
      | Feasible a, Feasible b -> Feasible (max a b)
    in
    match measures with
    | [] -> Infeasible "no-designs"
    | m :: rest -> List.fold_left worst m.status rest
  in
  { point = pt; measures; total_area; mean_delay; status; pareto = false }

let pareto_mark results =
  let key r =
    match r.status with
    | Feasible w -> Some (r.total_area, r.mean_delay, w)
    | Unroutable | Infeasible _ -> None
  in
  let dominates (a1, d1, w1) (a2, d2, w2) =
    a1 <= a2 && d1 <= d2 && w1 <= w2 && (a1 < a2 || d1 < d2 || w1 < w2)
  in
  List.iter
    (fun r ->
      match key r with
      | None -> r.pareto <- false
      | Some k ->
        r.pareto <-
          not
            (List.exists
               (fun r' ->
                 match key r' with
                 | Some k' when r' != r -> dominates k' k
                 | _ -> false)
               results))
    results

let run ?pool ?(designs = [ "ex1_small"; "crc8" ]) g =
  let points = Array.of_list (enumerate g) in
  let f pt = measure_point ~designs pt in
  let results =
    match pool with
    | Some p when Pool.jobs p > 1 -> Pool.map p ~f points
    | _ -> Array.map f points
  in
  let results = Array.to_list results in
  pareto_mark results;
  results

(* ------------------------------------------------------ reporting *)

let round2 f = Float.round (f *. 100.0) /. 100.0

let status_json = function
  | Feasible w -> [ ("status", Json.String "ok"); ("min_width", Json.Int w) ]
  | Unroutable -> [ ("status", Json.String "unroutable") ]
  | Infeasible code ->
    [ ("status", Json.String "infeasible"); ("code", Json.String code) ]

let point_fields pt =
  let a = pt.arch in
  [ ("k", Json.Int a.Arch.lut_inputs);
    ("les_per_mb", Json.Int a.Arch.les_per_mb);
    ("mbs_per_smb", Json.Int a.Arch.mbs_per_smb);
    ("fs", Json.Int a.Arch.fs);
    ("fc", Json.Float (round2 a.Arch.fc_in));
    ("folding", Json.String (folding_to_string pt.folding)) ]

let to_json ~designs results =
  Json.Obj
    [ ("designs", Json.List (List.map (fun d -> Json.String d) designs));
      ( "points",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 (point_fields r.point
                 @ [ ("area_um2", Json.Float (round2 r.total_area));
                     ("delay_ns", Json.Float (round2 r.mean_delay)) ]
                 @ status_json r.status
                 @ [ ("pareto", Json.Bool r.pareto);
                     ( "measures",
                       Json.List
                         (List.map
                            (fun (m : measure) ->
                              Json.Obj
                                (("design", Json.String m.design)
                                :: ("area_um2", Json.Float (round2 m.area_um2))
                                :: ("delay_ns", Json.Float (round2 m.delay_ns))
                                :: status_json m.status))
                            r.measures) ) ]))
             results) );
      ( "frontier",
        Json.List
          (List.filteri (fun _ r -> r.pareto) results
          |> List.map (fun r -> Json.Obj (point_fields r.point))) ) ]

let fingerprint ~designs results =
  Digest.to_hex (Digest.string (Json.to_string (to_json ~designs results)))

let report_ascii ~designs results =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "design-space exploration over %s\n"
       (String.concat ", " designs));
  Buffer.add_string b
    "   k le/mb mb/smb fs   fc fold       area      delay  Wmin\n";
  List.iter
    (fun r ->
      let a = r.point.arch in
      let wmin, note =
        match r.status with
        | Feasible w -> (string_of_int w, "")
        | Unroutable -> ("-", " unroutable")
        | Infeasible code -> ("-", " infeasible:" ^ code)
      in
      Buffer.add_string b
        (Printf.sprintf "%s %2d %5d %6d %2d %1.2f %-5s %10.2f %10.2f %5s%s\n"
           (if r.pareto then "*" else " ")
           a.Arch.lut_inputs a.Arch.les_per_mb a.Arch.mbs_per_smb a.Arch.fs
           a.Arch.fc_in
           (folding_to_string r.point.folding)
           (round2 r.total_area) (round2 r.mean_delay) wmin note))
    results;
  let frontier = List.filter (fun r -> r.pareto) results in
  Buffer.add_string b
    (Printf.sprintf "frontier: %d of %d points\n" (List.length frontier)
       (List.length results));
  Buffer.contents b
