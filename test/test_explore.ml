(* Design-space explorer tests (PR 10): the channel-width binary search
   (monotonicity, agreement with a linear scan, the typed
   unroutable-at-max failure), worker-count invariance of the sweep
   (j1 vs j4 fingerprints byte-identical), Pareto-dominance consistency,
   and the golden smoke-grid report (regen with `make regen-golden`). *)

module Arch = Nanomap_arch.Arch
module Mapper = Nanomap_core.Mapper
module Cluster = Nanomap_cluster.Cluster
module Place = Nanomap_place.Place
module Circuits = Nanomap_circuits.Circuits
module Explore = Nanomap_explore.Explore
module Pool = Nanomap_util.Pool
module Diag = Nanomap_util.Diag

let check = Alcotest.check

(* A placed fixture at an explorer architecture point, bypassing the full
   flow: prepare -> plan -> pack -> place, exactly what measure_point
   feeds the width search. *)
let fixture ?(seed = 7) ?(level = 0) ?k ?les_per_mb benchmark =
  let b = benchmark () in
  let arch =
    match (k, les_per_mb) with
    | None, None -> Explore.arch_point ()
    | _ ->
      Explore.arch_point ?k ?les_per_mb ()
  in
  let p = Mapper.prepare b.Circuits.design in
  let plan =
    if level = 0 then Mapper.no_folding p ~arch
    else Mapper.plan_level p ~arch ~level
  in
  let cl = Cluster.pack plan ~arch in
  let place = Place.place ~seed ~effort:`Fast cl in
  (cl, plan, place)

(* --------------------------------------------- binary-width search *)

(* The predicate the binary search assumes monotone really is monotone on
   this fabric: once routable at some width, routable at every larger
   width (same placement, same seed). *)
let test_monotone () =
  let cl, _, place = fixture Circuits.ex1_small in
  let routable =
    List.map (Explore.routable_at ~cluster:cl place) [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 16 ]
  in
  let rec ok seen_true = function
    | [] -> true
    | r :: rest ->
      if seen_true && not r then false else ok (seen_true || r) rest
  in
  check Alcotest.bool "routability is monotone in width" true
    (ok false routable);
  check Alcotest.bool "routable at some width" true
    (List.exists (fun r -> r) routable)

(* The binary search returns exactly the linear scan's first success. *)
let test_exact_minimum () =
  List.iter
    (fun (bench, level) ->
      let cl, plan, place = fixture ~level bench in
      match Explore.min_channel_width ~cluster:cl ~plan place with
      | Error d -> Alcotest.fail ("unexpectedly unroutable: " ^ d.Diag.code)
      | Ok w ->
        let rec first i =
          if i > 64 then Alcotest.fail "linear scan found no width"
          else if Explore.routable_at ~cluster:cl place i then i
          else first (i + 1)
        in
        let linear = first 1 in
        check Alcotest.int "binary search = linear scan" linear w;
        if w > 1 then
          check Alcotest.bool "w-1 is unroutable" false
            (Explore.routable_at ~cluster:cl place (w - 1)))
    [ (Circuits.ex1_small, 0); (Circuits.ex1_small, 1);
      ((fun () -> Circuits.ex1 ()), 1) ]

(* Capping the search below the true minimum yields the typed failure. *)
let test_unroutable_at_max () =
  let cl, plan, place = fixture Circuits.ex1_small in
  match Explore.min_channel_width ~cluster:cl ~plan place with
  | Error d -> Alcotest.fail ("fixture unroutable: " ^ d.Diag.code)
  | Ok w when w <= 1 -> Alcotest.fail "fixture routes at width 1; cap test moot"
  | Ok w -> (
    match Explore.min_channel_width ~max_width:(w - 1) ~cluster:cl ~plan place with
    | Ok w' ->
      Alcotest.fail
        (Printf.sprintf "search capped below minimum returned %d" w')
    | Error d ->
      check Alcotest.string "stage" "explore" d.Diag.stage;
      check Alcotest.string "code" "unroutable-at-max" d.Diag.code;
      check Alcotest.bool "context names the cap" true
        (List.mem ("max_width", string_of_int (w - 1)) d.Diag.context))

(* ------------------------------------------------------- the sweep *)

let designs = [ "ex1_small"; "crc8" ]

(* Computed once, shared by the golden / pareto / fingerprint tests. *)
let smoke_results =
  lazy (Explore.run ~designs Explore.smoke_grid)

let test_j1_vs_j4 () =
  let serial = Lazy.force smoke_results in
  let parallel =
    Pool.with_pool ~jobs:4 (fun p ->
        Explore.run ~pool:p ~designs Explore.smoke_grid)
  in
  check Alcotest.string "fingerprints byte-identical"
    (Explore.fingerprint ~designs serial)
    (Explore.fingerprint ~designs parallel);
  check Alcotest.string "reports byte-identical"
    (Explore.report_ascii ~designs serial)
    (Explore.report_ascii ~designs parallel)

let test_pareto_consistency () =
  let results = Lazy.force smoke_results in
  let key (r : Explore.point_result) =
    match r.Explore.status with
    | Explore.Feasible w -> Some (r.Explore.total_area, r.Explore.mean_delay, w)
    | _ -> None
  in
  let dominates (a1, d1, w1) (a2, d2, w2) =
    a1 <= a2 && d1 <= d2 && w1 <= w2 && (a1 < a2 || d1 < d2 || w1 < w2)
  in
  let frontier = List.filter (fun r -> r.Explore.pareto) results in
  check Alcotest.bool "frontier non-empty" true (frontier <> []);
  (* no frontier point dominates another frontier point *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            match (key a, key b) with
            | Some ka, Some kb when dominates ka kb ->
              Alcotest.fail "one frontier point dominates another"
            | _ -> ())
        frontier)
    frontier;
  (* every feasible point off the frontier is dominated by a frontier point *)
  List.iter
    (fun r ->
      match key r with
      | Some kr when not r.Explore.pareto ->
        if
          not
            (List.exists
               (fun f ->
                 match key f with
                 | Some kf -> dominates kf kr
                 | None -> false)
               frontier)
        then Alcotest.fail "off-frontier feasible point not dominated"
      | _ -> ())
    results;
  (* infeasible / unroutable points never join the frontier *)
  List.iter
    (fun r ->
      match r.Explore.status with
      | Explore.Feasible _ -> ()
      | _ ->
        check Alcotest.bool "non-feasible point off frontier" false
          r.Explore.pareto)
    results

(* ---------------------------------------------------- golden report *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_golden () =
  let got = Explore.report_ascii ~designs (Lazy.force smoke_results) in
  match Sys.getenv_opt "NANOMAP_REGEN_GOLDEN" with
  | Some dir ->
    let path = Filename.concat dir "explore_smoke.txt" in
    let oc = open_out_bin path in
    output_string oc got;
    close_out oc;
    Printf.printf "regenerated %s\n%!" path
  | None ->
    let path = Filename.concat "golden" "explore_smoke.txt" in
    if not (Sys.file_exists path) then
      Alcotest.fail
        (Printf.sprintf "missing golden file %s — run `make regen-golden`" path);
    let want = read_file path in
    if got <> want then
      Alcotest.fail
        (Printf.sprintf
           "explore smoke report differs from golden:\n%s\nrun `make \
            regen-golden` if the change is intentional"
           got)

(* Enumeration is a fixed-order cartesian product of validated points. *)
let test_enumerate () =
  let points = Explore.enumerate Explore.smoke_grid in
  check Alcotest.int "smoke grid size" 8 (List.length points);
  List.iter
    (fun (pt : Explore.point) ->
      match Arch.validate_result pt.Explore.arch with
      | Ok () -> ()
      | Error d -> Alcotest.fail ("enumerated invalid point: " ^ d.Diag.code))
    points;
  (* K outermost: the first half of the list is all K=3 *)
  let ks = List.map (fun (pt : Explore.point) -> pt.Explore.arch.Arch.lut_inputs) points in
  check Alcotest.(list int) "K outermost, folding innermost"
    [ 3; 3; 3; 3; 4; 4; 4; 4 ] ks

let () =
  Alcotest.run "explore"
    [ ( "width-search",
        [ Alcotest.test_case "monotone" `Quick test_monotone;
          Alcotest.test_case "binary = linear" `Quick test_exact_minimum;
          Alcotest.test_case "unroutable-at-max" `Quick test_unroutable_at_max ] );
      ( "sweep",
        [ Alcotest.test_case "enumerate" `Quick test_enumerate;
          Alcotest.test_case "j1 vs j4" `Slow test_j1_vs_j4;
          Alcotest.test_case "pareto consistency" `Slow test_pareto_consistency;
          Alcotest.test_case "golden smoke report" `Slow test_golden ] ) ]
