(* End-to-end flow tests and benchmark circuit sanity. *)

module Rtl = Nanomap_rtl.Rtl
module Levelize = Nanomap_rtl.Levelize
module Mapper = Nanomap_core.Mapper
module Arch = Nanomap_arch.Arch
module Flow = Nanomap_flow.Flow
module Circuits = Nanomap_circuits.Circuits
module Rng = Nanomap_util.Rng

let check = Alcotest.check

(* --- benchmark circuits --- *)

let test_benchmark_planes () =
  let expect =
    [ ("ex1", 1); ("FIR", 1); ("ex2", 3); ("c5315", 1); ("Biquad", 1);
      ("Paulin", 2); ("ASPP4", 2) ]
  in
  List.iter
    (fun (b : Circuits.benchmark) ->
      let lv = Levelize.levelize b.Circuits.design in
      check Alcotest.int
        (b.Circuits.name ^ " planes")
        (List.assoc b.Circuits.name expect)
        (Levelize.num_planes lv))
    (Circuits.all ())

let test_benchmark_c5315_no_ffs () =
  let b = Circuits.c5315 () in
  let lv = Levelize.levelize b.Circuits.design in
  check Alcotest.int "no flip-flops" 0 (Levelize.total_flip_flops lv)

let test_benchmark_sizes_ordered () =
  (* Table 1 ordering by LUT count: ex1/FIR < Biquad/Paulin < ASPP4 class *)
  let luts name =
    let b = Circuits.by_name name in
    (Mapper.prepare b.Circuits.design).Mapper.total_luts
  in
  check Alcotest.bool "ASPP4 is the largest" true
    (luts "aspp4" > luts "ex1" && luts "aspp4" > luts "biquad");
  check Alcotest.bool "all are substantial" true (luts "c5315" > 100)

let test_benchmark_by_name () =
  check Alcotest.string "fir" "FIR" (Circuits.by_name "FIR").Circuits.name;
  check Alcotest.bool "unknown raises" true
    (match Circuits.by_name "nope" with
     | exception Not_found -> true
     | _ -> false)

let test_extended_circuits_map () =
  List.iter
    (fun (b : Circuits.benchmark) ->
      let p = Mapper.prepare b.Circuits.design in
      let plan = Mapper.at_min p ~arch:Arch.unbounded_k in
      check Alcotest.bool (b.Circuits.name ^ " maps") true (plan.Mapper.les > 0))
    (Circuits.extended ())

let test_crc8_behaviour () =
  let b = Circuits.crc8 () in
  let sim = Rtl.sim_create b.Circuits.design in
  (* software CRC-8 (poly 0x07, MSB-first, init 0) as the oracle *)
  let crc_step crc byte =
    let c = ref (crc lxor byte) in
    for _ = 1 to 8 do
      c := if !c land 0x80 <> 0 then (!c lsl 1) lxor 0x07 land 0xff else !c lsl 1 land 0xff
    done;
    !c
  in
  let rng = Rng.create 77 in
  let soft = ref 0 in
  for _ = 1 to 100 do
    let byte = Rng.int rng 256 in
    let outs = Rtl.sim_cycle sim [ ("data", byte) ] in
    soft := crc_step !soft byte;
    check Alcotest.int "crc matches software oracle" !soft (List.assoc "crc" outs)
  done

let test_sorter_behaviour () =
  let b = Circuits.sorter () in
  let sim = Rtl.sim_create b.Circuits.design in
  let rng = Rng.create 13 in
  for _ = 1 to 100 do
    let xs = List.init 4 (fun i -> (Printf.sprintf "x%d" i, Rng.int rng 64)) in
    let outs = Rtl.sim_cycle sim xs in
    let got = List.init 4 (fun i -> List.assoc (Printf.sprintf "y%d" i) outs) in
    let expected = List.sort compare (List.map snd xs) in
    check (Alcotest.list Alcotest.int) "sorted" expected got
  done

(* ex1 functional: the datapath should behave like the Fig. 1 circuit. *)
let test_ex1_simulates () =
  let b = Circuits.ex1_small () in
  let sim = Rtl.sim_create b.Circuits.design in
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let outs = Rtl.sim_cycle sim [ ("in1", Rng.int rng 16); ("go", Rng.int rng 2) ] in
    let r = List.assoc "result" outs in
    check Alcotest.bool "result in range" true (r >= 0 && r < 16)
  done

(* --- flow --- *)

let test_flow_logical_only () =
  let b = Circuits.ex1_small () in
  let options = { Flow.default_options with Flow.physical = false } in
  let r = Flow.run ~options ~arch:Arch.unbounded_k b.Circuits.design in
  check Alcotest.bool "no placement" true (r.Flow.placement = None);
  check Alcotest.bool "has area" true (r.Flow.area_les > 0)

let test_flow_full_physical () =
  let b = Circuits.ex1_small () in
  let r = Flow.run ~arch:Arch.unbounded_k b.Circuits.design in
  check Alcotest.bool "placed" true (r.Flow.placement <> None);
  (match r.Flow.routing with
   | Some routing -> check Alcotest.bool "routed" true routing.Nanomap_route.Router.success
   | None -> Alcotest.fail "no routing");
  (match r.Flow.delay_routed_ns with
   | Some d ->
     check Alcotest.bool "routed delay sane" true (d > r.Flow.delay_model_ns /. 4.);
     check
       Alcotest.(option (float 0.0))
       "routed/model gauge"
       (Some (d /. r.Flow.delay_model_ns))
       (List.assoc_opt "timing.routed_over_model"
          (Nanomap_util.Telemetry.gauges r.Flow.telemetry))
   | None -> Alcotest.fail "no routed delay");
  check Alcotest.bool "bitstream present" true (r.Flow.bitstream <> None)

let test_flow_area_loop_triggers () =
  let b = Circuits.ex1_small () in
  let arch = Arch.unbounded_k in
  (* Budget between level-N and level-1 LE needs forces the loop to refine. *)
  let p = Mapper.prepare b.Circuits.design in
  let l1 = Mapper.plan_level p ~arch ~level:1 in
  let budget = l1.Mapper.les + 4 in
  let options =
    { Flow.default_options with
      Flow.objective = Flow.Delay_min (Some budget);
      physical = false }
  in
  let r = Flow.run ~options ~arch b.Circuits.design in
  check Alcotest.bool "fits budget after clustering loop" true
    (r.Flow.area_les <= budget || r.Flow.mapping_retries > 0)

let test_flow_infeasible_budget () =
  let b = Circuits.ex1_small () in
  let options =
    { Flow.default_options with
      Flow.objective = Flow.Delay_min (Some 2);
      physical = false }
  in
  check Alcotest.bool "impossible budget fails" true
    (match Flow.run ~options ~arch:Arch.unbounded_k b.Circuits.design with
     | exception (Flow.Flow_failed _ | Mapper.No_feasible_mapping _) -> true
     | _ -> false)

let test_flow_no_folding_objective () =
  let b = Circuits.ex1_small () in
  let options =
    { Flow.default_options with Flow.objective = Flow.No_folding; physical = false }
  in
  let r = Flow.run ~options ~arch:Arch.unbounded_k b.Circuits.design in
  check Alcotest.int "one stage" 1 r.Flow.plan.Mapper.stages

let test_flow_fixed_level () =
  let b = Circuits.ex1_small () in
  let options =
    { Flow.default_options with Flow.objective = Flow.Fixed_level 2; physical = false }
  in
  let r = Flow.run ~options ~arch:Arch.unbounded_k b.Circuits.design in
  check Alcotest.int "level respected" 2 r.Flow.plan.Mapper.level

let test_pipelined_mode () =
  let b = Circuits.ex2 () in
  let arch = Arch.unbounded_k in
  let p = Mapper.prepare b.Circuits.design in
  let shared = Mapper.plan_level p ~arch ~level:2 in
  let piped = Mapper.plan_level ~pipelined:true p ~arch ~level:2 in
  check Alcotest.bool "pipelined uses more LEs" true
    (piped.Mapper.les > shared.Mapper.les);
  check Alcotest.bool "pipelined uses fewer configs" true
    (piped.Mapper.configs_used < shared.Mapper.configs_used);
  (* pipelined clustering really does keep planes apart: the LE area must
     be at least the sum the scheduler predicted *)
  let cl = Nanomap_cluster.Cluster.pack piped ~arch in
  Nanomap_cluster.Cluster.validate cl piped;
  check Alcotest.bool "clustered area reflects the sum" true
    (cl.Nanomap_cluster.Cluster.les_used > shared.Mapper.les)

let test_pipelined_objective () =
  let b = Circuits.ex2 () in
  let arch = Arch.unbounded_k in
  let p = Mapper.prepare b.Circuits.design in
  let budget = (Mapper.plan_level ~pipelined:true p ~arch ~level:1).Mapper.les * 2 in
  let options =
    { Flow.default_options with
      Flow.objective = Flow.Pipelined_delay_min budget;
      physical = false }
  in
  let r = Flow.run ~options ~arch b.Circuits.design in
  check Alcotest.bool "is pipelined" true r.Flow.plan.Mapper.pipelined;
  check Alcotest.bool "fits budget" true (r.Flow.area_les <= budget)

let test_flow_k16_config_budget () =
  let b = Circuits.ex1_small () in
  let r =
    Flow.run
      ~options:{ Flow.default_options with Flow.physical = false }
      ~arch:Arch.default b.Circuits.design
  in
  check Alcotest.bool "configs within k=16" true (r.Flow.plan.Mapper.configs_used <= 16)

let () =
  Alcotest.run "flow"
    [ ( "circuits",
        [ Alcotest.test_case "plane counts" `Quick test_benchmark_planes;
          Alcotest.test_case "c5315 pure comb" `Quick test_benchmark_c5315_no_ffs;
          Alcotest.test_case "size classes" `Quick test_benchmark_sizes_ordered;
          Alcotest.test_case "by_name" `Quick test_benchmark_by_name;
          Alcotest.test_case "ex1 simulates" `Quick test_ex1_simulates;
          Alcotest.test_case "extended circuits map" `Quick test_extended_circuits_map;
          Alcotest.test_case "crc8 vs software" `Quick test_crc8_behaviour;
          Alcotest.test_case "sorter sorts" `Quick test_sorter_behaviour ] );
      ( "flow",
        [ Alcotest.test_case "logical only" `Quick test_flow_logical_only;
          Alcotest.test_case "full physical" `Quick test_flow_full_physical;
          Alcotest.test_case "area loop" `Quick test_flow_area_loop_triggers;
          Alcotest.test_case "infeasible budget" `Quick test_flow_infeasible_budget;
          Alcotest.test_case "no-folding objective" `Quick test_flow_no_folding_objective;
          Alcotest.test_case "fixed level" `Quick test_flow_fixed_level;
          Alcotest.test_case "pipelined mode" `Quick test_pipelined_mode;
          Alcotest.test_case "pipelined objective" `Quick test_pipelined_objective;
          Alcotest.test_case "k=16 budget" `Quick test_flow_k16_config_budget ] ) ]
