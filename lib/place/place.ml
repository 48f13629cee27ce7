module Rng = Nanomap_util.Rng
module Diag = Nanomap_util.Diag
module Arch = Nanomap_arch.Arch
module Defect = Nanomap_arch.Defect
module Cluster = Nanomap_cluster.Cluster
module Telemetry = Nanomap_util.Telemetry

let c_moves_tried = Telemetry.counter "place.moves_tried"
let c_moves_accepted = Telemetry.counter "place.moves_accepted"
let c_temp_steps = Telemetry.counter "place.temperature_steps"

type t = {
  width : int;
  height : int;
  smb_xy : (int * int) array;
  pad_xy : (int * int) array;
  hpwl : float;
  moves_tried : int;
  moves_accepted : int;
}

(* Pads sit on a perimeter ring just outside the SMB grid. *)
let perimeter_positions width height =
  let ring = ref [] in
  for x = 0 to width - 1 do
    ring := (x, -1) :: (x, height) :: !ring
  done;
  for y = 0 to height - 1 do
    ring := (-1, y) :: (width, y) :: !ring
  done;
  Array.of_list (List.sort compare !ring)

(* Pads are never moved: every placer (annealing or exact) pins pad [i]
   to the same evenly-spread ring position, so placements from different
   engines are directly comparable. *)
let default_pad_xy (cl : Cluster.t) ~width ~height =
  let perim = perimeter_positions width height in
  let n_pads = List.length cl.Cluster.pads in
  Array.init (max n_pads 1) (fun i ->
      perim.(i * Array.length perim / max n_pads 1 mod Array.length perim))

type flat_net = {
  smb_eps : int array;  (** distinct SMB endpoints *)
  pad_eps : int array;  (** distinct pad endpoints *)
  weight : float;
}

let flatten_nets ?(joint = true) (cl : Cluster.t) =
  List.filter_map
    (fun (n : Cluster.net) ->
      let weight =
        if joint then 1.0 else if n.Cluster.cycle = 1 then 1.0 else 0.0
      in
      if weight = 0.0 then None
      else begin
        let smbs = Hashtbl.create 4 and pads = Hashtbl.create 4 in
        let add = function
          | Cluster.At_smb s -> Hashtbl.replace smbs s ()
          | Cluster.At_pad p -> Hashtbl.replace pads p ()
        in
        add n.Cluster.driver;
        List.iter add n.Cluster.sinks;
        Some
          (* Sort the deduplicated endpoints: Hashtbl.fold visits buckets in
             an unspecified order, and endpoint order must not leak into
             anything downstream (determinism contract). *)
          { smb_eps =
              Hashtbl.fold (fun s () acc -> s :: acc) smbs []
              |> List.sort compare |> Array.of_list;
            pad_eps =
              Hashtbl.fold (fun p () acc -> p :: acc) pads []
              |> List.sort compare |> Array.of_list;
            weight }
      end)
    cl.Cluster.nets
  |> Array.of_list

let net_hpwl smb_xy pad_xy net =
  let minx = ref max_int and maxx = ref min_int in
  let miny = ref max_int and maxy = ref min_int in
  let visit (x, y) =
    if x < !minx then minx := x;
    if x > !maxx then maxx := x;
    if y < !miny then miny := y;
    if y > !maxy then maxy := y
  in
  Array.iter (fun s -> visit smb_xy.(s)) net.smb_eps;
  Array.iter (fun p -> visit pad_xy.(p)) net.pad_eps;
  if !minx > !maxx then 0.0
  else float_of_int ((!maxx - !minx) + (!maxy - !miny)) *. net.weight

let total_hpwl smb_xy pad_xy nets =
  Array.fold_left (fun acc n -> acc +. net_hpwl smb_xy pad_xy n) 0.0 nets

let grid_dims (cl : Cluster.t) =
  let n_smb = max cl.Cluster.num_smbs 1 in
  let width = int_of_float (ceil (sqrt (float_of_int n_smb))) in
  let height = (n_smb + width - 1) / width in
  (* a little slack so relocation moves exist even on a full grid *)
  let height = if width * height = n_smb then height + 1 else height in
  (width, height)

(* Which (mb, le) positions each SMB actually occupies, from the cluster's
   LUT and flip-flop slot assignments. An SMB only conflicts with a
   defective LE if it uses that LE. *)
let used_les (cl : Cluster.t) =
  let used = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (slot : Cluster.slot) ->
      Hashtbl.replace used (slot.Cluster.smb, slot.Cluster.mb, slot.Cluster.le) ())
    cl.Cluster.lut_slots;
  Hashtbl.iter
    (fun _ ((slot : Cluster.slot), _) ->
      Hashtbl.replace used (slot.Cluster.smb, slot.Cluster.mb, slot.Cluster.le) ())
    cl.Cluster.ff_slots;
  used

(* illegal.(s * nsites + site) = placing SMB s on site would put one of its
   occupied LEs on a defective fabric LE. *)
let illegal_sites (defects : Defect.t) (cl : Cluster.t) ~n_smb ~width ~height =
  if Defect.is_none defects then None
  else begin
    let nsites = width * height in
    let arr = Array.make (n_smb * nsites) false in
    let used = used_les cl in
    List.iter
      (fun (x, y, mb, le) ->
        if x >= 0 && x < width && y >= 0 && y < height then begin
          let site = (y * width) + x in
          for s = 0 to n_smb - 1 do
            if Hashtbl.mem used (s, mb, le) then arr.((s * nsites) + site) <- true
          done
        end)
      defects.Defect.les;
    Some arr
  end

let place ?(seed = 1) ?(effort = `Detailed) ?(joint = true) ?init
    ?(defects = Defect.none) (cl : Cluster.t) =
  let rng = Rng.create seed in
  let n_smb = max cl.Cluster.num_smbs 1 in
  let width, height = grid_dims cl in
  let pad_xy = default_pad_xy cl ~width ~height in
  let nets = flatten_nets ~joint cl in
  let nsites = width * height in
  let illegal = illegal_sites defects cl ~n_smb ~width ~height in
  let legal s site =
    match illegal with
    | None -> true
    | Some arr -> not arr.((s * nsites) + site)
  in
  (* site occupancy *)
  let site_of = Array.make nsites (-1) in
  let smb_xy = Array.make n_smb (0, 0) in
  (* seed from a previous placement of the same cluster (two-phase flow:
     the detailed pass refines the accepted fast placement instead of
     re-deriving the global structure from scratch). A valid [init]
     replaces the initial-assignment scan entirely, so a placement an
     exact engine found can be refined even when the greedy scan below
     would fail on a heavily defective fabric. *)
  let seeded =
    match init with
    | Some p
      when p.width = width && p.height = height && Array.length p.smb_xy = n_smb
           && Array.for_all
                (fun s ->
                  let x, y = p.smb_xy.(s) in
                  legal s ((y * width) + x))
                (Array.init n_smb Fun.id) ->
      Array.blit p.smb_xy 0 smb_xy 0 n_smb;
      Array.iteri (fun s (x, y) -> site_of.((y * width) + x) <- s) smb_xy;
      true
    | Some _ | None -> false
  in
  if not seeded then begin
    match illegal with
    | None ->
      for s = 0 to n_smb - 1 do
        let x = s mod width and y = s / width in
        smb_xy.(s) <- (x, y);
        site_of.((y * width) + x) <- s
      done
    | Some _ ->
      (* first free site the SMB's occupied LEs are all healthy on *)
      for s = 0 to n_smb - 1 do
        let rec find site =
          if site >= nsites then
            Diag.fail ~stage:"place" ~code:"defect-unplaceable"
              ~context:[ ("smb", string_of_int s) ]
              "no defect-free site remains for SMB"
          else if site_of.(site) = -1 && legal s site then site
          else find (site + 1)
        in
        let site = find 0 in
        smb_xy.(s) <- (site mod width, site / width);
        site_of.(site) <- s
      done
  end;
  (* incident nets per smb *)
  let incident = Array.make n_smb [] in
  Array.iteri
    (fun i net -> Array.iter (fun s -> incident.(s) <- i :: incident.(s)) net.smb_eps)
    nets;
  let cost = ref (total_hpwl smb_xy pad_xy nets) in
  let moves_tried = ref 0 and moves_accepted = ref 0 in
  let affected a b =
    match b with
    | None -> incident.(a)
    | Some b -> List.rev_append incident.(a) incident.(b)
  in
  (* Returns the cost delta it computed (0.0 for degenerate no-op moves),
     so callers can calibrate temperatures without replaying moves. *)
  let try_move ~temp ~rlim =
    incr moves_tried;
    Telemetry.incr c_moves_tried;
    let a = Rng.int rng n_smb in
    let ax, ay = smb_xy.(a) in
    let dx = Rng.int rng ((2 * rlim) + 1) - rlim in
    let dy = Rng.int rng ((2 * rlim) + 1) - rlim in
    let tx = max 0 (min (width - 1) (ax + dx)) in
    let ty = max 0 (min (height - 1) (ay + dy)) in
    if (tx, ty) = (ax, ay) then 0.0
    else begin
      let target_site = (ty * width) + tx in
      let occupant = site_of.(target_site) in
      let source_site = (ay * width) + ax in
      if
        (not (legal a target_site))
        || (occupant >= 0 && not (legal occupant source_site))
      then 0.0
      else begin
      let nets_touched =
        affected a (if occupant >= 0 then Some occupant else None)
      in
      let before =
        List.fold_left (fun acc i -> acc +. net_hpwl smb_xy pad_xy nets.(i)) 0.0
          nets_touched
      in
      (* apply *)
      smb_xy.(a) <- (tx, ty);
      if occupant >= 0 then smb_xy.(occupant) <- (ax, ay);
      let after =
        List.fold_left (fun acc i -> acc +. net_hpwl smb_xy pad_xy nets.(i)) 0.0
          nets_touched
      in
      let delta = after -. before in
      let accept =
        delta <= 0.0 || (temp > 0.0 && Rng.float rng 1.0 < exp (-.delta /. temp))
      in
      if accept then begin
        cost := !cost +. delta;
        incr moves_accepted;
        Telemetry.incr c_moves_accepted;
        site_of.(target_site) <- a;
        site_of.((ay * width) + ax) <- (match occupant with -1 -> -1 | b -> b)
      end
      else begin
        (* revert *)
        smb_xy.(a) <- (ax, ay);
        if occupant >= 0 then smb_xy.(occupant) <- (tx, ty)
      end;
      delta
      end
    end
  in
  if Array.length nets > 0 && n_smb > 1 then begin
    (* initial temperature: sample random moves *)
    let samples = 50 in
    let t0 =
      if seeded then begin
        (* refinement: probe at zero temperature (only improvements commit)
           and start just warm enough to escape local minima without
           scrambling the seed placement *)
        let sum_sq = ref 0.0 in
        for _ = 1 to samples do
          let d = try_move ~temp:0.0 ~rlim:(max width height) in
          sum_sq := !sum_sq +. (d *. d)
        done;
        sqrt (!sum_sq /. float_of_int samples) +. 0.1
      end
      else begin
        let base = !cost in
        let sum_sq = ref 0.0 in
        for _ = 1 to samples do
          ignore (try_move ~temp:infinity ~rlim:(max width height));
          let d = !cost -. base in
          sum_sq := !sum_sq +. (d *. d)
        done;
        (20.0 *. sqrt (!sum_sq /. float_of_int samples)) +. 1.0
      end
    in
    let factor = match effort with `Fast -> 1 | `Detailed -> 4 in
    let inner =
      factor * int_of_float (4.0 *. (float_of_int n_smb ** 1.3333)) |> max 32
    in
    let temp = ref t0 in
    let rlim = ref (max width height) in
    let stop_at = 0.005 *. (!cost +. 1.0) /. float_of_int (Array.length nets) in
    while !temp > stop_at do
      Telemetry.incr c_temp_steps;
      let before_accepted = !moves_accepted in
      for _ = 1 to inner do
        ignore (try_move ~temp:!temp ~rlim:!rlim)
      done;
      let alpha =
        float_of_int (!moves_accepted - before_accepted) /. float_of_int inner
      in
      (* VPR-style adaptive cooling *)
      let gamma =
        if alpha > 0.96 then 0.5
        else if alpha > 0.8 then 0.9
        else if alpha > 0.15 then 0.95
        else 0.8
      in
      temp := !temp *. gamma;
      rlim :=
        max 1
          (min (max width height)
             (int_of_float (float_of_int !rlim *. (1.0 -. 0.44 +. alpha))))
    done;
    (* greedy cleanup *)
    for _ = 1 to inner do
      ignore (try_move ~temp:0.0 ~rlim:1)
    done
  end;
  { width;
    height;
    smb_xy;
    pad_xy;
    hpwl = total_hpwl smb_xy pad_xy nets;
    moves_tried = !moves_tried;
    moves_accepted = !moves_accepted }

let hpwl t (cl : Cluster.t) =
  total_hpwl t.smb_xy t.pad_xy (flatten_nets ~joint:true cl)

(* RISA-flavoured estimate: each net spreads q(pins) * hpwl wire over its
   bounding box; channel supply is one track-bundle per grid edge. The
   utilization peaks where boxes stack, approximated by summing per-cell
   demand; cycles are independent configurations, so take the max. *)
let routability t (cl : Cluster.t) =
  let cells = Array.make (t.width * t.height) 0.0 in
  let cycles = Hashtbl.create 8 in
  List.iter
    (fun (n : Cluster.net) ->
      Hashtbl.replace cycles (n.Cluster.plane, n.Cluster.cycle) ())
    cl.Cluster.nets;
  let max_util = ref 0.0 in
  Hashtbl.iter
    (fun (plane, cycle) () ->
      Array.fill cells 0 (Array.length cells) 0.0;
      List.iter
        (fun (n : Cluster.net) ->
          if n.Cluster.plane = plane && n.Cluster.cycle = cycle then begin
            let xy = function
              | Cluster.At_smb s -> t.smb_xy.(s)
              | Cluster.At_pad p -> t.pad_xy.(p)
            in
            let eps = xy n.Cluster.driver :: List.map xy n.Cluster.sinks in
            let xs = List.map fst eps and ys = List.map snd eps in
            let minx = List.fold_left min max_int xs
            and maxx = List.fold_left max min_int xs in
            let miny = List.fold_left min max_int ys
            and maxy = List.fold_left max min_int ys in
            let pins = List.length eps in
            let q = 1.0 +. (0.1 *. float_of_int (max 0 (pins - 3))) in
            let w = max 1 (maxx - minx) and h = max 1 (maxy - miny) in
            let demand = q /. float_of_int (w * h) in
            for x = max 0 minx to min (t.width - 1) maxx do
              for y = max 0 miny to min (t.height - 1) maxy do
                cells.((y * t.width) + x) <- cells.((y * t.width) + x) +. demand
              done
            done
          end)
        cl.Cluster.nets;
      Array.iter (fun d -> if d > !max_util then max_util := d) cells)
    cycles;
  (* normalize by nominal per-cell capacity: half the length-1 tracks of
     one channel (each cell borders two channels per direction) *)
  !max_util /. (float_of_int cl.Cluster.arch.Arch.chan_len1 /. 2.0)

let validate t (cl : Cluster.t) =
  let seen = Hashtbl.create 64 in
  let xy_ctx s x y =
    [ ("smb", string_of_int s); ("x", string_of_int x); ("y", string_of_int y) ]
  in
  Array.iteri
    (fun s (x, y) ->
      if x < 0 || x >= t.width || y < 0 || y >= t.height then
        Diag.fail ~stage:"place" ~code:"off-grid" ~context:(xy_ctx s x y)
          "SMB placed off the grid";
      (match Hashtbl.find_opt seen (x, y) with
      | Some other ->
        Diag.fail ~stage:"place" ~code:"site-conflict"
          ~context:(("other_smb", string_of_int other) :: xy_ctx s x y)
          "two SMBs on one site"
      | None -> ());
      Hashtbl.replace seen (x, y) s)
    t.smb_xy;
  Array.iteri
    (fun p (x, y) ->
      let on_perimeter = x = -1 || y = -1 || x = t.width || y = t.height in
      if not on_perimeter then
        Diag.fail ~stage:"place" ~code:"pad-perimeter"
          ~context:
            [ ("pad", string_of_int p);
              ("x", string_of_int x);
              ("y", string_of_int y) ]
          "pad not on the perimeter ring")
    t.pad_xy;
  ignore cl

(* Multi-seed portfolio: the annealer is cheap enough to run several
   times, and independent seeds explore different basins. Candidate
   seeds are a fixed arithmetic offset of [seed] (not the worker count),
   and the winner is the lowest-HPWL legal placement with ties broken by
   the lowest candidate index — so the result is a pure function of
   [count] and [seed], whatever the pool size. *)
let portfolio ?pool ?(count = 1) ?(seed = 1) ?(effort = `Detailed)
    ?(joint = true) ?init ?(defects = Defect.none) (cl : Cluster.t) =
  if count <= 1 then place ~seed ~effort ~joint ?init ~defects cl
  else begin
    let anneal _i cand_seed =
      let p = place ~seed:cand_seed ~effort ~joint ?init ~defects cl in
      validate p cl;
      p
    in
    let seeds = Array.init count (fun i -> seed + (7919 * i)) in
    let candidates =
      match pool with
      | Some pool -> Nanomap_util.Pool.mapi pool ~f:anneal seeds
      | None -> Array.mapi anneal seeds
    in
    let best = ref candidates.(0) in
    Array.iter (fun c -> if c.hpwl < !best.hpwl then best := c) candidates;
    !best
  end
