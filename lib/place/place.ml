module Rng = Nanomap_util.Rng
module Diag = Nanomap_util.Diag
module Arch = Nanomap_arch.Arch
module Defect = Nanomap_arch.Defect
module Cluster = Nanomap_cluster.Cluster
module Telemetry = Nanomap_util.Telemetry

let c_moves_tried = Telemetry.counter "place.moves_tried"
let c_moves_accepted = Telemetry.counter "place.moves_accepted"
let c_temp_steps = Telemetry.counter "place.temperature_steps"
let c_net_evals = Telemetry.counter "place.net_evals"

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
  smb_eps : int array;  (** distinct SMB endpoints, sorted *)
  pad_eps : int array;  (** distinct pad endpoints, sorted *)
  weight : int;  (** number of temporal nets merged into this entry *)
}

(* The joint cost sums every folding cycle's HPWL, one term per temporal
   net, but most temporal nets repeat another's endpoint set (ex1: 774 nets,
   61 sets) and so its bounding box. Parallel nets merge into one entry
   weighted by their count, kept in first-occurrence order. Costs are
   integers, so merging changes no sum and no move delta. *)
let flatten_nets ?(joint = true) (cl : Cluster.t) =
  let weights = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (n : Cluster.net) ->
      if joint || n.Cluster.cycle = 1 then begin
        let eps = n.Cluster.driver :: n.Cluster.sinks in
        (* sorted and deduplicated: endpoint order must not leak into
           anything downstream (determinism contract) *)
        let ids f = List.filter_map f eps |> List.sort_uniq compare |> Array.of_list in
        let key =
          ( ids (function Cluster.At_smb s -> Some s | Cluster.At_pad _ -> None),
            ids (function Cluster.At_pad p -> Some p | Cluster.At_smb _ -> None) )
        in
        match Hashtbl.find_opt weights key with
        | Some w -> incr w
        | None ->
          Hashtbl.add weights key (ref 1);
          order := key :: !order
      end)
    cl.Cluster.nets;
  List.rev_map
    (fun ((smb_eps, pad_eps) as key) ->
      { smb_eps; pad_eps; weight = !(Hashtbl.find weights key) })
    !order
  |> Array.of_list

(* Pads never move, so each net's pad bounding box is fixed: min x, max x,
   min y, max y at [4i .. 4i+3] (an empty box is max_int, min_int). *)
let pad_boxes nets pad_xy =
  let box = Array.make (4 * Array.length nets) 0 in
  Array.iteri
    (fun i net ->
      let coord f = Array.map (fun p -> f pad_xy.(p)) net.pad_eps in
      let xs = coord fst and ys = coord snd in
      box.(4 * i) <- Array.fold_left min max_int xs;
      box.((4 * i) + 1) <- Array.fold_left max min_int xs;
      box.((4 * i) + 2) <- Array.fold_left min max_int ys;
      box.((4 * i) + 3) <- Array.fold_left max min_int ys)
    nets;
  box

(* Weighted HPWL of net [i] with SMB [s] at [(xs.(s), ys.(s))]: its pad box
   grown by its SMB endpoints. Allocation-free. *)
let net_cost nets box xs ys i =
  let minx = ref box.(4 * i) and maxx = ref box.((4 * i) + 1) in
  let miny = ref box.((4 * i) + 2) and maxy = ref box.((4 * i) + 3) in
  let eps = nets.(i).smb_eps in
  for k = 0 to Array.length eps - 1 do
    let x = xs.(eps.(k)) and y = ys.(eps.(k)) in
    if x < !minx then minx := x;
    if x > !maxx then maxx := x;
    if y < !miny then miny := y;
    if y > !maxy then maxy := y
  done;
  if !minx > !maxx then 0
  else (!maxx - !minx + (!maxy - !miny)) * nets.(i).weight

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
  let n_nets = Array.length nets in
  let nsites = width * height in
  let illegal = illegal_sites defects cl ~n_smb ~width ~height in
  let legal s site =
    match illegal with
    | None -> true
    | Some arr -> not arr.((s * nsites) + site)
  in
  (* site occupancy, and SMB coordinates as unboxed x/y arrays *)
  let site_of = Array.make nsites (-1) in
  let xs = Array.make n_smb 0 and ys = Array.make n_smb 0 in
  let put s x y =
    xs.(s) <- x;
    ys.(s) <- y;
    site_of.((y * width) + x) <- s
  in
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
      Array.iteri (fun s (x, y) -> put s x y) p.smb_xy;
      true
    | Some _ | None -> false
  in
  if not seeded then begin
    match illegal with
    | None ->
      for s = 0 to n_smb - 1 do
        put s (s mod width) (s / width)
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
        put s (site mod width) (site / width)
      done
  end;
  (* incident nets per smb *)
  let incident = Array.make n_smb [] in
  for i = n_nets - 1 downto 0 do
    Array.iter (fun s -> incident.(s) <- i :: incident.(s)) nets.(i).smb_eps
  done;
  let incident = Array.map Array.of_list incident in
  (* [net_now.(i)] is net [i]'s cost in the current placement, so a move
     scores only the boxes it changes *)
  let box = pad_boxes nets pad_xy in
  let net_now = Array.init n_nets (net_cost nets box xs ys) in
  let cost = ref (Array.fold_left ( + ) 0 net_now) in
  let net_evals = ref n_nets in
  (* the nets a move touches, collected without allocating: [stamp.(i)]
     equal to the move's generation marks net [i] as seen *)
  let touched = Array.make n_nets 0 and touched_cost = Array.make n_nets 0 in
  let n_touched = ref 0 in
  let stamp = Array.make n_nets 0 and generation = ref 0 in
  (* The nets of [a] and of [b] (-1: none). A net holding both is skipped:
     swapping the two cannot change its box. *)
  let collect a b =
    generation := !generation + 2;
    let g = !generation in
    let inc_a = incident.(a) and inc_b = if b >= 0 then incident.(b) else [||] in
    for k = 0 to Array.length inc_b - 1 do
      stamp.(inc_b.(k)) <- g
    done;
    n_touched := 0;
    for k = 0 to Array.length inc_a - 1 do
      let i = inc_a.(k) in
      if stamp.(i) = g then stamp.(i) <- g + 1
      else begin
        touched.(!n_touched) <- i;
        incr n_touched
      end
    done;
    for k = 0 to Array.length inc_b - 1 do
      let i = inc_b.(k) in
      if stamp.(i) = g then begin
        touched.(!n_touched) <- i;
        incr n_touched
      end
    done
  in
  let clamp hi (v : int) = if v < 0 then 0 else if v > hi then hi else v in
  let moves_tried = ref 0 and moves_accepted = ref 0 in
  let temp = ref 0.0 and rlim = ref (max width height) in
  (* One move at [!temp] within [!rlim]. Returns the cost delta it computed
     (0 for degenerate no-op moves), so callers can calibrate temperatures
     without replaying moves. *)
  let try_move () =
    incr moves_tried;
    let a = Rng.int rng n_smb in
    let ax = xs.(a) and ay = ys.(a) in
    let dx = Rng.int rng ((2 * !rlim) + 1) - !rlim in
    let dy = Rng.int rng ((2 * !rlim) + 1) - !rlim in
    let tx = clamp (width - 1) (ax + dx) and ty = clamp (height - 1) (ay + dy) in
    if tx = ax && ty = ay then 0
    else begin
      let target_site = (ty * width) + tx in
      let occupant = site_of.(target_site) in
      let source_site = (ay * width) + ax in
      if
        (not (legal a target_site))
        || (occupant >= 0 && not (legal occupant source_site))
      then 0
      else begin
        collect a occupant;
        (* apply *)
        xs.(a) <- tx;
        ys.(a) <- ty;
        if occupant >= 0 then begin
          xs.(occupant) <- ax;
          ys.(occupant) <- ay
        end;
        let delta = ref 0 in
        for k = 0 to !n_touched - 1 do
          let i = touched.(k) in
          let c = net_cost nets box xs ys i in
          touched_cost.(k) <- c;
          delta := !delta + c - net_now.(i)
        done;
        net_evals := !net_evals + !n_touched;
        let delta = !delta in
        let accept =
          delta <= 0
          || (!temp > 0.0
             && Rng.float rng 1.0 < exp (-.float_of_int delta /. !temp))
        in
        if accept then begin
          cost := !cost + delta;
          incr moves_accepted;
          for k = 0 to !n_touched - 1 do
            net_now.(touched.(k)) <- touched_cost.(k)
          done;
          site_of.(target_site) <- a;
          site_of.(source_site) <- occupant
        end
        else begin
          (* revert *)
          xs.(a) <- ax;
          ys.(a) <- ay;
          if occupant >= 0 then begin
            xs.(occupant) <- tx;
            ys.(occupant) <- ty
          end
        end;
        delta
      end
    end
  in
  let temp_steps = ref 0 in
  if n_nets > 0 && n_smb > 1 then begin
    (* initial temperature: sample random moves *)
    let samples = 50 in
    let t0 =
      if seeded then begin
        (* refinement: probe at zero temperature (only improvements commit)
           and start just warm enough to escape local minima without
           scrambling the seed placement *)
        temp := 0.0;
        let sum_sq = ref 0.0 in
        for _ = 1 to samples do
          let d = float_of_int (try_move ()) in
          sum_sq := !sum_sq +. (d *. d)
        done;
        sqrt (!sum_sq /. float_of_int samples) +. 0.1
      end
      else begin
        temp := infinity;
        let base = !cost in
        let sum_sq = ref 0.0 in
        for _ = 1 to samples do
          ignore (try_move ());
          let d = float_of_int (!cost - base) in
          sum_sq := !sum_sq +. (d *. d)
        done;
        (20.0 *. sqrt (!sum_sq /. float_of_int samples)) +. 1.0
      end
    in
    let factor = match effort with `Fast -> 1 | `Detailed -> 4 in
    let inner =
      factor * int_of_float (4.0 *. (float_of_int n_smb ** 1.3333)) |> max 32
    in
    temp := t0;
    (* the schedule scales with the number of temporal nets, merged or not *)
    let total_weight = Array.fold_left (fun acc n -> acc + n.weight) 0 nets in
    let stop_at =
      0.005 *. (float_of_int !cost +. 1.0) /. float_of_int total_weight
    in
    while !temp > stop_at do
      incr temp_steps;
      let before_accepted = !moves_accepted in
      for _ = 1 to inner do
        ignore (try_move ())
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
    temp := 0.0;
    rlim := 1;
    for _ = 1 to inner do
      ignore (try_move ())
    done
  end;
  Telemetry.add c_moves_tried !moves_tried;
  Telemetry.add c_moves_accepted !moves_accepted;
  Telemetry.add c_temp_steps !temp_steps;
  Telemetry.add c_net_evals !net_evals;
  { width;
    height;
    smb_xy = Array.init n_smb (fun s -> (xs.(s), ys.(s)));
    pad_xy;
    hpwl = float_of_int !cost;
    moves_tried = !moves_tried;
    moves_accepted = !moves_accepted }

let hpwl t (cl : Cluster.t) =
  let nets = flatten_nets cl in
  let box = pad_boxes nets t.pad_xy in
  let xs = Array.map fst t.smb_xy and ys = Array.map snd t.smb_xy in
  Array.init (Array.length nets) (net_cost nets box xs ys)
  |> Array.fold_left ( + ) 0 |> float_of_int

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
