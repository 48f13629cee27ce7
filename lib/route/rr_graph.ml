module Arch = Nanomap_arch.Arch
module Defect = Nanomap_arch.Defect
module Place = Nanomap_place.Place
module Cluster = Nanomap_cluster.Cluster

type wire_kind =
  | Direct
  | Len1
  | Len4
  | Global

type node_kind =
  | Src of int
  | Sink of int
  | Pad_src of int
  | Pad_sink of int
  | Wire of wire_kind

let wire_kind_name = function
  | Direct -> "direct"
  | Len1 -> "len1"
  | Len4 -> "len4"
  | Global -> "global"

type caps = {
  direct_tracks : int;
  len1_tracks : int;
  len4_tracks : int;
  global_tracks : int;
}

let default_caps =
  { direct_tracks = 4; len1_tracks = 16; len4_tracks = 4; global_tracks = 4 }

let caps_of_arch (a : Arch.t) =
  { direct_tracks = a.Arch.chan_direct;
    len1_tracks = a.Arch.chan_len1;
    len4_tracks = a.Arch.chan_len4;
    global_tracks = a.Arch.chan_global }

let scale_caps c f =
  { direct_tracks = c.direct_tracks * f;
    len1_tracks = c.len1_tracks * f;
    len4_tracks = c.len4_tracks * f;
    global_tracks = c.global_tracks * f }

type t = {
  num_nodes : int;
  kind : node_kind array;
  delay : float array;
  adj : int list array;
  radj : int list array;
  src_of_smb : int array;
  sink_of_smb : int array;
  src_of_pad : int array;
  sink_of_pad : int array;
  defective : bool array;
  lookahead_cache : (int, float array) Hashtbl.t;
  lookahead_lock : Mutex.t;
}

let cost_eps = 0.01

let base_cost t nd = t.delay.(nd) +. cost_eps

let src_node t = function
  | Cluster.At_smb s -> t.src_of_smb.(s)
  | Cluster.At_pad p -> t.src_of_pad.(p)

let sink_node t = function
  | Cluster.At_smb s -> t.sink_of_smb.(s)
  | Cluster.At_pad p -> t.sink_of_pad.(p)

let reverse_adjacency adj =
  let radj = Array.make (Array.length adj) [] in
  Array.iteri (fun u vs -> List.iter (fun v -> radj.(v) <- u :: radj.(v)) vs) adj;
  radj

let make ?defective ~kind ~delay ~adj ~src_of_smb ~sink_of_smb ~src_of_pad
    ~sink_of_pad () =
  let num_nodes = Array.length kind in
  if Array.length delay <> num_nodes || Array.length adj <> num_nodes then
    invalid_arg "Rr_graph.make: kind/delay/adj length mismatch";
  let defective =
    match defective with
    | None -> Array.make num_nodes false
    | Some d ->
      if Array.length d <> num_nodes then
        invalid_arg "Rr_graph.make: defective length mismatch";
      d
  in
  Array.iter
    (List.iter (fun v ->
         if v < 0 || v >= num_nodes then
           invalid_arg "Rr_graph.make: edge target out of range"))
    adj;
  { num_nodes;
    kind;
    delay;
    adj;
    radj = reverse_adjacency adj;
    src_of_smb;
    sink_of_smb;
    src_of_pad;
    sink_of_pad;
    defective;
    lookahead_cache = Hashtbl.create 32;
    lookahead_lock = Mutex.create () }

(* Exact distance-to-sink lower bounds: a backward Dijkstra from [sink]
   over the reversed graph with uncongested base costs. The router's
   congestion cost of a node is [base * (1 + history) * present >= base]
   (history >= 0, present >= 1), so these distances are admissible — and
   consistent — A* heuristics for any congestion state. Cached per sink:
   every net of every PathFinder iteration targeting the same SMB/pad sink
   shares one computation. *)
let compute_lookahead t sink =
    let dist = Array.make t.num_nodes infinity in
    let heap = Nanomap_util.Min_heap.create () in
    dist.(sink) <- 0.0;
    Nanomap_util.Min_heap.push heap 0.0 sink;
    let continue_ = ref true in
    while !continue_ do
      match Nanomap_util.Min_heap.pop heap with
      | None -> continue_ := false
      | Some (d, v) ->
        if d <= dist.(v) then begin
          (* entering [v] on a forward path costs [base_cost v], paid when
             the wavefront relaxes into it *)
          let through = d +. base_cost t v in
          List.iter
            (fun u ->
              if through < dist.(u) then begin
                dist.(u) <- through;
                Nanomap_util.Min_heap.push heap through u
              end)
            t.radj.(v)
        end
    done;
    dist

(* The cache is shared mutable state; routers on different pool domains
   may share one graph, so find/insert run under the lock. The Dijkstra
   itself runs unlocked — a race merely computes the same (deterministic)
   table twice, and the first insertion stays canonical. *)
let lookahead t sink =
  Mutex.lock t.lookahead_lock;
  match Hashtbl.find_opt t.lookahead_cache sink with
  | Some dist ->
    Mutex.unlock t.lookahead_lock;
    dist
  | None ->
    Mutex.unlock t.lookahead_lock;
    let dist = compute_lookahead t sink in
    Mutex.lock t.lookahead_lock;
    let dist =
      match Hashtbl.find_opt t.lookahead_cache sink with
      | Some existing -> existing
      | None ->
        Hashtbl.replace t.lookahead_cache sink dist;
        dist
    in
    Mutex.unlock t.lookahead_lock;
    dist

type builder = {
  kinds : node_kind Nanomap_util.Vec.t;
  delays : float Nanomap_util.Vec.t;
  mutable edges : (int * int) list;
}

let new_node b kind delay =
  let id = Nanomap_util.Vec.push b.kinds kind in
  ignore (Nanomap_util.Vec.push b.delays delay);
  id

let edge b u v = b.edges <- (u, v) :: b.edges

let build ?caps ?(defects = Defect.none) ~arch (pl : Place.t) =
  let caps = match caps with Some c -> c | None -> caps_of_arch arch in
  let w = pl.Place.width and h = pl.Place.height in
  (* Connection-block flexibility: an SMB (or pad) pin touches
     [ceil (fc * W)] of the W length-1 tracks in each bordering channel.
     The window is staggered by the block's index so neighboring blocks
     load different tracks; at fc = 1.0 every track is selected and the
     edge emission order is identical to the pre-Fc construction. *)
  let cb_tracks frac =
    max 1 (min caps.len1_tracks
             (int_of_float (ceil (frac *. float_of_int caps.len1_tracks))))
  in
  let n_in = cb_tracks arch.Arch.fc_in and n_out = cb_tracks arch.Arch.fc_out in
  let in_window ~who ~n t =
    let w = caps.len1_tracks in
    (((t - who) mod w) + w) mod w < n
  in
  (* Switch-block flexibility: at a crossing, incoming track t turns onto
     [ceil (fs / 3)] tracks of each crossing channel (offsets 0, 1, ...).
     fs = 3 is the classic disjoint switch block — one same-index track per
     crossing channel — and reproduces the pre-Fs construction. *)
  let turn_offsets = (arch.Arch.fs + 2) / 3 in
  let b = { kinds = Nanomap_util.Vec.create (); delays = Nanomap_util.Vec.create (); edges = [] } in
  let n_smb = Array.length pl.Place.smb_xy in
  let n_pad = Array.length pl.Place.pad_xy in
  (* SMB occupancy by coordinate *)
  let smb_at = Hashtbl.create 64 in
  Array.iteri (fun s xy -> Hashtbl.replace smb_at xy s) pl.Place.smb_xy;
  let src_of_smb = Array.init n_smb (fun s -> new_node b (Src s) 0.0) in
  let sink_of_smb = Array.init n_smb (fun s -> new_node b (Sink s) 0.0) in
  let src_of_pad = Array.init n_pad (fun p -> new_node b (Pad_src p) 0.0) in
  let sink_of_pad = Array.init n_pad (fun p -> new_node b (Pad_sink p) 0.0) in
  (* --- direct links between adjacent SMBs --- *)
  Array.iteri
    (fun s (x, y) ->
      List.iter
        (fun (nx, ny) ->
          match Hashtbl.find_opt smb_at (nx, ny) with
          | Some s' ->
            for _ = 1 to caps.direct_tracks do
              let d = new_node b (Wire Direct) arch.Arch.t_direct in
              edge b src_of_smb.(s) d;
              edge b d sink_of_smb.(s')
            done
          | None -> ())
        [ (x + 1, y); (x - 1, y); (x, y + 1); (x, y - 1) ])
    pl.Place.smb_xy;
  (* --- length-1 wires ---
     horizontal channel y_ch in 0..h (south of row y_ch), position x,
     track t; vertical channel x_ch in 0..w, position y, track t. *)
  let len1_h = Array.init (h + 1) (fun _ -> Array.make_matrix w caps.len1_tracks (-1)) in
  let len1_v = Array.init (w + 1) (fun _ -> Array.make_matrix h caps.len1_tracks (-1)) in
  for yc = 0 to h do
    for x = 0 to w - 1 do
      for t = 0 to caps.len1_tracks - 1 do
        len1_h.(yc).(x).(t) <- new_node b (Wire Len1) arch.Arch.t_len1
      done
    done
  done;
  for xc = 0 to w do
    for y = 0 to h - 1 do
      for t = 0 to caps.len1_tracks - 1 do
        len1_v.(xc).(y).(t) <- new_node b (Wire Len1) arch.Arch.t_len1
      done
    done
  done;
  (* SMB <-> len1 and len1 adjacency *)
  let connect_smb_to_len1 s (x, y) =
    for t = 0 to caps.len1_tracks - 1 do
      (* channels north (y) and south (y+1)? channel yc sits below row yc:
         row y borders channels y (south) and y+1 (north) *)
      List.iter
        (fun wire ->
          if in_window ~who:s ~n:n_out t then edge b src_of_smb.(s) wire;
          if in_window ~who:s ~n:n_in t then edge b wire sink_of_smb.(s))
        [ len1_h.(y).(x).(t); len1_h.(y + 1).(x).(t);
          len1_v.(x).(y).(t); len1_v.(x + 1).(y).(t) ]
    done
  in
  Array.iteri (fun s xy -> connect_smb_to_len1 s xy) pl.Place.smb_xy;
  (* wire-to-wire: same track continues straight; turns at crossings *)
  for yc = 0 to h do
    for x = 0 to w - 1 do
      for t = 0 to caps.len1_tracks - 1 do
        let me = len1_h.(yc).(x).(t) in
        if x + 1 < w then begin
          edge b me len1_h.(yc).(x + 1).(t);
          edge b len1_h.(yc).(x + 1).(t) me
        end;
        (* turns: vertical channels x and x+1 at rows yc-1 / yc *)
        List.iter
          (fun (xc, y) ->
            if xc >= 0 && xc <= w && y >= 0 && y < h then
              for o = 0 to turn_offsets - 1 do
                let v = len1_v.(xc).(y).((t + o) mod caps.len1_tracks) in
                edge b me v;
                edge b v me
              done)
          [ (x, yc - 1); (x, yc); (x + 1, yc - 1); (x + 1, yc) ]
      done
    done
  done;
  for xc = 0 to w do
    for y = 0 to h - 1 do
      for t = 0 to caps.len1_tracks - 1 do
        let me = len1_v.(xc).(y).(t) in
        if y + 1 < h then begin
          edge b me len1_v.(xc).(y + 1).(t);
          edge b len1_v.(xc).(y + 1).(t) me
        end
      done
    done
  done;
  (* --- length-4 wires: horizontal spans, endpoints tied into len1 --- *)
  if w >= 4 then
    for yc = 0 to h do
      let x0 = ref 0 in
      while !x0 + 3 <= w - 1 do
        for t = 0 to caps.len4_tracks - 1 do
          let wire = new_node b (Wire Len4) arch.Arch.t_len4 in
          for x = !x0 to !x0 + 3 do
            (* sinks + sources along the span (both rows bordering channel) *)
            List.iter
              (fun row ->
                match Hashtbl.find_opt smb_at (x, row) with
                | Some s ->
                  edge b src_of_smb.(s) wire;
                  edge b wire sink_of_smb.(s)
                | None -> ())
              [ yc - 1; yc ]
          done;
          (* endpoints into len1 of the same channel *)
          let t1 = t mod caps.len1_tracks in
          edge b wire len1_h.(yc).(!x0).(t1);
          edge b len1_h.(yc).(!x0).(t1) wire;
          edge b wire len1_h.(yc).(!x0 + 3).(t1);
          edge b len1_h.(yc).(!x0 + 3).(t1) wire
        done;
        x0 := !x0 + 4
      done
    done;
  (* --- global row/column lines --- *)
  let grow_ = Array.make_matrix h caps.global_tracks (-1) in
  let gcol = Array.make_matrix w caps.global_tracks (-1) in
  for y = 0 to h - 1 do
    for t = 0 to caps.global_tracks - 1 do
      grow_.(y).(t) <- new_node b (Wire Global) arch.Arch.t_global
    done
  done;
  for x = 0 to w - 1 do
    for t = 0 to caps.global_tracks - 1 do
      gcol.(x).(t) <- new_node b (Wire Global) arch.Arch.t_global
    done
  done;
  Array.iteri
    (fun s (x, y) ->
      for t = 0 to caps.global_tracks - 1 do
        edge b src_of_smb.(s) grow_.(y).(t);
        edge b grow_.(y).(t) sink_of_smb.(s);
        edge b src_of_smb.(s) gcol.(x).(t);
        edge b gcol.(x).(t) sink_of_smb.(s)
      done)
    pl.Place.smb_xy;
  (* row-column transitions for full reachability *)
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      for t = 0 to caps.global_tracks - 1 do
        edge b grow_.(y).(t) gcol.(x).(t);
        edge b gcol.(x).(t) grow_.(y).(t)
      done
    done
  done;
  (* --- pads --- *)
  Array.iteri
    (fun p (px, py) ->
      (* nearest in-grid coordinate and bordering channel *)
      let x = max 0 (min (w - 1) px) and y = max 0 (min (h - 1) py) in
      for t = 0 to caps.global_tracks - 1 do
        edge b src_of_pad.(p) grow_.(y).(t);
        edge b grow_.(y).(t) sink_of_pad.(p);
        edge b src_of_pad.(p) gcol.(x).(t);
        edge b gcol.(x).(t) sink_of_pad.(p)
      done;
      for t = 0 to caps.len1_tracks - 1 do
        (* the channel that runs along the pad's border *)
        let wires =
          if py = -1 then [ len1_h.(0).(x).(t) ]
          else if py = h then [ len1_h.(h).(x).(t) ]
          else if px = -1 then [ len1_v.(0).(y).(t) ]
          else [ len1_v.(w).(y).(t) ]
        in
        List.iter
          (fun wire ->
            if in_window ~who:p ~n:n_out t then edge b src_of_pad.(p) wire;
            if in_window ~who:p ~n:n_in t then edge b wire sink_of_pad.(p))
          wires
      done;
      (* direct hop to the adjacent SMB if present *)
      match Hashtbl.find_opt smb_at (x, y) with
      | Some s ->
        let d1 = new_node b (Wire Direct) arch.Arch.t_direct in
        edge b src_of_pad.(p) d1;
        edge b d1 sink_of_smb.(s);
        let d2 = new_node b (Wire Direct) arch.Arch.t_direct in
        edge b src_of_smb.(s) d2;
        edge b d2 sink_of_pad.(p)
      | None -> ())
    pl.Place.pad_xy;
  let num_nodes = Nanomap_util.Vec.length b.kinds in
  let kind = Nanomap_util.Vec.to_array b.kinds in
  (* Known-bad wire segments: defects name them (kind, ordinal), where the
     ordinal counts nodes of that wire kind in this deterministic
     construction order. Mark them, then drop every edge touching one, so
     the router simply never sees a defective track. *)
  let defective = Array.make num_nodes false in
  if defects.Defect.tracks <> [] then begin
    let want = Hashtbl.create 16 in
    List.iter (fun (k, o) -> Hashtbl.replace want (k, o) ()) defects.Defect.tracks;
    let counters = Hashtbl.create 4 in
    Array.iteri
      (fun id k ->
        match k with
        | Wire wk ->
          let name = wire_kind_name wk in
          let ord = Option.value ~default:0 (Hashtbl.find_opt counters name) in
          Hashtbl.replace counters name (ord + 1);
          if Hashtbl.mem want (name, ord) then defective.(id) <- true
        | _ -> ())
      kind
  end;
  let edges =
    if defects.Defect.tracks = [] then b.edges
    else List.filter (fun (u, v) -> not (defective.(u) || defective.(v))) b.edges
  in
  let adj = Array.make num_nodes [] in
  List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) edges;
  make ~defective ~kind
    ~delay:(Nanomap_util.Vec.to_array b.delays)
    ~adj ~src_of_smb ~sink_of_smb ~src_of_pad ~sink_of_pad ()

let stats t =
  let count pred = Array.fold_left (fun acc k -> if pred k then acc + 1 else acc) 0 t.kind in
  [ ("nodes", t.num_nodes);
    ("direct", count (function Wire Direct -> true | _ -> false));
    ("len1", count (function Wire Len1 -> true | _ -> false));
    ("len4", count (function Wire Len4 -> true | _ -> false));
    ("global", count (function Wire Global -> true | _ -> false)) ]
