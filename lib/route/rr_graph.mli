(** Routing-resource graph for the NATURE island fabric.

    Nodes model the four interconnect types of the architecture (Section
    4.4): direct links between adjacent SMBs, length-1 and length-4 wire
    segments in the channels, and global row/column lines; plus logical
    source/sink nodes per SMB and per I/O pad. Congestion lives on nodes
    (every wire node has unit capacity; there are [len1_tracks] /
    [len4_tracks] / [global_tracks] parallel nodes per channel position),
    which is the PathFinder formulation. *)

type wire_kind =
  | Direct
  | Len1
  | Len4
  | Global

type node_kind =
  | Src of int              (** SMB output *)
  | Sink of int             (** SMB input *)
  | Pad_src of int
  | Pad_sink of int
  | Wire of wire_kind

val wire_kind_name : wire_kind -> string
(** ["direct"], ["len1"], ["len4"] or ["global"] — the names used by defect
    maps ({!Nanomap_arch.Defect}). *)

type caps = {
  direct_tracks : int;      (** parallel direct wires per adjacent SMB pair *)
  len1_tracks : int;        (** per channel position and direction *)
  len4_tracks : int;
  global_tracks : int;      (** per row and per column *)
}

val scale_caps : caps -> int -> caps
(** Multiply every track count (used by the minimum-channel-width search). *)

val default_caps : caps
(** The paper instance's channel widths — equal to
    [caps_of_arch Nanomap_arch.Arch.default]. *)

val caps_of_arch : Nanomap_arch.Arch.t -> caps
(** Track counts from the architecture's [chan_*] knobs. *)

type t = {
  num_nodes : int;
  kind : node_kind array;
  delay : float array;      (** traversal delay of each node, ns *)
  adj : int list array;     (** directed edges *)
  radj : int list array;    (** reversed edges (for the sink lookahead) *)
  src_of_smb : int array;
  sink_of_smb : int array;
  src_of_pad : int array;
  sink_of_pad : int array;
  defective : bool array;   (** known-bad nodes from the defect map; they
                                keep their ids but have no edges *)
  lookahead_cache : (int, float array) Hashtbl.t;
                            (** sink node -> per-node lower bounds; filled
                                lazily by {!lookahead} *)
  lookahead_lock : Mutex.t; (** guards {!field-lookahead_cache} so routers
                                on different pool domains can share one
                                graph *)
}

val build :
  ?caps:caps ->
  ?defects:Nanomap_arch.Defect.t ->
  arch:Nanomap_arch.Arch.t ->
  Nanomap_place.Place.t ->
  t
(** Builds the graph for the placement's grid and pad ring. [caps] defaults
    to [caps_of_arch arch]; the architecture's switch-block flexibility
    [fs] (each length-1 track turns onto [ceil (fs / 3)] tracks of every
    crossing channel; 3 = the disjoint switch block) and connection-block
    flexibilities [fc_in]/[fc_out] (each SMB/pad pin touches
    [ceil (fc * W)] of the W adjacent length-1 tracks, staggered by block
    index) shape the connectivity. [defects]
    (default {!Nanomap_arch.Defect.none}) names broken wire segments as
    [(kind, ordinal)] pairs, the ordinal counting nodes of that wire kind in
    the deterministic construction order; defective nodes are marked in
    {!field-defective} and every edge touching one is dropped, so routing
    transparently avoids them. *)

val make :
  ?defective:bool array ->
  kind:node_kind array ->
  delay:float array ->
  adj:int list array ->
  src_of_smb:int array ->
  sink_of_smb:int array ->
  src_of_pad:int array ->
  sink_of_pad:int array ->
  unit ->
  t
(** Assemble a graph from explicit arrays — the reverse adjacency and an
    empty lookahead cache are derived. Used by {!build} and by tests that
    hand-craft small graphs. Raises [Invalid_argument] on mismatched
    lengths or out-of-range edges. *)

val cost_eps : float
(** The ε added to every node delay in routing costs, so zero-delay nodes
    still cost something and hop counts break delay ties. *)

val base_cost : t -> int -> float
(** [delay + cost_eps]: the uncongested cost of entering a node. The
    router's congested node cost is always ≥ this (history ≥ 0 and
    present-sharing ≥ 1 only multiply it up). *)

val src_node : t -> Nanomap_cluster.Cluster.endpoint -> int
(** The source node a net driven from this endpoint starts at. *)

val sink_node : t -> Nanomap_cluster.Cluster.endpoint -> int
(** The sink node a net reaching this endpoint ends at. *)

val lookahead : t -> int -> float array
(** [lookahead g sink] is the exact base-cost distance from every node to
    [sink] ([infinity] where the sink is unreachable), computed by one
    backward Dijkstra over {!field-radj} and cached in the graph. Because
    congested costs never drop below {!base_cost}, this is an admissible
    and consistent A* heuristic for any congestion state. *)

val stats : t -> (string * int) list
(** Node counts by kind. *)
