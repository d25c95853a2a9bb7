(** Uniform cell index over the deployment area.

    Building the UDG naively is O(n²) distance checks; bucketing points
    into cells of side = communication radius reduces neighbour search
    to the 3×3 surrounding cells, O(n · density) expected. The index is
    a counting sort: one int array of cell offsets and one of point
    indices, ascending within each cell, so a scan allocates nothing
    and hands out candidates in index order per cell. *)

type t

(** [create ~cell points] indexes [points] with square cells of side
    [cell] (coarser when the points spread over more than O(n) such
    cells, which changes no query result). Raises [Invalid_argument]
    when [cell <= 0] or a coordinate is not finite. *)
val create : cell:float -> Mlbs_geom.Point.t array -> t

(** [neighbor_rows t ~radius] is every point's neighbours within
    [radius] as strictly ascending rows — the input {!Mlbs_graph.Graph.of_rows}
    takes — in O(n + m) past the distance checks: no row is sorted,
    each is filled in order from the ascending cell scans. [radius]
    must not exceed the cell size. *)
val neighbor_rows : t -> radius:float -> int array array

(** [neighbors_within t i ~radius] is row [i] of {!neighbor_rows} as a
    list: the indices [j ≠ i] with [dist2 points.(i) points.(j) <=
    radius²], ascending. *)
val neighbors_within : t -> int -> radius:float -> int list

(** [pairs_within t ~radius] is every unordered pair within [radius],
    each reported once with the smaller index first, in ascending
    order. *)
val pairs_within : t -> radius:float -> (int * int) list
