"""Seeded synthetic road-network generators.

The paper evaluates on TIGER/Line road maps, which we cannot ship.  These
generators produce networks with the structural properties the OPAQUE
mechanisms actually depend on — planar spatial embedding, low average degree
(2–4 like real road graphs), and edge weights equal to (or proportional to)
Euclidean length so that search cost grows with geographic area, which is
the premise of the paper's Lemma 1 cost model.

All generators take an explicit ``seed`` and are fully deterministic.
"""

from __future__ import annotations

import math
import random

from repro.network.graph import RoadNetwork

__all__ = [
    "grid_network",
    "metro_network",
    "one_way_grid_network",
    "random_geometric_network",
    "ring_radial_network",
    "scale_free_network",
    "tiger_like_network",
]


def grid_network(
    width: int,
    height: int,
    spacing: float = 1.0,
    perturbation: float = 0.0,
    drop_fraction: float = 0.0,
    seed: int = 0,
) -> RoadNetwork:
    """Manhattan-style grid with optional jitter and random street closures.

    Parameters
    ----------
    width, height:
        Number of intersections along each axis (both must be >= 1).
    spacing:
        Distance between adjacent intersections before jitter.
    perturbation:
        Maximum coordinate jitter as a fraction of ``spacing`` (0 disables).
        Node positions move, edge weights follow the new Euclidean lengths.
    drop_fraction:
        Fraction of edges to remove at random, simulating dead ends and
        one-off closures.  The result is re-restricted to its largest
        connected component so queries always have answers.
    seed:
        RNG seed; identical arguments always produce an identical network.

    Returns
    -------
    RoadNetwork
        Undirected network with ``width * height`` nodes (fewer if
        ``drop_fraction`` disconnects some).
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    if perturbation < 0:
        raise ValueError("perturbation must be non-negative")
    rng = random.Random(seed)
    net = RoadNetwork(directed=False)
    jitter = perturbation * spacing

    def node_id(col: int, row: int) -> int:
        return row * width + col

    for row in range(height):
        for col in range(width):
            dx = rng.uniform(-jitter, jitter) if jitter else 0.0
            dy = rng.uniform(-jitter, jitter) if jitter else 0.0
            net.add_node(node_id(col, row), col * spacing + dx, row * spacing + dy)
    for row in range(height):
        for col in range(width):
            if col + 1 < width:
                net.add_edge(node_id(col, row), node_id(col + 1, row))
            if row + 1 < height:
                net.add_edge(node_id(col, row), node_id(col, row + 1))
    if drop_fraction:
        edges = list(net.edges())
        rng.shuffle(edges)
        to_drop = int(len(edges) * drop_fraction)
        for u, v, _w in edges[:to_drop]:
            net.remove_edge(u, v)
        net = net.largest_component_subgraph()
    return net


def metro_network(
    num_nodes: int,
    spacing: float = 1.0,
    perturbation: float = 0.3,
    core_drop: float = 0.05,
    fringe_drop: float = 0.45,
    arterial_every: int = 16,
    arterial_speedup: float = 2.0,
    seed: int = 0,
) -> RoadNetwork:
    """Metro-region road network at up to ~10⁶ nodes, built in O(n).

    The ROADMAP's "metro region" scale proof substrate: a jittered street
    grid covering ``ceil(sqrt(num_nodes))²`` intersections whose edge
    *survival* falls off with distance from the city center — the core
    keeps its full Manhattan mesh (average degree near 4) while the
    fringe decays toward sparse suburban tendrils (degree 2–3, dead
    ends), reproducing the degree distribution real TIGER/Line metro
    extracts show.  Every ``arterial_every``-th row and column is an
    arterial whose traversal cost is Euclidean length divided by
    ``arterial_speedup`` (travel time, not distance); all other weights
    are Euclidean lengths over the jittered coordinates.

    The result is re-restricted to its largest connected component, so
    the node count is *approximately* ``num_nodes`` (the survival rates
    above keep the loss to a few percent).  Fully deterministic per
    ``(num_nodes, seed)``.

    Parameters
    ----------
    num_nodes:
        Target intersection count (>= 4); the grid side is
        ``ceil(sqrt(num_nodes))``.
    spacing:
        Street spacing before jitter.
    perturbation:
        Coordinate jitter as a fraction of ``spacing``.
    core_drop:
        Edge-removal probability at the city center.
    fringe_drop:
        Edge-removal probability at the map corners; removal probability
        interpolates linearly in radial distance between the two (both
        in ``[0, 1)``; arterials are never dropped).
    arterial_every:
        Grid period of the fast arterial rows/columns (0 disables).
    arterial_speedup:
        How much faster arterials are than local streets (>= 1).
    seed:
        RNG seed.
    """
    if num_nodes < 4:
        raise ValueError("num_nodes must be >= 4")
    if not (0.0 <= core_drop < 1.0 and 0.0 <= fringe_drop < 1.0):
        raise ValueError("drop probabilities must be in [0, 1)")
    if perturbation < 0:
        raise ValueError("perturbation must be non-negative")
    if arterial_speedup < 1.0:
        raise ValueError("arterial_speedup must be >= 1")
    rng = random.Random(seed)
    side = math.isqrt(num_nodes - 1) + 1
    net = RoadNetwork(directed=False)
    jitter = perturbation * spacing
    center = (side - 1) / 2.0
    # radial distance normalized so the map corners sit at 1.0
    corner = math.hypot(center, center) or 1.0

    def node_id(col: int, row: int) -> int:
        return row * side + col

    for row in range(side):
        for col in range(side):
            dx = rng.uniform(-jitter, jitter) if jitter else 0.0
            dy = rng.uniform(-jitter, jitter) if jitter else 0.0
            net.add_node(
                node_id(col, row), col * spacing + dx, row * spacing + dy
            )

    def is_arterial(col: int, row: int, horizontal: bool) -> bool:
        if not arterial_every:
            return False
        return (row if horizontal else col) % arterial_every == 0

    drop_span = fringe_drop - core_drop
    for row in range(side):
        for col in range(side):
            u = node_id(col, row)
            radial = math.hypot(col - center, row - center) / corner
            p_drop = core_drop + drop_span * radial
            for dcol, drow in ((1, 0), (0, 1)):
                col2, row2 = col + dcol, row + drow
                if col2 >= side or row2 >= side:
                    continue
                v = node_id(col2, row2)
                arterial = is_arterial(col, row, horizontal=dcol == 1)
                if not arterial and rng.random() < p_drop:
                    continue
                length = net.euclidean_distance(u, v)
                net.add_edge(
                    u, v, length / arterial_speedup if arterial else length
                )
    return net.largest_component_subgraph()


def one_way_grid_network(
    width: int,
    height: int,
    spacing: float = 1.0,
    perturbation: float = 0.0,
    seed: int = 0,
) -> RoadNetwork:
    """Manhattan-style *directed* grid with alternating one-way streets.

    Interior rows alternate east/west, interior columns alternate
    north/south (like Manhattan avenues and streets); the perimeter is a
    directed clockwise loop, which guarantees strong connectivity for any
    ``width, height >= 2`` (verified at build time).

    Returns
    -------
    RoadNetwork
        A directed, strongly connected network — the substrate for the
        one-way-street tests of the search algorithms and processors.
    """
    if width < 2 or height < 2:
        raise ValueError("one-way grids need width, height >= 2")
    if perturbation < 0:
        raise ValueError("perturbation must be non-negative")
    rng = random.Random(seed)
    net = RoadNetwork(directed=True)
    jitter = perturbation * spacing

    def node_id(col: int, row: int) -> int:
        return row * width + col

    for row in range(height):
        for col in range(width):
            dx = rng.uniform(-jitter, jitter) if jitter else 0.0
            dy = rng.uniform(-jitter, jitter) if jitter else 0.0
            net.add_node(node_id(col, row), col * spacing + dx, row * spacing + dy)

    last_col = width - 1
    last_row = height - 1
    # Perimeter: clockwise directed loop (east on top, south on right...).
    for col in range(last_col):
        net.add_edge(node_id(col, 0), node_id(col + 1, 0))
        net.add_edge(node_id(col + 1, last_row), node_id(col, last_row))
    for row in range(last_row):
        net.add_edge(node_id(last_col, row), node_id(last_col, row + 1))
        net.add_edge(node_id(0, row + 1), node_id(0, row))
    # Interior rows alternate east/west.
    for row in range(1, last_row):
        for col in range(last_col):
            if row % 2 == 0:
                net.add_edge(node_id(col, row), node_id(col + 1, row))
            else:
                net.add_edge(node_id(col + 1, row), node_id(col, row))
    # Interior columns alternate north/south.
    for col in range(1, last_col):
        for row in range(last_row):
            if col % 2 == 0:
                net.add_edge(node_id(col, row), node_id(col, row + 1))
            else:
                net.add_edge(node_id(col, row + 1), node_id(col, row))
    if not net.is_strongly_connected():  # pragma: no cover - by construction
        raise RuntimeError("one-way grid construction lost strong connectivity")
    return net


def random_geometric_network(
    num_nodes: int,
    radius: float,
    extent: float = 1.0,
    seed: int = 0,
) -> RoadNetwork:
    """Random geometric graph: nodes uniform in a square, edges within radius.

    Edges connect node pairs closer than ``radius``; weights are Euclidean.
    The output is restricted to its largest connected component.

    A cell-bucket sweep keeps construction near-linear so benchmarks can use
    tens of thousands of nodes.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if radius <= 0 or extent <= 0:
        raise ValueError("radius and extent must be positive")
    rng = random.Random(seed)
    net = RoadNetwork(directed=False)
    positions: list[tuple[float, float]] = []
    for node in range(num_nodes):
        x = rng.uniform(0.0, extent)
        y = rng.uniform(0.0, extent)
        positions.append((x, y))
        net.add_node(node, x, y)

    cell = radius
    buckets: dict[tuple[int, int], list[int]] = {}
    for node, (x, y) in enumerate(positions):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(node)
    for node, (x, y) in enumerate(positions):
        cx, cy = int(x / cell), int(y / cell)
        for nx_ in (cx - 1, cx, cx + 1):
            for ny_ in (cy - 1, cy, cy + 1):
                for other in buckets.get((nx_, ny_), ()):
                    if other <= node:
                        continue
                    ox, oy = positions[other]
                    if math.hypot(x - ox, y - oy) <= radius:
                        net.add_edge(node, other)
    return net.largest_component_subgraph()


def ring_radial_network(
    rings: int,
    spokes: int,
    ring_spacing: float = 1.0,
    seed: int = 0,
) -> RoadNetwork:
    """Ring-and-radial city: concentric rings connected by radial avenues.

    A classic European-city topology; useful for experiments where query
    distance and geographic area are related non-linearly (belts are
    shortcuts).  Node 0 is the city center.
    """
    if rings < 1 or spokes < 3:
        raise ValueError("need rings >= 1 and spokes >= 3")
    del seed  # deterministic by construction; kept for a uniform signature
    net = RoadNetwork(directed=False)
    net.add_node(0, 0.0, 0.0)

    def node_id(ring: int, spoke: int) -> int:
        return 1 + (ring - 1) * spokes + spoke

    for ring in range(1, rings + 1):
        r = ring * ring_spacing
        for spoke in range(spokes):
            theta = 2.0 * math.pi * spoke / spokes
            net.add_node(node_id(ring, spoke), r * math.cos(theta), r * math.sin(theta))
    for spoke in range(spokes):
        net.add_edge(0, node_id(1, spoke))
        for ring in range(1, rings):
            net.add_edge(node_id(ring, spoke), node_id(ring + 1, spoke))
    for ring in range(1, rings + 1):
        for spoke in range(spokes):
            net.add_edge(node_id(ring, spoke), node_id(ring, (spoke + 1) % spokes))
    return net


def tiger_like_network(
    blocks: int = 8,
    block_size: int = 5,
    spacing: float = 1.0,
    arterial_speedup: float = 2.0,
    perturbation: float = 0.15,
    seed: int = 0,
) -> RoadNetwork:
    """Hierarchical network imitating TIGER/Line suburban topology.

    The map is a ``blocks x blocks`` super-grid of neighborhoods.  Every
    neighborhood is a jittered ``block_size x block_size`` local street grid;
    neighborhoods are stitched together by arterial roads whose traversal
    cost is their Euclidean length divided by ``arterial_speedup`` — i.e.
    arterials are faster, creating the highway-hierarchy effect real route
    planners see.  Weights are travel times, not distances, so arterial
    edges run below their straight-line length, so the straight line
    is no lower bound on these maps.

    Parameters
    ----------
    blocks:
        Neighborhoods per side of the super-grid.
    block_size:
        Intersections per side of each neighborhood.
    spacing:
        Local street spacing.
    arterial_speedup:
        How much faster arterials are than local streets (>= 1).
    perturbation:
        Local-street jitter fraction, as in :func:`grid_network`.
    seed:
        RNG seed.
    """
    if blocks < 1 or block_size < 2:
        raise ValueError("need blocks >= 1 and block_size >= 2")
    if arterial_speedup < 1.0:
        raise ValueError("arterial_speedup must be >= 1")
    rng = random.Random(seed)
    net = RoadNetwork(directed=False)
    jitter = perturbation * spacing
    # Neighborhoods are separated by one extra spacing unit for the arterial.
    block_span = block_size * spacing + spacing

    def node_id(bx: int, by: int, col: int, row: int) -> int:
        per_block = block_size * block_size
        return ((by * blocks + bx) * per_block) + row * block_size + col

    for by in range(blocks):
        for bx in range(blocks):
            ox = bx * block_span
            oy = by * block_span
            for row in range(block_size):
                for col in range(block_size):
                    dx = rng.uniform(-jitter, jitter)
                    dy = rng.uniform(-jitter, jitter)
                    net.add_node(
                        node_id(bx, by, col, row),
                        ox + col * spacing + dx,
                        oy + row * spacing + dy,
                    )
            for row in range(block_size):
                for col in range(block_size):
                    if col + 1 < block_size:
                        net.add_edge(
                            node_id(bx, by, col, row), node_id(bx, by, col + 1, row)
                        )
                    if row + 1 < block_size:
                        net.add_edge(
                            node_id(bx, by, col, row), node_id(bx, by, col, row + 1)
                        )
    # Connections between adjacent neighborhoods: a fast arterial at the
    # midpoint boundary intersections, plus slow local streets at the
    # corners — so "avoid highways" routing (FilteredView) stays connected,
    # as on real maps.
    mid = block_size // 2
    last = block_size - 1
    for by in range(blocks):
        for bx in range(blocks):
            if bx + 1 < blocks:
                u = node_id(bx, by, last, mid)
                v = node_id(bx + 1, by, 0, mid)
                net.add_edge(u, v, net.euclidean_distance(u, v) / arterial_speedup)
                for row in (0, last):
                    a = node_id(bx, by, last, row)
                    b = node_id(bx + 1, by, 0, row)
                    net.add_edge(a, b)
            if by + 1 < blocks:
                u = node_id(bx, by, mid, last)
                v = node_id(bx, by + 1, mid, 0)
                net.add_edge(u, v, net.euclidean_distance(u, v) / arterial_speedup)
                for col in (0, last):
                    a = node_id(bx, by, col, last)
                    b = node_id(bx, by + 1, col, 0)
                    net.add_edge(a, b)
    return net


def scale_free_network(
    num_nodes: int,
    attachment: int = 2,
    extent: float = 10.0,
    seed: int = 0,
) -> RoadNetwork:
    """Barabási–Albert preferential-attachment network with hub nodes.

    Not a road topology: scale-free graphs model the *logical* networks a
    production directions service also serves (transit systems with hub
    stations, flight networks, multimodal overlays).  Their heavy-tailed
    degree distribution is the stress case for preprocessing-based engines
    — contracting a hub is expensive — which is exactly why the search
    benchmarks exercise them next to grids.

    Nodes are placed uniformly at random in an ``extent x extent`` square;
    each new node attaches to ``attachment`` distinct existing nodes chosen
    proportionally to degree, and edge weights are Euclidean lengths.
    Connected by construction.

    Parameters
    ----------
    num_nodes:
        Total nodes (must exceed ``attachment``).
    attachment:
        Edges each arriving node brings (the BA ``m`` parameter, >= 1).
    extent:
        Side of the square the nodes are scattered in.
    seed:
        RNG seed.
    """
    if attachment < 1:
        raise ValueError("attachment must be >= 1")
    if num_nodes <= attachment:
        raise ValueError("num_nodes must exceed attachment")
    rng = random.Random(seed)
    net = RoadNetwork(directed=False)
    for node in range(num_nodes):
        net.add_node(node, rng.uniform(0.0, extent), rng.uniform(0.0, extent))

    # Seed clique keeps the first preferential draws well-defined.
    core = attachment + 1
    for u in range(core):
        for v in range(u + 1, core):
            net.add_edge(u, v)
    # Every edge endpoint lands here once, so sampling the list uniformly
    # is sampling nodes proportionally to degree (the BA trick).
    endpoints: list[int] = []
    for u in range(core):
        for v in range(u + 1, core):
            endpoints.extend((u, v))
    for node in range(core, num_nodes):
        chosen: set[int] = set()
        while len(chosen) < attachment:
            chosen.add(endpoints[rng.randrange(len(endpoints))])
        for target in chosen:
            net.add_edge(node, target)
            endpoints.extend((node, target))
    return net
