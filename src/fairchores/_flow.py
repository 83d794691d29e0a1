"""Exact max-flow with integer capacities, by blocking flows (Dinic 1970).

Python ints keep capacities and flows exact at any magnitude; callers with
rational capacities scale them to a common denominator first. Adjacency lists
keep insertion order, and every search visits them in that order.
``reachable(source)`` after ``max_flow`` is the source side of the minimal
minimum cut, the same set for every maximum flow.

Callers also read per-edge flows, which differ between maximum flows. From
zero flow, ``max_flow`` pushes the same paths in the same order as
Edmonds-Karp (breadth-first search in adjacency order), so both leave the same
residual on every edge. Each phase labels nodes by their residual distance
*to the sink*, by a backward breadth-first search that stops once it labels
the source, at distance d. An edge is admissible when it has residual left and
leads from a node at distance k to one at k - 1. Order paths by the adjacency
positions of their edges:

- A residual path of length d from the source is a shortest one, and its
  k-th node lies at distance exactly d - k, so it is made of admissible
  edges; an admissible path is one of length d. So the admissible paths from
  the source are the shortest residual paths, the same set as in the level
  graph of distances from the source, searched in the same order. Every
  admissible edge leads toward the sink: at the phase's start the search
  meets no dead end.
- Edmonds-Karp's search returns the first shortest residual path in that
  order, since it labels each level's nodes in that order.
- Against the labels at the phase's start, a residual edge leads at most one
  step closer to the sink and the reverse of a pushed edge one step away. So
  every residual path of length d is admissible, and no new reverse edge is
  on one.
- The current-arc depth-first search returns the first admissible path with
  residual left on every edge. An arc it skips is saturated or leads to a
  node whose admissible edges are all saturated, and stays so: residuals on
  admissible edges only fall in a phase. After a push it resumes at the tail
  of the first saturated edge, with the path's prefix, where the next path in
  that order begins.

Both push the bottleneck of the same path through ``_augment``, and the phase
ends when Edmonds-Karp's next path would be longer. Nothing here uses the
zero start, so from any starting flow both push the same paths too.

``reachable`` does not depend on the starting flow either. A network may
enter ``max_flow`` carrying any feasible flow, such as the one an earlier
call left, and ``max_flow`` then augments it to some maximum flow. Every
maximum flow has the same residual source side: the nodes left reachable
from the source form the smallest minimum cut, which is a property of the
capacities alone. So a caller that reads only ``reachable`` may start from
any feasible flow, and one that reads per-edge flows must start from zero.
Between two calls a caller may change capacities and flows by writing
``residual`` (an edge's capacity minus its flow, and its reverse's flow),
add edges, or ``unlink`` edges without flow, as long as the flow stays
feasible. Raising a capacity keeps it feasible by itself, and the second
call's paths end at the sink, so they lower no flow into it.

An edge added with capacity ``None`` is uncapped; its residual never runs out.
There is no large-number stand-in for infinity. A path made only of uncapped
edges would carry unbounded flow, and ``max_flow`` raises ``ValueError`` on
one rather than loop.
"""

from __future__ import annotations

from typing import Optional


class FlowNetwork:
    """Directed network on the nodes ``0 .. nodes-1``."""

    def __init__(self, nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(nodes)]
        # Edge 2k is the k-th added edge and 2k+1 its reverse. Only residual
        # capacities are kept (None on an uncapped edge): the flow on an edge
        # is the residual of its reverse.
        self.head: list[int] = []
        self.residual: list[Optional[int]] = []

    def add_edge(self, u: int, v: int, capacity: Optional[int]) -> int:
        """Add a directed edge without flow, and its reverse; returns the
        edge index. ``capacity`` is a non-negative int, or ``None`` for an
        uncapped edge."""
        index = len(self.head)
        self.head += (v, u)
        self.residual += (capacity, 0)
        self.adj[u].append(index)
        self.adj[v].append(index + 1)
        return index

    def unlink(self, index: int) -> None:
        """Take an edge and its reverse out of the adjacency lists, so no
        search sees them again. Other edges keep their indices."""
        self.adj[self.head[index ^ 1]].remove(index)
        self.adj[self.head[index]].remove(index ^ 1)

    def flow_value(self, index: int) -> int:
        """Flow on an edge, given the index ``add_edge`` returned."""
        return self.residual[index ^ 1]

    def _augment(self, path: list[int]) -> int:
        """Push the bottleneck of ``path``, a list of edge indices; returns it."""
        residual = self.residual
        finite = [residual[index] for index in path if residual[index] is not None]
        if not finite:
            raise ValueError("unbounded flow: an augmenting path has only uncapped edges")
        bottleneck = min(finite)
        for index in path:
            if residual[index] is not None:
                residual[index] -= bottleneck
            if residual[index ^ 1] is not None:
                residual[index ^ 1] += bottleneck
        return bottleneck

    def max_flow(self, source: int, sink: int) -> int:
        """Augment by blocking flows until the sink is cut off; returns the
        amount added to the flow the network started with."""
        adj, head, residual = self.adj, self.head, self.residual
        size = len(adj)
        total = 0
        while True:
            # Distances to the sink over residual edges: the edge into
            # ``node`` from ``head[index]`` is ``index ^ 1``.
            # The queue is a list read in order as it grows.
            dist = [-1] * size
            dist[sink] = 0
            queue = [sink]
            for node in queue:
                step = dist[node] + 1
                for index in adj[node]:
                    u = head[index]
                    if dist[u] < 0 and residual[index ^ 1] != 0:
                        dist[u] = step
                        queue.append(u)
                        if u == source:
                            break
                else:
                    continue
                break
            if dist[source] < 0:
                return total
            # Depth-first search along admissible edges. ``arc[u]`` is the
            # first edge of ``u`` not yet known to be saturated or to lead to
            # a node with no admissible edge left; ``path`` holds the edges
            # from the source to ``node``.
            arc = [0] * size
            path: list[int] = []
            node = source
            while True:
                if node == sink:
                    total += self._augment(path)
                    # Resume from the tail of the first saturated edge.
                    cut = next(k for k, index in enumerate(path) if residual[index] == 0)
                    node = head[path[cut] ^ 1]
                    del path[cut:]
                    continue
                edges, want = adj[node], dist[node] - 1
                for k in range(arc[node], len(edges)):
                    index = edges[k]
                    if residual[index] != 0 and dist[head[index]] == want:
                        arc[node] = k
                        path.append(index)
                        node = head[index]
                        break
                else:
                    arc[node] = len(edges)
                    if not path:
                        break
                    # Dead end: retreat and skip the edge that led here.
                    node = head[path.pop() ^ 1]
                    arc[node] += 1

    def reachable(self, source: int) -> set[int]:
        """Nodes reachable from ``source`` in the residual graph."""
        adj, head, residual = self.adj, self.head, self.residual
        seen = {source}
        queue = [source]
        for node in queue:
            for index in adj[node]:
                v = head[index]
                if v not in seen and residual[index] != 0:
                    seen.add(v)
                    queue.append(v)
        return seen
