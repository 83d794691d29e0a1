"""Exact max-flow with integer capacities.

Two algorithms over Python ints, so capacities and flows stay exact at any
magnitude and both are deterministic: adjacency lists keep insertion order,
and every search visits them in that order. Callers with rational capacities
scale them to a common denominator first.

- ``max_flow`` runs blocking flows (Dinic 1970): breadth-first levels, then
  a depth-first search with current-arc pointers. Use it when only the value
  or the cut is read: ``reachable(source)`` afterwards is the source side of
  the minimal minimum cut, the same set for every maximum flow.
- ``edmonds_karp`` pushes along one shortest path at a time (Edmonds-Karp).
  Maximum flows differ edge by edge, so callers that read per-edge flows use
  this one, from zero flow; ``reset`` returns a used network there.

An edge added with capacity ``None`` is uncapped; its residual never runs out.
There is no large-number stand-in for infinity. A path made only of uncapped
edges would carry unbounded flow, and both algorithms raise ``ValueError`` on
one rather than loop.
"""

from __future__ import annotations

from collections import deque
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
        """Add a directed edge and its reverse; returns the edge index.

        ``capacity`` is a non-negative int, or ``None`` for an uncapped edge.
        """
        index = len(self.head)
        self.head += (v, u)
        self.residual += (capacity, 0)
        self.adj[u].append(index)
        self.adj[v].append(index + 1)
        return index

    def flow_value(self, index: int) -> int:
        """Flow on an edge, given the index ``add_edge`` returned."""
        return self.residual[index ^ 1]

    def reset(self) -> None:
        """Return every edge to zero flow."""
        residual = self.residual
        for index in range(0, len(residual), 2):
            # A reverse edge starts at 0, so a finite capacity is the sum of
            # the pair's residuals; an uncapped one stays None.
            if residual[index] is not None:
                residual[index] += residual[index + 1]
            residual[index + 1] = 0

    def _augment(self, source: int, sink: int) -> int:
        """Push flow along the shortest residual path; returns the amount."""
        adj, head, residual = self.adj, self.head, self.residual
        parent: list[Optional[int]] = [None] * len(adj)  # edge into each node
        parent[source] = -1
        queue = deque([source])
        # The search stops once the sink is labelled: no later step of the
        # breadth-first order changes the path that reached it.
        while queue and parent[sink] is None:
            for index in adj[queue.popleft()]:
                v = head[index]
                # An uncapped residual is None, which is != 0 too.
                if parent[v] is None and residual[index] != 0:
                    parent[v] = index
                    queue.append(v)
        if parent[sink] is None:
            return 0
        path = []
        node = sink
        while node != source:
            index = parent[node]
            path.append(index)
            node = head[index ^ 1]
        return self._push(path)

    def _push(self, path: list[int]) -> int:
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

    def edmonds_karp(self, source: int, sink: int) -> int:
        """Augment along shortest paths until none is left; returns the amount."""
        total = 0
        while True:
            pushed = self._augment(source, sink)
            if pushed == 0:
                return total
            total += pushed

    def max_flow(self, source: int, sink: int) -> int:
        """Augment by blocking flows until the sink is cut off; returns the amount."""
        adj, head, residual = self.adj, self.head, self.residual
        total = 0
        while True:
            level = [-1] * len(adj)
            level[source] = 0
            queue = deque([source])
            while queue and level[sink] < 0:
                node = queue.popleft()
                for index in adj[node]:
                    v = head[index]
                    if level[v] < 0 and residual[index] != 0:
                        level[v] = level[node] + 1
                        queue.append(v)
            if level[sink] < 0:
                return total
            # Depth-first search of the level graph. ``arc[u]`` is the first
            # edge of ``u`` not yet known to lead nowhere; ``path`` holds the
            # edges from the source to ``node``.
            arc = [0] * len(adj)
            path: list[int] = []
            node = source
            while True:
                if node == sink:
                    total += self._push(path)
                    # Resume from the tail of the first saturated edge.
                    cut = next(k for k, index in enumerate(path) if residual[index] == 0)
                    node = head[path[cut] ^ 1]
                    del path[cut:]
                    continue
                edges, k, want = adj[node], arc[node], level[node] + 1
                while k < len(edges):
                    index = edges[k]
                    if residual[index] != 0 and level[head[index]] == want:
                        break
                    k += 1
                arc[node] = k
                if k < len(edges):
                    path.append(edges[k])
                    node = head[edges[k]]
                elif path:
                    # Dead end: retreat and skip the edge that led here.
                    node = head[path.pop() ^ 1]
                    arc[node] += 1
                else:
                    break

    def reachable(self, source: int) -> set[int]:
        """Nodes reachable from ``source`` in the residual graph."""
        adj, head, residual = self.adj, self.head, self.residual
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for index in adj[node]:
                v = head[index]
                if v not in seen and residual[index] != 0:
                    seen.add(v)
                    queue.append(v)
        return seen
