"""Exact max-flow with integer capacities.

Plain BFS augmentation (Edmonds-Karp) over Python ints, so capacities and
flows stay exact at any magnitude and the result is deterministic: adjacency
lists keep insertion order, and the search visits them in that order. Callers
with rational capacities scale them to a common denominator first.

An edge added with capacity ``None`` is uncapped; its residual never runs out.
There is no large-number stand-in for infinity. A path made only of uncapped
edges would carry unbounded flow, and ``max_flow`` raises ``ValueError`` on
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
        total = 0
        while True:
            pushed = self._augment(source, sink)
            if pushed == 0:
                return total
            total += pushed

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
