"""Online incremental clustering of encoded sequences into a dendrogram.

Each arriving sequence carries an N x f encoding matrix.  It joins the
closest sufficiently-similar node (squared Frobenius distance to the
node's running mean), or starts a new top-level leaf.  After a leaf grows
it is tentatively split in two; depending on how much tighter the parts
are than the whole, the leaf is replaced by them, keeps them as children,
or stays as it was.

Node statistics (mean encoding and mean squared distance to it) cover the
node's whole subtree and are maintained incrementally with Welford
updates; structural changes recompute them from the stored members.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .ioutil import check_int, check_number, is_integer, malformed, median_of_sorted, write_json

_SPLIT_ITERS = 50
_CACHE_TOL = 1e-10  # largest deviation validate_caches accepts


@dataclass
class ClusterConfig:
    """Thresholds of the insertion rule.

    ``k_rmv`` gates replacing a leaf by its two halves, ``k_clust`` gates
    keeping the halves as children; both compare the halves' mean intra
    distance to the whole leaf's.  ``gamma`` scales the similarity floor
    that lets thin nodes accept joiners (a multiple of the running median
    accepted-join distance; the median resists poisoning by one early
    cross-cluster join).  With squared distances a fresh point sits about
    twice as far from a singleton as the typical accepted join, so the
    default floor factor is 2.5; at 1.0 well-separated streams shatter
    into singletons.  ``split_min`` defers the tentative split until a
    leaf has enough members for meaningful part statistics; two-member
    leaves always split into singleton halves with a zero ratio, so
    gating on size is what keeps growing clusters intact.  ``dup_eps``
    joins unconditionally when the distance is below this fraction of the
    encoding's own squared norm: near-identical descriptors belong
    together no matter how tight the target node is.
    """

    k_clust: float = 0.7
    k_rmv: float = 0.3
    gamma: float = 2.5
    split_min: int = 6
    dup_eps: float = 1e-3

    def __post_init__(self):
        for name, high in (("k_clust", 1.0), ("k_rmv", 1.0), ("gamma", np.inf)):
            check_number(name, getattr(self, name), high)
        if self.k_rmv > self.k_clust:
            raise ValueError("k_rmv must not exceed k_clust")
        check_int("split_min", self.split_min, 2)
        check_number("dup_eps", self.dup_eps, positive=False)


@dataclass
class DendroNode:
    """One cluster node; direct members live only on leaves."""

    node_id: int
    parent: "DendroNode | None" = None
    children: list["DendroNode"] = field(default_factory=list)
    member_ids: list[str] = field(default_factory=list)
    member_r: list[np.ndarray] = field(default_factory=list)
    count: int = 0
    mean: np.ndarray | None = None
    m2: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def intra(self) -> float:
        """Mean squared Frobenius distance of subtree members to the mean."""
        return self.m2 / self.count if self.count else 0.0

    def welford_add(self, r: np.ndarray) -> None:
        self.count += 1
        if self.mean is None:
            self.mean = r.copy()
            self.m2 = 0.0
            return
        delta = r - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 += float(np.sum(delta * (r - self.mean)))

    def walk(self):
        """This node and its subtree in preorder, children in list order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtree_members(self) -> tuple[list[str], list[np.ndarray]]:
        nodes = list(self.walk())
        return [sid for n in nodes for sid in n.member_ids], [r for n in nodes for r in n.member_r]


@dataclass(frozen=True)
class PlacementRecord:
    """Which insertion path fired and the nodes it touched."""

    source_id: str
    path: str  # new_root | joined_leaf | joined_internal
    node_id: int
    split: str | None = None  # replaced | children | discarded
    split_ids: tuple[int, int] | None = None


def _stats_of(mats: list[np.ndarray]) -> tuple[np.ndarray, float]:
    stacked = np.stack(mats)
    mean = stacked.mean(axis=0)
    m2 = float(((stacked - mean[None]) ** 2).sum())
    return mean, m2


def dist(r: np.ndarray, node: DendroNode) -> float:
    """Squared Frobenius distance between an encoding and a node's mean."""
    if node.count == 0 or node.mean is None:
        raise ValueError("distance to an empty node is undefined")
    delta = r - node.mean
    return float((delta * delta).sum())


def _two_means(points: np.ndarray):
    """Deterministic 2-means: farthest-pair start, up to 50 sweeps.

    Returns a boolean part assignment, or None when the points collapse
    into a single part.
    """
    m = points.shape[0]
    flat = points.reshape(m, -1)
    sq = ((flat[:, None, :] - flat[None, :, :]) ** 2).sum(-1)
    i0, j0 = np.unravel_index(int(np.argmax(sq)), sq.shape)
    if sq[i0, j0] <= 0.0:
        return None
    c0, c1 = flat[min(i0, j0)], flat[max(i0, j0)]
    assign = None
    for _ in range(_SPLIT_ITERS):
        d0 = ((flat - c0[None]) ** 2).sum(1)
        d1 = ((flat - c1[None]) ** 2).sum(1)
        new_assign = d1 < d0
        if assign is not None and bool(np.all(new_assign == assign)):
            break
        assign = new_assign
        if assign.all() or not assign.any():
            return None
        c0 = flat[~assign].mean(0)
        c1 = flat[assign].mean(0)
    return assign


class Dendrogram:
    """The growing cluster forest plus the running join-distance scale."""

    def __init__(self, cfg: ClusterConfig | None = None):
        self.cfg = cfg or ClusterConfig()
        self.roots: list[DendroNode] = []
        self._ids = itertools.count()
        self._join_dists: list[float] = []  # accepted join distances, kept sorted
        self._member_ids: set[str] = set()
        self.records: list[PlacementRecord] = []

    # -- bookkeeping -------------------------------------------------

    def _typical_join(self) -> float | None:
        """The median accepted join distance (``median_of_sorted`` of the sorted distances); None before the
        first join."""
        return median_of_sorted(self._join_dists) if self._join_dists else None

    def nodes(self) -> list[DendroNode]:
        return [node for root in self.roots for node in root.walk()]

    def size(self) -> int:
        return sum(root.count for root in self.roots)

    # -- insertion ---------------------------------------------------

    def _candidates(self, r: np.ndarray) -> DendroNode | None:
        typical = self._typical_join()
        # before the first join there is no distance scale and every node accepts
        floor = max(self.cfg.gamma * typical if typical is not None else np.inf,
                    self.cfg.dup_eps * float((r * r).sum()))
        best: tuple[float, int, DendroNode] | None = None
        for node in self.nodes():
            d = dist(r, node)
            if d <= max(node.intra, floor):
                if best is None or (d, node.node_id) < (best[0], best[1]):
                    best = (d, node.node_id, node)
        return best[2] if best else None

    def _try_split(self, leaf: DendroNode):
        """Tentative 2-means split of a leaf; returns (outcome, ids)."""
        if len(leaf.member_ids) < self.cfg.split_min:
            return None, None
        if leaf.intra <= self.cfg.dup_eps * float((leaf.mean * leaf.mean).sum()):
            # members are identical at descriptor resolution; any 2-means
            # partition of their numerical micro-noise would be spurious
            return None, None
        assign = _two_means(np.stack(leaf.member_r))
        if assign is None:
            return "discarded", None
        # numbered only when kept, so a discarded split uses up no node ids
        halves = [DendroNode(node_id=-1), DendroNode(node_id=-1)]
        for flag, sid, r in zip(assign, leaf.member_ids, leaf.member_r):
            halves[int(flag)].member_ids.append(sid)
            halves[int(flag)].member_r.append(r)
        for half in halves:
            half.mean, half.m2 = _stats_of(half.member_r)
            half.count = len(half.member_r)
        ratio = (halves[0].intra + halves[1].intra) / (2.0 * leaf.intra) if leaf.intra > 0 else np.inf
        if ratio <= self.cfg.k_rmv:
            outcome, parent = "replaced", leaf.parent
            siblings = parent.children if parent is not None else self.roots
            pos = siblings.index(leaf)
            siblings[pos:pos + 1] = halves
        elif ratio <= self.cfg.k_clust:
            outcome, parent = "children", leaf
            leaf.children, leaf.member_ids, leaf.member_r = halves, [], []
        else:
            return "discarded", None
        for half in halves:
            half.parent, half.node_id = parent, next(self._ids)
        return outcome, (halves[0].node_id, halves[1].node_id)

    def insert(self, source_id: str, r) -> PlacementRecord:
        """Place one encoded sequence, given as its N x f encoding array.

        An id already in the tree, an encoding of another shape than the
        tree's, one that is not a non-empty 2-d matrix, or one that is not
        finite is a DataError, raised before anything is recorded.
        """
        r = np.asarray(r, dtype=np.float64)
        if source_id in self._member_ids:
            raise DataError(f"sequence id {source_id!r} is already in the tree")
        if self.roots and r.shape != self.roots[0].mean.shape:
            raise DataError(
                f"encoding shape {r.shape} does not match the tree's {self.roots[0].mean.shape}"
            )
        if r.ndim != 2 or not r.size:
            raise DataError(f"encoding of {source_id!r} has shape {r.shape}, expected a non-empty N x f matrix")
        if not np.isfinite(r).all():
            raise DataError(f"encoding of {source_id!r} is not finite")
        self._member_ids.add(source_id)
        winner = self._candidates(r) if self.roots else None
        if winner is None:
            target = DendroNode(next(self._ids))
            self.roots.append(target)
        else:
            bisect.insort(self._join_dists, dist(r, winner))
            target = winner if winner.is_leaf else DendroNode(next(self._ids), winner)
            if target is not winner:
                winner.children.append(target)
        target.member_ids.append(source_id)
        target.member_r.append(r)
        node = target
        while node is not None:
            node.welford_add(r)
            node = node.parent
        if winner is None:
            record = PlacementRecord(source_id, "new_root", target.node_id)
        elif target is winner:
            split, split_ids = self._try_split(winner)
            record = PlacementRecord(source_id, "joined_leaf", winner.node_id, split, split_ids)
        else:
            record = PlacementRecord(source_id, "joined_internal", winner.node_id)
        self.records.append(record)
        return record

    # -- queries -----------------------------------------------------

    def flat_clusters(self) -> dict[str, int]:
        """Map every inserted id to its top-level node id."""
        if not self.roots:
            raise DataError("empty tree")
        return {sid: root.node_id for root in self.roots for node in root.walk() for sid in node.member_ids}

    def validate_caches(self) -> float:
        """Compare cached statistics to from-scratch recomputation.

        Returns the worst absolute deviation; raises if it exceeds
        ``_CACHE_TOL`` or if members are lost or duplicated.
        """
        worst = 0.0
        seen_ids: list[str] = []
        for node in self.nodes():
            ids, mats = node.subtree_members()
            if node.is_leaf:
                seen_ids.extend(ids)
            if len(ids) != node.count:
                raise AssertionError(f"node {node.node_id}: count {node.count} != {len(ids)}")
            mean, m2 = _stats_of(mats)
            worst = max(worst, float(np.abs(node.mean - mean).max()))
            worst = max(worst, abs(node.intra - m2 / len(mats)))
        root_total = sum(root.count for root in self.roots)
        if len(seen_ids) != len(set(seen_ids)) or root_total != len(set(seen_ids)):
            raise AssertionError("membership conservation violated")
        if worst > _CACHE_TOL:
            raise AssertionError(f"cached statistics deviate by {worst:.3e}")
        return worst

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict:
        def node_dict(node: DendroNode) -> dict:
            return {
                "id": node.node_id,
                "members": list(node.member_ids),
                "count": node.count,
                "intra": node.intra,
                "children": [node_dict(c) for c in node.children],
            }

        return {
            "config": asdict(self.cfg),
            "join_count": len(self._join_dists),
            "typical_join_distance": self._typical_join(),
            "roots": [node_dict(r) for r in self.roots],
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    def to_dot(self) -> str:
        """Graphviz description of the dendrogram."""
        lines = ["digraph dendrogram {", "  node [shape=box];"]
        for node in self.nodes():
            label = f"#{node.node_id} n={node.count} intra={node.intra:.3g}"
            if node.is_leaf and node.member_ids:
                shown = ", ".join(node.member_ids[:4])
                if len(node.member_ids) > 4:
                    shown += ", ..."
                label += f"\\n{shown}"
            lines.append(f'  n{node.node_id} [label="{label}"];')
            for child in node.children:
                lines.append(f"  n{node.node_id} -> n{child.node_id};")
        lines.append("}")
        return "\n".join(lines)


def flat_clusters_from_dict(tree: dict) -> dict[str, int]:
    """Top-level assignment from a serialized tree (as written by save).

    Each node id must be an integer (``is_integer``), each node's members a
    list, and each member listed once.
    """
    out: dict[str, int] = {}

    def collect(node: dict, top: int) -> None:
        if not is_integer(node["id"]):
            raise TypeError(f"node id {node['id']!r} is not an integer")
        if not isinstance(node["members"], list):
            raise TypeError(f"members {node['members']!r} is not a list")
        for sid in node["members"]:
            if sid in out:
                raise DataError(f"serialized tree lists {sid!r} under two nodes")
            out[sid] = top
        for child in node["children"]:
            collect(child, top)

    with malformed("malformed serialized tree"):
        for root in tree["roots"]:
            collect(root, root["id"])
    if not out:
        raise DataError("serialized tree has no members")
    return out
