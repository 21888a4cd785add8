import hashlib
import json

import numpy as np
import pytest

from mkdmts.errors import DataError
from mkdmts.inclust import (
    ClusterConfig,
    Dendrogram,
    DendroNode,
    dist,
    flat_clusters_from_dict,
)


def _blob_points(rng, center, n, noise=0.03):
    return [center + rng.normal(0, noise, size=center.shape) for _ in range(n)]


def _two_blob_stream(rng, n_per=20, sep=1.0, noise=0.03, shape=(8, 4)):
    c0 = np.zeros(shape)
    c0[0, 0] = sep
    c1 = np.zeros(shape)
    c1[4, 2] = sep
    pts = [(f"a{i}", 0, p) for i, p in enumerate(_blob_points(rng, c0, n_per, noise))]
    pts += [(f"b{i}", 1, p) for i, p in enumerate(_blob_points(rng, c1, n_per, noise))]
    return pts


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(k_clust=0.2, k_rmv=0.5)
    with pytest.raises(ValueError):
        ClusterConfig(gamma=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(k_clust=1.5)
    with pytest.raises(ValueError):
        ClusterConfig(split_min=1)


def test_dist_examples(rng):
    node = DendroNode(node_id=0)
    r0 = rng.uniform(size=(3, 2))
    node.member_ids.append("a")
    node.member_r.append(r0)
    node.welford_add(r0)
    assert dist(r0, node) == 0.0
    delta = rng.normal(size=(3, 2))
    assert dist(r0 + delta, node) == pytest.approx(float((delta**2).sum()), rel=1e-12)


def test_dist_empty_node():
    with pytest.raises(ValueError, match="empty"):
        dist(np.zeros((2, 2)), DendroNode(node_id=0))


def test_first_insert_creates_top_level_leaf(rng):
    tree = Dendrogram()
    rec = tree.insert("z0", rng.uniform(size=(4, 2)))
    assert rec.path == "new_root"
    assert len(tree.roots) == 1 and tree.roots[0].is_leaf
    assert tree.flat_clusters() == {"z0": tree.roots[0].node_id}


def test_two_blobs_random_order_two_pure_top_level_leaves(rng):
    pts = _two_blob_stream(rng)
    order = np.random.default_rng(5).permutation(len(pts))
    tree = Dendrogram(ClusterConfig())
    for idx in order:
        sid, _, r = pts[idx]
        tree.insert(sid, r)
    assert len(tree.roots) == 2
    flat = tree.flat_clusters()
    truth = {sid: cls for sid, cls, _ in pts}
    for root in tree.roots:
        ids, _ = root.subtree_members()
        assert len({truth[i] for i in ids}) == 1  # pure
    assert tree.size() == len(pts)


def test_leaf_with_two_tight_subblobs_is_replaced(rng):
    # construct members whose 2-means halves are far tighter than the whole
    base = np.zeros((4, 2))
    tree = Dendrogram(ClusterConfig(k_clust=0.7, k_rmv=0.3, gamma=2.5, split_min=6))
    sub0 = [base + 0.001 * rng.normal(size=(4, 2)) for _ in range(3)]
    shifted = base.copy()
    shifted[2, 1] = 0.35
    sub1 = [shifted + 0.001 * rng.normal(size=(4, 2)) for _ in range(3)]
    stream = [sub0[0], sub1[0], sub0[1], sub1[1], sub0[2], sub1[2]]
    records = []
    for i, r in enumerate(stream):
        records.append(tree.insert(f"m{i}", r))
    assert records[-1].split == "replaced"
    assert len(tree.roots) == 2
    tree.validate_caches()


def test_children_attach_keeps_flat_assignment(rng):
    # moderately tighter halves: keep the leaf, push members into children
    base = np.zeros((2, 2))
    pts = []
    for i in range(8):
        p = base + 0.3 * rng.normal(size=(2, 2))
        pts.append(p)
    tree = Dendrogram(ClusterConfig(k_clust=0.95, k_rmv=0.05, gamma=50.0, split_min=4))
    for i, r in enumerate(pts):
        tree.insert(f"m{i}", r)
    # whatever structure formed, every member maps to a top-level root
    flat = tree.flat_clusters()
    assert set(flat) == {f"m{i}" for i in range(8)}
    root_ids = {r.node_id for r in tree.roots}
    assert set(flat.values()) <= root_ids
    children_events = [r for r in tree.records if r.split == "children"]
    if children_events:  # structure under a root never changes the flat id
        tree.validate_caches()


def test_internal_winner_gets_new_leaf_child():
    # hand-build an internal node, then insert a point nearest to it but
    # far from both child means: the insert must become a new leaf child
    tree = Dendrogram(ClusterConfig())
    parent = DendroNode(next(tree._ids))
    tree.roots.append(parent)
    rng = np.random.default_rng(0)
    for prefix, level in (("l", 0.0), ("r", 1.0)):
        child = DendroNode(next(tree._ids), parent)
        for i in range(3):
            r = np.full((2, 2), level) + 0.01 * rng.normal(size=(2, 2))
            child.member_ids.append(f"{prefix}{i}")
            child.member_r.append(r)
            child.welford_add(r)
            parent.welford_add(r)
        parent.children.append(child)
    query = np.full((2, 2), 0.5)  # near the parent mean, far from either child
    rec = tree.insert("query", query)
    assert rec.path == "joined_internal"
    assert rec.node_id == parent.node_id
    assert any(c.member_ids == ["query"] for c in parent.children)
    tree.validate_caches()


def test_cache_exactness_and_conservation_after_random_inserts(rng):
    tree = Dendrogram(ClusterConfig())
    centers = [rng.normal(size=(5, 3)) for _ in range(4)]
    for i in range(300):
        c = centers[int(rng.integers(4))]
        tree.insert(f"s{i}", c + rng.normal(0, 0.05, size=c.shape))
    worst = tree.validate_caches()
    assert worst <= 1e-10
    assert tree.size() == 300


def test_determinism(rng):
    def build(seed):
        gen = np.random.default_rng(seed)
        tree = Dendrogram(ClusterConfig())
        centers = [gen.normal(size=(4, 2)) for _ in range(3)]
        for i in range(120):
            c = centers[int(gen.integers(3))]
            tree.insert(f"s{i}", c + gen.normal(0, 0.04, size=c.shape))
        return tree

    assert build(9).to_dict() == build(9).to_dict()


def test_flat_clusters_requires_members():
    with pytest.raises(DataError, match="empty"):
        Dendrogram().flat_clusters()


def test_shape_mismatch_rejected(rng):
    tree = Dendrogram()
    tree.insert("a", rng.uniform(size=(3, 2)))
    with pytest.raises(DataError, match="shape"):
        tree.insert("b", rng.uniform(size=(2, 3)))


def test_duplicate_id_rejected_and_tree_unchanged(rng):
    tree = Dendrogram()
    tree.insert("a", rng.uniform(size=(3, 2)))
    before = json.dumps(tree.to_dict(), sort_keys=True)
    with pytest.raises(DataError, match="'a' is already in the tree"):
        tree.insert("a", rng.uniform(size=(3, 2)))
    assert json.dumps(tree.to_dict(), sort_keys=True) == before
    assert len(tree.records) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_encoding_rejected_and_tree_unchanged(bad):
    tree = Dendrogram()
    tree.insert("a", np.ones((3, 2)))
    tree.insert("b", 1.01 * np.ones((3, 2)))
    before = json.dumps(tree.to_dict(), sort_keys=True)
    for r in (np.full((3, 2), bad), np.where(np.eye(3, 2) > 0, bad, 1.0)):
        with pytest.raises(DataError, match="encoding of 'c' is not finite"):
            tree.insert("c", r)
    assert json.dumps(tree.to_dict(), sort_keys=True) == before
    assert len(tree.records) == 2 and tree.flat_clusters() == {"a": 0, "b": 0}
    tree.insert("c", np.ones((3, 2)))  # the id was not taken by the rejected inserts
    tree.validate_caches()


def test_typical_join_is_np_median_after_every_insert():
    gen = np.random.default_rng(3)
    tree, counts = Dendrogram(ClusterConfig()), set()
    centers = [gen.normal(size=(4, 2)) for _ in range(3)]
    for i in range(90):
        c = centers[int(gen.integers(3))]
        tree.insert(f"s{i}", c + gen.normal(0, 0.04 * gen.uniform(0.5, 2.0), size=c.shape))
        typical, joins = tree._typical_join(), tree.to_dict()["join_count"]
        if joins == 0:
            assert typical is None
            continue
        expected = float(np.median(tree._join_dists))
        assert typical == expected and np.float64(typical).tobytes() == np.float64(expected).tobytes()
        assert tree._join_dists == sorted(tree._join_dists) and len(tree._join_dists) == joins
        counts.add(joins % 2)
    assert counts == {0, 1}


def test_serialization_round_trip(rng):
    pts = _two_blob_stream(rng, n_per=8)
    tree = Dendrogram(ClusterConfig())
    for sid, _, r in pts:
        tree.insert(sid, r)
    d = tree.to_dict()
    flat = flat_clusters_from_dict(d)
    assert flat == tree.flat_clusters()
    dot = tree.to_dot()
    assert dot.startswith("digraph") and f"n{tree.roots[0].node_id}" in dot


def test_replacement_only_when_ratio_below_krmv(rng):
    # replacement soundness: every replaced record implies k_rmv <= k_clust
    cfg = ClusterConfig()
    pts = _two_blob_stream(rng, n_per=15, noise=0.05)
    order = np.random.default_rng(2).permutation(len(pts))
    tree = Dendrogram(cfg)
    for idx in order:
        sid, _, r = pts[idx]
        tree.insert(sid, r)
    assert cfg.k_rmv <= cfg.k_clust
    tree.validate_caches()


def test_config_rejects_negative_dup_eps():
    with pytest.raises(ValueError, match="dup_eps"):
        ClusterConfig(dup_eps=-1e-4)
    with pytest.raises(ValueError, match="dup_eps"):
        ClusterConfig(dup_eps=float("nan"))


# sha256 over to_dict JSON, to_dot and repr(records) of the streams below:
# it pins node ids, intra bytes and split outcomes, which the partition
# checks of the benchmark do not see.
_PINNED_TREES_SHA256 = "86dbce145478fe891034f2187cf1a1bd63c1a80c58fc1452dacea02e5496e3fe"


def test_tree_bytes_pinned_over_seeded_streams():
    digest = hashlib.sha256()
    outcomes = set()
    for seed in range(48):
        gen = np.random.default_rng(seed)
        k = 1 + seed % 4
        spread = (0.02, 0.1, 0.3)[seed % 3]
        split_min = (2, 4, 6, 9)[(seed // 4) % 4]
        centers = [gen.normal(size=(4, 3)) for _ in range(k)]
        tree = Dendrogram(ClusterConfig(split_min=split_min))
        for i in range(40):
            c = centers[int(gen.integers(k))]
            tree.insert(f"s{seed}-{i}", c + gen.normal(0, spread, size=c.shape))
        digest.update(json.dumps(tree.to_dict(), sort_keys=True).encode())
        digest.update(tree.to_dot().encode())
        digest.update(repr(tree.records).encode())
        outcomes.update(r.split for r in tree.records)
    assert outcomes == {None, "replaced", "children", "discarded"}
    assert digest.hexdigest() == _PINNED_TREES_SHA256


@pytest.mark.parametrize("field", ["k_clust", "k_rmv", "gamma", "dup_eps"])
def test_config_rejects_a_bool_in_a_float_field(field):
    with pytest.raises(ValueError, match=f"{field} must be"):
        ClusterConfig(**{field: True})


@pytest.mark.parametrize("value", [6.5, 6.0, True])
def test_config_rejects_non_integer_split_min(value):
    with pytest.raises(ValueError, match="split_min must be an integer"):
        ClusterConfig(split_min=value)
    assert ClusterConfig(split_min=np.int64(6)).split_min == 6


@pytest.mark.parametrize("node_id", [[0], {"a": 0}, None, False, 2.0, "2"], ids=["list", "object", "null", "bool",
                                                                              "float", "string"])
def test_flat_clusters_from_dict_rejects_a_node_id_that_is_not_an_integer(node_id):
    tree = {"roots": [{"id": node_id, "members": ["a"], "children": []}]}
    with pytest.raises(DataError, match="malformed serialized tree .*is not an integer"):
        flat_clusters_from_dict(tree)
    assert flat_clusters_from_dict({"roots": [{"id": np.int64(3), "members": ["a"], "children": []}]}) == {"a": 3}
