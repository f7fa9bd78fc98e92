"""Pruned hub labeling: every lookup must equal exact SSSP, bit for bit.

The hypothesis sweep is the subsystem's strongest net: random weighted
graphs (directed and undirected, connectivity not required), every pair
``(s, t)``, ``hub_distance == dijkstra_reference`` exactly — the pruning is
provably lossless and the integer-weight contract makes the two different
summation orders land on the same float.  A second sweep adds real weights
and checks the *served* answer (``LabelIndex.dist``): off the integer
contract the index must answer from exact rows, never from a hub sum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import dijkstra_reference
from repro.core.framework import stepping_sssp
from repro.core.policies import BellmanFordPolicy, DeltaStarPolicy, RhoPolicy
from repro.graphs import Graph, rmat, road_grid
from repro.labels import (
    HubLabels,
    LabelBundle,
    LabelIndex,
    build_hub_labels,
    build_landmarks,
    hub_distance,
)
from repro.utils.errors import LabelFormatError


_INTEGER_WEIGHTS = st.integers(1, 64).map(float)


@st.composite
def random_graphs(draw, weights=_INTEGER_WEIGHTS):
    n = draw(st.integers(2, 24))
    m = draw(st.integers(1, 90))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(weights, min_size=m, max_size=m))
    directed = draw(st.booleans())
    return Graph.from_edges(
        n, np.array(src), np.array(dst), np.array(w, dtype=float),
        directed=directed, symmetrize=not directed,
    )


@given(random_graphs())
@settings(max_examples=50, deadline=None)
def test_hub_lookup_equals_dijkstra_every_pair(g):
    labels = build_hub_labels(g)
    for s in range(g.n):
        ref = dijkstra_reference(g, s)
        for t in range(g.n):
            d = hub_distance(labels, s, t)
            assert d == ref[t] or (np.isinf(d) and np.isinf(ref[t])), (
                f"hub_distance({s}, {t}) = {d!r}, Dijkstra says {ref[t]!r}"
            )


@given(random_graphs(weights=st.one_of(
    _INTEGER_WEIGHTS,
    st.floats(min_value=2.0**-10, max_value=2.0**10, exclude_min=True),
)))
@settings(max_examples=60, deadline=None)
def test_index_never_serves_wrong_on_real_weights(g):
    # The served sweep over the whole accepted weight domain: on real
    # weights a raw hub sum can round differently from the path-ordered
    # distance, so the index must route around it — never serve it.
    index = LabelIndex(g, LabelBundle(
        fingerprint=g.fingerprint,
        landmarks=build_landmarks(g, min(4, g.n)),
        hubs=build_hub_labels(g),
    ))
    for s in range(g.n):
        ref = dijkstra_reference(g, s)
        for t in range(g.n):
            d = index.dist(s, t)
            assert d == ref[t] or (np.isinf(d) and np.isinf(ref[t])), (
                f"index.dist({s}, {t}) = {d!r}, Dijkstra says {ref[t]!r}"
            )
    assert index.stats["bound_violations"] == 0
    if g.exact_sums:
        assert index.stats["fallbacks"] == 0


@pytest.mark.parametrize("policy", [
    lambda: BellmanFordPolicy(),
    lambda: RhoPolicy(64),
    lambda: DeltaStarPolicy(2**13),
])
def test_hub_lookup_bit_identical_to_stepping_policies(policy):
    # The cross-policy pin: hub sums are bit-identical to the stepping
    # framework's path-ordered sums (exact integers in float64).
    g = rmat(8, 8, seed=11)
    labels = build_hub_labels(g)
    rng = np.random.default_rng(2)
    for s in map(int, rng.integers(0, g.n, 5)):
        dist = stepping_sssp(g, s, policy()).dist
        for t in map(int, rng.integers(0, g.n, 40)):
            d = hub_distance(labels, s, t)
            assert d == dist[t] or (np.isinf(d) and np.isinf(dist[t]))


def test_build_deterministic():
    g = rmat(7, 6, seed=3)
    a = build_hub_labels(g)
    b = build_hub_labels(g)
    assert np.array_equal(a.order, b.order)
    assert np.array_equal(a.out_hubs, b.out_hubs)
    assert np.array_equal(a.out_dists, b.out_dists)


def test_labels_small_on_road_graph():
    # Pruning is what keeps labels sublinear; a grid's labels must be far
    # smaller than n per vertex.
    g = road_grid(12, seed=1)
    labels = build_hub_labels(g)
    assert labels.avg_label_size < g.n / 4


def test_undirected_aliases_in_out():
    g = rmat(7, 6, seed=5)
    labels = build_hub_labels(g)
    assert labels.in_hubs is labels.out_hubs
    assert labels.total_entries == len(labels.out_hubs)


def test_directed_separate_sides():
    g = rmat(7, 6, seed=6, directed=True)
    labels = build_hub_labels(g)
    assert labels.in_hubs is not labels.out_hubs
    ref = dijkstra_reference(g, 0)
    for t in range(0, g.n, 9):
        d = hub_distance(labels, 0, t)
        assert d == ref[t] or (np.isinf(d) and np.isinf(ref[t]))


def test_hub_ranks_strictly_increasing():
    g = rmat(7, 8, seed=7)
    labels = build_hub_labels(g)
    for v in range(g.n):
        hubs, _ = labels.out_label(v)
        assert np.all(np.diff(hubs) > 0)


def _tamper(labels, **overrides) -> HubLabels:
    fields = dict(
        order=labels.order,
        out_indptr=labels.out_indptr, out_hubs=labels.out_hubs,
        out_dists=labels.out_dists,
        in_indptr=labels.in_indptr, in_hubs=labels.in_hubs,
        in_dists=labels.in_dists,
        fingerprint=labels.fingerprint,
    )
    fields.update(overrides)
    return HubLabels(**fields)


def test_validate_names_offenders():
    g = rmat(6, 6, seed=2)
    labels = build_hub_labels(g)
    bad_d = np.array(labels.out_dists, copy=True)
    bad_d[0] = -1.0
    with pytest.raises(LabelFormatError, match="finite"):
        _tamper(labels, out_dists=bad_d, in_dists=bad_d).validate(g)
    bad_h = np.array(labels.out_hubs, copy=True)
    bad_h[0] = g.n + 5
    with pytest.raises(LabelFormatError, match="rank range"):
        _tamper(labels, out_hubs=bad_h, in_hubs=bad_h).validate(g)
    bad_order = np.array(labels.order, copy=True)
    bad_order[0] = bad_order[1]
    with pytest.raises(LabelFormatError, match="permutation"):
        _tamper(labels, order=bad_order).validate(g)
    with pytest.raises(LabelFormatError, match="fingerprint"):
        _tamper(labels, fingerprint="bogus").validate(g)
