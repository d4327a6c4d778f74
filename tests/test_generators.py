"""Tests for synthetic graph generators and dataset analogues.

The generators draw endpoints from a :class:`GuideTable` and dedup edges
in array passes; both are held bit for bit to what they replaced —
``Generator.choice(p=...)`` and the per-pair ``set`` loops kept in
``tests/reference.py``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import DATASETS, DatasetSpec, dataset
from repro.graph.generators import (
    DRAW_BLOCK,
    GUIDE_BITS,
    GuideTable,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    power_law_edge_batches,
    power_law_graph,
    power_law_weights,
    random_labels,
    star_graph,
)
from tests.reference import (
    erdos_renyi_pairwise,
    power_law_edge_batches_choice,
    power_law_graph_pairwise,
)


def test_erdos_renyi_edge_count():
    g = erdos_renyi(100, 300, seed=1)
    assert g.num_edges == 300
    assert g.num_vertices == 100


def test_erdos_renyi_deterministic():
    assert erdos_renyi(50, 100, seed=9) == erdos_renyi(50, 100, seed=9)
    assert erdos_renyi(50, 100, seed=9) != erdos_renyi(50, 100, seed=10)


def test_erdos_renyi_dense_cap():
    # requesting more edges than possible caps at the complete graph
    g = erdos_renyi(5, 100, seed=0)
    assert g.num_edges == 10


def test_power_law_skew_increases_with_smaller_exponent():
    flat = power_law_graph(300, 1500, exponent=3.5, seed=4)
    skewed = power_law_graph(300, 1500, exponent=1.9, seed=4)
    assert skewed.max_degree() > flat.max_degree()


def test_power_law_max_degree_cap():
    g = power_law_graph(300, 1500, exponent=1.9, max_degree=40, seed=4)
    # the cap is on the expected degree; allow modest stochastic overshoot
    assert g.max_degree() <= 80


def test_power_law_simple_graph():
    g = power_law_graph(100, 400, seed=2)
    for v in g.vertices():
        nbrs = list(g.neighbors(v))
        assert v not in nbrs
        assert nbrs == sorted(set(nbrs))


def test_random_labels_range_and_determinism():
    g = random_labels(erdos_renyi(40, 80, seed=0), 4, seed=5)
    assert g.labels is not None
    assert set(int(x) for x in g.labels) <= set(range(4))
    g2 = random_labels(erdos_renyi(40, 80, seed=0), 4, seed=5)
    assert np.array_equal(g.labels, g2.labels)


def test_star_complete_cycle_fixture_shapes():
    assert star_graph(7).num_edges == 7
    assert complete_graph(6).num_edges == 15
    assert cycle_graph(5).num_edges == 5


# ----------------------------------------------------------------------
# dataset analogues
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_every_dataset_builds(name):
    g = dataset(name, scale=0.25)
    assert g.num_vertices > 0
    assert g.num_edges > 0


def test_dataset_relative_size_ordering():
    small = dataset("mico")
    medium = dataset("friendster")
    large = dataset("wdc")
    assert small.num_edges < medium.num_edges < large.num_edges


def test_patents_low_skew_vs_livejournal():
    """Patents is the paper's less-skewed graph; the analogue preserves it."""
    pt = dataset("patents")
    lj = dataset("livejournal")
    assert pt.max_degree() < lj.max_degree() / 3


def test_dataset_memoization():
    assert dataset("mico") is dataset("mico")
    assert dataset("mico") is not dataset("mico", scale=0.5)


def test_dataset_labeled_variant():
    g = dataset("mico", labeled=True)
    assert g.labels is not None
    assert dataset("mico").labels is None


def test_dataset_unknown_name():
    with pytest.raises(KeyError):
        dataset("nonexistent")


def test_dataset_scaling_changes_size():
    full = dataset("patents")
    half = dataset("patents", scale=0.5)
    assert half.num_vertices < full.num_vertices
    assert half.num_edges < full.num_edges


def test_spec_scaled_floors():
    spec = DatasetSpec("x", 1, 1, 100, 200, 2.0, 50, 0)
    tiny = spec.scaled(1e-9)
    assert tiny.num_vertices >= 8
    assert tiny.max_degree >= 4


def test_paper_metadata_recorded():
    spec = DATASETS["wdc"]
    assert spec.paper_edges == pytest.approx(128.7e9)
    assert spec.paper_vertices == pytest.approx(3.5e9)


# ----------------------------------------------------------------------
# the guide-table sampler against Generator.choice
# ----------------------------------------------------------------------
SIZES = [0, 1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1]


def _assert_draws_like_choice(probs, size, seed):
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = GuideTable(probs).draw(ours, size)
    expected = numpys.choice(len(probs), size=size, p=probs)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    # the same uniforms were drawn: the generators end in one state
    assert ours.random() == numpys.random()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3000),
    exponent=st.floats(1.5, 4.0),
    capped=st.booleans(),
    size=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_guide_table_equals_choice_on_power_law_weights(
        n, exponent, capped, size, seed):
    cap = max(1, n // 8) if capped else None
    probs = power_law_weights(n, 4 * n, exponent, cap)
    _assert_draws_like_choice(probs, size, seed)


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
        min_size=1, max_size=400,
    ).filter(lambda w: sum(w) > 0),
    size=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_guide_table_equals_choice_on_weights_with_zeros(
        weights, size, seed):
    weights = np.array(weights)
    _assert_draws_like_choice(weights / weights.sum(), size, seed)


class _Uniforms:
    """An ``rng`` stand-in whose ``random`` hands out fixed uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.used = 0

    def random(self, size):
        out = self.values[self.used:self.used + size]
        self.used += size
        return out.copy()


@pytest.mark.parametrize("probs", [
    power_law_weights(300, 1200, 1.9, None),
    power_law_weights(300, 1200, 2.6, 20),
    np.array([0.0, 0.5, 0.0, 0.0, 0.25, 0.25, 0.0]),
    np.array([1.0]),
], ids=["skewed", "capped", "zeros", "one"])
def test_guide_table_settles_uniforms_at_bucket_edges(probs):
    """Uniforms on both sides of every bucket edge and of every cdf
    entry answer as ``searchsorted(cdf, u, "right")`` does."""
    table = GuideTable(probs)
    edges = np.arange(int(table.scale)) / table.scale
    marks = np.concatenate([edges, table.cdf])
    uniforms = np.concatenate([
        marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0),
    ])
    uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
    got = table.draw(_Uniforms(uniforms), len(uniforms))
    assert np.array_equal(
        got, np.searchsorted(table.cdf, uniforms, side="right")
    )


@pytest.mark.parametrize("n,buckets", [
    (1, 8), (1000, 1 << 12), (1 << 17, 1 << 20), (300_000, 1 << GUIDE_BITS),
])
def test_guide_table_builds_choice_cdf_and_bounded_table(n, buckets):
    """The table is ``choice``'s cdf plus 4-8 int32 buckets a vertex,
    capped at ``2 ** GUIDE_BITS``."""
    probs = power_law_weights(n, 5 * n, 2.2, 50)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    table = GuideTable(probs)
    assert np.array_equal(table.cdf, cdf)
    assert table.scale == buckets
    assert table.first.dtype == np.int32
    assert len(table.first) == buckets + 1
    assert table.first[0] == 0 and table.first[-1] == n


# ----------------------------------------------------------------------
# the generators against their per-pair oracles
# ----------------------------------------------------------------------
def _assert_same_csr(got, expected):
    assert got.num_vertices == expected.num_vertices
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)


@pytest.mark.parametrize("scale", [0.05, 0.1, 1, 2])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_generators_equal_pairwise_oracles(name, scale):
    spec = DATASETS[name].scaled(scale)
    args = (spec.num_vertices, spec.num_edges)
    kwargs = dict(exponent=spec.exponent, max_degree=spec.max_degree,
                  seed=spec.seed)
    _assert_same_csr(power_law_graph(*args, **kwargs),
                     power_law_graph_pairwise(*args, **kwargs))
    # a batch size that splits the stream, so blocks straddle batches
    batch = max(1, spec.num_edges // 3)
    got = list(power_law_edge_batches(*args, batch_edges=batch, **kwargs))
    expected = list(
        power_law_edge_batches_choice(*args, batch_edges=batch, **kwargs)
    )
    assert len(got) == len(expected)
    for ours, theirs in zip(got, expected):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("n,m", [
    (1, 5), (2, 1), (2, 9), (5, 10), (5, 100), (8, 28), (12, 66),
    (12, 500), (40, 780), (40, 2000),
])
@pytest.mark.parametrize("exponent,cap", [(2.2, None), (1.9, 3), (3.5, None)])
def test_power_law_dense_corners_equal_pairwise_oracle(n, m, exponent, cap):
    """At a target >= n(n-1)/2 the 40-attempt cap ends the draw."""
    for seed in range(3):
        _assert_same_csr(
            power_law_graph(n, m, exponent, cap, seed),
            power_law_graph_pairwise(n, m, exponent, cap, seed),
        )


@pytest.mark.parametrize("n,m", [
    (0, 3), (1, 5), (2, 1), (5, 10), (5, 100), (10, 44), (10, 45),
    (40, 100), (100, 300), (2000, 30000),
])
def test_erdos_renyi_equals_pairwise_oracle(n, m):
    for seed in range(3):
        _assert_same_csr(erdos_renyi(n, m, seed),
                         erdos_renyi_pairwise(n, m, seed))


# ----------------------------------------------------------------------
# the source tripwire
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_weighted_choice_in_src():
    """Endpoints come from :class:`GuideTable`, not ``choice(p=...)``."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "choice"
        and any(keyword.arg == "p" for keyword in node.keywords)
    ]
    assert not found


def test_no_per_pair_loop_in_generators():
    """The generators' only ``for`` is the sampler's block loop: no loop
    or comprehension walks edges or endpoints one at a time."""
    path = SRC / "repro" / "graph" / "generators.py"
    found = [
        ast.unparse(node.iter)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.For, ast.comprehension))
    ]
    assert found == ["range(0, size, DRAW_BLOCK)"]
