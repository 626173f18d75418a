"""Tests that the invariant checkers actually detect corruption."""

import itertools
import random

import pytest

from conftest import cycle_graph, path_graph
from repro.core import (
    assert_canonical,
    build_hcl,
    canonical_index,
    check_cover_property,
    check_highway_exact,
    check_minimality,
    sample_vertex_pairs,
)
from repro.errors import CoverPropertyError


class TestDetection:
    def test_clean_index_passes_all(self):
        index = build_hcl(cycle_graph(8), [0, 4])
        check_highway_exact(index)
        check_cover_property(index)
        check_minimality(index)
        assert_canonical(index)

    def test_wrong_highway_detected(self):
        index = build_hcl(cycle_graph(8), [0, 4])
        index.highway.set_distance(0, 4, 1.0)
        with pytest.raises(CoverPropertyError):
            check_highway_exact(index)
        with pytest.raises(CoverPropertyError):
            assert_canonical(index)

    def test_missing_entry_detected(self):
        index = build_hcl(path_graph(5), [2])
        index.labeling.remove_entry(0, 2)
        with pytest.raises(CoverPropertyError):
            check_cover_property(index, pairs=[(0, 4)])
        with pytest.raises(CoverPropertyError):
            assert_canonical(index)

    def test_superfluous_entry_detected(self):
        index = build_hcl(path_graph(5), [1, 2])
        # (2, 2.0) at vertex 0 is superfluous (the path crosses landmark 1).
        index.labeling.add_entry(0, 2, 2.0)
        with pytest.raises(CoverPropertyError):
            check_minimality(index)

    def test_wrong_distance_entry_detected(self):
        index = build_hcl(path_graph(5), [2])
        index.labeling.add_entry(0, 2, 9.0)
        with pytest.raises(CoverPropertyError):
            assert_canonical(index)


class TestCanonicalIndex:
    def test_same_as_build(self):
        g = cycle_graph(6)
        assert canonical_index(g, [3, 0]).structurally_equal(build_hcl(g, [0, 3]))

    def test_empty_landmarks(self):
        index = canonical_index(path_graph(3), [])
        assert index.landmarks == set()
        check_cover_property(index)  # vacuously true


class TestSampleVertexPairs:
    def test_large_graph_draws_without_listing_all_pairs(self):
        # C(19998, 2) ~ 2e8 pairs: listing them would exhaust memory.
        index = build_hcl(path_graph(20000), [0, 10000])
        pairs = sample_vertex_pairs(index, sample=64, seed=3)
        assert len(pairs) == len(set(pairs)) == 64
        for s, t in pairs:
            assert s < t
            assert not index.is_landmark(s) and not index.is_landmark(t)

    def test_same_pairs_as_sampling_the_listed_pairs(self):
        index = build_hcl(cycle_graph(40), [3, 17])
        free = [v for v in range(40) if v not in (3, 17)]
        listed = list(itertools.combinations(free, 2))
        ours, reference = random.Random(9), random.Random(9)
        for _ in range(3):  # a continued rng stream stays in step
            got = sample_vertex_pairs(index, sample=25, rng=ours)
            assert got == reference.sample(listed, 25)

    def test_small_population_is_exhaustive(self):
        index = build_hcl(path_graph(6), [2])
        want = list(itertools.combinations([0, 1, 3, 4, 5], 2))
        assert sample_vertex_pairs(index, sample=10) == want
        assert sample_vertex_pairs(index, sample=50, seed=4) == want
