import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekmedoids import InvalidArguments, RankOverflow

from generator_reference import (
    DisjointnessViolation,
    conv,
    cross_join,
    gen_combs,
    merge,
    rank_colex,
    unrank_colex,
)


def colex_sorted(combos):
    return sorted(combos, key=lambda c: tuple(reversed(c)))


def test_cross_join_worked_example():
    got = cross_join([(1,), (2,)], [(3,), (4,)])
    assert got == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_cross_join_unit_and_annihilator():
    l = [(0, 2), (1, 5)]
    assert cross_join(l, [()]) == l
    assert cross_join([()], l) == l
    assert cross_join([], l) == []
    assert cross_join(l, []) == []


def test_cross_join_sorts_unions():
    assert cross_join([(4,)], [(1,)]) == [(1, 4)]


def test_cross_join_rejects_overlap():
    with pytest.raises(DisjointnessViolation):
        cross_join([(1, 2)], [(2,)])


def test_conv_worked_example():
    got = conv(cross_join, [[()], [(0,)]], [[()], [(1,)]], 2)
    assert [set(level) for level in got] == [{()}, {(0,), (1,)}, {(0, 1)}]
    assert [len(level) for level in got] == [1, 2, 1]


def test_conv_unit_operand():
    la = gen_combs(4, 3).levels
    assert conv(cross_join, la, [[()]], 3) == la[:4]


def test_conv_vandermonde_level_sizes():
    # join combinations over {0..n-1} with combinations over {n..n+m-1}:
    # level sizes must follow C(n+m, t)
    for n, m in [(3, 4), (5, 2), (4, 4)]:
        la = gen_combs(n, 4).levels
        lb = [
            [tuple(i + n for i in cfg) for cfg in level]
            for level in gen_combs(m, 4).levels
        ]
        out = conv(cross_join, la, lb, 4)
        for t, level in enumerate(out):
            assert len(level) == math.comb(n + m, t)
            assert len(set(level)) == len(level)


def test_merge_base_cases():
    assert merge([], 3) == [[()]]
    assert merge([5], 3) == [[()], [(5,)]]


def test_merge_two_stores_is_conv():
    a = gen_combs(3, 2).levels
    b = [[()], [(7,)]]
    assert merge(a, b, 2) == conv(cross_join, a, b, 2)


def test_merge_rejects_malformed():
    with pytest.raises(InvalidArguments):
        merge("nope", 2)
    with pytest.raises(InvalidArguments):
        merge([1, 2, 3], 2)


def test_gen_combs_worked_expansion():
    got = gen_combs(3, 2)
    assert got.levels == [
        [()],
        [(0,), (1,), (2,)],
        [(0, 1), (0, 2), (1, 2)],
    ]


def test_gen_combs_base_case():
    assert gen_combs(0, 4).levels == [[()]]


def test_gen_combs_level_sizes_8_3():
    assert gen_combs(8, 3).sizes() == [1, 8, 28, 56]


def test_gen_combs_truncates_at_n():
    # only min(k, n) + 1 levels exist
    assert gen_combs(2, 5).sizes() == [1, 2, 1]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12), st.integers(0, 6))
def test_gen_combs_levels_complete_and_ordered(n, k):
    store = gen_combs(n, k)
    for j, level in enumerate(store.levels):
        assert len(level) == math.comb(n, j)
        assert len(set(level)) == len(level)
        for cfg in level:
            assert list(cfg) == sorted(set(cfg))
        # emission order is exactly colex
        assert level == colex_sorted(itertools.combinations(range(n), j))


def test_rank_colex_first_combination():
    assert rank_colex((0, 1, 2)) == 0


def test_rank_colex_enumerated_example():
    # colex order of 3-subsets: {0,1,2},{0,1,3},{0,2,3},{1,2,3}
    assert rank_colex((1, 2, 3)) == 3


def test_rank_is_colex_position():
    for k in (1, 2, 3):
        combos = colex_sorted(itertools.combinations(range(8), k))
        assert [rank_colex(c) for c in combos] == list(range(len(combos)))


def test_unrank_round_trip_exhaustive():
    for k in range(1, 6):
        for c in itertools.combinations(range(10), k):
            assert unrank_colex(rank_colex(c), k) == c


def test_rank_strictly_increasing_within_gen_combs_levels():
    # the order contract the fused solver's tie rule relies on
    store = gen_combs(9, 4)
    for level in store.levels[1:]:
        ranks = [rank_colex(c) for c in level]
        assert all(a < b for a, b in zip(ranks, ranks[1:]))


def test_rank_overflow():
    with pytest.raises(RankOverflow):
        rank_colex(tuple(range(40, 110)))  # C(109, 70) >> 2^63


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 60), min_size=1, max_size=6))
def test_unrank_inverts_rank(indices):
    c = tuple(sorted(indices))
    assert unrank_colex(rank_colex(c), len(c)) == c
