"""Samplers and event predicates, checked against hand-built vectors and the oracle."""

import threading
import warnings
from fractions import Fraction
from itertools import combinations
from math import ulp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bstick.sticks import (
    NETWORK_MAX_N,
    ORACLE_MAX_N,
    SCRATCH_MAX_VALUES,
    EventKind,
    EventSpec,
    SamplerModel,
    _network,
    _row_sums,
    _selection_steps,
    _sorted_columns,
    all_k_subsets_polygon,
    event_indicator_batch,
    exists_k_polygon_windowed,
    max_spacing_exceeds,
    sample_spacings,
    sample_spacings_batch,
    scratch_array,
    subset_polygon_oracle,
)


class StubRng:
    """Feeds a fixed array through Generator.random((count, dim)) or random(out=...)."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            assert self._values.shape == tuple(size)
            return self._values.copy()
        assert self._values.shape == out.shape
        out[...] = self._values
        return out


# ---------------------------------------------------------------- samplers


def test_uniform_breaks_known_draws():
    # one break at 0.3 splits the stick into 0.3 and 0.7
    out = sample_spacings_batch(2, SamplerModel.UNIFORM_BREAKS, StubRng([[0.3]]), 1)
    assert np.allclose(out, [[0.3, 0.7]])
    # unsorted draws are sorted before differencing
    out = sample_spacings_batch(3, SamplerModel.UNIFORM_BREAKS, StubRng([[0.9, 0.4]]), 1)
    assert np.allclose(out, [[0.4, 0.5, 0.1]])
    # n=1 consumes zero draws and returns the whole stick
    out = sample_spacings_batch(1, SamplerModel.UNIFORM_BREAKS, StubRng(np.empty((1, 0))), 1)
    assert np.allclose(out, [[1.0]])


def test_exponential_normalized_known_draws():
    # u = 1 - e^{-y} makes -log1p(-u) recover y; y = (1, 1, 2) normalizes to quarters
    y = np.array([[1.0, 1.0, 2.0]])
    u = 1.0 - np.exp(-y)
    out = sample_spacings_batch(3, SamplerModel.EXPONENTIAL_NORMALIZED, StubRng(u), 1)
    assert np.allclose(out, [[0.25, 0.25, 0.5]])


def test_draws_per_trial():
    assert SamplerModel.UNIFORM_BREAKS.draws_per_trial(6) == 5
    assert SamplerModel.EXPONENTIAL_NORMALIZED.draws_per_trial(6) == 6


@pytest.mark.parametrize("model", list(SamplerModel))
@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 10_000])
def test_spacings_are_simplex_points(model, n):
    rng = np.random.default_rng(2024)
    out = sample_spacings_batch(n, model, rng, 64 if n < 1000 else 4)
    assert out.shape[1] == n
    assert (out >= 0).all()
    err = np.abs(out.sum(axis=1) - 1.0).max()
    assert err <= 8 * ulp(1.0)


@pytest.mark.parametrize("model", list(SamplerModel))
def test_scalar_call_equals_batch_rows(model):
    """m single-trial calls on one stream replay exactly as one m-row batch."""
    n, m = 7, 25
    rng_a = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    rng_b = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    batch = sample_spacings_batch(n, model, rng_a, m)
    singles = np.stack([sample_spacings(n, model, rng_b) for _ in range(m)])
    np.testing.assert_array_equal(batch, singles)


def test_sampler_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_spacings_batch(0, SamplerModel.UNIFORM_BREAKS, rng, 1)
    with pytest.raises(ValueError):
        sample_spacings_batch(3, SamplerModel.UNIFORM_BREAKS, rng, -1)


@pytest.mark.parametrize("model", list(SamplerModel))
@pytest.mark.parametrize("n", [1, 5, 13])
def test_sampler_writes_into_out(model, n):
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    expected = sample_spacings_batch(n, model, rng_a, 50)
    out = np.full((50, n), np.nan)
    assert sample_spacings_batch(n, model, rng_b, 50, out=out) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def test_sampler_rejects_unusable_out():
    rng = np.random.default_rng(0)
    for out in (np.empty((4, 3)), np.empty((5, 4)), np.empty((5, 3), dtype=np.float32),
                np.empty((10, 3))[::2], np.empty((5, 6))[:, :3], np.empty((3, 10)).T[::2]):
        with pytest.raises(ValueError, match="out must be"):
            sample_spacings_batch(3, SamplerModel.UNIFORM_BREAKS, rng, 5, out=out)


@pytest.mark.parametrize("model", list(SamplerModel))
def test_sampler_accepts_f_ordered_out(model):
    expected = sample_spacings_batch(3, model, np.random.default_rng(0), 5)
    out = np.empty((3, 5)).T
    assert out.flags.f_contiguous and not out.flags.c_contiguous
    assert sample_spacings_batch(3, model, np.random.default_rng(0), 5, out=out) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def test_scratch_arrays_are_reused_per_name_and_thread():
    a = scratch_array("test-a", (3, 100))
    assert a.shape == (3, 100) and a.dtype == np.float64
    assert np.shares_memory(a, scratch_array("test-a", (100, 3)))
    assert np.shares_memory(a, scratch_array("test-a", (10,)))
    assert not np.shares_memory(a, scratch_array("test-b", (3, 100)))
    assert scratch_array("test-a", (3, 100), bool).dtype == np.bool_
    assert not np.shares_memory(a, scratch_array("test-a", (3, 100), bool))
    # a larger request grows the buffer; a later small one uses the grown memory
    grown = scratch_array("test-a", (5, 100))
    assert np.shares_memory(grown, scratch_array("test-a", (3, 100)))
    # past SCRATCH_MAX_VALUES nothing is kept
    big = scratch_array("test-a", (SCRATCH_MAX_VALUES + 1,))
    assert not np.shares_memory(big, scratch_array("test-a", (SCRATCH_MAX_VALUES + 1,)))
    assert np.shares_memory(grown, scratch_array("test-a", (3, 100)))
    # another thread gets its own memory
    seen = []
    worker = threading.Thread(target=lambda: seen.append(scratch_array("test-a", (3, 100))))
    worker.start()
    worker.join()
    assert not np.shares_memory(seen[0], scratch_array("test-a", (3, 100)))


# ------------------------------------------------------------- event specs


def test_event_spec_validation():
    assert EventSpec.all_k_subsets(4).label() == "all:k=4"
    assert EventSpec.exists_k(3).label() == "exists:k=3"
    assert EventSpec.max_spacing(Fraction(1, 2)).label() == "max-spacing:x=1/2"
    with pytest.raises(ValueError):
        EventSpec(EventKind.ALL_K_SUBSETS, k=2)
    with pytest.raises(ValueError):
        EventSpec(EventKind.ALL_K_SUBSETS, k=3, x=Fraction(1, 2))
    with pytest.raises(ValueError):
        EventSpec(EventKind.MAX_SPACING, x=Fraction(3, 2))
    with pytest.raises(ValueError):
        EventSpec(EventKind.MAX_SPACING, k=3, x=Fraction(1, 2))
    with pytest.raises(ValueError):
        EventSpec.all_k_subsets(6).validate_for(5)


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan"), "inf", "nan"])
def test_max_spacing_rejects_non_finite_thresholds(x):
    with pytest.raises(ValueError, match="max-spacing threshold must be a finite number"):
        EventSpec.max_spacing(x)


# -------------------------------------------------------------- predicates


def test_predicates_on_hand_vectors():
    even = [0.2, 0.2, 0.2, 0.2, 0.2]
    assert all_k_subsets_polygon(even, 3)
    assert exists_k_polygon_windowed(even, 3)
    assert not max_spacing_exceeds(even, 0.5)

    assert not all_k_subsets_polygon([0.5, 0.2, 0.2, 0.1], 3)  # 0.5 > 0.1 + 0.2

    # 0.6 kills every triple containing it, but the small triple still works
    spiky = [0.6, 0.1, 0.1, 0.1, 0.1]
    assert not all_k_subsets_polygon(spiky, 3)
    assert exists_k_polygon_windowed(spiky, 3)
    assert max_spacing_exceeds(spiky, 0.5)

    # degenerate (max == sum of rest) counts as formed: non-strict inequality
    flat = [0.5, 0.25, 0.25]
    assert all_k_subsets_polygon(flat, 3)
    assert exists_k_polygon_windowed(flat, 3)
    assert not max_spacing_exceeds(flat, 0.5)

    # no triple at all: one piece above 1/2
    dead = [0.7, 0.1, 0.05, 0.15]
    assert not exists_k_polygon_windowed([0.7, 0.2, 0.1], 3)
    assert not all_k_subsets_polygon(dead, 4)


def test_predicate_input_validation():
    with pytest.raises(ValueError):
        all_k_subsets_polygon([0.5, 0.5], 3)
    with pytest.raises(ValueError):
        max_spacing_exceeds([0.5, 0.5], 0.0)
    with pytest.raises(ValueError):
        subset_polygon_oracle([1.0 / 16] * 16, 3)


def test_oracle_on_hand_vectors():
    chk = subset_polygon_oracle([0.6, 0.1, 0.1, 0.1, 0.1], 3)
    assert chk.all_subsets is False and chk.some_subset is True
    chk = subset_polygon_oracle([0.2] * 5, 3)
    assert chk.all_subsets is True and chk.some_subset is True
    chk = subset_polygon_oracle([0.7, 0.2, 0.1], 3)
    assert chk.all_subsets is False and chk.some_subset is False


def _random_spacings(rng, n, count):
    return sample_spacings_batch(n, SamplerModel.UNIFORM_BREAKS, rng, count)


def test_fast_predicates_match_oracle():
    """The reduced inequalities agree with brute-force enumeration everywhere."""
    rng = np.random.default_rng(91)
    for n in range(3, 11):
        rows = _random_spacings(rng, n, 150)
        for k in range(3, n + 1):
            for row in rows:
                chk = subset_polygon_oracle(row, k)
                assert all_k_subsets_polygon(row, k) == chk.all_subsets
                assert exists_k_polygon_windowed(row, k) == chk.some_subset


def test_windowed_exists_matches_oracle_for_k3_wide():
    rng = np.random.default_rng(17)
    for n in (11, 12):
        rows = _random_spacings(rng, n, 300)
        for row in rows:
            chk = subset_polygon_oracle(row, 3)
            assert exists_k_polygon_windowed(row, 3) == chk.some_subset


def test_windowed_exists_k4_and_up_logged_against_oracle():
    """For k >= 4 the windowed scan is not assumed equivalent to the existence
    event: the oracle is authoritative, and any disagreement is reported as a
    warning with the offending vector.  A window is itself a subset, so the
    windowed predicate can never claim a polygon the oracle rejects; only that
    impossible direction is a hard failure."""
    rng = np.random.default_rng(23)
    disagreements = []
    for n in range(4, 11):
        rows = _random_spacings(rng, n, 500)
        for k in range(4, n + 1):
            windowed = np.array([exists_k_polygon_windowed(r, k) for r in rows])
            oracle = np.array([subset_polygon_oracle(r, k).some_subset for r in rows])
            for i in np.nonzero(windowed != oracle)[0]:
                disagreements.append((k, n, bool(windowed[i]), rows[i]))
    for k, n, claimed, row in disagreements:
        warnings.warn(
            f"windowed existence disagrees with the subset oracle at k={k}, "
            f"n={n} (windowed={claimed}); spacings={row.tolist()}"
        )
        assert not claimed, "windowed scan claimed a polygon the oracle rejects"


def test_oracle_spec_vectors():
    # no triple works: 0.4 > 0.1 and 0.5 > 0.45 cover both candidate windows
    chk = subset_polygon_oracle([0.05, 0.05, 0.4, 0.5], 3)
    assert chk == (False, False)
    assert not exists_k_polygon_windowed([0.05, 0.05, 0.4, 0.5], 3)
    chk = subset_polygon_oracle([0.25, 0.25, 0.25, 0.25], 4)
    assert chk == (True, True)
    # the three near-equal pieces form a triangle even though 0.3 spoils "all"
    chk = subset_polygon_oracle([0.2, 0.25, 0.25, 0.3], 3)
    assert chk.some_subset is True


def test_max_spacing_boundary_is_strict():
    assert max_spacing_exceeds([0.5, 0.5], 0.3)
    assert not max_spacing_exceeds([0.25, 0.25, 0.25, 0.25], 0.25)
    assert not max_spacing_exceeds([0.3, 0.7], 0.7)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_event_monotone_in_k(seed):
    """If every k-subset forms a k-gon, every (k+1)-subset forms one too
    (dropping a non-max element of the larger set only shrinks the sum side).
    Existence is NOT monotone in k — e.g. [.11, .63, .17, .09] has a triangle
    but its only 4-subset is dominated by .63 — so only "all implies exists"
    is asserted for it."""
    rng = np.random.default_rng(seed)
    n = 3 + seed % 8
    row = _random_spacings(rng, n, 1)[0]
    for k in range(3, n):
        if all_k_subsets_polygon(row, k):
            assert all_k_subsets_polygon(row, k + 1)
    for k in range(3, n + 1):
        if all_k_subsets_polygon(row, k):
            assert exists_k_polygon_windowed(row, k)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_predicates_are_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = 4 + seed % 6
    row = _random_spacings(rng, n, 1)[0]
    shuffled = rng.permutation(row)
    for k in range(3, n + 1):
        assert all_k_subsets_polygon(row, k) == all_k_subsets_polygon(shuffled, k)
        assert exists_k_polygon_windowed(row, k) == exists_k_polygon_windowed(shuffled, k)


def test_event_indicator_batch_matches_scalar_predicates():
    rng = np.random.default_rng(3)
    rows = _random_spacings(rng, 7, 200)
    for event, scalar in (
        (EventSpec.all_k_subsets(4), lambda r: all_k_subsets_polygon(r, 4)),
        (EventSpec.exists_k(5), lambda r: exists_k_polygon_windowed(r, 5)),
        (EventSpec.max_spacing(Fraction(1, 3)), lambda r: max_spacing_exceeds(r, 1 / 3)),
    ):
        hits = event_indicator_batch(event, rows)
        expected = np.array([scalar(r) for r in rows])
        np.testing.assert_array_equal(hits, expected)


def test_event_indicator_batch_oracle_mode():
    rng = np.random.default_rng(4)
    rows = _random_spacings(rng, 6, 150)
    for event in (EventSpec.all_k_subsets(4), EventSpec.exists_k(4)):
        fast = event_indicator_batch(event, rows)
        slow = event_indicator_batch(event, rows, use_oracle=True)
        np.testing.assert_array_equal(fast, slow)
    with pytest.raises(ValueError):
        event_indicator_batch(
            EventSpec.all_k_subsets(3), np.full((2, 16), 1.0 / 16), use_oracle=True
        )


def test_all_k_subsets_reduction_is_the_hardest_subset():
    """The one inequality tested is exactly the worst case over all subsets."""
    rng = np.random.default_rng(12)
    for row in _random_spacings(rng, 8, 100):
        srt = np.sort(row)
        for k in range(3, 9):
            worst = np.concatenate([srt[: k - 1], srt[-1:]])
            direct = all(
                max(sub) <= sum(sub) - max(sub) for sub in combinations(row, k)
            )
            assert (worst[-1] <= worst[:-1].sum()) == direct


# ------------------------------------------- column kernel vs row-major reference
#
# Up to NETWORK_MAX_N values per row the samplers and predicates work column
# by column.  These are the row-major forms they replaced; the kernel must
# reproduce them bit for bit on both sides of the crossover.


def _philox(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _ref_spacings(n, model, rng, count):
    if model is SamplerModel.UNIFORM_BREAKS:
        breaks = np.sort(rng.random((count, n - 1)), axis=1)
        return np.diff(breaks, axis=1, prepend=0.0, append=1.0)
    u = rng.random((count, n))
    y = -np.log1p(-u)
    return y / y.sum(axis=1, keepdims=True)


def _ref_exponential_normalizer(rng, n, count):
    y = -np.log1p(-rng.random((count, n)))
    return y, y.sum(axis=1)


def _ref_indicator_all(spacings, k):
    srt = np.sort(spacings, axis=1)
    return srt[:, -1] <= srt[:, : k - 1].sum(axis=1)


def _ref_indicator_exists_windowed(spacings, k):
    n = spacings.shape[1]
    srt = np.sort(spacings, axis=1)
    csum = np.cumsum(srt, axis=1)
    csum = np.concatenate([np.zeros((srt.shape[0], 1)), csum], axis=1)
    hit = np.zeros(srt.shape[0], dtype=bool)
    for j in range(n - k + 1):
        rest = csum[:, j + k - 1] - csum[:, j]
        hit |= srt[:, j + k - 1] <= rest
    return hit


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("m", range(1, NETWORK_MAX_N + 1))
def test_network_sorts_every_zero_one_input(m):
    """By the 0-1 principle a comparator network sorts all inputs iff it
    sorts all 2^m inputs of zeros and ones."""
    bits = (np.arange(2**m)[None, :] >> np.arange(m)[:, None]) & 1
    cols = list(bits.astype(np.int8))
    for lo, hi in _network(m):
        cols[lo], cols[hi] = np.minimum(cols[lo], cols[hi]), np.maximum(cols[lo], cols[hi])
    assert (np.diff(np.array(cols).reshape(m, -1), axis=0) >= 0).all()


@pytest.mark.parametrize("m", range(1, NETWORK_MAX_N + 1))
def test_pruned_networks_select_every_zero_one_input(m):
    """The network pruned to the j smallest and the largest gives those order
    statistics exactly on all 2^m zero-one inputs, for every j the 'all'
    predicate uses (j = k-1 in 2..m-1), and so on every input (0-1 principle).
    Both input layouts are checked: columns read in place or through strides."""
    rows = ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
    expected = np.sort(rows, axis=1).T
    for j in range(2, m):
        needed = [*range(j), m - 1]
        assert len(_selection_steps(m, j)) <= 2 * len(_network(m))
        for layout in (rows, np.asfortranarray(rows)):
            assert _same_bits(_sorted_columns(layout, j)[needed], expected[needed])
    if m >= 4:
        assert len(_selection_steps(m, 2)) < 2 * len(_network(m))


@pytest.mark.parametrize("m", [0, 1, 2, 7, NETWORK_MAX_N, NETWORK_MAX_N + 1, 24, 50, 200])
def test_sorted_columns_equal_row_sort(m):
    rows = np.random.default_rng(m).random((300, m))
    rows[::7, : m // 2] = 0.25  # ties
    expected = np.sort(rows, axis=1)
    for layout in (rows, np.asfortranarray(rows)):
        cols = _sorted_columns(layout)
        assert cols.shape == (m, 300)
        assert _same_bits(cols.T, expected)
        assert _same_bits(layout, rows), "input must not be modified"


_SIZES = st.one_of(st.integers(1, 40), st.sampled_from([63, 64, 65, 127, 128, 129, 200, 300]))


@given(
    seed=st.integers(0, 2**64 - 1),
    n=_SIZES,
    count=st.integers(0, 70),
    model=st.sampled_from(list(SamplerModel)),
)
@settings(max_examples=60, deadline=None)
def test_column_kernel_matches_row_major_reference_bitwise(seed, n, count, model):
    spacings = sample_spacings_batch(n, model, _philox(seed, 1), count)
    expected = _ref_spacings(n, model, _philox(seed, 1), count)
    assert spacings.flags.c_contiguous
    assert _same_bits(spacings, expected)
    if count == 0 or n < 3:
        return
    ref_sorted = np.sort(expected, axis=1)
    # a copy: the predicates below reuse the scratch array _sorted_columns returns
    srt = _sorted_columns(spacings).copy()
    for k in sorted({3, 4, 9, 10, n // 2, n} & set(range(3, n + 1))):
        # the k-1 smallest spacings, summed in numpy's row order
        assert _same_bits(_row_sums(srt[: k - 1]), ref_sorted[:, : k - 1].sum(axis=1))
        for layout in (spacings, np.asfortranarray(spacings)):
            np.testing.assert_array_equal(
                event_indicator_batch(EventSpec.all_k_subsets(k), layout),
                _ref_indicator_all(expected, k),
            )
            np.testing.assert_array_equal(
                event_indicator_batch(EventSpec.exists_k(k), layout),
                _ref_indicator_exists_windowed(expected, k),
            )


@given(seed=st.integers(0, 2**64 - 1), n=_SIZES, count=st.integers(1, 70))
@settings(max_examples=60, deadline=None)
def test_exponential_normalizer_matches_row_sum_bitwise(seed, n, count):
    y, expected = _ref_exponential_normalizer(_philox(seed, 2), n, count)
    for cols in (y.T, np.ascontiguousarray(y.T)):
        assert _same_bits(_row_sums(cols), expected)


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 1000, 20_000])
def test_row_sums_match_numpy_row_sum(m):
    """Covers the sequential, 8-accumulator and row-major branches."""
    rows = np.random.default_rng(m).random((5, m)) * 10.0 ** np.arange(-2, 3)[:, None]
    assert _same_bits(_row_sums(np.ascontiguousarray(rows.T)), rows.sum(axis=1))


@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, NETWORK_MAX_N),
    count=st.integers(0, 70),
    model=st.sampled_from(list(SamplerModel)),
)
@settings(max_examples=60, deadline=None)
def test_f_ordered_out_matches_c_ordered_out_bitwise(seed, n, count, model):
    """The Monte Carlo engine samples into F-ordered blocks (contiguous
    columns); the values are those of a C-ordered out and of the row-major
    reference."""
    expected = _ref_spacings(n, model, _philox(seed, 3), count)
    c_out = sample_spacings_batch(n, model, _philox(seed, 3), count, out=np.empty((count, n)))
    f_out = sample_spacings_batch(n, model, _philox(seed, 3), count, out=np.empty((n, count)).T)
    assert f_out.flags.f_contiguous
    assert _same_bits(c_out, expected)
    assert _same_bits(f_out, expected)


@pytest.mark.parametrize("n", [*range(1, NETWORK_MAX_N + 1), NETWORK_MAX_N + 1, 24])
def test_event_indicator_is_layout_independent(n):
    rows = _random_spacings(np.random.default_rng(n), n, 500)
    cols = np.asfortranarray(rows)
    events = [EventSpec.max_spacing(Fraction(1, 4))]
    for k in range(3, n + 1):
        events += [EventSpec.all_k_subsets(k), EventSpec.exists_k(k)]
    for event in events:
        expected = event_indicator_batch(event, rows).copy()
        np.testing.assert_array_equal(event_indicator_batch(event, cols), expected)
        assert _same_bits(cols, rows), "input must not be modified"
