"""Broken-stick sampling under two equivalent models, and polygon-event predicates.

A stick of unit length broken at n-1 uniform points yields n spacings.  The
same spacing distribution arises from n unit-mean exponentials normalized by
their sum, which is the second sampler offered here; the Monte Carlo engine
estimates under either model and the verification suite holds each model's
estimates to the exact values.

Up to NETWORK_MAX_N values per trial, batches are worked as contiguous
columns (one spacing index of every trial): the sampler writes each column of
an F-ordered result contiguously, and the breaks and the spacings are
sorted by a comparator network of whole-column np.minimum/np.maximum steps.
Every value is bit for bit that of the row-major computation.

Polygon inequalities are non-strict: a set of lengths forms a k-gon iff its
maximum is <= the sum of the others, so degenerate (zero-area) polygons count
as formed.  The event boundary has probability zero, so estimates are
unaffected by the choice.

numpy is imported when a sampler or predicate first runs, not with this
module (NumpyOnFirstUse), so `exact` and `table` never load it and only
`simulate` and `verify` do.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod
from typing import NamedTuple

__all__ = [
    "ORACLE_MAX_N",
    "SamplerModel",
    "EventKind",
    "EventSpec",
    "SubsetCheck",
    "sample_spacings",
    "sample_spacings_batch",
    "all_k_subsets_polygon",
    "subset_polygon_oracle",
    "exists_k_polygon_windowed",
    "max_spacing_exceeds",
    "event_indicator_batch",
]

# C(n, k) enumeration guard for the brute-force oracle.
ORACLE_MAX_N = 15

# Rows of up to this many values are worked as contiguous columns and sorted
# by the comparator network.  Longer rows are few per block, so they stay
# row-major, are sorted by np.sort and are worked through a transposed view.
# In Monte Carlo estimates on 1 MiB blocks (2 vCPU Xeon, numpy 2.4) the column
# form took 0.41-0.55x the time of the row-major form at n = 5, 0.61-0.96x at
# n = 8, 0.88-1.00x at n = 12 and 1.04-1.54x at n = 16-24.
NETWORK_MAX_N = 12

# Scratch arrays of up to this many elements (2 MiB of float64) are kept per
# thread and reused; larger ones are allocated afresh on every call.
SCRATCH_MAX_VALUES = 1 << 18

_scratch_local = threading.local()


class NumpyOnFirstUse:
    """Stands in for numpy as a module's global ``np`` until numpy is first used.

    The first attribute read imports numpy and rebinds the module's ``np`` to
    it, so every later lookup there finds plain numpy and costs no extra call.
    Importing numpy takes about 0.15 s, most of a small `exact` or `table`
    run, which never needs it.  Each module that uses numpy binds its own:
    ``np = NumpyOnFirstUse(globals())``.
    """

    def __init__(self, namespace: dict) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = NumpyOnFirstUse(globals())


class SamplerModel(Enum):
    """How one broken stick is realized from uniform draws."""

    UNIFORM_BREAKS = "uniform"
    EXPONENTIAL_NORMALIZED = "exponential"

    def draws_per_trial(self, n: int) -> int:
        """Uniform draws consumed per trial: n-1 break points, or n exponentials."""
        if self is SamplerModel.UNIFORM_BREAKS:
            return n - 1
        return n


class EventKind(Enum):
    ALL_K_SUBSETS = "all"
    EXISTS_K = "exists"
    MAX_SPACING = "max-spacing"


@dataclass(frozen=True)
class EventSpec:
    """A per-trial indicator: which polygon event is being estimated.

    Exactly one parameter is carried: ``k`` for the subset events, ``x`` for
    the max-spacing threshold.  ``x`` is kept as an exact Fraction so records
    can echo the threshold verbatim.
    """

    kind: EventKind
    k: int | None = None
    x: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind is EventKind.MAX_SPACING:
            if self.k is not None or self.x is None:
                raise ValueError("max-spacing event takes x and no k")
            if not 0 < self.x < 1:
                raise ValueError("max-spacing threshold must lie in (0, 1)")
        else:
            if self.x is not None or self.k is None:
                raise ValueError(f"{self.kind.value} event takes k and no x")
            if self.k < 3:
                raise ValueError("polygon events require k >= 3")

    @classmethod
    def all_k_subsets(cls, k: int) -> EventSpec:
        return cls(EventKind.ALL_K_SUBSETS, k=k)

    @classmethod
    def exists_k(cls, k: int) -> EventSpec:
        return cls(EventKind.EXISTS_K, k=k)

    @classmethod
    def max_spacing(cls, x: Fraction | float | str) -> EventSpec:
        try:
            x = Fraction(x)
        except (OverflowError, ValueError):
            raise ValueError(f"max-spacing threshold must be a finite number, got {x!r}") from None
        return cls(EventKind.MAX_SPACING, x=x)

    def validate_for(self, n: int) -> None:
        if self.k is not None and not 3 <= self.k <= n:
            raise ValueError(f"event needs 3 <= k <= n, got k={self.k}, n={n}")

    def label(self) -> str:
        """Stable, comma-free identifier used in output records."""
        if self.kind is EventKind.MAX_SPACING:
            return f"max-spacing:x={self.x}"
        return f"{self.kind.value}:k={self.k}"


class SubsetCheck(NamedTuple):
    """Brute-force verdict over all k-subsets of one spacing vector."""

    all_subsets: bool
    some_subset: bool


def sample_spacings_batch(
    n: int,
    model: SamplerModel,
    rng: np.random.Generator,
    count: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sample ``count`` spacing vectors as a (count, n) array, C-contiguous
    unless ``out`` is given.

    Draw consumption is fixed per trial (``model.draws_per_trial(n)`` uniforms,
    row-major), so trial t of a batch sees exactly the draws that t sequential
    single-trial calls would have consumed.  Exponentials come from the inverse
    transform -log(1-u); u in [0, 1) keeps the result finite.

    The work is done on whole columns (one spacing index of every trial at a
    time) and written through the transposed view of the result.  The values
    are bit for bit those of the row-major computation: breaks sorted per row
    and differenced with 0 and 1 at the ends, or exponentials divided by their
    row sum added in numpy's order.

    ``out``, a C- or F-contiguous float64 (count, n) array, receives the
    result instead of a new array.  F order keeps every column contiguous, so
    the samplers and the predicates work on contiguous columns throughout.
    Its prior contents are never read.  The uniform sampler draws its breaks
    into the front of out's memory, so it needs no separate draws buffer; the
    exponential sampler draws into the thread's "columns" scratch array.
    """
    if n < 1:
        raise ValueError("sample_spacings requires n >= 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if out is None:
        out = np.empty((count, n))
    elif (out.shape != (count, n) or out.dtype != np.float64
          or not (out.flags.c_contiguous or out.flags.f_contiguous)):
        raise ValueError(
            f"out must be a C- or F-contiguous float64 array of shape {(count, n)}"
        )
    cols, per_trial = out.T, model.draws_per_trial(n)
    if model is SamplerModel.EXPONENTIAL_NORMALIZED:
        # z = log1p(-u) is -y exactly, and its column sum is exactly minus the
        # sum of y: negation is exact and round-to-nearest is symmetric.  So
        # z / sum(z) has the bits of y / sum(y) with one pass less.
        # The draws are dead once negated, so their memory takes the row sums.
        draws = rng.random(out=scratch_array("columns", (count, per_trial)))
        np.negative(draws.T, out=cols)
        np.log1p(cols, out=cols)
        np.divide(cols, _row_sums(cols, out=draws.reshape(-1)[:count]), out=cols)
        return out
    # The breaks are drawn row-major into the front of out's own memory;
    # sorting copies them into "columns" before any spacing is written.
    memory = (out if out.flags.c_contiguous else out.T).reshape(-1)
    draws = memory[: count * per_trial].reshape(count, per_trial)
    breaks, _ = _sorted_columns(rng.random(out=draws))
    if n == 1:
        cols[0] = 1.0
    else:
        cols[0] = breaks[0]
        np.subtract(breaks[1:], breaks[:-1], out=cols[1:-1])
        np.subtract(1.0, breaks[-1], out=cols[-1])
    return out


def sample_spacings(n: int, model: SamplerModel, rng: np.random.Generator) -> np.ndarray:
    """Sample one broken stick: n nonnegative spacings summing to 1."""
    return sample_spacings_batch(n, model, rng, 1)[0]


def _as_row(s) -> np.ndarray:
    arr = np.asarray(s, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("spacing vector must be a nonempty 1-d array")
    return arr.reshape(1, -1)


def all_k_subsets_polygon(s, k: int) -> bool:
    """True iff every k-subset of the spacings forms a k-gon.

    Reduces to one inequality: the largest spacing must not exceed the sum of
    the k-1 smallest (the hardest subset is the k-1 smallest plus the largest).
    """
    return bool(event_indicator_batch(EventSpec.all_k_subsets(k), _as_row(s))[0])


def exists_k_polygon_windowed(s, k: int) -> bool:
    """True iff some window of k consecutive sorted spacings forms a k-gon.

    This is the existence event for every k, not only k = 3.  If a k-subset
    whose largest piece sits at sorted position i forms a k-gon, then so do
    the k-1 pieces just below i: they are the largest pieces below i, so
    their sum is at least that of the subset's other k-1 pieces, which is at
    least the piece at i.  Conversely a window is itself a k-subset.
    """
    return bool(event_indicator_batch(EventSpec.exists_k(k), _as_row(s))[0])


def max_spacing_exceeds(s, x: float) -> bool:
    """True iff the largest spacing strictly exceeds x."""
    return bool(event_indicator_batch(EventSpec.max_spacing(x), _as_row(s))[0])


def subset_polygon_oracle(s, k: int) -> SubsetCheck:
    """Exhaustively test the k-gon inequality over all C(n, k) subsets.

    The reference the fast predicates are tested against; no estimate uses
    it.  Guarded to n <= ORACLE_MAX_N.
    """
    row = _as_row(s)
    n = row.shape[1]
    EventSpec.all_k_subsets(k).validate_for(n)
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_N}, got n={n}")
    all_ok, any_ok = _subset_check_batch(row, k)
    return SubsetCheck(bool(all_ok[0]), bool(any_ok[0]))


def scratch_array(name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An uninitialized array of ``shape`` whose memory the calling thread reuses.

    A Monte Carlo estimate works through many sub-blocks of one shape.  Fresh
    arrays of that size go back to the kernel when freed and are faulted in
    again for the next block: on a 2 vCPU Xeon VM, with 2^17-value
    sub-blocks, that was 66 000 page faults and a fifth of the time of one
    ``verify --suite all`` run, and the cost rose and fell with the host's
    load.  Reused memory stays mapped.  With 2^16-value sub-blocks a thread's
    arrays over that run's Monte Carlo grid total 1.6 MiB.  The array stays
    valid until the same thread asks for the same name again, so callers use
    one name per array that is alive at a time.  Every caller writes an array
    before reading it, so what a buffer held before is never seen.  Arrays of
    more than SCRATCH_MAX_VALUES elements are not kept.
    """
    dtype = np.dtype(dtype)
    size = prod(shape)
    if size > SCRATCH_MAX_VALUES:
        return np.empty(shape, dtype)
    buffers = getattr(_scratch_local, "buffers", None)
    if buffers is None:
        buffers = _scratch_local.buffers = {}
    buf = buffers.get((name, dtype))
    if buf is None or buf.size < size:
        buf = buffers[(name, dtype)] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def block_array(n: int, count: int) -> np.ndarray:
    """The thread's "spacings" scratch as a (count, n) array for one sub-block.

    Up to NETWORK_MAX_N values per trial it is F-ordered, so its columns stay
    contiguous from the sampler to the indicator; wider rows stay C-ordered.
    Reusing it from block to block and from one estimate to the next keeps a
    run from faulting in fresh pages.  The uniform sampler draws into it, row
    sums go into a row the work already holds and 'exists' keeps a ring of k
    rows, so a thread keeps about two block-sized arrays (this one and the
    sorted columns) and the ring; the max-spacing test keeps no scratch.
    """
    if n <= NETWORK_MAX_N:
        return scratch_array("spacings", (n, count)).T
    return scratch_array("spacings", (count, n))


@cache
def _network(m: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort of m values as (low, high) comparators."""
    pairs = []
    p = 1
    while p < m:
        k = p
        while k >= 1:
            for j in range(k % p, m - k, 2 * k):
                for i in range(min(k, m - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


@cache
def _sort_steps(m: int) -> tuple[tuple[np.ufunc, int, int, int], ...]:
    """_network(m) as steps over buffers.

    A step (f, a, b, out) runs f(buffers[a], buffers[b], out=buffers[out]).
    Buffers 0..m-1 are the input columns, only read; buffers m..2m are the m+1
    rows of the work array.  Each comparator writes its min into a free work
    row and its max over the work row of its high input, or else of its low
    one, where either has one; so m positions never hold more than m work
    rows and one is always free.  The work rows are numbered so that sorted
    position i ends in work row i and the free one is last.
    """
    loc = list(range(m))
    free = list(range(2 * m, m - 1, -1))
    steps = []
    for lo, hi in _network(m):
        a, b = loc[lo], loc[hi]
        loc[lo] = free.pop()
        loc[hi] = b if b >= m else a if a >= m else free.pop()
        steps += [(np.minimum, a, b, loc[lo]), (np.maximum, a, b, loc[hi])]
        if a >= m and a != loc[hi]:
            free.append(a)
    if m == 1:  # never compared: min(x, x) copies it
        loc[0] = free.pop()
        steps.append((np.minimum, 0, 0, loc[0]))

    (spare,) = free
    rename = {row: m + pos for pos, row in enumerate(loc)} | {spare: 2 * m}
    return tuple((f, rename.get(a, a), rename.get(b, b), rename[out]) for f, a, b, out in steps)


def _sorted_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort each row of a (count, m) array; return the (m, count) transpose,
    every row of which is sorted, and a spare (count,) row or None.

    Up to NETWORK_MAX_N values per row, rows.T is sorted by a fixed comparator
    network whose every step is an np.minimum/np.maximum over two whole
    columns.  The first comparator to touch a column reads it from rows.T
    (contiguous when rows is F-ordered) and writes into the work array, so the
    input is never copied or modified; the work array's last row, which the
    sort leaves free, is the spare row.  Wider rows are sorted row-major like
    np.sort and returned as a transposed view, with no spare row.  Sorting
    only permutes values, so both give the bits of np.sort(rows, axis=1).
    The result is a view of the thread's "columns" scratch array.
    """
    count, m = rows.shape
    if m > NETWORK_MAX_N:
        srt = scratch_array("columns", (count, m))
        np.copyto(srt, rows)
        srt.sort(axis=1)
        return srt.T, None
    work = scratch_array("columns", (m + 1, count))
    buffers = [*rows.T, *work]
    for f, a, b, out in _sort_steps(m):
        f(buffers[a], buffers[b], out=buffers[out])
    return work[:m], work[m]


# numpy sums a row of up to this many values with 8 running partial sums;
# longer rows are first split in halves (numpy's PW_BLOCKSIZE).
_PAIRWISE_BLOCK = 128


def _row_sums(cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum an (m, count) array down axis 0, with the bits numpy's row sum
    gives on the row-major (count, m) transpose.

    numpy adds the m values of a row one after another below 8 terms, and up
    to 128 terms keeps 8 running partial sums combined as a tree; adding whole
    rows of cols in that order gives the same bits.  Past 128 terms, numpy's
    own row sum is called on a row-major copy, which is cheap because such
    blocks hold few rows.  The sums go into ``out``, a (count,) array that
    overlaps no row of cols, or into a new array.
    """
    m, count = cols.shape
    if m > _PAIRWISE_BLOCK:
        return np.ascontiguousarray(cols.T).sum(axis=1, out=out)
    total = np.empty(count) if out is None else out
    if m < 8:
        np.add(cols[0], 0.0, out=total)
        for term in cols[1:]:
            total += term
        return total
    whole = m - m % 8
    part = scratch_array("part", (8, count))
    np.copyto(part, cols[:8])
    for i in range(8, whole, 8):
        part += cols[i : i + 8]
    # ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)), as numpy combines them
    part[0::2] += part[1::2]
    part[0::4] += part[2::4]
    np.add(part[0], part[4], out=total)
    for term in cols[whole:]:
        total += term
    return total


def _polygon_indicator(kind: EventKind, spacings: np.ndarray, k: int) -> np.ndarray:
    """The all/exists k-gon indicator of each row of a (count, n) spacing array,
    as a new bool array.

    Sorts the columns once; every row of the result is sorted.  'all' tests
    the largest spacing against the sum of the k-1 smallest; up to
    NETWORK_MAX_N values the sum goes into the sort's spare row.  'exists'
    tests each window of k consecutive sorted spacings: the top of window j,
    srt[j+k-1], against csum[j+k-1] - csum[j], where csum[i] is the running
    sum of the i smallest.
    Up to NETWORK_MAX_N values the running sums live in a ring of k rows,
    csum[i] in row i % k: window j writes its sum into csum[j]'s row, tests
    it, and then writes csum[j+k] there.  Wider rows take one cumsum and test
    every window at once.
    """
    count, n = spacings.shape
    srt, spare = _sorted_columns(spacings)
    if kind is EventKind.ALL_K_SUBSETS:
        return srt[-1] <= _row_sums(srt[: k - 1], out=spare)
    windows = n - k + 1
    if n > NETWORK_MAX_N:
        csum = scratch_array("csum", (n + 1, count))
        csum[0] = 0.0
        np.cumsum(srt, axis=0, out=csum[1:])
        rest = np.subtract(csum[k - 1 : n], csum[:windows],
                           out=scratch_array("rest", (windows, count)))
        fits = np.less_equal(srt[k - 1 :], rest, out=scratch_array("fits", (windows, count), bool))
        return fits.any(axis=0)
    # Contiguous columns: one add per column beats numpy's cumsum down axis
    # 0, which makes one short call per trial.
    ring = scratch_array("csum", (k, count))
    ring[0] = 0.0
    for i in range(k - 1):
        np.add(ring[i], srt[i], out=ring[i + 1])
    fits = np.zeros(count, bool)
    window_fits = scratch_array("fits", (count,), bool)
    for j in range(windows):
        low, top = ring[j % k], ring[(j + k - 1) % k]
        np.subtract(top, low, out=low)
        fits |= np.less_equal(srt[j + k - 1], low, out=window_fits)
        if j + 1 < windows:
            np.add(top, srt[j + k - 1], out=low)
    return fits


def _subset_check_batch(spacings: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether all, and whether some, of the k-subsets of each row form a k-gon.

    One fancy index gathers every subset of every row into an (m, C(n, k), k)
    array, so memory grows as C(n, k): callers bound n.
    """
    n = spacings.shape[1]
    subsets = spacings[:, list(combinations(range(n), k))]
    largest = subsets.max(axis=2)
    ok = largest <= subsets.sum(axis=2) - largest
    return ok.all(axis=1), ok.any(axis=1)


def event_indicator_batch(event: EventSpec, spacings: np.ndarray) -> np.ndarray:
    """Evaluate the event indicator on a (trials, n) batch of spacing vectors.

    The one predicate path: the scalar predicates call it on a single row.
    max-spacing takes each row's maximum, for every n and layout.  Up to
    NETWORK_MAX_N values per row the polygon predicates work on the columns
    spacings.T, which are contiguous when ``spacings`` is F-ordered; a
    C-ordered batch gives the same result.
    """
    if event.kind is EventKind.MAX_SPACING:
        return spacings.max(axis=1) > float(event.x)
    n = spacings.shape[1]
    event.validate_for(n)
    return _polygon_indicator(event.kind, spacings, event.k)
