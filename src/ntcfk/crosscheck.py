"""Side-by-side comparison of the analytic prover and the sparse-state
oracle on the full sampling circuit.

Both sides produce the exact joint distribution over (y, b, x): the
image measurement outcome together with a computational-basis
measurement of the BX registers. The analytic side uses the closed form
P(y, b, x) = D_{B_P}(y - Ax - b t) / (kappa * q^n); the oracle side runs
uniform B,X + Gaussian E + U_f and reads the marginal off the state.

Only U_f and the y = Ax + b t + e0 of the closed form read the key. The
rest depends on kappa, n and the image Gaussian alone, so it is built
once per parameter set and cached read-only: the oracle's state before
U_f (`_oracle_prefix`) and the analytic rows' b and x columns with their
probabilities (`_analytic_skeleton`). Per key, U_f, the y columns, the
two marginals and the distance run. Sets of more than CACHED_LABELS
labels are built per call (`_per_set`), so the caches stay a few MiB.

Each call allocates and frees about 1 MB of arrays on NOISY. The large
cached arrays sit outside the malloc heap (`_off_heap`), and the analytic
rows are sorted in place, to keep the heap a call grows below glibc's
trim threshold: past it, glibc trims the heap after each call and the
next call faults it back in, about 110 page faults per call. They have
not kept every benchmark run below it: see `_off_heap` for the counts.
"""
from __future__ import annotations

import functools
import mmap

import numpy as np

from .gaussian import Density, TruncatedGaussian, tv_distance
from .ntcf import NtcfKey, image_gaussian
from .oracle import (
    RegisterSpec,
    SparseState,
    apply_ufkb,
    full_distribution,
    init_uniform_full,
    load_gaussian_register,
)
from .zq import domain_grid, mat_vec_mul, read_only, row_codes, sort_codes

ANALYTIC_CAP = 2**20


# Parameter sets whose arrays are cached, and the most labels a cached
# set may have. A set holds 8 bytes per label and column and 24 more per
# label: about 0.2 MiB for NOISY (q=11, n=1, m=4, kappa=3; 2,673
# labels), at most 2.3 MiB at m=4. Larger sets, up to the oracle's
# MAX_LABELS, are built per call.
CACHED_SETS = 4
CACHED_LABELS = 2**15


def analytic_joint(k: NtcfKey, mis_shift: int = 0) -> Density:
    """Exact joint over (y..., b, x...) rows.

    mis_shift deliberately offsets the y coordinates; it exists as a
    fault-injection hook so the comparison's sensitivity is testable.
    """
    p = k.params
    bx, xs, e0, probs = _per_set(_analytic_skeleton, p.kappa, p.n, _capped_gaussian(p))
    rows = _analytic_rows(k, bx, xs, e0, mis_shift)
    # Coded in the oracle joint's radix, so the codes of the two joints
    # pair directly, and sorted in place a column at a time: a second
    # matrix would raise the peak of compare_joint by a sixth.
    radix = max(p.q, p.kappa)
    radices = np.full(rows.shape[1], radix, dtype=np.int64)
    order, codes = sort_codes(row_codes(rows, radices), radices)
    for j in range(rows.shape[1]):
        rows[:, j] = rows[order, j]
    return Density.from_sorted(rows, probs[order], radix, codes)


def _capped_gaussian(p) -> TruncatedGaussian:
    """The image Gaussian, once the analytic joint's support is checked
    against ANALYTIC_CAP (ValueError past it)."""
    g = image_gaussian(p)
    total = p.kappa * p.q**p.n * g.support_size()
    if total > ANALYTIC_CAP:
        raise ValueError(f"joint support {total} exceeds cap {ANALYTIC_CAP}")
    return g


def _analytic_rows(k: NtcfKey, bx, xs, e0, mis_shift: int) -> np.ndarray:
    """One (y, b, x) row per (b, x, e0), with y = Ax + b t + e0 mod q,
    written into one matrix. Distinct support points are distinct mod q,
    so every row is distinct, with probability D(e0) / (kappa q^n). It
    returns before the rows are sorted, so its y temporary is gone by
    then."""
    p = k.params
    q, m = p.q, p.m
    b = np.arange(p.kappa, dtype=np.int64)
    # Both terms of y are residues, so one conditional subtraction reduces it.
    center = (mat_vec_mul(k.A, xs, q) + (b[:, None] * k.t)[:, None, :]) % q
    y = center[:, :, None, :] + (e0 + mis_shift) % q
    y -= q * (y >= q)
    rows = np.empty((len(bx), len(e0), m + len(bx[0])), dtype=np.int64)
    rows[..., :m] = y.reshape(len(bx), len(e0), m)
    rows[..., m:] = bx[:, None, :]
    return rows.reshape(-1, rows.shape[-1])


@functools.lru_cache(maxsize=CACHED_SETS)
def _analytic_skeleton(kappa: int, n: int, g: TruncatedGaussian):
    """The analytic joint's key-independent part, all read-only: the b
    and x columns of its rows, once per (b, x) in row order (each row
    repeats them once per e0); the x grid; the e0 support; and each
    row's probability D(e0) / (kappa q^n)."""
    q = g.q
    e0, prob = g.support_arrays()
    xs = domain_grid(q, n)
    bx = np.hstack([np.repeat(np.arange(kappa), len(xs))[:, None], np.tile(xs, (kappa, 1))])
    probs = np.tile(prob / (kappa * q**n), kappa * q**n)
    return read_only(bx), read_only(xs), e0, _off_heap(probs)


@functools.lru_cache(maxsize=CACHED_SETS)
def _oracle_prefix(kappa: int, n: int, g: TruncatedGaussian) -> SparseState:
    """The circuit before U_f, which alone reads the key: uniform (b, x)
    and the Gaussian-amplitude y register. Its arrays are read-only."""
    specs = (RegisterSpec("b", "modq", 1, kappa), RegisterSpec("x", "modq", n, g.q))
    state = load_gaussian_register(
        init_uniform_full(specs), RegisterSpec("y", "modq", g.dim, g.q), g
    )
    state = SparseState(state.specs, _off_heap(state.labels), _off_heap(state.amps))
    read_only(state.radices)
    return state


def _per_set(cached, kappa: int, n: int, g: TruncatedGaussian):
    """`cached(kappa, n, g)`, through its cache for sets of at most
    CACHED_LABELS labels, and built afresh (`__wrapped__`) above that."""
    small = kappa * g.q**n * g.support_size() <= CACHED_LABELS
    return (cached if small else cached.__wrapped__)(kappa, n, g)


def _off_heap(a: np.ndarray) -> np.ndarray:
    """A read-only copy of an array in an anonymous memory map of its own.
    The large cached arrays live there, outside the malloc heap: inside
    it they filled the free space that each call's temporaries reuse,
    so calls grew the heap and glibc trimmed it back after them, and the
    next call faulted it in again. In 25-s oracle-noisy benchmark runs
    on a 2-vCPU container that read about 40 minor faults per op. With
    the maps, ten-run sets on unchanged code of this module read 1.4 to
    1.9 (BENCH_21.json), 24.6 to 31.3 (BENCH_22.json) and 12.5 to 14.7,
    one run at 70.5 (BENCH_24.json, both sides)."""
    out = np.frombuffer(mmap.mmap(-1, max(a.nbytes, 1)), dtype=a.dtype, count=a.size)
    out = out.reshape(a.shape)
    out[...] = a
    return read_only(out)


def oracle_joint(k: NtcfKey) -> Density:
    """The same joint, from the brute-force circuit simulation."""
    p = k.params
    state = apply_ufkb(_per_set(_oracle_prefix, p.kappa, p.n, image_gaussian(p)), k)
    return full_distribution(state, ("y", "b", "x"))


def joints(k: NtcfKey, mis_shift: int = 0) -> tuple[Density, Density]:
    """The analytic and the oracle joint of a key. The oracle runs first,
    once the analytic cap is checked: its U_f state peaks higher than the
    analytic joint, so it runs with no other joint alive. The state
    before U_f is not among its temporaries where its set is cached
    (at most CACHED_LABELS labels)."""
    _capped_gaussian(k.params)
    oracle = oracle_joint(k)
    return analytic_joint(k, mis_shift=mis_shift), oracle


def compare_joint(k: NtcfKey, mis_shift: int = 0) -> float:
    """Total variation distance between the two joints."""
    return tv_distance(*joints(k, mis_shift))
