"""The kappa-to-1 noisy trapdoor claw-free function family over LWE.

A key is k = (A, t) with t = A s + e mod q. The evaluated branch density is

    f'_{k,b}(x)(y) = D_{Z_q^m, B_P}(y - A x - b t)

for b in {0, ..., kappa-1}, computable from the public key alone. The
ideal branch f_{k,b}(x)(y) = D(y - A x - b A s) needs the secret s. The
kappa preimages of an honest image form a claw x_b = x_0 - b s mod q.

Parameter validation splits into hard conditions (prime q, the B_P
formula, the width ordering) and desk-mode warnings (dimension growth
and ratio conditions, which have no meaning at toy sizes and are
replaced by the numeric floors below).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import trapdoor as td
from .gaussian import Density, TruncatedGaussian, hellinger_sq, shifted_density
from .serialize import HEADER_KEY, HEADER_SK, FormatError, LineReader, LineWriter
from .zq import (DimensionError, ZqVector, bit_width, euclidean_norm, is_prime, lift_residues,
                 mat_vec_mul, read_only)

RATIO_FLOOR = 8.0  # desk stand-in for the asymptotic width-ratio conditions
GROWTH_CONST = 1  # constant in the dimension growth conditions


def compute_bp(q: int, n: int, m: int, kappa: int, c_t: float) -> float:
    """B_P = q / (kappa * C_T * sqrt(m * n * ceil(log2 q))).

    Raises ValueError unless kappa, C_T, m and n are positive and fit a float.
    """
    if not (kappa > 0 and c_t > 0 and m > 0 and n > 0):
        raise ValueError(
            f"B_P needs positive kappa, C_T, m and n; got kappa={kappa}, "
            f"C_T={c_t}, m={m}, n={n}"
        )
    logq = bit_width(q)
    try:
        return q / (kappa * c_t * math.sqrt(m * n * logq))
    except OverflowError as exc:
        raise ValueError(f"B_P: kappa, m or n too large ({exc})") from exc


@dataclass(frozen=True)
class NtcfParams:
    q: int
    n: int
    m: int
    ell: int
    kappa: int
    b_l: float
    b_v: float
    b_p: float
    c_t: float
    mode: str = "desk"  # "desk" | "asymptotic"

    @property
    def logq(self) -> int:
        return bit_width(self.q)

    @property
    def d_len(self) -> int:
        """Bit length of the equation-test string d."""
        return self.n * self.logq


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_params(p: NtcfParams) -> ValidationReport:
    """Check the family's parameter conditions.

    Hard failures: q outside [2, 2^31) (reported alone, since nothing
    else is defined then), q not prime, kappa outside [2, q] (past q the claw
    x_b = x_0 - b s repeats mod q), stored B_P off the defining
    formula, or a broken ordering 0 < B_L < B_V < B_P < q. The dimension
    growth conditions (n vs ell*log q, m vs n*log q), the lower bound
    2*sqrt(n) <= B_L, and the width-ratio conditions are warnings in desk
    mode and failures in asymptotic mode. Any field values give a report,
    never an exception.
    """
    try:
        logq = p.logq
    except ValueError as exc:
        return ValidationReport((str(exc),), ())
    hard: list[str] = []
    soft: list[str] = []
    if not is_prime(p.q):
        hard.append(f"q={p.q} is not prime")
    if not 2 <= p.kappa <= p.q:
        hard.append(f"kappa={p.kappa} must be >= 2 and <= q={p.q}")
    if p.mode not in ("desk", "asymptotic"):
        hard.append(f"unknown mode {p.mode!r}")
    try:
        expect_bp = compute_bp(p.q, p.n, p.m, p.kappa, p.c_t)
    except ValueError as exc:
        hard.append(str(exc))
        expect_bp = None
    else:
        if not math.isclose(p.b_p, expect_bp, rel_tol=1e-12, abs_tol=0.0):
            hard.append(f"B_P={p.b_p!r} does not match the formula value {expect_bp!r}")
    ordered = 0 < p.b_l < p.b_v < p.b_p < p.q
    if not ordered:
        hard.append(
            f"width ordering violated: need 0 < B_L={p.b_l} < B_V={p.b_v} "
            f"< B_P={p.b_p} < q"
        )

    sink = soft if p.mode == "desk" else hard  # messages are built only on failure
    if p.n < GROWTH_CONST * p.ell * logq:
        sink.append(f"n={p.n} < ell*log2(q)={p.ell * logq}")
    if p.m < GROWTH_CONST * p.n * logq:
        sink.append(f"m={p.m} < n*log2(q)={p.n * logq}")
    if expect_bp is not None and ordered:  # else sqrt(n) or a ratio may be undefined
        bl_floor, bp_bv, bv_bl = 2 * math.sqrt(p.n), p.b_p / p.b_v, p.b_v / p.b_l
        if bl_floor > p.b_l:
            sink.append(f"2*sqrt(n)={bl_floor:.3f} > B_L={p.b_l}")
        if bp_bv < RATIO_FLOOR:
            sink.append(f"B_P/B_V={bp_bv:.3f} below floor {RATIO_FLOOR}")
        if bv_bl < RATIO_FLOOR:
            sink.append(f"B_V/B_L={bv_bl:.3f} below floor {RATIO_FLOOR}")
    return ValidationReport(tuple(hard), tuple(soft))


@dataclass(frozen=True, eq=False)
class NtcfKey:
    """(A, t), A a read-only m x n array of residues and t a read-only
    length-m one; equal by value, unhashable."""

    params: NtcfParams
    A: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if len(self.t) != self.params.m:
            raise ValueError(f"t must have length m={self.params.m}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, NtcfKey) and self.params == other.params
                and np.array_equal(self.A, other.A) and np.array_equal(self.t, other.t))


@dataclass(frozen=True, eq=False)
class NtcfTrapdoor:
    """(t_A, s, e), e a read-only length-m array; equal by value, unhashable."""

    t_a: td.TrapdoorKey
    s: ZqVector
    e: np.ndarray

    def __eq__(self, other) -> bool:
        return (isinstance(other, NtcfTrapdoor) and self.t_a == other.t_a
                and self.s == other.s and np.array_equal(self.e, other.e))


def gen(p: NtcfParams, rng: np.random.Generator) -> tuple[NtcfKey, NtcfTrapdoor]:
    """Sample a key k = (A, As+e) and its trapdoor (t_A, s, e)."""
    report = validate_params(p)
    if not report.ok:
        raise ValueError("invalid parameters: " + "; ".join(report.violations))
    A, t_a = td.gen_trap(p.n, p.m, p.q, rng)
    s = ZqVector.uniform(p.n, p.q, rng)
    e = TruncatedGaussian(p.q, p.b_v, p.m).sample(rng)
    t = read_only((mat_vec_mul(A, s.entries, p.q) + e) % p.q)
    return NtcfKey(p, A, t), NtcfTrapdoor(t_a, s, e)


def _check_branch(p: NtcfParams, b: int):
    if not 0 <= b < p.kappa:
        raise ValueError(f"branch b={b} out of range [0, {p.kappa})")


def image_gaussian(p: NtcfParams) -> TruncatedGaussian:
    """D_{Z_q^m, B_P}, the image Gaussian of every branch."""
    return TruncatedGaussian(p.q, p.b_p, p.m)


def _center(k: NtcfKey, b: int, x: np.ndarray) -> np.ndarray:
    """The center A x + b*t mod q of the branch f'_{k,b}(x)."""
    q = k.params.q
    return (mat_vec_mul(k.A, x, q) + b * k.t) % q


def f_prime_density(k: NtcfKey, b: int, x: np.ndarray) -> Density:
    """Exact table of f'_{k,b}(x): the image Gaussian shifted to Ax + b*t.

    Public: uses only the key. Desk scale only (materializes the table).
    """
    _check_branch(k.params, b)
    return shifted_density(image_gaussian(k.params), _center(k, b, x))


def f_density(k: NtcfKey, t: NtcfTrapdoor, b: int, x: np.ndarray) -> Density:
    """Exact table of the ideal branch f_{k,b}(x), centered at Ax + b*As.

    Needs the trapdoor because the shift references As rather than As+e.
    """
    _check_branch(k.params, b)
    q = k.params.q
    shift = (mat_vec_mul(k.A, x, q) + b * mat_vec_mul(k.A, t.s.entries, q)) % q
    return shifted_density(image_gaussian(k.params), shift)


def f_prime_eval(k: NtcfKey, b: int, x: np.ndarray, y: np.ndarray) -> float:
    """Point evaluation of f'_{k,b}(x)(y); works at any scale."""
    _check_branch(k.params, b)
    return image_gaussian(k.params).density_eval((y - _center(k, b, x)) % k.params.q)


def inv(k: NtcfKey, t: NtcfTrapdoor, b: int, y: np.ndarray) -> np.ndarray:
    """Recover x from y in the support of f'_{k,b}(x).

    Inverts y = A(x + b s) + (e0 + b e) with the trapdoor and subtracts
    b*s. The residual noise bound B_P*sqrt(m) + b*B_V*sqrt(m) is enforced
    so a decode outside the honest support fails loudly. The result is
    read-only.
    """
    p = k.params
    _check_branch(p, b)
    bound = (p.b_p + b * p.b_v) * math.sqrt(p.m)
    s_shift, _e = td.invert(t.t_a, y, max_error_norm=bound)
    return read_only((s_shift - b * t.s.entries) % p.q)


def chk(k: NtcfKey, b: int, x: np.ndarray, y: np.ndarray) -> int:
    """Public support check: 1 iff ||y - Ax - b*t|| <= B_P*sqrt(m)."""
    p = k.params
    if not 0 <= b < p.kappa:
        return 0
    return int(euclidean_norm((y - _center(k, b, x)) % p.q, p.q) <= p.b_p * math.sqrt(p.m))


def claws(x0: np.ndarray, s: ZqVector, kappa: int) -> np.ndarray:
    """The claw of every row x_0 of x0 as one (rows, kappa, n) array whose
    [i, b] row is x_b = x_0 - b*s mod q."""
    if x0.shape[-1] != len(s):
        raise DimensionError(f"x_0 rows have length {x0.shape[-1]}, s has {len(s)}")
    b = np.arange(kappa)[:, None]
    return (x0[:, None, :] - b * s.entries) % s.q


def claw_enumerate(k: NtcfKey, t: NtcfTrapdoor, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """All kappa preimages of y, one per branch.

    Every branch inverts y to the same decode, and branch 0 has the
    tightest noise bound, so inverting at b = 0 settles the whole claw.
    """
    return tuple(claws(inv(k, t, 0, y)[None, :], t.s, k.params.kappa)[0])


def hellinger_display_bound(p: NtcfParams, b: int) -> float:
    """The family's display bound 1 - exp(-2*pi*m*b*B_V/B_P) on the H^2
    of branch b."""
    return 1.0 - math.exp(-2.0 * math.pi * p.m * b * p.b_v / p.b_p)


def hellinger_branch(k: NtcfKey, t: NtcfTrapdoor, b: int) -> tuple[float, float]:
    """Exact H^2 between f_{k,b}(x) and f'_{k,b}(x), the same for every x,
    with the family's display bound `hellinger_display_bound`.

    The two branch densities are shifts of each other by b*e, so the
    exact value only depends on b and e. Both are products of 1-D
    factors, so the Hellinger affinity is the product of the 1-D ones
    in coordinate order; this stays exact without the q^m joint table.
    """
    p = k.params
    _check_branch(p, b)
    g1 = TruncatedGaussian(p.q, p.b_p, 1)
    base = g1.table()
    affinity = 1.0
    for shift in (b * t.e % p.q).tolist():
        affinity *= 1.0 - hellinger_sq(base, shifted_density(g1, [shift]))
    return 1.0 - affinity, hellinger_display_bound(p, b)


# serialization -------------------------------------------------------------

def _params_fields(w: LineWriter, p: NtcfParams) -> None:
    w.field("q", p.q)
    w.field("n", p.n)
    w.field("m", p.m)
    w.field("ell", p.ell)
    w.field("kappa", p.kappa)
    w.float_field("b_l", p.b_l)
    w.float_field("b_v", p.b_v)
    w.float_field("b_p", p.b_p)
    w.float_field("c_t", p.c_t)
    w.field("mode", p.mode)


PARAMS_LINES = 10  # the lines `_params_fields` writes


@functools.lru_cache(maxsize=64)
def _params_from_text(text: str) -> NtcfParams:
    """The params in a key's params lines, with q in [2, 2^31) and a
    report `validate_params` passes; anything else is a FormatError.
    Equal text parses to equal params, so the cache is exact; a failing
    text is never stored, and raises on every call."""
    r = LineReader(text + "\n")
    p = NtcfParams(
        q=r.int_field("q"),
        n=r.int_field("n"),
        m=r.int_field("m"),
        ell=r.int_field("ell"),
        kappa=r.int_field("kappa"),
        b_l=r.float_field("b_l"),
        b_v=r.float_field("b_v"),
        b_p=r.float_field("b_p"),
        c_t=r.float_field("c_t"),
        mode=r.field("mode"),
    )
    report = validate_params(p)
    if not report.ok:
        raise FormatError("invalid parameters: " + "; ".join(report.violations))
    return p


def _key_write(w: LineWriter, k: NtcfKey) -> None:
    """The params, A and t of a key, as `_key_read` reads them."""
    _params_fields(w, k.params)
    w.matrix("A", k.A)
    w.vector("t", k.t)


def key_to_text(k: NtcfKey) -> str:
    w = LineWriter(HEADER_KEY)
    _key_write(w, k)
    return w.text()


def _key_read(r: LineReader) -> NtcfKey:
    """The params (see `_params_from_text`), an m x n matrix A and t of
    length m of a key; anything else is a FormatError."""
    p = _params_from_text(r.block(PARAMS_LINES))
    A = r.matrix("A", p.m, p.n, p.q)
    return NtcfKey(p, A, r.vector("t", p.q, p.m))


def key_from_text(text: str) -> NtcfKey:
    r = LineReader(text, HEADER_KEY)
    k = _key_read(r)
    r.done()
    return k


def trapdoor_to_text(k: NtcfKey, t: NtcfTrapdoor) -> str:
    w = LineWriter(HEADER_SK)
    _key_write(w, k)
    w.field("trap_mode", t.t_a.mode)
    w.field("n_bar", t.t_a.n_bar)
    if t.t_a.R is not None:
        w.field("gadget_base", td.GADGET_BASE)
        w.matrix("R", t.t_a.R)
    w.vector("s", t.s.entries)
    w.vector("e", t.e)
    return w.text()


def _expect(r: LineReader, name: str, value) -> None:
    """Read a field that must hold exactly the writer's text of value."""
    got = r.field(name)
    if got != str(value):
        raise FormatError(f"field {name}: {got!r}, not {str(value)!r}")


def _trapdoor_read(r: LineReader, A: np.ndarray, q: int) -> td.TrapdoorKey:
    """The trapdoor fields of a secret key for A mod q. The mode, n_bar and
    base must be the ones A's shape and q give; in the gadget layout R is an
    n*k x n_bar matrix over {-1, 0, 1} with [R | I] A = G, and in the
    exhaustive one q^n is within the search cap and x -> Ax injective, as
    `gen_trap` makes them. Anything else is a FormatError."""
    m, n = A.shape
    if not td.gadget_fits(n, m, q):
        _expect(r, "trap_mode", "exhaustive")
        _expect(r, "n_bar", 0)
        if q**n > td.EXHAUSTIVE_CAP:
            raise FormatError(f"matrix A: q^n={q**n} exceeds the exhaustive-search "
                              f"cap {td.EXHAUSTIVE_CAP}")
        if not td._injective_on_domain(A, q):
            raise FormatError("matrix A: x -> Ax is not injective on Z_q^n")
        return td.TrapdoorKey(A, q)
    w = n * bit_width(q)
    _expect(r, "trap_mode", "gadget")
    _expect(r, "n_bar", m - w)
    _expect(r, "gadget_base", td.GADGET_BASE)
    R = r.matrix("R", w, m - w)
    if R.min() < -1 or R.max() > 1:
        raise FormatError("matrix R: entries must be in {-1, 0, 1}")
    t_a = td.TrapdoorKey(A, q, R)
    if not t_a.relation_holds():
        raise FormatError("matrix R: [R | I] A != G mod q")
    return t_a


def trapdoor_from_text(text: str) -> tuple[NtcfKey, NtcfTrapdoor]:
    """A key, its trapdoor fields (see `_trapdoor_read`), then s and e of
    lengths n and m, each centered entry of e within the radius `gen`
    draws it from, and t = A s + e mod q; anything else is a FormatError."""
    r = LineReader(text, HEADER_SK)
    k = _key_read(r)
    p = k.params
    t_a = _trapdoor_read(r, k.A, p.q)
    s = r.vector("s", p.q, p.n)
    e = r.vector("e", p.q, p.m)
    r.done()
    radius = TruncatedGaussian(p.q, p.b_v, p.m).radius
    if np.abs(lift_residues(e, p.q)).max() > radius:
        raise FormatError(f"field e: an entry lies outside the B_V radius {radius}")
    if not np.array_equal((mat_vec_mul(k.A, s, p.q) + e) % p.q, k.t):
        raise FormatError("fields s, e: t != A s + e mod q")
    return k, NtcfTrapdoor(t_a, ZqVector(s, p.q), e)
