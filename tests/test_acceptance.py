"""Top-level acceptance gate: ten criteria, one pass/fail line each.

Every criterion is an independent test with its tolerance pinned as a
literal; the summary lines appear after the pytest report."""
import itertools
import math
import time

import numpy as np

import conftest
from ntcfk.gaussian import (
    TruncatedGaussian,
    hellinger_shift_bound,
    hellinger_sq,
    shifted_density,
    tv_distance,
)
from ntcfk.crosscheck import compare_joint
from ntcfk.ntcf import (
    NtcfKey,
    NtcfParams,
    compute_bp,
    gen,
    hellinger_branch,
    inv,
)
from ntcfk.oracle import (
    RegisterSpec,
    SparseState,
    apply_hadamard_bits,
    apply_qft_q,
    apply_ufkb,
    init_uniform_full,
)
from ntcfk.presets import get_preset
from ntcfk.prover import (
    CheatCommitProver,
    HonestProver,
    RedFailed,
    ResidualState,
    red,
)
from ntcfk.protocol import run_protocol, run_protocol_tcp
from ntcfk.reductions import end_to_end_recover, instance_from_key, verify_candidate
from ntcfk.zq import ZqVector, mat_vec_mul

TINY = get_preset("tiny-exact")
DESK = get_preset("desk-k3")


def report(tag: str, ok: bool, detail: str):
    line = f"[{tag}] {'pass' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def claw_residual(kappa, q, s_val, x0_val):
    p = NtcfParams(
        q=q, n=1, m=2, ell=1, kappa=kappa, b_l=0.1, b_v=0.2,
        b_p=compute_bp(q, 1, 2, kappa, 1.4), c_t=1.4,
    )
    k = NtcfKey(
        p, np.array([[1], [3]]), np.array([0, 0])
    )
    s = ZqVector(np.array([s_val]), q)
    labels = (x0_val - s_val * np.arange(kappa)[:, None]) % q
    amps = np.full(kappa, 1.0 / math.sqrt(kappa))
    return ResidualState(k, np.array([0, 0]), np.arange(kappa), labels, amps), s


def test_c01_keygen_and_inversion():
    """1000 fresh desk-scale keys; every noisy image inverts exactly."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    g = TruncatedGaussian(DESK.q, DESK.b_p, DESK.m)
    failures = 0
    for _ in range(1000):
        k, t = gen(DESK, rng)
        b = int(rng.integers(0, DESK.kappa))
        x = rng.integers(0, DESK.q, size=DESK.n, dtype=np.int64)
        y = (mat_vec_mul(k.A, x, DESK.q) + g.sample(rng) + b * k.t) % DESK.q
        if not np.array_equal(inv(k, t, b, y), x):
            failures += 1
    dt = time.time() - t0
    report(
        "C01", failures == 0 and dt < 60.0,
        f"1000/1000 desk-k3 inversions exact, {dt:.1f}s (limit 60s), "
        f"{failures} failures",
    )


def test_c02_hellinger_bounds():
    """Exact H^2 never exceeds the shift bound (exhaustive at q=97) nor
    the per-branch display bound; tolerance 1e-10."""
    q, B, m = 97, 5.0, 2
    g = TruncatedGaussian(q, B, m)
    base = g.table()
    limit = B * math.sqrt(m)
    violations = 0
    checked = 0
    for e1 in range(-10, 11):
        for e2 in range(-10, 11):
            norm = math.hypot(e1, e2)
            if norm > limit:
                continue
            checked += 1
            shifted = shifted_density(
                g, np.array([e1, e2]) % q
            )
            if hellinger_sq(base, shifted) > hellinger_shift_bound(B, m, norm) + 1e-10:
                violations += 1
    rng = np.random.default_rng(102)
    branch_ok = True
    for _ in range(20):
        k, t = gen(TINY, rng)
        for b in range(TINY.kappa):
            exact, bound = hellinger_branch(k, t, b)
            branch_ok = branch_ok and exact <= bound + 1e-10
    report(
        "C02", violations == 0 and branch_ok,
        f"{checked} exhaustive shifts within bound at q=97, all branch "
        f"H^2 under the display bound (tol 1e-10)",
    )


def test_c03_oracle_crosscheck():
    """Analytic joint vs brute-force circuit joint at tiny-exact."""
    rng = np.random.default_rng(103)
    t0 = time.time()
    worst = 0.0
    for _ in range(3):
        k, _t = gen(TINY, rng)
        worst = max(worst, compare_joint(k))
    dt = time.time() - t0
    report(
        "C03", worst <= 1e-9 and dt < 120.0,
        f"max TV(analytic, oracle) = {worst:.3e} (limit 1e-9), "
        f"{dt:.1f}s (limit 120s)",
    )


def test_c04_red_statistics():
    """RED success rates (kappa-1)/kappa odd, (kappa-2)/kappa even,
    within 0.02 over 10^4 trials; every success yields sbar = 2*b'*s."""
    details = []
    ok = True
    for kappa, expect in ((3, 2 / 3), (4, 1 / 2), (5, 4 / 5)):
        res, s = claw_residual(kappa, 11, 3, 5)
        rng = np.random.default_rng(104 + kappa)
        n = 10_000
        succ = 0
        secret_ok = True
        for _ in range(n):
            try:
                v, d_state = red(res, rng)
            except RedFailed:
                continue
            succ += 1
            secret_ok = secret_ok and np.array_equal(d_state.sbar, 2 * v * s.entries % 11)
        rate = succ / n
        ok = ok and abs(rate - expect) < 0.02 and secret_ok
        details.append(f"kappa={kappa}: {rate:.3f} (expect {expect:.3f})")
    report("C04", ok, "; ".join(details) + "; all secrets 2*b'*s")


def test_c05_honest_completeness():
    """1000 completed desk rounds, all accepted, retry fraction < 40%."""
    prover = HonestProver(np.random.default_rng(105), mode="idealized-claw")
    stats = run_protocol(
        DESK, prover, 1000, np.random.default_rng(106),
        retry_cap=2000, keep_transcripts=False,
    )
    frac = stats.retries / (stats.rounds_completed + stats.retries)
    report(
        "C05", stats.all_accepted and frac < 0.40,
        f"accept rate {stats.accept_rate:.3f} over 1000 rounds, "
        f"retry fraction {frac:.3f} (limit 0.40)",
    )


def test_c06_classical_baseline():
    """Commit cheater: p_pre >= 0.999, p_eq = 0.5 +- 0.03, and the
    quantumness score p_pre + 2*p_eq - 2 stays <= 0.05."""
    prover = CheatCommitProver(np.random.default_rng(107))
    stats = run_protocol(
        DESK, prover, 20_000, np.random.default_rng(108),
        retry_cap=30_000, keep_transcripts=False,
    )
    p_pre = stats.gen_passes / stats.gen_rounds
    p_eq = stats.test_passes / stats.test_rounds
    score = p_pre + 2 * p_eq - 2
    ok = p_pre >= 0.999 and abs(p_eq - 0.5) <= 0.03 and score <= 0.05
    report(
        "C06", ok,
        f"p_pre={p_pre:.4f} ({stats.gen_rounds} rounds), "
        f"p_eq={p_eq:.4f} ({stats.test_rounds} rounds), score={score:+.4f} "
        f"(limit 0.05)",
    )


def test_c07_reductions_recover_secret():
    """100 instances per pipeline (DCP, EDCP kappa=3 and 5); every run
    recovers the planted s and passes the B_V residual check."""
    rng = np.random.default_rng(109)
    ok = True
    details = []
    for path, kappa in (("dcp", None), ("edcp", 3), ("edcp", 5)):
        wins = 0
        for _ in range(100):
            k, t = gen(DESK, rng)
            inst = instance_from_key(k, planted_s=t.s)
            rep = end_to_end_recover(inst, path, rng, kappa=kappa)
            if rep.success and rep.candidate == t.s and verify_candidate(
                inst, rep.candidate
            ):
                wins += 1
        ok = ok and wins == 100
        label = path if kappa is None else f"{path}(kappa={kappa})"
        details.append(f"{label}: {wins}/100")
    report("C07", ok, "; ".join(details))


def test_c08_oracle_unitarity():
    """QFT and Hadamard round trips at fidelity >= 1 - 1e-9; U_f is an
    exhaustive bijection on the full tiny register space."""
    rng = np.random.default_rng(110)
    spec = (RegisterSpec("x", "modq", 2, 5),)
    labels = np.array(list(itertools.product(range(5), repeat=2)))
    amps = np.array([complex(rng.normal(), rng.normal()) for _ in labels])
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    st = SparseState(spec, labels, amps / norm)
    f_qft = apply_qft_q(apply_qft_q(st, "x"), "x", inverse=True).fidelity(st)

    bspec = (RegisterSpec("d", "bits", 4),)
    bst = SparseState(bspec, np.array([[1, 0, 1, 1]]), np.array([1.0 + 0j]))
    f_had = apply_hadamard_bits(apply_hadamard_bits(bst, "d"), "d").fidelity(bst)

    k, _t = gen(TINY, np.random.default_rng(111))
    full = init_uniform_full(
        (
            RegisterSpec("b", "modq", 1, TINY.kappa),
            RegisterSpec("x", "modq", TINY.n, TINY.q),
            RegisterSpec("y", "modq", TINY.m, TINY.q),
        )
    )
    out = apply_ufkb(full, k)
    bijective = len(out.amps) == len(full.amps) == TINY.kappa * TINY.q ** (
        TINY.n + TINY.m
    )
    ok = f_qft >= 1 - 1e-9 and f_had >= 1 - 1e-9 and bijective
    report(
        "C08", ok,
        f"QFT fidelity {f_qft:.12f}, Hadamard fidelity {f_had:.12f} "
        f"(floor 1-1e-9), U_f bijective on {len(full.amps)} labels",
    )


def test_c09_serialization_and_transports():
    """Golden files regenerate byte-exactly; in-process and TCP runs
    emit identical frame streams."""
    import test_golden

    stored = test_golden.read_golden_frames()
    fresh = test_golden.golden_frames()
    frames_ok = stored == fresh
    key_ok = (
        test_golden.key_to_text(test_golden.golden_key())
        == (test_golden.GOLDEN / "key.pub").read_text()
    )
    a = run_protocol(
        TINY,
        HonestProver(np.random.default_rng(112), mode="exact-enumeration"),
        10,
        np.random.default_rng(113),
    )
    b = run_protocol_tcp(
        TINY,
        HonestProver(np.random.default_rng(112), mode="exact-enumeration"),
        10,
        np.random.default_rng(113),
    )
    fa = [f for t in a.transcripts for f in t.frames]
    fb = [f for t in b.transcripts for f in t.frames]
    transport_ok = fa == fb and len(fa) > 0
    report(
        "C09", frames_ok and key_ok and transport_ok,
        f"{len(stored)} golden frames byte-exact, key file byte-exact, "
        f"{len(fa)} inproc frames == tcp frames",
    )


def test_c10_session_wall_clock():
    """The whole suite stays under the 10 minute budget."""
    elapsed = time.time() - conftest.SESSION_T0
    report(
        "C10", elapsed < 600.0,
        f"session wall clock {elapsed:.1f}s (limit 600s)",
    )
