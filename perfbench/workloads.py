"""The benchmark workloads.

Each workload makes its inputs from the seed, runs ops until the time
is up and at least `window` ops are done, times each op, and checks
each op's output. A failed op is counted, never raised.

  desk-inproc   `run_protocol` sessions on desk-k3; the op is one attempt
  desk-tcp      the same sessions, seeds and prover over loopback TCP
  reduce-desk   the op is one LWE instance through the dcp and edcp paths
  oracle-noisy  the op is one `compare_joint` on a small noisy preset

Protocol sessions run a fixed number of rounds each (128 in process, 32
over TCP), back to back on the same generators, so each session hands back its stats and transcripts
for the checks while memory stays bounded. An attempt's time runs from
its `receive_key` to the next one (or to the end of its session).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ntcfk.crosscheck as crosscheck
import ntcfk.ntcf as ntcf
import ntcfk.protocol as protocol
import ntcfk.reductions as reductions
from ntcfk.presets import get_preset
from ntcfk.prover import HonestProver

DESK = get_preset("desk-k3")
# q=11, n=1, m=4, kappa=3: small enough for the oracle, and B_P ~ 1.83
# gives every coordinate three noise values, so the oracle works through
# ~2.7k labels per op. tiny-exact has zero noise and leaves it idle.
NOISY = ntcf.NtcfParams(
    q=11, n=1, m=4, ell=1, kappa=3, b_l=0.2, b_v=0.3,
    b_p=ntcf.compute_bp(11, 1, 4, 3, 0.5), c_t=0.5,
)
TV_LIMIT = 1e-9
REDUCE_STATES = 8  # the `ntcfk reduce --ell` default
EDCP_KAPPA = 3
TCP_CHECK_ROUNDS = 4  # rounds whose TCP transcripts must equal the in-process ones
MAX_ERRORS = 5  # failure reasons kept for the report


@dataclass
class Phase:
    """What one measured stretch of a workload did."""

    op_ns: list[int] = field(default_factory=list)
    failed: int = 0
    untimed_failures: int = 0  # ops that failed before they could be timed
    errors: list[str] = field(default_factory=list)
    transcripts: list = field(default_factory=list)  # the first attempts only

    @property
    def attempted(self) -> int:
        return len(self.op_ns) + self.untimed_failures

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(reason)

    @classmethod
    def merge(cls, phases: list["Phase"]) -> "Phase":
        """One phase of all ops; the transcripts are the first phase's."""
        return cls(
            op_ns=[ns for p in phases for ns in p.op_ns],
            failed=sum(p.failed for p in phases),
            untimed_failures=sum(p.untimed_failures for p in phases),
            errors=[e for p in phases for e in p.errors][:MAX_ERRORS],
            transcripts=phases[0].transcripts,
        )


class StampingProver:
    """Forwards every call to the honest prover and stamps the start of
    each attempt, which is its `receive_key`."""

    def __init__(self, inner, tracer=None):
        self._inner = inner
        self._tracer = tracer
        self.stamps: list[int] = []

    @property
    def wants_secret_hint(self) -> bool:
        return self._inner.wants_secret_hint

    def set_secret_hint(self, s) -> None:
        self._inner.set_secret_hint(s)

    def receive_key(self, key):
        self.stamps.append(time.perf_counter_ns())
        if self._tracer is not None:
            self._tracer.op = self._tracer.op_base + len(self.stamps)
        return self._inner.receive_key(key)

    def respond_generation(self):
        return self._inner.respond_generation()

    def respond_test(self):
        return self._inner.respond_test()


def _honest(rng) -> HonestProver:
    # The mode `ntcfk protocol --preset desk-k3` picks: kappa*q^n is above
    # the enumeration cap.
    return HonestProver(rng, mode="idealized-claw")


def _session_rngs(seed: int):
    """Verifier and prover generators, seeded as `ntcfk protocol --seed`."""
    return np.random.default_rng(seed), np.random.default_rng(seed + 1)


def _run_sessions(drive, rounds: int, keep: int, seed: int, seconds: float,
                  min_ops: int, tracer=None) -> Phase:
    v_rng, p_rng = _session_rngs(seed)
    prover = StampingProver(_honest(p_rng), tracer)
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(prover.stamps) < min_ops:
        first = len(prover.stamps)
        try:
            stats = drive(DESK, prover, rounds, v_rng)
        except Exception as exc:  # counted as a failed op; the session is over
            stats = None
            phase.fail(f"session raised {exc!r}")
            if len(prover.stamps) == first:
                phase.untimed_failures += 1
        stamps = prover.stamps[first:] + [time.perf_counter_ns()]
        phase.op_ns += [b - a for a, b in zip(stamps, stamps[1:])]
        if stats is None:
            break
        for t in stats.transcripts:
            if t.verdict == "reject":
                phase.fail(f"honest round rejected: {t.reason}")
        phase.transcripts += stats.transcripts[: max(keep - len(phase.transcripts), 0)]
    return phase


def _timed_op(phase: Phase, tracer, op, check) -> None:
    """Time op(); check(result) returns None or why the op failed."""
    if tracer is not None:
        tracer.op = tracer.op_base + phase.attempted + 1
        tracer.active = True
    start = time.perf_counter_ns()
    try:
        result = op()
        error = None
    except Exception as exc:  # counted as a failed op
        error = f"op raised {exc!r}"
    phase.op_ns.append(time.perf_counter_ns() - start)
    if tracer is not None:
        tracer.active = False
    if error is None:
        error = check(result)
    if error is not None:
        phase.fail(error)


def _recover_both(inst, rng):
    return (
        reductions.end_to_end_recover(inst, "dcp", rng, count=REDUCE_STATES),
        reductions.end_to_end_recover(
            inst, "edcp", rng, count=REDUCE_STATES, kappa=EDCP_KAPPA
        ),
    )


def _check_recovered(reports, planted):
    for path, report in zip(("dcp", "edcp"), reports):
        if not report.success or report.candidate != planted:
            return f"{path} path did not recover the planted secret: {report.detail}"
    return None


def _check_tv(tv):
    return None if tv <= TV_LIMIT else f"TV {tv:.3e} above {TV_LIMIT}"


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, seconds, min_ops, tracer) -> Phase
    run: Callable[..., Phase]
    # smallest run, on generators apart from the measured ones
    warm_up: Callable[[int], None]
    # ops over which the exact per-op counts are taken
    window: int
    # extra output checks after the run: (seed, phase) -> failure reasons
    check: Callable[[int, Phase], list[str]] = lambda seed, phase: []
    # whether ops are protocol attempts (rounds_per_attempt applies)
    protocol: bool = False


def _session_workload(name: str, drive, rounds: int, window: int, check=None):
    keep = max(window, TCP_CHECK_ROUNDS * 2)

    def run(seed, seconds, min_ops, tracer=None):
        return _run_sessions(drive, rounds, keep, seed, seconds, min_ops, tracer)

    def warm_up(seed):
        v_rng, p_rng = _session_rngs(seed)
        drive(DESK, _honest(p_rng), 4, v_rng)

    extra = {} if check is None else {"check": check}
    return Workload(name, run, warm_up, window, protocol=True, **extra)


def _check_tcp_transcripts(seed: int, phase: Phase) -> list[str]:
    """The first TCP transcripts equal the in-process ones, byte for byte."""
    v_rng, p_rng = _session_rngs(seed)
    want = protocol.run_protocol(DESK, _honest(p_rng), TCP_CHECK_ROUNDS, v_rng).transcripts
    got = phase.transcripts[: len(want)]
    bad = [i for i, (a, b) in enumerate(zip(want, got))
           if a.frames != b.frames or a.verdict != b.verdict]
    bad += range(len(got), len(want))
    return [f"tcp transcript {i} differs from the in-process one" for i in bad]


def _run_reduce(seed, seconds, min_ops, tracer=None) -> Phase:
    key_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(phase.op_ns) < min_ops:
        key, trap = ntcf.gen(DESK, key_rng)  # the op's input, not timed
        inst = reductions.instance_from_key(key, planted_s=trap.s)
        _timed_op(phase, tracer, lambda: _recover_both(inst, rng),
                  lambda reports: _check_recovered(reports, trap.s))
    return phase


def _run_oracle(seed, seconds, min_ops, tracer=None) -> Phase:
    key_rng = np.random.default_rng(seed)
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(phase.op_ns) < min_ops:
        key, _trap = ntcf.gen(NOISY, key_rng)  # the op's input, not timed
        _timed_op(phase, tracer, lambda: crosscheck.compare_joint(key), _check_tv)
    return phase


WORKLOADS = {
    w.name: w
    for w in (
        _session_workload("desk-inproc", protocol.run_protocol, rounds=128, window=64),
        _session_workload("desk-tcp", protocol.run_protocol_tcp, rounds=32, window=32,
                          check=_check_tcp_transcripts),
        Workload("reduce-desk", _run_reduce,
                 lambda seed: _run_reduce(seed, 0.0, 2), window=64),
        Workload("oracle-noisy", _run_oracle,
                 lambda seed: _run_oracle(seed, 0.0, 1), window=8),
    )
}
