"""Span tracer for the traced benchmark run.

Every traced function is wrapped from outside by replacing the name its
caller binds: `protocol.py` does `from .ntcf import gen`, so the wrapper
goes on `ntcfk.protocol.gen`; `ntcf.gen` calls `td.gen_trap`, so it goes
on `ntcfk.trapdoor.gen_trap`. Methods are wrapped on their class. Nothing
under `src/` changes and `install` restores every name it replaced.

A span is (id, parent id, name, thread, start ns, end ns, op, failed).
Spans live in memory while the workload runs and are written out at
exit. An op number is set by the workload before each op (for protocol
sessions: from the count of `receive_key` calls so far), so per-op counts
can be taken over a fixed window of ops and repeat exactly for a seed.
"""
from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import Counter, defaultdict

import ntcfk.crosscheck as crosscheck
import ntcfk.ntcf as ntcf
import ntcfk.protocol as protocol
import ntcfk.prover as prover
import ntcfk.reductions as reductions
import ntcfk.trapdoor as trapdoor
from ntcfk.gaussian import TruncatedGaussian

# (owner, attribute, span name, count name, count of the result, exceptions
# that mark the span failed). A count name sums the count over the ops of
# the window.
_FUNCTIONS = [
    (protocol, "frame_encode", "protocol.frame_encode", "protocol.frame_bytes", len, ()),
    (protocol, "frame_decode", "protocol.frame_decode", None, None, ()),
    (protocol, "key_to_text", "ntcf.key_to_text", None, None, ()),
    (protocol, "key_from_text", "ntcf.key_from_text", None, None, ()),
    (protocol, "_read_frame", "protocol.read_frame", None, None, ()),
    (protocol, "gen", "ntcf.gen", None, None, ()),
    (protocol, "inv", "ntcf.inv", None, None, ()),
    (protocol, "chk", "ntcf.chk", None, None, ()),
    (trapdoor, "gen_trap", "trapdoor.gen_trap", None, None, ()),
    (trapdoor, "invert", "trapdoor.invert", None, None, (trapdoor.DecodeFailure,)),
    (prover, "samp_and_measure", "prover.samp_and_measure", None, None, ()),
    (reductions, "samp_and_measure", "prover.samp_and_measure", None, None, ()),
    (prover, "red", "prover.red", None, None, (prover.RedFailed,)),
    (prover.HonestProver, "receive_key", "prover.receive_key", None, None, ()),
    (prover.HonestProver, "respond_generation", "prover.respond_generation", None, None, ()),
    (prover.HonestProver, "respond_test", "prover.respond_test", None, None, ()),
    (TruncatedGaussian, "sample", "gaussian.sample", None, None, ()),
    (ntcf, "mat_vec_mul", "zq.mat_vec_mul", None, None, ()),
    (prover, "mat_vec_mul", "zq.mat_vec_mul", None, None, ()),
    (trapdoor, "mat_vec_mul", "zq.mat_vec_mul", None, None, ()),
    (reductions, "mat_vec_mul", "zq.mat_vec_mul", None, None, ()),
    (reductions, "lwe_to_dcp", "reductions.lwe_to_dcp", "reductions.states", len, ()),
    (reductions, "lwe_to_edcp", "reductions.lwe_to_edcp", "reductions.states", len, ()),
    (reductions, "solve_dcp_desk", "reductions.solve", None, None, ()),
    (reductions, "solve_edcp_desk", "reductions.solve", None, None, ()),
    (crosscheck, "analytic_joint", "crosscheck.analytic_joint", None, None, ()),
    (crosscheck, "load_gaussian_register", "oracle.load_gaussian_register", None, None, ()),
    (crosscheck, "apply_ufkb", "oracle.apply_ufkb", "oracle.labels",
     lambda state: len(state.amps), ()),
    (crosscheck, "full_distribution", "oracle.full_distribution", None, None, ()),
    (crosscheck, "tv_distance", "gaussian.tv_distance", None, None, ()),
]

# Every VerifierRound method is one span name: the verifier's self time.
_VERIFIER_METHODS = (
    "__init__", "key_message", "secret_s", "receive_image", "challenge",
    "check_generation", "check_equation", "red_failure",
)

# Every span name by layer group, after the headings of the metric list;
# the groups give the self-time share table.
GROUPS = {
    "codec": ("protocol.frame_encode", "protocol.frame_decode",
              "ntcf.key_to_text", "ntcf.key_from_text"),
    "transport": ("protocol.read_frame",),
    "verifier": ("protocol.verifier", "ntcf.gen", "trapdoor.gen_trap", "ntcf.inv",
                 "trapdoor.invert", "ntcf.chk"),
    "prover": ("prover.receive_key", "prover.respond_generation", "prover.respond_test",
               "prover.samp_and_measure", "prover.red", "gaussian.sample",
               "zq.mat_vec_mul"),
    "reductions": ("reductions.lwe_to_dcp", "reductions.lwe_to_edcp", "reductions.solve"),
    "oracle": ("oracle.load_gaussian_register", "oracle.apply_ufkb",
               "oracle.full_distribution", "crosscheck.analytic_joint",
               "gaussian.tv_distance"),
}

# Per-layer metrics that must repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "protocol.frame_decode.calls_per_op",
    "protocol.frame_bytes_per_op",
    "ntcf.key_from_text.calls_per_op",
    "protocol.rounds_per_attempt",
    "reductions.states_per_op",
    "oracle.labels_per_op",
)


class Tracer:
    """In-memory span recorder. Records only while `active` is set."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple[str, int, int]] = []  # (name, op, value)
        self.op = 0
        self.op_base = 0  # ops of earlier traced runs, so op numbers never repeat
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count_name=None, count=None, fails=()):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            op = tracer.op
            stack.append(sid)
            failed = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except fails:
                failed = True
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, name, threading.get_ident(), start, end, op, failed)
                )
            if count_name is not None:
                tracer.counts.append((count_name, op, count(result)))
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Replace every traced name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count_name, count, fails in _FUNCTIONS:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                               count_name, count, fails))
            cls = protocol.VerifierRound
            saved.append((protocol, "VerifierRound", cls))
            methods = {m: self.wrap("protocol.verifier", getattr(cls, m))
                       for m in _VERIFIER_METHODS}
            protocol.VerifierRound = type(cls.__name__, (cls,), methods)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_tsv(self, path) -> None:
        """One line per span; times in ns from the first span's start."""
        t0 = min((span[4] for span in self.spans), default=0)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tthread\tstart_ns\tend_ns\top\tfailed\n")
            for sid, parent, name, thread, start, end, op, failed in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{thread}\t{start - t0}\t"
                         f"{end - t0}\t{op}\t{int(failed)}\n")


def layer_metrics(tracer: Tracer, ops: int, op_ns_total: int, op_thread: int,
                  window: int, useful_in_window: int | None) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time share of each layer group.

    Times are per op over all traced ops; counts are per op over ops
    1..window. `useful_in_window` is the number of completed (not
    retried) protocol rounds among those ops, or None off the protocol.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, _th, start, end, _op, _f in tracer.spans:
        if parent:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    wall_ns: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    fails: Counter = Counter()
    window_calls: Counter = Counter()
    top_level_ns = 0
    for sid, parent, name, thread, start, end, op, failed in tracer.spans:
        self_ns[name] += end - start - child_ns[sid]
        wall_ns[name] += end - start
        calls[name] += 1
        fails[name] += failed
        if 1 <= op <= window:
            window_calls[name] += 1
        if not parent and thread == op_thread:
            top_level_ns += end - start
    window_counts: Counter = Counter()
    for name, op, value in tracer.counts:
        if 1 <= op <= window:
            window_counts[name] += value

    per_op = max(ops, 1)
    m = {f"{name}.us_per_op": self_ns[name] / 1e3 / per_op
         for names in GROUPS.values() for name in names}
    m["protocol.read_frame.wait_us_per_op"] = wall_ns["protocol.read_frame"] / 1e3 / per_op
    m["protocol.frame_decode.calls_per_op"] = window_calls["protocol.frame_decode"] / window
    m["protocol.frame_bytes_per_op"] = window_counts["protocol.frame_bytes"] / window
    m["ntcf.key_from_text.calls_per_op"] = window_calls["ntcf.key_from_text"] / window
    m["trapdoor.invert.fail_ratio"] = fails["trapdoor.invert"] / max(calls["trapdoor.invert"], 1)
    m["prover.red.fail_ratio"] = fails["prover.red"] / max(calls["prover.red"], 1)
    m["protocol.rounds_per_attempt"] = (
        0.0 if useful_in_window is None else useful_in_window / window
    )
    m["reductions.states_per_op"] = window_counts["reductions.states"] / window
    m["oracle.labels_per_op"] = window_counts["oracle.labels"] / window
    # The first keygen of each session runs before its first op, so the
    # top-level spans can exceed the op time by a little.
    untraced_ns = max(op_ns_total - top_level_ns, 0)
    m["op.untraced.us_per_op"] = untraced_ns / 1e3 / per_op

    total = max(sum(self_ns.values()) + untraced_ns, 1)
    shares = {group: sum(self_ns[n] for n in names) / total
              for group, names in GROUPS.items()}
    shares["untraced"] = untraced_ns / total
    return m, shares
