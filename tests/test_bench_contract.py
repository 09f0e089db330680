"""The traced benchmark run (perfbench/tracing.py) wraps ntcfk functions
by the names their callers bind, e.g. `ntcfk.protocol.frame_decode`. A
refactor that renames or inlines one of them would leave `--trace 1`
reporting zeros, so this checks that every wrapped name still exists,
that traced sessions on both transports record spans through them, and
that a traced noisy cross-check and a traced reduction run record their
spans and counts."""
import functools
import gc
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import ntcfk.crosscheck as crosscheck
import ntcfk.protocol as protocol
import ntcfk.reductions as reductions
from ntcfk.ntcf import gen
from ntcfk.presets import get_preset
from ntcfk.prover import HonestProver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TINY = get_preset("tiny-exact")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def test_traced_names_exist():
    tracing = load_tracing()
    for owner, attr, *_ in tracing._FUNCTIONS:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
    for method in tracing._VERIFIER_METHODS:
        assert method in vars(protocol.VerifierRound), method


def test_traced_sessions_record_protocol_spans():
    tracing = load_tracing()
    original = protocol.frame_decode
    tracer = tracing.Tracer()
    with tracer.install():
        tracer.active = True
        for drive in (protocol.run_protocol, protocol.run_protocol_tcp):
            pr = HonestProver(np.random.default_rng(0), mode="exact-enumeration")
            drive(TINY, pr, 6, np.random.default_rng(1))
    assert protocol.frame_decode is original
    recorded = {span[2] for span in tracer.spans}
    wanted = {
        "protocol.frame_encode", "protocol.frame_decode", "ntcf.key_to_text",
        "ntcf.key_from_text", "protocol.read_frame", "protocol.verifier",
        "ntcf.gen", "ntcf.inv", "ntcf.chk", "trapdoor.gen_trap", "trapdoor.invert",
        # tiny-exact has kappa = 3, so its test rounds run RED
        "prover.samp_and_measure", "prover.red", "prover.respond_test",
        # the tracer wraps the name each module binds, and mat_vec_mul takes A's array
        "zq.mat_vec_mul",
    }
    assert wanted <= recorded, wanted - recorded


def test_traced_crosscheck_records_oracle_spans():
    """`oracle.labels` counts `len(state.amps)` of the U_f output, so it
    must stay the label count whatever the state stores. The circuit
    before U_f is cached per parameter set, so the caches are emptied
    first: the traced call then builds it, and records its span."""
    tracing, workloads = load_tracing(), load_perfbench("workloads")
    key, _t = gen(workloads.NOISY, np.random.default_rng(7))
    crosscheck._oracle_prefix.cache_clear()
    crosscheck._analytic_skeleton.cache_clear()
    tracer = tracing.Tracer()
    with tracer.install():
        tracer.active = True
        tracer.op = 1
        assert crosscheck.compare_joint(key) <= workloads.TV_LIMIT
    recorded = {span[2] for span in tracer.spans}
    wanted = {
        "crosscheck.analytic_joint", "oracle.load_gaussian_register",
        "oracle.apply_ufkb", "oracle.full_distribution", "gaussian.tv_distance",
    }
    assert wanted <= recorded, wanted - recorded
    assert tracer.counts == [("oracle.labels", 1, 2673)]


def test_traced_reductions_record_spans():
    """`reductions.states_per_op` counts `len` of each pipeline's output,
    so one reduce-desk op must stay 8 DCP plus 8 EDCP states."""
    tracing, workloads = load_tracing(), load_perfbench("workloads")
    rng = np.random.default_rng(11)
    key, trap = gen(workloads.DESK, rng)
    inst = reductions.instance_from_key(key, planted_s=trap.s)
    tracer = tracing.Tracer()
    with tracer.install():
        tracer.active = True
        tracer.op = 1
        reports = workloads._recover_both(inst, rng)
    assert workloads._check_recovered(reports, trap.s) is None
    recorded = {span[2] for span in tracer.spans}
    wanted = {"reductions.lwe_to_dcp", "reductions.lwe_to_edcp", "reductions.solve"}
    assert wanted <= recorded, wanted - recorded
    assert tracer.counts == [("reductions.states", 1, 8), ("reductions.states", 1, 8)]


def test_every_cache_is_a_module_attribute():
    """perfbench's set-up empties the caches it finds as module attributes
    of ntcfk, so `setup_s` counts filling them. A cache on a method or a
    nested function would stay warm across set-ups; after a session and
    a reduction have run, every ntcfk lru_cache must be reachable that
    way."""
    for name in ("cli", "crosscheck", "oracle", "reductions"):
        importlib.import_module(f"ntcfk.{name}")
    pr = HonestProver(np.random.default_rng(0), mode="exact-enumeration")
    protocol.run_protocol(TINY, pr, 2, np.random.default_rng(1))
    key, trap = gen(get_preset("desk-k3"), np.random.default_rng(2))
    inst = reductions.instance_from_key(key, planted_s=trap.s)
    reductions.end_to_end_recover(inst, "dcp", np.random.default_rng(3), count=2)
    caches = [obj for obj in gc.get_objects()
              if isinstance(obj, functools._lru_cache_wrapper)
              and getattr(obj, "__module__", "").startswith("ntcfk")]
    assert caches
    for cache in caches:
        owner = vars(sys.modules[cache.__module__])
        assert owner.get(cache.__name__) is cache, f"{cache.__module__}.{cache.__qualname__}"
