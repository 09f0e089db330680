"""The traced benchmark run (perfbench/tracing.py) wraps ntcfk functions
by the names their callers bind, e.g. `ntcfk.protocol.frame_decode`. A
refactor that renames or inlines one of them would leave `--trace 1`
reporting zeros, so this checks that every wrapped name still exists and
that traced sessions on both transports record spans through them."""
import importlib.util
from pathlib import Path

import numpy as np

import ntcfk.protocol as protocol
from ntcfk.presets import get_preset
from ntcfk.prover import HonestProver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TINY = get_preset("tiny-exact")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        "ntcf.gen", "ntcf.inv", "ntcf.chk",
    }
    assert wanted <= recorded, wanted - recorded
