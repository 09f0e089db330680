"""Byte-level pins of seeded sessions and reduction outputs.

Each case fixes its seeds, so every RNG draw, frame, verdict and state
is determined; a refactor that keeps them all must keep these values.
The constants were recorded from the code as it stood before the claw,
RED pairing and image sampler were each given a single definition.
"""
import hashlib
from dataclasses import fields

import numpy as np
import pytest

from ntcfk.ntcf import gen
from ntcfk.presets import get_preset
from ntcfk.prover import CheatCommitProver, CheatRandomProver, HonestProver
from ntcfk.protocol import SessionStats, run_protocol
from ntcfk.reductions import instance_from_key, lwe_to_dcp, lwe_to_edcp

ROUNDS = 50

# (preset, prover) -> (SessionStats counters, sha256 of all frames)
SESSION_PINS = {
    ("tiny-exact", "exact-enumeration"): ((50, 50, 50, 0, 19, 29, 29, 21, 21),
        "63d28bb166239fadc6d693840d8f088164663652b30d68d2f6d5c4a13cc05ce4"),
    ("desk-k3", "idealized-claw"): ((50, 50, 50, 0, 7, 35, 35, 15, 15),
        "74af51c6fa1cea3c66f6c1f18131b1e824501968b60c1d3f7640c77f38bebe90"),
    ("desk-k2", "idealized-claw"): ((50, 50, 50, 0, 0, 29, 29, 21, 21),
        "f4fe8a5adce43ccaafafe098bc826f6fb5c3204fbc66a05ef7549d8d7ab1b55b"),
    ("desk-k3", "cheat-commit"): ((50, 50, 38, 12, 0, 29, 29, 21, 9),
        "fd31cce5e164120d208061052dbf1fc018a3b9b4a7a9c64695305c17619fc494"),
    # Every round of this case ends in an image decode failure, whose text
    # names the certified radius and no longer the scanned residual.
    ("desk-k2", "cheat-random"): ((50, 50, 0, 50, 0, 0, 0, 0, 0),
        "9be14bb17b99a88ba58dad5d7a415a6a21649c10c11deff51d1ef4e2f7bba7e5"),
}

REDUCTION_PIN = "3c079d5c8c3cb53386712dee81c49cc17d5854f7ec46f4d971b6f340c70bc687"


def make_prover(kind, rng):
    if kind == "cheat-commit":
        return CheatCommitProver(rng)
    if kind == "cheat-random":
        return CheatRandomProver(rng)
    return HonestProver(rng, mode=kind)


def session_digest(preset, kind):
    params = get_preset(preset)
    prover = make_prover(kind, np.random.default_rng(40))
    stats = run_protocol(params, prover, ROUNDS, np.random.default_rng(41))
    counters = tuple(getattr(stats, f.name) for f in fields(SessionStats)
                     if f.name != "transcripts")
    h = hashlib.sha256()
    for t in stats.transcripts:
        for frame in t.frames:
            h.update(frame)
    return counters, h.hexdigest()


def reduction_digest():
    rng = np.random.default_rng(42)
    k, t = gen(get_preset("desk-k3"), rng)
    inst = instance_from_key(k, planted_s=t.s)
    h = hashlib.sha256()
    for st in lwe_to_dcp(inst, 8, rng):
        h.update(st.x0.tobytes() + st.x1.tobytes())
    for kappa in (3, 4):
        for st in lwe_to_edcp(inst, 8, kappa, rng):
            for j, x in st.support:
                h.update(bytes([j]) + x.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("preset,kind", sorted(SESSION_PINS))
def test_session_pinned(preset, kind):
    assert session_digest(preset, kind) == SESSION_PINS[preset, kind]


def test_reductions_pinned():
    assert reduction_digest() == REDUCTION_PIN
