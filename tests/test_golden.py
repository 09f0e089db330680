"""Byte-exact wire and file format pins against checked-in golden files.

The golden files freeze the serialization formats; any change to the
canonical text layout, frame header, or tag assignment fails here."""
from pathlib import Path

import numpy as np

from ntcfk.ntcf import gen, key_from_text, key_to_text
from ntcfk.presets import get_preset
from ntcfk.protocol import (
    MsgChallenge,
    MsgEquationResp,
    MsgImage,
    MsgKey,
    MsgPreimageResp,
    MsgRedFailure,
    MsgRoundResult,
    frame_decode,
    frame_encode,
)

GOLDEN = Path(__file__).parent / "golden"
TINY = get_preset("tiny-exact")


def golden_key():
    return gen(TINY, np.random.default_rng(0))[0]


def golden_frames():
    k = golden_key()
    return {
        "key": frame_encode(MsgKey(k)),
        "image": frame_encode(MsgImage(np.array([3, 5]))),
        "challenge_g": frame_encode(MsgChallenge("G")),
        "challenge_t": frame_encode(MsgChallenge("T")),
        "preimage": frame_encode(MsgPreimageResp(1, np.array([4]))),
        "equation": frame_encode(MsgEquationResp(1, 0, np.array([1, 0, 1]))),
        "red_failure": frame_encode(MsgRedFailure("measured b' = 0")),
        "result_accept": frame_encode(MsgRoundResult(True, "equation check passed")),
        "result_retry": frame_encode(MsgRoundResult(False, "retry:all-zero d")),
    }


def read_golden_frames():
    out = {}
    for line in (GOLDEN / "frames.txt").read_text().splitlines():
        name, hexdata = line.split(" ", 1)
        out[name] = bytes.fromhex(hexdata)
    return out


class TestKeyFile:
    def test_byte_exact(self):
        assert key_to_text(golden_key()) == (GOLDEN / "key.pub").read_text()

    def test_golden_file_parses(self):
        k = key_from_text((GOLDEN / "key.pub").read_text())
        assert k == golden_key()
        assert (k.params.q, k.params.n, k.params.m, k.params.kappa) == (7, 1, 2, 3)


class TestFrames:
    def test_byte_exact(self):
        stored = read_golden_frames()
        fresh = golden_frames()
        assert set(stored) == set(fresh)
        for name in stored:
            assert stored[name] == fresh[name], f"frame {name} drifted"

    def test_golden_frames_decode(self):
        stored = read_golden_frames()
        key_msg = frame_decode(stored["key"])
        assert key_msg.key == golden_key()
        img = frame_decode(stored["image"], TINY)
        assert tuple(img.y.tolist()) == (3, 5)
        assert frame_decode(stored["challenge_g"], TINY).kind == "G"
        assert frame_decode(stored["challenge_t"], TINY).kind == "T"
        pre = frame_decode(stored["preimage"], TINY)
        assert (pre.b, tuple(pre.x.tolist())) == (1, (4,))
        eq = frame_decode(stored["equation"], TINY)
        assert (eq.b_prime, eq.c, tuple(eq.d.tolist())) == (1, 0, (1, 0, 1))
        assert frame_decode(stored["red_failure"], TINY).reason == "measured b' = 0"
        acc = frame_decode(stored["result_accept"], TINY)
        assert acc.accept and not acc.is_retry
        retry = frame_decode(stored["result_retry"], TINY)
        assert retry.is_retry

    def test_tag_assignment_pinned(self):
        stored = read_golden_frames()
        expected_tags = {
            "key": 0x01, "image": 0x02, "challenge_g": 0x03,
            "challenge_t": 0x03, "preimage": 0x04, "equation": 0x05,
            "red_failure": 0x06, "result_accept": 0x07, "result_retry": 0x07,
        }
        for name, tag in expected_tags.items():
            assert stored[name][4] == tag
