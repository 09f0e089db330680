import io
import re
import socket
import struct
import threading
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ntcfk.ntcf as ntcf
import ntcfk.protocol as protocol
from ntcfk.gaussian import TruncatedGaussian
from ntcfk.ntcf import NtcfParams, compute_bp, gen, inv, key_to_text, trapdoor_to_text
from ntcfk.presets import PRESETS, get_preset
from ntcfk.prover import (
    CheatCommitProver,
    CheatRandomProver,
    HonestProver,
    RedFailed,
    sample_image,
)
from ntcfk.protocol import (
    FrameError,
    MsgChallenge,
    MsgEquationResp,
    MsgImage,
    MsgKey,
    MsgPreimageResp,
    MsgRedFailure,
    MsgRoundResult,
    ProtocolError,
    SessionAbort,
    SessionStats,
    Transcript,
    VerifierRound,
    frame_decode,
    frame_encode,
    run_protocol,
    run_protocol_tcp,
)
from ntcfk.serialize import FormatError, LineWriter


TINY = get_preset("tiny-exact")
DESK = get_preset("desk-k3")


def vec(entries, params):
    return np.array(entries, dtype=np.int64) % params.q


def make_prover(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "cheat-commit":
        return CheatCommitProver(rng)
    if kind == "cheat-random":
        return CheatRandomProver(rng)
    return HonestProver(rng, mode=kind)


TINY_KEY_LINES = key_to_text(gen(TINY, np.random.default_rng(0))[0]).splitlines()


def tiny_key_payload(offset, line):
    """A tiny-exact key frame payload with one line replaced: the A matrix
    header (offset 0) or its first row (offset 1)."""
    lines = list(TINY_KEY_LINES)
    lines[lines.index("A=2 1") + offset] = line
    return ("\n".join(lines) + "\n").encode()


def tiny_key_with(name, *lines):
    """A tiny-exact key frame payload with field `name` (for A, its header
    and rows) replaced by `lines`."""
    out = list(TINY_KEY_LINES)
    i = next(k for k, line in enumerate(out) if line.startswith(name + "="))
    out[i:i + 1 + (TINY.m if name == "A" else 0)] = lines
    return ("\n".join(out) + "\n").encode()


def key_frame(payload):
    return struct.pack(">I", len(payload)) + bytes([protocol.TAG_KEY]) + payload


def tiny_key_for(**fields):
    """A tiny-exact key frame payload with the params replaced by `fields`."""
    key = gen(TINY, np.random.default_rng(0))[0]
    return key_to_text(replace(key, params=replace(TINY, **fields))).encode()


# Every character but "\n" that str.splitlines() also breaks a line at.
BREAK_CHARS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
LINE_BREAKS = {"cr": "\r", "crlf": "\r\n", "vt": "\x0b", "ff": "\x0c", "fs": "\x1c",
               "gs": "\x1d", "rs": "\x1e", "nel": "\x85", "ls": "\u2028", "ps": "\u2029"}
CANONICAL_PAYLOADS = {
    "key": (0x01, key_to_text(gen(DESK, np.random.default_rng(0))[0])),
    "image": (0x02, "y=3 1\n"),
    "result": (0x07, "verdict=accept\nreason=preimage check passed\n"),
}
DESK_PAYLOADS = {
    frame_encode(msg)[4]: frame_encode(msg)[5:].decode() for msg in (
        MsgImage(np.arange(DESK.m) * 13 % DESK.q),
        MsgChallenge("T"),
        MsgPreimageResp(2, np.array([520, 0])),
        MsgEquationResp(1, 0, np.array((1, 0) * (DESK.d_len // 2))),
        MsgRedFailure("unpaired outcome"),
        MsgRoundResult(False, "retry:all-zero d"),
    )
}


def framed(tag, payload):
    """A frame header that declares the payload's true length."""
    return struct.pack(">I", len(payload)) + bytes([tag]) + payload


# The field names of each non-key tag's payload, in order.
FIELD_ORDER = {
    protocol.TAG_IMAGE: ["y"], protocol.TAG_CHALLENGE: ["challenge"],
    protocol.TAG_PREIMAGE_RESP: ["b", "x"], protocol.TAG_EQUATION_RESP: ["bprime", "c", "d"],
    protocol.TAG_RED_FAILURE: ["reason"], protocol.TAG_ROUND_RESULT: ["verdict", "reason"],
}


@st.composite
def field_frames(draw):
    """A frame of `name=value` lines: a tag's own field names half the
    time, else any of them in any order, with short values."""
    tag = draw(st.integers(0, 8))
    names = FIELD_ORDER.get(tag) if draw(st.booleans()) else None
    if names is None:
        names = draw(st.lists(st.sampled_from(sorted({n for v in FIELD_ORDER.values()
                                                      for n in v})), max_size=4))
    values = st.one_of(st.text(st.sampled_from("0123 GT-"), max_size=5),
                       st.sampled_from(["accept", "reject", "0", "1", "101", "3 5"]))
    return framed(tag, "".join(f"{n}={draw(values)}\n" for n in names).encode())


def line_break_payloads():
    """Canonical payloads with other line breaks, each of which a reader
    that splits on any line break would accept. (A final CRLF is not
    among them: it leaves a valid reason field that ends in CR.)"""
    for frame, (tag, text) in CANONICAL_PAYLOADS.items():
        for name, brk in LINE_BREAKS.items():
            yield pytest.param(tag, text.replace("\n", brk).encode(), id=f"{frame}-breaks-{name}")
            if name != "crlf":
                yield pytest.param(tag, (text[:-1] + brk).encode(), id=f"{frame}-final-{name}")
        yield pytest.param(tag, text[:-1].encode(), id=f"{frame}-no-final-newline")
    tag, text = CANONICAL_PAYLOADS["key"]
    yield pytest.param(tag, text.replace("\n", "\x1e", 20).encode(), id="key-first-20-breaks-rs")


# Widths that fit the B_P formula for kappa = 10^300, so only kappa <= q fails.
HUGE_KAPPA_BP = compute_bp(TINY.q, TINY.n, TINY.m, 10**300, TINY.c_t)


def tiny_key_huge(dim):
    """A tiny-exact key frame payload, A and t unchanged, whose params
    have n or m = 10^30 and widths that fit: they pass validation."""
    p = replace(TINY, **{dim: 10**30})
    b_p = compute_bp(p.q, p.n, p.m, p.kappa, p.c_t)
    p = replace(p, b_p=b_p, b_v=b_p / 16, b_l=b_p / 256)
    assert ntcf.validate_params(p).ok
    w = LineWriter()
    ntcf._params_fields(w, p)
    lines = list(TINY_KEY_LINES)
    lines[1:1 + ntcf.PARAMS_LINES] = w.lines
    return ("\n".join(lines) + "\n").encode()


def counters(stats):
    return {f.name: getattr(stats, f.name) for f in fields(SessionStats)
            if f.name != "transcripts"}


class AlwaysRedFails(HonestProver):
    def respond_test(self):
        raise RedFailed("induced failure")


class TestFrames:
    def test_key_round_trip(self, rng):
        k, _t = gen(TINY, rng)
        out = frame_decode(frame_encode(MsgKey(k)))
        assert out.key == k

    def test_image_round_trip(self):
        msg = MsgImage(vec([3, 5], TINY))
        out = frame_decode(frame_encode(msg), TINY)
        assert np.array_equal(out.y, msg.y)

    @pytest.mark.parametrize("kind", ["G", "T"])
    def test_challenge_round_trip(self, kind):
        out = frame_decode(frame_encode(MsgChallenge(kind)), TINY)
        assert out.kind == kind

    def test_preimage_round_trip(self):
        msg = MsgPreimageResp(2, vec([4], TINY))
        out = frame_decode(frame_encode(msg), TINY)
        assert out.b == 2 and np.array_equal(out.x, msg.x)

    def test_equation_round_trip(self):
        msg = MsgEquationResp(1, 1, np.array((1, 0, 1)))
        out = frame_decode(frame_encode(msg), TINY)
        assert (out.b_prime, out.c) == (1, 1) and np.array_equal(out.d, np.array((1, 0, 1)))

    def test_red_failure_round_trip(self):
        out = frame_decode(frame_encode(MsgRedFailure("measured b' = 0")), TINY)
        assert out.reason == "measured b' = 0"

    @pytest.mark.parametrize(
        "accept,reason",
        [(True, "preimage check passed"), (False, "retry:all-zero d")],
    )
    def test_result_round_trip(self, accept, reason):
        out = frame_decode(frame_encode(MsgRoundResult(accept, reason)), TINY)
        assert (out.accept, out.reason) == (accept, reason)
        assert out.is_retry == (not accept and reason.startswith("retry:"))


class TestFrameErrors:
    def test_truncated_header(self):
        with pytest.raises(FrameError):
            frame_decode(b"\x00\x00", TINY)

    def test_length_mismatch(self):
        frame = frame_encode(MsgChallenge("G"))
        with pytest.raises(FrameError):
            frame_decode(frame + b"extra", TINY)

    def test_unknown_tag(self):
        frame = frame_encode(MsgChallenge("G"))
        bad = frame[:4] + bytes([0x7F]) + frame[5:]
        with pytest.raises(FrameError):
            frame_decode(bad, TINY)

    def test_non_key_needs_params(self):
        frame = frame_encode(MsgChallenge("G"))
        with pytest.raises(FrameError):
            frame_decode(frame)

    def test_bad_challenge_rejected_on_encode(self):
        with pytest.raises(FrameError):
            frame_encode(MsgChallenge("X"))

    def test_image_length_checked(self):
        frame = frame_encode(MsgImage(vec([1, 2, 3], TINY)))
        with pytest.raises(FrameError):
            frame_decode(frame, TINY)  # m=2 for tiny-exact

    def test_d_length_checked(self):
        frame = frame_encode(MsgEquationResp(1, 0, np.array((1, 0))))
        with pytest.raises(FrameError):
            frame_decode(frame, TINY)  # d_len=3 for tiny-exact

    @pytest.mark.parametrize("tag,payload", [
        pytest.param(0x02, b"nonsense here", id="image-nonsense"),
        pytest.param(0x01, tiny_key_payload(0, "A=2 x"), id="key-matrix-header-not-int"),
        pytest.param(0x01, tiny_key_payload(1, "x"), id="key-matrix-entry-not-int"),
        pytest.param(0x01, tiny_key_payload(0, "A=99999999999 99999999999"),
                     id="key-matrix-header-huge"),
        pytest.param(0x01, tiny_key_payload(1, "+3"), id="key-matrix-plus-sign"),
        pytest.param(0x01, tiny_key_payload(1, "03"), id="key-matrix-leading-zero"),
        pytest.param(0x01, tiny_key_payload(1, "\u0663"), id="key-matrix-arabic-indic-digit"),
        pytest.param(0x01, tiny_key_payload(1, "-4"), id="key-matrix-negative-entry"),
        pytest.param(0x01, tiny_key_payload(1, "12"), id="key-matrix-entry-above-q"),
        pytest.param(0x01, tiny_key_with("q", "q=1"), id="key-q-one"),
        pytest.param(0x01, tiny_key_with("q", "q=2147483648"), id="key-q-above-2^31"),
        pytest.param(0x01, tiny_key_with("t", "t=1"), id="key-t-short"),
        pytest.param(0x01, tiny_key_with("m", "m=3"), id="key-m-mismatch"),
        pytest.param(0x01, tiny_key_with("A", "A=2 2", "1 2", "3 4"),
                     id="key-matrix-wrong-cols"),
        pytest.param(0x01, tiny_key_with("A", "A=1 1", "5"), id="key-matrix-wrong-rows"),
        pytest.param(0x02, b"\xff\xfe", id="image-not-utf8"),
        pytest.param(0x02, b"y=10 -2\n", id="image-negative-residue"),
        pytest.param(0x02, b"y=+3 0\n", id="image-plus-sign"),
        pytest.param(0x02, b"y=3_0 1\n", id="image-underscore"),
        pytest.param(0x02, "y=\u0663 1\n".encode(), id="image-arabic-indic-digit"),
        pytest.param(0x02, b"y=03 1\n", id="image-leading-zero"),
        pytest.param(0x02, b"y= 3 1\n", id="image-leading-space"),
        pytest.param(0x02, b"y=3  1\n", id="image-double-space"),
        pytest.param(0x02, b"y=3 1 \n", id="image-trailing-space"),
        pytest.param(0x02, b"y=3\t1\n", id="image-tab"),
        pytest.param(0x02, b"y=7 1\n", id="image-residue-equals-q"),
        pytest.param(0x02, b"y=99999999999999999999 1\n", id="image-residue-overflow"),
        pytest.param(0x04, b"b=0\nx=99999999999999999999\n", id="preimage-residue-overflow"),
        pytest.param(0x01, tiny_key_with("kappa", "kappa=0"), id="key-kappa-zero"),
        pytest.param(0x01, tiny_key_with("kappa", "kappa=-1"), id="key-kappa-negative"),
        pytest.param(0x01, tiny_key_with("b_p", "b_p=0.0"), id="key-bp-zero"),
        pytest.param(0x01, tiny_key_with("b_p", "b_p=-1.0"), id="key-bp-negative"),
        pytest.param(0x01, tiny_key_with("b_p", "b_p=nan"), id="key-bp-nan"),
        pytest.param(0x01, tiny_key_with("b_p", "b_p=1e+300"), id="key-bp-huge"),
        pytest.param(0x01, tiny_key_with("b_v", "b_v=0.0"), id="key-bv-zero"),
        pytest.param(0x01, tiny_key_with("b_l", "b_l=0.0"), id="key-bl-zero"),
        pytest.param(0x01, tiny_key_with("n", "n=-1"), id="key-n-negative"),
        pytest.param(0x01, tiny_key_with("kappa", "kappa=1" + "0" * 400), id="key-kappa-huge"),
        pytest.param(0x01, tiny_key_for(kappa=10**300, b_p=HUGE_KAPPA_BP, b_v=HUGE_KAPPA_BP / 16,
                                         b_l=HUGE_KAPPA_BP / 256), id="key-kappa-above-q"),
        pytest.param(0x01, tiny_key_huge("n"), id="key-n-huge-valid-params"),
        pytest.param(0x01, tiny_key_huge("m"), id="key-m-huge-valid-params"),
        pytest.param(0x01, tiny_key_with("kappa", "kappa=+3"), id="key-kappa-plus-sign"),
        pytest.param(0x01, tiny_key_with("q", "q=07"), id="key-q-leading-zero"),
        pytest.param(0x01, tiny_key_with("n", "n=\u0661"), id="key-n-arabic-indic-digit"),
        pytest.param(0x01, tiny_key_with("b_l", "b_l=0.20"), id="key-float-not-repr"),
        pytest.param(0x04, b"b=+1\nx=3\n", id="preimage-b-plus-sign"),
        pytest.param(0x04, b"b=01\nx=3\n", id="preimage-b-leading-zero"),
        pytest.param(0x04, "b=\u0661\nx=3\n".encode(), id="preimage-b-arabic-indic-digit"),
        pytest.param(0x04, b"b= 1\nx=3\n", id="preimage-b-leading-space"),
        pytest.param(0x04, b"b=1_0\nx=3\n", id="preimage-b-underscore"),
        pytest.param(0x05, b"bprime=1\nc=-0\nd=101\n", id="equation-c-negative-zero"),
        *line_break_payloads(),
    ])
    def test_malformed_payload(self, tag, payload):
        frame = struct.pack(">I", len(payload)) + bytes([tag]) + payload
        with pytest.raises(FrameError):
            frame_decode(frame, TINY)

    @given(st.lists(
        st.tuples(
            st.integers(0, len(TINY_KEY_LINES)),
            st.sampled_from(["value", "line", "insert", "delete", "append"]),
            st.one_of(
                st.lists(st.integers(0, 9), max_size=3).map(
                    lambda v: " ".join(map(str, v))),
                st.sampled_from(["-1", "0.0", "2147483648", "x", *LINE_BREAKS.values()]),
                st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                st.text(st.sampled_from("1 " + BREAK_CHARS), max_size=4),
                st.tuples(st.sampled_from(["1 5", "4", "desk"]),
                          st.sampled_from(BREAK_CHARS)).map("".join),
            ),
        ),
        min_size=1, max_size=3,
    ))
    @example([(len(TINY_KEY_LINES) - 1, "append", "\r")])
    @settings(max_examples=300)
    def test_key_line_edits_raise_only_frame_error(self, edits):
        """Edit a line's value (after its `name=`), replace, insert,
        append to or delete whole lines of the tiny-exact key frame. A
        frame that decodes is canonical: it re-encodes to itself."""
        lines = list(TINY_KEY_LINES)
        for at, op, text in edits:
            if op == "insert":
                lines.insert(at, text)
            elif at < len(lines) and op == "delete":
                del lines[at]
            elif at < len(lines) and op == "append":
                lines[at] += text
            elif at < len(lines):
                name, eq, _ = lines[at].partition("=")
                lines[at] = name + eq + text if op == "value" and eq else text
        payload = ("\n".join(lines) + "\n").encode()
        frame = struct.pack(">I", len(payload)) + bytes([protocol.TAG_KEY]) + payload
        try:
            key = frame_decode(frame).key
        except FrameError:
            return
        p = key.params
        assert key.A.shape == (p.m, p.n)
        assert len(key.t) == p.m
        assert frame_encode(MsgKey(key)) == frame

    @given(
        st.sampled_from(sorted(DESK_PAYLOADS)),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["value", "line", "insert", "delete", "append"]),
                st.one_of(
                    st.sampled_from(["-1", "0", "1", "01", "G", "T", "accept", "x",
                                     *LINE_BREAKS.values()]),
                    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                    st.text(st.sampled_from("01 " + BREAK_CHARS), max_size=4),
                    st.tuples(st.sampled_from(["T", "1", "reject", "x"]),
                              st.sampled_from(BREAK_CHARS)).map("".join),
                ),
            ),
            max_size=3,
        ),
    )
    @example(protocol.TAG_ROUND_RESULT, [(1, "append", "\r")])
    @settings(max_examples=300)
    def test_non_key_line_edits_round_trip(self, tag, edits):
        """The same edits on the six non-key frames of desk-k3: each
        raises only FrameError, or decodes to a message that re-encodes
        to the frame."""
        lines = DESK_PAYLOADS[tag][:-1].split("\n")
        for at, op, text in edits:
            if op == "insert":
                lines.insert(at, text)
            elif at < len(lines) and op == "delete":
                del lines[at]
            elif at < len(lines) and op == "append":
                lines[at] += text
            elif at < len(lines):
                name, eq, _ = lines[at].partition("=")
                lines[at] = name + eq + text if op == "value" and eq else text
        payload = ("\n".join(lines) + "\n").encode()
        frame = struct.pack(">I", len(payload)) + bytes([tag]) + payload
        try:
            msg = frame_decode(frame, DESK)
        except FrameError:
            return
        assert frame_encode(msg) == frame

    @given(st.one_of(
        st.binary(max_size=48),
        st.builds(framed, st.integers(0, 8), st.binary(max_size=48)),
        field_frames(),
    ))
    @example(framed(protocol.TAG_EQUATION_RESP, b"bprime=1\nc=0\nd=101\n"))
    @example(framed(protocol.TAG_EQUATION_RESP, b"bprime=1\nc=0\nd=0 1\n"))
    @example(framed(protocol.TAG_EQUATION_RESP, "bprime=1\nc=0\nd=２\n".encode()))
    @example(framed(protocol.TAG_IMAGE, b"y=\n"))
    @example(framed(protocol.TAG_CHALLENGE, b"challenge=\xff\n"))
    @settings(max_examples=300)
    def test_arbitrary_bytes_raise_only_frame_error(self, data):
        """Any bytes, with or without session params: a decode raises only
        FrameError or gives a message that re-encodes to the bytes, and
        the stream reader raises only FrameError or reads a whole frame."""
        for params in (None, DESK, TINY):
            try:
                msg = frame_decode(data, params)
            except FrameError:
                continue
            assert frame_encode(msg) == data
        try:
            frame = protocol._read_frame(io.BytesIO(data))
        except FrameError:
            return
        if frame is None:
            assert data == b""
        else:
            assert data.startswith(frame) and len(frame) == 5 + struct.unpack(">I", data[:4])[0]

    def test_params_cache_never_stores_a_failure(self):
        cache = ntcf._params_from_text
        frame = key_frame(tiny_key_for(q=522))
        size = cache.cache_info().currsize
        for _ in range(2):
            with pytest.raises(FrameError, match="q=522 is not prime"):
                frame_decode(frame)
        assert cache.cache_info().currsize == size

    def test_params_cache_is_exact(self):
        """B_L=0.0 and -0.0 compare equal but are different text, so
        each frame reports its own."""
        for b_l, other in (("0.0", "-0.0"), ("-0.0", "0.0")):
            with pytest.raises(FrameError, match=f"B_L={re.escape(b_l)} ") as info:
                frame_decode(key_frame(tiny_key_for(b_l=float(b_l))))
            assert f"B_L={other} " not in str(info.value)


class RecordingStream(io.BytesIO):
    """A byte stream that records the size of every read asked of it."""

    def __init__(self, data):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


class TestFrameLength:
    def test_huge_declared_length_rejected_before_read(self):
        stream = RecordingStream(b"\xff\xff\xff\xff" + bytes([protocol.TAG_IMAGE]))
        with pytest.raises(FrameError):
            protocol._read_frame(stream)
        assert stream.sizes == [4]

    def test_length_at_cap_is_read(self):
        head = struct.pack(">I", protocol.MAX_FRAME_BYTES)
        stream = RecordingStream(head + bytes([protocol.TAG_IMAGE]))
        with pytest.raises(FrameError, match="truncated"):
            protocol._read_frame(stream)
        assert stream.sizes == [4, 1 + protocol.MAX_FRAME_BYTES]

    def test_valid_frame_passes(self):
        frame = frame_encode(MsgImage(vec([1, 2], TINY)))
        assert protocol._read_frame(RecordingStream(frame)) == frame

    def test_frame_decode_rejects_oversized_frame_unparsed(self, monkeypatch):
        def parse(*args):
            raise AssertionError("payload parsed")

        monkeypatch.setattr(protocol, "_decode_payload", parse)
        payload = b"q=7\n" * (protocol.MAX_FRAME_BYTES // 4 + 1)
        frame = struct.pack(">I", len(payload)) + bytes([protocol.TAG_KEY]) + payload
        with pytest.raises(FrameError, match="exceeds"):
            frame_decode(frame)

    def test_frame_decode_parses_frame_at_cap(self):
        payload = b"x" * protocol.MAX_FRAME_BYTES
        frame = struct.pack(">I", len(payload)) + bytes([protocol.TAG_KEY]) + payload
        with pytest.raises(FrameError, match="malformed payload"):
            frame_decode(frame)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_cap_well_above_key_frames(self, name):
        key, _t = gen(PRESETS[name], np.random.default_rng(0))
        assert 50 * len(frame_encode(MsgKey(key))) < protocol.MAX_FRAME_BYTES


class TestVerifierOrdering:
    def test_challenge_before_image(self, rng):
        vr = VerifierRound(TINY, rng)
        vr.key_message()
        with pytest.raises(ProtocolError):
            vr.challenge(rng)

    def test_image_before_key_sent(self, rng):
        vr = VerifierRound(TINY, rng)
        with pytest.raises(ProtocolError):
            vr.receive_image(vec([0, 0], TINY))

    def test_wrong_image_length(self, rng):
        vr = VerifierRound(TINY, rng)
        vr.key_message()
        with pytest.raises(ProtocolError):
            vr.receive_image(vec([0, 0, 0], TINY))

    def test_answer_kind_must_match_challenge(self, rng):
        pr = HonestProver(np.random.default_rng(0), mode="exact-enumeration")
        for _ in range(10):
            vr = VerifierRound(TINY, rng)
            y = pr.receive_key(frame_decode(frame_encode(vr.key_message())).key)
            assert vr.receive_image(y) is None
            kind = vr.challenge(rng).kind
            if kind == "G":
                with pytest.raises(ProtocolError):
                    vr.check_equation(1, 0, np.array((1, 0, 1)))
            else:
                with pytest.raises(ProtocolError):
                    vr.check_generation(0, vec([0], TINY))

    def test_double_verdict(self, rng):
        pr = HonestProver(np.random.default_rng(1), mode="exact-enumeration")
        vr = VerifierRound(TINY, rng)
        y = pr.receive_key(vr.key_message().key)
        vr.receive_image(y)
        vr.challenge(rng)
        with pytest.raises(ProtocolError):
            vr.key_message()


class TestHonestCompleteness:
    def test_tiny_exact_all_accept(self):
        pr = HonestProver(np.random.default_rng(2), mode="exact-enumeration")
        stats = run_protocol(TINY, pr, 60, np.random.default_rng(3))
        assert stats.all_accepted
        assert stats.rounds_completed == 60
        assert stats.gen_rounds + stats.test_rounds == 60

    # kappa=4 pairs branches (0, 2), which the kappa=3 presets never do
    @pytest.mark.parametrize("kappa", [3, 4])
    def test_desk_idealized_all_accept(self, kappa):
        params = replace(DESK, kappa=kappa,
                         b_p=compute_bp(DESK.q, DESK.n, DESK.m, kappa, DESK.c_t))
        pr = HonestProver(np.random.default_rng(4), mode="idealized-claw")
        stats = run_protocol(params, pr, 50, np.random.default_rng(5))
        assert stats.all_accepted
        # RED fails 1/3 (kappa=3) or 1/2 (kappa=4) of T rounds; retries stay moderate
        assert stats.retries <= 50

    def test_desk_flood_idealized_all_accept(self):
        pr = HonestProver(np.random.default_rng(12), mode="idealized-claw")
        stats = run_protocol(get_preset("desk-flood"), pr, 100, np.random.default_rng(13))
        assert stats.all_accepted
        assert stats.rounds_completed == 100
        assert stats.gen_rounds and stats.test_rounds

    # q=3 with B_V = B_P/2: the exact residual often has fewer than kappa
    # branches, on the kappa = 2 path and on the RED path alike.
    @pytest.mark.parametrize("kappa", [2, 3])
    def test_non_clean_residual_is_a_retry(self, kappa):
        b_p = compute_bp(3, 1, 1, kappa, 0.5)
        params = NtcfParams(q=3, n=1, m=1, ell=1, kappa=kappa,
                            b_l=b_p / 4, b_v=b_p / 2, b_p=b_p, c_t=0.5)
        pr = HonestProver(np.random.default_rng(0), mode="exact-enumeration")
        try:
            stats = run_protocol(params, pr, 20, np.random.default_rng(100))
        except SessionAbort:
            return
        assert stats.rounds_completed == 20
        assert any("clean" in t.reason for t in stats.transcripts if t.verdict == "retry")

    def test_retry_reasons_are_marked(self):
        pr = HonestProver(np.random.default_rng(6), mode="idealized-claw")
        stats = run_protocol(DESK, pr, 80, np.random.default_rng(7))
        retry_ts = [t for t in stats.transcripts if t.verdict == "retry"]
        assert retry_ts  # kappa=3 RED failure is a 1/3 event per T round
        assert all(t.reason.startswith("retry:") for t in retry_ts)


class TestCheaters:
    def test_commit_prover_rejected_sometimes(self):
        pr = CheatCommitProver(np.random.default_rng(8))
        stats = run_protocol(DESK, pr, 120, np.random.default_rng(9))
        assert stats.gen_passes == stats.gen_rounds  # commit wins G rounds
        assert stats.rejects > 0
        assert stats.test_passes < stats.test_rounds

    def test_random_prover_mostly_rejected(self):
        pr = CheatRandomProver(np.random.default_rng(10))
        stats = run_protocol(DESK, pr, 40, np.random.default_rng(11))
        assert stats.accept_rate < 0.5


class TestDeterminismAndTranscripts:
    def run_seeded(self, seed_p, seed_v, n=25):
        pr = HonestProver(np.random.default_rng(seed_p), mode="exact-enumeration")
        return run_protocol(TINY, pr, n, np.random.default_rng(seed_v))

    def test_seeded_transcripts_identical(self):
        a = self.run_seeded(12, 13)
        b = self.run_seeded(12, 13)
        assert len(a.transcripts) == len(b.transcripts)
        for ta, tb in zip(a.transcripts, b.transcripts):
            assert ta.frames == tb.frames
            assert (ta.verdict, ta.reason) == (tb.verdict, tb.reason)

    def test_transcript_text_round_trip(self):
        stats = self.run_seeded(14, 15, n=5)
        for t in stats.transcripts:
            back = Transcript.from_text(t.to_text())
            assert back.frames == t.frames
            assert (back.verdict, back.reason) == (t.verdict, t.reason)

    DESK_TRANSCRIPT = run_protocol(DESK, make_prover("idealized-claw", 3), 1,
                                   np.random.default_rng(4)).transcripts[0]
    DESK_LINES = DESK_TRANSCRIPT.to_text()[:-1].split("\n")

    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(DESK_LINES)),
                st.sampled_from(["value", "line", "insert", "delete", "append"]),
                st.one_of(
                    st.sampled_from(["-1", "0", "1", "01", "00", "accept", "reject",
                                     "retry", "bogus", "frame=00", *LINE_BREAKS.values()]),
                    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                ),
            ),
            max_size=len(DESK_TRANSCRIPT.frames) + 1,
        ),
    )
    # frames=-1 with no frame lines once read as zero frames
    @example([(1, "value", "-1")] + [(2, "delete", "")] * len(DESK_TRANSCRIPT.frames))
    @example([(len(DESK_LINES) - 2, "value", "bogus")])
    @settings(max_examples=300)
    def test_transcript_line_edits_round_trip(self, edits):
        """Line edits of a desk-k3 session transcript: each raises
        FormatError, or reads back to a transcript with a verdict the
        engine writes, and that writes the same text."""
        lines = list(self.DESK_LINES)
        for at, op, text in edits:
            if op == "insert":
                lines.insert(at, text)
            elif at < len(lines) and op == "delete":
                del lines[at]
            elif at < len(lines) and op == "append":
                lines[at] += text
            elif at < len(lines):
                name, eq, _ = lines[at].partition("=")
                lines[at] = name + eq + text if op == "value" and eq else text
        text = "\n".join(lines) + "\n"
        try:
            back = Transcript.from_text(text)
        except FormatError:
            return
        assert back.verdict in ("accept", "reject", "retry")
        assert back.to_text() == text

    @pytest.mark.parametrize("hexdata", ["00 01 ab", "0001AB", "0001a", "0001ag"],
                             ids=["spaces", "upper-case", "odd-length", "not-hex"])
    def test_transcript_frames_only_lower_case_hex(self, hexdata):
        text = Transcript([b"\x00\x01\xab"], "accept", "ok").to_text()
        with pytest.raises(FormatError, match="field frame"):
            Transcript.from_text(text.replace("frame=0001ab", "frame=" + hexdata))

    # Between them the cases take every verdict path: accept, reject,
    # retry (RED failure) and the image decode failure.
    @pytest.mark.parametrize("preset,prover_kind", [
        ("tiny-exact", "exact-enumeration"),
        ("desk-k3", "idealized-claw"),
        ("desk-k3", "cheat-commit"),
        ("desk-k2", "cheat-random"),
    ])
    def test_inproc_and_tcp_frames_match(self, preset, prover_kind):
        params = get_preset(preset)
        a, b = (
            drive(params, make_prover(prover_kind, 16), 20, np.random.default_rng(17))
            for drive in (run_protocol, run_protocol_tcp)
        )
        fa = [f for t in a.transcripts for f in t.frames]
        fb = [f for t in b.transcripts for f in t.frames]
        assert fa == fb
        assert [(t.verdict, t.reason, t.challenge_kind) for t in a.transcripts] == [
            (t.verdict, t.reason, t.challenge_kind) for t in b.transcripts
        ]
        assert counters(a) == counters(b)

    def test_one_decode_per_frame(self, monkeypatch):
        calls = Counter()

        def counting(name):
            inner = getattr(protocol, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapped

        for name in ("frame_decode", "key_from_text"):
            monkeypatch.setattr(protocol, name, counting(name))
        pr = HonestProver(np.random.default_rng(25), mode="exact-enumeration")
        stats = run_protocol(TINY, pr, 10, np.random.default_rng(26))
        attempts = len(stats.transcripts)
        assert all(len(t.frames) == 5 for t in stats.transcripts)
        assert calls == {"frame_decode": 5 * attempts, "key_from_text": attempts}

    def test_tcp_with_secret_hint(self):
        pr = HonestProver(np.random.default_rng(18), mode="idealized-claw")
        stats = run_protocol_tcp(DESK, pr, 15, np.random.default_rng(19))
        assert stats.all_accepted


class TestPrivacy:
    def test_secret_material_never_framed(self, rng):
        # the serialized s and e lines from the secret file must not
        # appear in any wire frame; the key frame is the public file
        pr = HonestProver(np.random.default_rng(20), mode="idealized-claw")
        for _ in range(10):
            vr = VerifierRound(DESK, rng)
            sk_text = trapdoor_to_text(vr.key, vr._trapdoor)
            secret_lines = [
                ln for ln in sk_text.splitlines()
                if ln.split("=")[0] in ("s", "e", "R")
            ]
            assert secret_lines
            pr.set_secret_hint(vr.secret_s())
            frames = [frame_encode(vr.key_message())]
            y = pr.receive_key(vr.key)
            frames.append(frame_encode(MsgImage(y)))
            assert vr.receive_image(y) is None
            ch = vr.challenge(rng)
            frames.append(frame_encode(ch))
            key_payload = frames[0][5:].decode()
            assert key_payload == key_to_text(vr.key)
            for f in frames:
                text = f[5:].decode()
                assert "ntcf-sk" not in text
                for ln in secret_lines:
                    assert f"\n{ln}\n" not in f"\n{text}\n"


class TestSessionLimits:
    def test_zero_rounds_rejected(self):
        pr = HonestProver(np.random.default_rng(21))
        with pytest.raises(ValueError):
            run_protocol(TINY, pr, 0, np.random.default_rng(22))
        with pytest.raises(ValueError):
            run_protocol_tcp(TINY, pr, 0, np.random.default_rng(22))

    def test_retry_cap_aborts(self):
        pr = AlwaysRedFails(np.random.default_rng(23), mode="exact-enumeration")
        with pytest.raises(SessionAbort):
            run_protocol(TINY, pr, 50, np.random.default_rng(24), retry_cap=0)


class TestTcpTransport:
    def test_retry_cap_aborts(self):
        messages = []
        for drive in (run_protocol, run_protocol_tcp):
            pr = AlwaysRedFails(np.random.default_rng(23), mode="exact-enumeration")
            with pytest.raises(SessionAbort, match="retry cap 0 exceeded") as exc:
                drive(TINY, pr, 50, np.random.default_rng(24), retry_cap=0)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_nodelay_on_both_ends(self, monkeypatch):
        nodelay = []

        class Probe(socket.socket):
            def close(self):
                try:
                    self.getpeername()
                except OSError:  # listening or already closed
                    pass
                else:
                    nodelay.append(
                        self.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                    )
                super().close()

        monkeypatch.setattr(socket, "socket", Probe)
        pr = HonestProver(np.random.default_rng(27), mode="exact-enumeration")
        run_protocol_tcp(TINY, pr, 2, np.random.default_rng(28))
        assert len(nodelay) == 2 and all(nodelay)

    def test_single_thread(self, monkeypatch):
        caller, threads = threading.current_thread(), threading.active_count()
        seen = []
        real_gen = protocol.gen

        def recording_gen(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return real_gen(*args)

        class Recording(HonestProver):
            def receive_key(self, key):
                seen.append((threading.current_thread(), threading.active_count()))
                return super().receive_key(key)

        monkeypatch.setattr(protocol, "gen", recording_gen)
        pr = Recording(np.random.default_rng(29), mode="exact-enumeration")
        run_protocol_tcp(TINY, pr, 3, np.random.default_rng(30))
        assert len(seen) >= 6
        assert set(seen) == {(caller, threads)}

    def test_transport_failure_aborts(self, monkeypatch):
        open_ends = []

        class Probe(socket.socket):
            def close(self):
                try:
                    self.getpeername()
                except OSError:  # listening or already closed
                    pass
                else:
                    open_ends.append(self)
                super().close()

        real_read = protocol._read_frame
        calls = []

        def failing_read(stream):
            calls.append(stream)
            if len(calls) == 3:
                raise TimeoutError("timed out")
            return real_read(stream)

        monkeypatch.setattr(socket, "socket", Probe)
        monkeypatch.setattr(protocol, "_read_frame", failing_read)
        pr = HonestProver(np.random.default_rng(31), mode="exact-enumeration")
        with pytest.raises(SessionAbort, match="transport failure"):
            run_protocol_tcp(TINY, pr, 3, np.random.default_rng(32))
        assert len(calls) == 3
        assert len(open_ends) == 2 and all(end.fileno() == -1 for end in open_ends)


def test_round_vectors_read_only():
    """Every vector a round hands out is read-only: the sampled x and y,
    the decoded image, preimage and d, each inversion, the key's t, the
    trapdoor's e and a Gaussian sample."""
    rng = np.random.default_rng(7)
    k, t = gen(DESK, rng)
    vectors = [k.t, t.e, TruncatedGaussian(DESK.q, DESK.b_p, DESK.m).sample(rng)]
    for _ in range(10):
        b, x, y = sample_image(k, rng)
        vectors += [x, y, inv(k, t, b, y),
                    frame_decode(frame_encode(MsgImage(y)), DESK).y,
                    frame_decode(frame_encode(MsgPreimageResp(b, x)), DESK).x]
    d = np.ones(DESK.d_len, dtype=np.int64)
    vectors.append(frame_decode(frame_encode(MsgEquationResp(1, 0, d)), DESK).d)
    for v in vectors:
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0
