"""The 2-round quantumness protocol: verifier state machine, wire
format, one round engine for both transports, and accept/reject
statistics.

Each round: the verifier generates a fresh key and sends it; the prover
replies with an image y; the verifier inverts y into the claw, flips a
challenge coin (G = generation/preimage check, T = test/equation check);
the prover answers; the verifier rules. RED failures and all-zero d
outcomes consume a retry with a fresh key instead of a rejection.

Wire format: a frame is a 4-byte big-endian payload length, a 1-byte
message tag, then the payload in canonical text.

One verifier loop runs every session on the calling thread. It hands
each frame to an exchange function, in which the prover decodes and
answers it at once. Over TCP (TCP_NODELAY set) the exchange first
carries the frame across a localhost connection, from the verifier's end
to the prover's, and the reply back; there is no server thread. On both
transports each frame is encoded once by its sender and decoded once by
its receiver, so transcripts are byte-comparable across transports. The
idealized honest prover's secret hint travels beside the exchange, never
through it.
y, x and d travel as int64 arrays (d of 0s and 1s), so the messages that
carry them compare by identity, not value.
"""
from __future__ import annotations

import re
import socket
import struct
from dataclasses import dataclass, field

import numpy as np

from .ntcf import NtcfKey, NtcfParams, chk, claws, gen, inv, key_from_text, key_to_text
from .prover import RedFailed, red_branches
from .serialize import HEADER_TRANSCRIPT, FormatError, LineReader, LineWriter
from .trapdoor import DecodeFailure
from .zq import ZqVector, equation_bit


class ProtocolError(RuntimeError):
    """Out-of-order or malformed protocol interaction."""


class SessionAbort(RuntimeError):
    """Retry cap exceeded or transport failure."""


# messages ------------------------------------------------------------------

@dataclass(frozen=True)
class MsgKey:
    key: NtcfKey


@dataclass(frozen=True, eq=False)
class MsgImage:
    y: np.ndarray


@dataclass(frozen=True)
class MsgChallenge:
    kind: str  # "G" | "T"


@dataclass(frozen=True, eq=False)
class MsgPreimageResp:
    b: int
    x: np.ndarray


@dataclass(frozen=True, eq=False)
class MsgEquationResp:
    b_prime: int
    c: int
    d: np.ndarray


@dataclass(frozen=True)
class MsgRedFailure:
    reason: str


@dataclass(frozen=True)
class MsgRoundResult:
    accept: bool
    reason: str

    @property
    def is_retry(self) -> bool:
        return not self.accept and self.reason.startswith("retry:")


TAG_KEY = 0x01
TAG_IMAGE = 0x02
TAG_CHALLENGE = 0x03
TAG_PREIMAGE_RESP = 0x04
TAG_EQUATION_RESP = 0x05
TAG_RED_FAILURE = 0x06
TAG_ROUND_RESULT = 0x07


# Cap on a frame's declared payload length, checked before the payload is
# read or parsed. The largest frame of any preset is its key frame, under
# 1 KiB: about 670 bytes for desk-flood, whose residues have 4 digits.
MAX_FRAME_BYTES = 1 << 16


class FrameError(ValueError):
    """Bad tag, length mismatch, or malformed payload."""


def _payload(msg) -> tuple[int, str]:
    if isinstance(msg, MsgKey):
        return TAG_KEY, key_to_text(msg.key)
    w = LineWriter()
    if isinstance(msg, MsgImage):
        w.vector("y", msg.y)
        return TAG_IMAGE, w.text()
    if isinstance(msg, MsgChallenge):
        if msg.kind not in ("G", "T"):
            raise FrameError(f"bad challenge kind {msg.kind!r}")
        w.field("challenge", msg.kind)
        return TAG_CHALLENGE, w.text()
    if isinstance(msg, MsgPreimageResp):
        w.field("b", msg.b)
        w.vector("x", msg.x)
        return TAG_PREIMAGE_RESP, w.text()
    if isinstance(msg, MsgEquationResp):
        w.field("bprime", msg.b_prime)
        w.field("c", msg.c)
        w.bits("d", msg.d)
        return TAG_EQUATION_RESP, w.text()
    if isinstance(msg, MsgRedFailure):
        w.field("reason", msg.reason)
        return TAG_RED_FAILURE, w.text()
    if isinstance(msg, MsgRoundResult):
        w.field("verdict", "accept" if msg.accept else "reject")
        w.field("reason", msg.reason)
        return TAG_ROUND_RESULT, w.text()
    raise FrameError(f"unknown message type {type(msg).__name__}")


def frame_encode(msg) -> bytes:
    tag, text = _payload(msg)
    payload = text.encode()
    return struct.pack(">I", len(payload)) + bytes([tag]) + payload


def _check_declared(plen: int) -> None:
    if plen > MAX_FRAME_BYTES:
        raise FrameError(f"declared payload of {plen} bytes exceeds {MAX_FRAME_BYTES}")


def frame_decode(data: bytes, params: NtcfParams | None = None):
    """Decode one complete frame. A declared payload over
    MAX_FRAME_BYTES is a FrameError before anything is parsed. Non-key
    payloads need the session params to size their vectors."""
    if len(data) < 5:
        raise FrameError("frame shorter than header")
    (plen,) = struct.unpack(">I", data[:4])
    _check_declared(plen)
    tag = data[4]
    if len(data) != 5 + plen:
        raise FrameError(f"length mismatch: header says {plen}, got {len(data) - 5}")
    try:
        return _decode_payload(tag, data[5:].decode(), params)
    except (FormatError, UnicodeDecodeError) as exc:
        raise FrameError(f"malformed payload for tag {tag:#04x}: {exc}") from exc


def _decode_payload(tag: int, text: str, params: NtcfParams | None):
    if tag == TAG_KEY:
        return MsgKey(key_from_text(text))
    if params is None:
        raise FrameError("params required to decode non-key messages")
    r = LineReader(text)
    if tag == TAG_IMAGE:
        y = r.vector("y", params.q, params.m)
        r.done()
        return MsgImage(y)
    if tag == TAG_CHALLENGE:
        kind = r.field("challenge")
        r.done()
        if kind not in ("G", "T"):
            raise FrameError(f"bad challenge kind {kind!r}")
        return MsgChallenge(kind)
    if tag == TAG_PREIMAGE_RESP:
        b = r.int_field("b")
        x = r.vector("x", params.q, params.n)
        r.done()
        return MsgPreimageResp(b, x)
    if tag == TAG_EQUATION_RESP:
        bp = r.int_field("bprime")
        c = r.int_field("c")
        d = r.bits("d", params.d_len)
        r.done()
        if c not in (0, 1):
            raise FrameError(f"bad c={c}")
        return MsgEquationResp(bp, c, d)
    if tag == TAG_RED_FAILURE:
        reason = r.field("reason")
        r.done()
        return MsgRedFailure(reason)
    if tag == TAG_ROUND_RESULT:
        verdict = r.field("verdict")
        reason = r.field("reason")
        r.done()
        if verdict not in ("accept", "reject"):
            raise FrameError(f"bad verdict {verdict!r}")
        return MsgRoundResult(verdict == "accept", reason)
    raise FrameError(f"unknown tag {tag:#04x}")


# verifier state machine ----------------------------------------------------

class VerifierRound:
    """One round of the verifier. Methods must be called in protocol
    order; anything else raises ProtocolError."""

    def __init__(self, params: NtcfParams, rng: np.random.Generator):
        self.params = params
        self.key, self._trapdoor = gen(params, rng)
        self._state = "key-ready"
        self._y: np.ndarray | None = None
        self._claw: np.ndarray | None = None  # (kappa, n): row b is x_b
        self._challenge: str | None = None

    def _expect(self, state: str):
        if self._state != state:
            raise ProtocolError(
                f"out-of-order message: verifier in state {self._state!r}"
            )

    def key_message(self) -> MsgKey:
        self._expect("key-ready")
        self._state = "await-image"
        return MsgKey(self.key)

    def secret_s(self) -> ZqVector:
        """Simulation hook for the idealized honest prover; never leaves
        the driver process through a protocol message."""
        return self._trapdoor.s

    def receive_image(self, y: np.ndarray):
        """Invert the image into the cached claw. Returns None on
        success or a rejecting MsgRoundResult on decode failure."""
        self._expect("await-image")
        if len(y) != self.params.m:
            raise ProtocolError(f"image length {len(y)} != m={self.params.m}")
        self._y = y
        try:
            x0 = inv(self.key, self._trapdoor, 0, y)
        except DecodeFailure as exc:
            self._state = "done"
            return MsgRoundResult(False, f"image decode failure: {exc}")
        self._claw = claws(x0[None, :], self._trapdoor.s, self.params.kappa)[0]
        self._state = "image-held"
        return None

    def challenge(self, rng: np.random.Generator) -> MsgChallenge:
        self._expect("image-held")
        self._challenge = "G" if rng.integers(0, 2) == 0 else "T"
        self._state = "challenged"
        return MsgChallenge(self._challenge)

    def check_generation(self, b: int, x: np.ndarray) -> MsgRoundResult:
        self._expect("challenged")
        if self._challenge != "G":
            raise ProtocolError("preimage response to a test challenge")
        self._state = "done"
        if not 0 <= b < self.params.kappa:
            return MsgRoundResult(False, f"branch b={b} out of range")
        if chk(self.key, b, x, self._y):
            return MsgRoundResult(True, "preimage check passed")
        return MsgRoundResult(False, "preimage check failed")

    def check_equation(self, b_prime: int, c: int, d: np.ndarray) -> MsgRoundResult:
        self._expect("challenged")
        if self._challenge != "T":
            raise ProtocolError("equation response to a generation challenge")
        self._state = "done"
        pair = red_branches(self.params.kappa, b_prime)
        if pair is None:
            return MsgRoundResult(False, f"b'={b_prime} out of range")
        if not d.any():
            return MsgRoundResult(False, "retry:all-zero d")
        i, j = pair
        if c == equation_bit(d, self._claw[i], self._claw[j], self.params.q):
            return MsgRoundResult(True, "equation check passed")
        return MsgRoundResult(False, "equation check failed")

    def red_failure(self, reason: str) -> MsgRoundResult:
        self._expect("challenged")
        if self._challenge != "T":
            raise ProtocolError("RED failure reported on a generation challenge")
        self._state = "done"
        return MsgRoundResult(False, f"retry:red-failure: {reason}")


# transcripts and stats -----------------------------------------------------

_HEX = re.compile(r"(?:[0-9a-f]{2})*")  # the text bytes.hex() writes


@dataclass
class Transcript:
    frames: list[bytes] = field(default_factory=list)
    verdict: str = ""  # "accept" | "reject" | "retry"
    reason: str = ""
    challenge_kind: str = ""  # "G" | "T" | "" (rejected before challenge)

    def to_text(self) -> str:
        w = LineWriter(HEADER_TRANSCRIPT)
        w.field("frames", len(self.frames))
        for f in self.frames:
            w.field("frame", f.hex())
        w.field("verdict", self.verdict)
        w.field("reason", self.reason)
        return w.text()

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        r = LineReader(text, HEADER_TRANSCRIPT)
        count = r.int_field("frames")
        if count < 0:
            raise FormatError(f"field frames: negative count {count}")
        frames = [r.field("frame") for _ in range(count)]
        if not all(map(_HEX.fullmatch, frames)):
            raise FormatError("field frame: not lower-case hex of whole bytes")
        verdict = r.field("verdict")
        if verdict not in ("accept", "reject", "retry"):
            raise FormatError(f"field verdict: {verdict!r}, not accept, reject or retry")
        reason = r.field("reason")
        r.done()
        return cls([bytes.fromhex(f) for f in frames], verdict, reason)


@dataclass
class SessionStats:
    rounds_requested: int = 0
    rounds_completed: int = 0
    accepts: int = 0
    rejects: int = 0
    retries: int = 0
    gen_rounds: int = 0
    gen_passes: int = 0
    test_rounds: int = 0
    test_passes: int = 0
    transcripts: list[Transcript] = field(default_factory=list)

    @property
    def accept_rate(self) -> float:
        return self.accepts / max(self.rounds_completed, 1)

    @property
    def all_accepted(self) -> bool:
        return self.rounds_completed > 0 and self.accepts == self.rounds_completed


# round engine --------------------------------------------------------------

TCP_TIMEOUT_S = 30.0  # bound on each socket call


def _prover_step(prover, msg):
    """The prover's reply to one decoded verifier frame; None for a verdict."""
    if isinstance(msg, MsgKey):
        return MsgImage(prover.receive_key(msg.key))
    if isinstance(msg, MsgChallenge):
        if msg.kind == "G":
            b, x = prover.respond_generation()
            return MsgPreimageResp(b, x)
        try:
            b_prime, eq = prover.respond_test()
        except RedFailed as exc:
            return MsgRedFailure(exc.reason)
        return MsgEquationResp(b_prime, eq.c, eq.d)
    if isinstance(msg, MsgRoundResult):
        return None  # verdicts are the verifier's business
    raise ProtocolError(f"prover got unexpected {type(msg).__name__}")


def _read_frame(stream) -> bytes | None:
    head = stream.read(4)
    if not head:
        return None
    if len(head) < 4:
        raise FrameError("truncated frame header")
    (plen,) = struct.unpack(">I", head)
    _check_declared(plen)
    rest = stream.read(1 + plen)
    if len(rest) != 1 + plen:
        raise FrameError("truncated frame body")
    return head + rest


def _socket_end(sock: socket.socket):
    """One end of a TCP session: the socket and a buffered reader on it.
    Each message is one small frame that waits for a reply, so Nagle's
    algorithm is off: with it on, a frame sits in the kernel until the
    peer's delayed ACK."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(TCP_TIMEOUT_S)
    return sock, sock.makefile("rb")


def _cross(frame: bytes, src, dst) -> bytes:
    """Send a frame from one (socket, reader) end of a connection and
    read it at the other."""
    src[0].sendall(frame)
    got = _read_frame(dst[1])
    if got is None:
        raise SessionAbort("peer closed connection mid-round")
    return got


def _prover_end(prover, params: NtcfParams, ends=None):
    """The session's exchange: the prover decodes and answers each frame
    as the verifier sends it, on the calling thread; None answers a
    verdict. Given the verifier's and the prover's ends of a connection,
    each frame crosses it first, and the reply crosses back."""
    def exchange(frame: bytes) -> bytes | None:
        if ends is not None:
            frame = _cross(frame, *ends)
        reply = _prover_step(prover, frame_decode(frame, params))
        if reply is None:
            return None
        reply = frame_encode(reply)
        return reply if ends is None else _cross(reply, *reversed(ends))

    return exchange


def _verify_attempt(exchange, params, rng, hint) -> Transcript:
    """One key/image/challenge/response/verdict exchange. The verifier
    acts only on the frames it decodes, never on the prover's objects."""
    t = Transcript()

    def send(msg, *expected):
        """Send a message and return the prover's decoded reply, which
        must be one of `expected`; the verdict expects none."""
        frame = frame_encode(msg)
        t.frames.append(frame)
        reply = exchange(frame)
        if not expected:
            return None
        t.frames.append(reply)
        answer = frame_decode(reply, params)
        if not isinstance(answer, expected):
            raise ProtocolError(f"unexpected {type(answer).__name__} from the prover")
        return answer

    vr = VerifierRound(params, rng)
    if hint is not None:
        hint(vr.secret_s())
    result = vr.receive_image(send(vr.key_message(), MsgImage).y)
    if result is None:
        ch = vr.challenge(rng)
        t.challenge_kind = ch.kind
        answer = send(ch, MsgPreimageResp, MsgEquationResp, MsgRedFailure)
        if isinstance(answer, MsgPreimageResp):
            result = vr.check_generation(answer.b, answer.x)
        elif isinstance(answer, MsgEquationResp):
            result = vr.check_equation(answer.b_prime, answer.c, answer.d)
        else:
            result = vr.red_failure(answer.reason)
    send(result)
    t.verdict = "accept" if result.accept else ("retry" if result.is_retry else "reject")
    t.reason = result.reason
    return t


def _run_session(params, prover, n_rounds, rng, retry_cap, keep_transcripts=True,
                 ends=None) -> SessionStats:
    """The verifier's session over `_prover_end`: rounds, verdicts, stats.

    Retries (RED failure, all-zero d) get a fresh key and do not count
    toward the round total; exceeding the retry cap (default 10 + 2 per
    round) aborts the session. A prover that wants the secret hint gets
    each round's secret off the wire.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if retry_cap is None:
        retry_cap = 10 + 2 * n_rounds
    hint = prover.set_secret_hint if getattr(prover, "wants_secret_hint", False) else None
    exchange = _prover_end(prover, params, ends)
    stats = SessionStats(rounds_requested=n_rounds)
    while stats.rounds_completed < n_rounds:
        t = _verify_attempt(exchange, params, rng, hint)
        if keep_transcripts:
            stats.transcripts.append(t)
        if t.verdict == "retry":
            stats.retries += 1
            if stats.retries > retry_cap:
                raise SessionAbort(
                    f"retry cap {retry_cap} exceeded after "
                    f"{stats.rounds_completed} completed rounds (last: {t.reason})"
                )
            continue
        stats.rounds_completed += 1
        passed = t.verdict == "accept"
        stats.accepts += passed
        stats.rejects += not passed
        if t.challenge_kind == "G":
            stats.gen_rounds += 1
            stats.gen_passes += passed
        elif t.challenge_kind == "T":
            stats.test_rounds += 1
            stats.test_passes += passed
    return stats


def run_protocol(
    params: NtcfParams,
    prover,
    n_rounds: int,
    rng: np.random.Generator,
    retry_cap: int | None = None,
    keep_transcripts: bool = True,
) -> SessionStats:
    """Drive n_rounds completed rounds against the given prover, in
    process: every message still passes through the frame codec."""
    return _run_session(params, prover, n_rounds, rng, retry_cap, keep_transcripts)


def run_protocol_tcp(
    params: NtcfParams,
    prover,
    n_rounds: int,
    rng: np.random.Generator,
    retry_cap: int | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> SessionStats:
    """Same contract as run_protocol, but every frame also crosses a TCP
    connection opened on host:port, on the calling thread: no server
    thread. A socket error, set-up included, aborts the session."""
    ends = []  # (socket, reader) pairs: the verifier's, then the prover's
    try:
        with socket.create_server((host, port)) as server:
            ends.append(_socket_end(socket.create_connection(server.getsockname()[:2])))
            ends.append(_socket_end(server.accept()[0]))
        return _run_session(params, prover, n_rounds, rng, retry_cap, ends=ends)
    except OSError as exc:
        raise SessionAbort(f"transport failure: {exc!r}") from exc
    finally:
        for sock, reader in ends:
            reader.close()
            sock.close()
