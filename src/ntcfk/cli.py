"""Command-line entry point.

Subcommands: keygen, protocol, stats, reduce, oracle-compare. Every
command is deterministic under --seed (env NTCF_SEED as fallback).
Exit codes: 0 success/accept, 1 check failure/reject, 2 config or
protocol error.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import crosscheck, presets
from .gaussian import TableTooLarge, trace_distance_from_h2, tv_distance
from .ntcf import (
    NtcfParams,
    compute_bp,
    gen,
    hellinger_branch,
    hellinger_display_bound,
    key_to_text,
    trapdoor_to_text,
    validate_params,
)
from .prover import CheatCommitProver, CheatRandomProver, CosetState, HonestProver, fits_enumeration
from .protocol import SessionAbort, run_protocol, run_protocol_tcp
from .reductions import (
    end_to_end_recover,
    instance_from_key,
    lwe_to_dcp,
    solve_dcp_desk,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _resolve_params(args) -> NtcfParams:
    if args.preset:
        return presets.get_preset(args.preset)
    needed = [args.q, args.n, args.m, args.kappa]
    if any(v is None for v in needed):
        raise ValueError("give --preset or all of --q/--n/--m/--kappa")
    b_p = compute_bp(args.q, args.n, args.m, args.kappa, args.ct)
    return NtcfParams(
        q=args.q, n=args.n, m=args.m, ell=args.ell, kappa=args.kappa,
        b_l=args.bl, b_v=args.bv, b_p=b_p, c_t=args.ct,
    )


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NTCF_SEED")
    if env is not None:
        return int(env)
    return 0


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_keygen(args) -> int:
    p = _resolve_params(args)
    report = validate_params(p)
    for w in report.warnings:
        print(f"warning: {w}")
    if not report.ok:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_ERROR
    rng = np.random.default_rng(_resolve_seed(args))
    k, t = gen(p, rng)
    out = _out_dir(args)
    (out / "key.pub").write_text(key_to_text(k))
    (out / "key.sk").write_text(trapdoor_to_text(k, t))
    print(f"q={p.q} n={p.n} m={p.m} kappa={p.kappa} ell={p.ell}")
    print(f"B_L={p.b_l!r} B_V={p.b_v!r} B_P={p.b_p!r} (condition-(iii) formula)")
    for b in range(p.kappa):
        print(f"branch b={b}: Hellinger^2 bound {hellinger_display_bound(p, b):.6g}")
    print(f"wrote {out / 'key.pub'} and {out / 'key.sk'}")
    return EXIT_OK


def _make_prover(kind: str, p: NtcfParams, rng: np.random.Generator):
    if kind == "honest":
        mode = "exact-enumeration" if fits_enumeration(p) else "idealized-claw"
        return HonestProver(rng, mode=mode)
    if kind == "cheat-commit":
        return CheatCommitProver(rng)
    if kind == "cheat-random":
        return CheatRandomProver(rng)
    raise ValueError(f"unknown prover kind {kind!r}")


def cmd_protocol(args) -> int:
    p = _resolve_params(args)
    if args.rounds < 1:
        raise ValueError("--rounds must be >= 1")
    seed = _resolve_seed(args)
    v_rng = np.random.default_rng(seed)
    p_rng = np.random.default_rng(seed + 1)
    prover = _make_prover(args.prover, p, p_rng)
    if args.prover == "honest":
        print(f"honest mode: {prover.mode}")
    try:
        if args.transport == "inproc":
            stats = run_protocol(p, prover, args.rounds, v_rng, keep_transcripts=True)
        elif args.transport.startswith("tcp:"):
            _tcp, host, port = args.transport.split(":")
            port = int(port)
            if not 0 <= port <= 65535:
                raise ValueError(f"--transport port {port} is outside 0-65535")
            stats = run_protocol_tcp(p, prover, args.rounds, v_rng, host=host, port=port)
        else:
            raise ValueError(f"bad --transport {args.transport!r}")
    except SessionAbort as exc:
        print(f"session abort: {exc}", file=sys.stderr)
        return EXIT_ERROR
    out = _out_dir(args)
    lines = [
        f"rounds={stats.rounds_completed}",
        f"accepts={stats.accepts}",
        f"rejects={stats.rejects}",
        f"retries={stats.retries}",
        f"gen_rounds={stats.gen_rounds}",
        f"gen_passes={stats.gen_passes}",
        f"test_rounds={stats.test_rounds}",
        f"test_passes={stats.test_passes}",
    ]
    (out / "stats.txt").write_text("\n".join(lines) + "\n")
    with open(out / "transcripts.txt", "w") as fh:
        for t in stats.transcripts:
            fh.write(t.to_text())
    print("\n".join(lines))
    print(f"accept rate {stats.accept_rate:.4f}")
    return EXIT_OK if stats.all_accepted else EXIT_FAIL


def cmd_stats(args) -> int:
    p = _resolve_params(args)
    rng = np.random.default_rng(_resolve_seed(args))
    try:
        k, t = gen(p, rng)
        print(f"{'b':>3} {'exact H^2':>14} {'bound':>14} {'trace dist':>12} pass")
        all_ok = True
        for b in range(p.kappa):
            exact, bound = hellinger_branch(k, t, b)
            ok = exact <= bound + 1e-10
            all_ok = all_ok and ok
            print(
                f"{b:>3} {exact:>14.6e} {bound:>14.6e} "
                f"{trace_distance_from_h2(exact):>12.6e} {'yes' if ok else 'NO'}"
            )
    except TableTooLarge as exc:
        print(f"error: {exc}; use smaller parameters", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_reduce(args) -> int:
    p = _resolve_params(args)
    if args.ell < 1:
        raise ValueError("--ell must be >= 1")
    rng = np.random.default_rng(_resolve_seed(args))
    k, t = gen(p, rng)
    inst = instance_from_key(k, planted_s=t.s)
    if args.inject_fault:
        states = lwe_to_dcp(inst, args.ell, rng)
        labels = (states[0].labels + [[0], [1]]) % p.q  # row 1 plus one
        states[0] = CosetState(labels, p.q)
        report = solve_dcp_desk(states)
        print(f"fault injection: success={report.success} detail={report.detail}")
        return EXIT_FAIL if not report.success else EXIT_OK
    report = end_to_end_recover(inst, args.path, rng, count=args.ell, kappa=args.kappa)
    if report.success:
        print(f"recovered s = {' '.join(str(v) for v in report.candidate.entries)}")
        print(f"states consumed: {report.states_consumed}; {report.detail}")
        print(f"plant matches: {report.candidate == t.s}")
        return EXIT_OK
    print(f"recovery failed: {report.detail}", file=sys.stderr)
    return EXIT_FAIL


def cmd_oracle_compare(args) -> int:
    p = _resolve_params(args)
    rng = np.random.default_rng(_resolve_seed(args))
    k, _t = gen(p, rng)
    try:
        analytic, oracle = crosscheck.joints(k, mis_shift=args.mis_shift)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    tv = tv_distance(analytic, oracle)
    print(f"TV(analytic, oracle) = {tv:.3e}")
    if args.verbose:  # the oracle joint's rows are in lexicographic order
        for point, prob in zip(oracle.points.tolist(), oracle.probs.tolist()):
            print(" ".join(map(str, point)), "->", repr(prob))
    return EXIT_OK if tv <= 1e-9 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ntcfk",
        description="kappa-to-1 claw-free functions over LWE: keys, "
        "quantumness protocol, reductions, oracle checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--preset", choices=sorted(presets.PRESETS), default=None)
        sp.add_argument("--q", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--kappa", type=int, default=None)
        sp.add_argument("--ell", type=int, default=8)
        sp.add_argument("--bl", type=float, default=0.5)
        sp.add_argument("--bv", type=float, default=1.0)
        sp.add_argument("--ct", type=float, default=2.0)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=".")

    sp = sub.add_parser("keygen", help="generate and write a key pair")
    common(sp)
    sp.set_defaults(func=cmd_keygen)

    sp = sub.add_parser("protocol", help="run protocol rounds")
    common(sp)
    sp.add_argument("--rounds", type=int, default=100)
    sp.add_argument(
        "--prover", choices=["honest", "cheat-commit", "cheat-random"],
        default="honest",
    )
    sp.add_argument("--transport", default="inproc", help="inproc or tcp:HOST:PORT")
    sp.set_defaults(func=cmd_protocol)

    sp = sub.add_parser("stats", help="Hellinger branch table vs bounds")
    common(sp)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("reduce", help="run an LWE -> DCP/EDCP pipeline")
    common(sp)
    sp.add_argument("--path", choices=["dcp", "edcp"], default="dcp")
    sp.add_argument("--inject-fault", action="store_true")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("oracle-compare", help="analytic prover vs sparse oracle")
    common(sp)
    sp.add_argument("--mis-shift", type=int, default=0)
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(func=cmd_oracle_compare)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
