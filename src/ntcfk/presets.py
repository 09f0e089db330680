"""Named parameter presets.

tiny-exact is small enough that the sparse-state oracle can simulate the
whole sampling circuit, and its widths put both Gaussians below 1 so all
noise draws are exactly zero: the analytic prover and the oracle must
agree to floating-point accuracy. The desk presets are protocol-scale:
the gadget trapdoor layout fits and honest rounds run in microseconds,
but exact oracle simulation is out of reach.

B_P in every preset is derived from the defining formula, never typed in
by hand.
"""
from __future__ import annotations

from .ntcf import NtcfParams, compute_bp

PRESETS: dict[str, NtcfParams] = {
    "tiny-exact": NtcfParams(
        q=7, n=1, m=2, ell=1, kappa=3,
        b_l=0.2, b_v=0.3, b_p=compute_bp(7, 1, 2, 3, 1.4), c_t=1.4,
    ),
    "desk-k3": NtcfParams(
        q=521, n=2, m=40, ell=1, kappa=3,
        b_l=0.5, b_v=1.0, b_p=compute_bp(521, 2, 40, 3, 2.0), c_t=2.0,
    ),
    "desk-k2": NtcfParams(
        q=521, n=2, m=40, ell=1, kappa=2,
        b_l=0.5, b_v=1.0, b_p=compute_bp(521, 2, 40, 2, 2.0), c_t=2.0,
    ),
}


def get_preset(name: str) -> NtcfParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None

