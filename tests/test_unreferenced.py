"""A ratchet on the module-level functions and classes of `ntcfk` that no
code in `src/` references.

Each such name is listed below with the reason it stays. A new helper
that only tests call fails here, and so does a listed name that gains a
caller in `src/` or goes away: then it leaves the list. A name counts as
referenced when any `src/` code outside its own definition reads it,
bare or as an attribute.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ntcfk"

UNREFERENCED = {
    "compare_joint": "perfbench's oracle-noisy entry point",
    "f_density": "paper reference that tests compare against",
    "f_prime_density": "paper reference that tests compare against",
    "f_prime_eval": "paper reference that tests compare against",
    "claw_enumerate": "paper reference that tests compare against",
    "hellinger_shift_bound": "paper reference that tests compare against (C02)",
    "trapdoor_from_text": "the reader of keygen's key.sk",
    "init_uniform": "oracle operation for the test-round cross-check",
    "measure_register": "oracle operation for the test-round cross-check",
    "remove_register": "oracle operation for the test-round cross-check",
    "apply_hadamard_bits": "oracle operation for the test-round cross-check",
    "apply_qft_q": "oracle operation for the test-round cross-check",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreferenced() -> set[str]:
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, _DEFS):
                defined.add(stmt.name)
                names.discard(stmt.name)  # a recursive call is no caller
            used |= names
    return defined - used


def test_unreferenced_names_are_the_listed_ones():
    found = _unreferenced()
    extra, stale = sorted(found - UNREFERENCED.keys()), sorted(UNREFERENCED.keys() - found)
    assert not extra, f"no caller in src/, and not listed: {extra}"
    assert not stale, f"listed, but called in src/ or gone: {stale}"
