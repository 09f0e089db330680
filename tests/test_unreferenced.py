"""A ratchet on the module-level functions and classes of `ntcfk`, and
the methods and properties of its module-level classes, that no code in
`src/` references.

Each such name is listed below with the reason it stays. A new helper
that only tests call fails here, and so does a listed name that gains a
caller in `src/` or goes away: then it leaves the list. A module-level
name counts as referenced when any `src/` code outside its own
definition reads it, bare or as an attribute. A method or property,
listed as `Class.name` (dunder methods aside), counts as read when any
`src/` code reads an attribute of that name, or passes the name as a
string constant to `getattr`.
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
    "CosetState.sbar": "C04 and the pins read it",
    "CosetState.support": "C04 and the pins read it",
    "SparseState.fidelity": "C08 reads it",
    "Transcript.from_text": "the reader of transcripts.txt",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _getattr_name(node) -> str | None:
    """The name in `getattr(obj, "name", ...)`, if node is such a call."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


def _unreferenced() -> set[str]:
    defined, used = set(), set()
    methods, attrs_read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            nodes = list(ast.walk(stmt))
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in nodes if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, _DEFS):
                defined.add(stmt.name)
                names.discard(stmt.name)  # a recursive call is no caller
            used |= names
            attrs_read |= {node.attr for node in nodes
                           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
            attrs_read |= set(filter(None, map(_getattr_name, nodes)))
            if isinstance(stmt, ast.ClassDef):
                methods |= {(stmt.name, d.name) for d in stmt.body
                            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (d.name.startswith("__") and d.name.endswith("__"))}
    unread = {f"{cls}.{name}" for cls, name in methods if name not in attrs_read}
    return (defined - used) | unread


def test_unreferenced_names_are_the_listed_ones():
    found = _unreferenced()
    extra, stale = sorted(found - UNREFERENCED.keys()), sorted(UNREFERENCED.keys() - found)
    assert not extra, f"no caller in src/, and not listed: {extra}"
    assert not stale, f"listed, but called in src/ or gone: {stale}"
