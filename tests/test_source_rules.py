"""Rules on the source of ``srq`` that no behaviour test sees on one Python.

- No call to the builtin ``sum()``: from Python 3.12 it is compensated for
  floats, so a seeded document would differ between 3.10/3.11 and 3.12/3.13.
  Float sums go through ``quaternion._fold_sum``.
- ``EPS`` is scaled only in ``quaternion.py``: every relative zero test goes
  through ``quaternion._zero_bound``, so the policy is written in one module.
"""

import ast
import io
import pathlib
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "srq"
MODULES = sorted(SRC.glob("*.py"))
_SKIP = {tokenize.NL, tokenize.COMMENT}


def builtin_sum_calls(text: str) -> list:
    return [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def eps_products(text: str) -> list:
    """Lines where ``EPS`` meets a ``*`` on either side; strings and comments
    are single tokens, so they never match."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in _SKIP]
    return [a.start[0] for a, b in zip(tokens, tokens[1:])
            if {a.string, b.string} == {"EPS", "*"}]


def test_the_scan_sees_every_module():
    assert {"quaternion.py", "rational.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_builtin_sum(path):
    assert builtin_sum_calls(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "quaternion.py"],
                         ids=[p.name for p in MODULES if p.name != "quaternion.py"])
def test_eps_is_scaled_only_in_quaternion(path):
    assert eps_products(path.read_text()) == []


def test_the_rules_catch_what_they_forbid():
    assert builtin_sum_calls("x = sum(v for v in a)\n") == [1]
    assert builtin_sum_calls("x = math.fsum(a)\n# sum(a)\ny = 'sum(a)'\n") == []
    assert eps_products("a = (1.0 +\n     EPS * s)\nb = s * EPS\n") == [2, 3]
    assert eps_products("c = _EPS_SQ * s  # EPS * s\nd = 'EPS * s'\n") == []
