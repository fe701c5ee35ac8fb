"""Rules on the source of ``srq`` that no behaviour test sees on one Python.

- No call to the builtin ``sum()``: from Python 3.12 it is compensated for
  floats, so a seeded document would differ between 3.10/3.11 and 3.12/3.13.
  Float sums go through ``quaternion._fold_sum``.
- ``EPS`` is scaled only in ``quaternion.py``: every relative zero test goes
  through ``quaternion._zero_bound``, so the policy is written in one module.
- One Horner loop of each kind and one rejection sampler: the Hamilton Horner
  step appears once, in ``series._horner_floats``; the scalar step
  ``acc = acc * t + a`` once, in ``rational._horner``; and one loop rejects
  draws by their modulus, the disk loop ``geometry._disk_floats`` under every
  unit and ball point.  Callers with one point pass a one-point list, so a
  second hand-rolled copy has nothing to win.
- One Hamilton product on floats: the formula's i component
  ``w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2`` is written in ``Quaternion.__mul__``
  and in ``quaternion._hamilton``, the product of float 4-tuples every other
  kernel calls, and once more in the star convolution of
  ``RegularPolynomial.__mul__``, which accumulates each term in place.
- One violation test: ``margin < -tol * (1.0 + abs(rhs))`` is written once,
  in ``verify._margins``; every check summarises its margins there, and
  reports merge only through ``verify._fold``.
- One substrate for ``sym``: a quotient stores its symmetrization as real
  floats, and ``RegularQuotient.sym`` builds a polynomial from them on each
  read.  Nothing reads that view's coefficients back (``.sym.coeffs``, or
  ``c.w for c in ...sym...``); the one place that takes floats from a
  quaternion ``sym`` is ``from_expanded``, whose caller passes a polynomial.
- One substrate for polynomials: ``RegularPolynomial._c`` holds the
  coefficients as float 4-tuples, and ``coeffs`` builds quaternions from them
  on each read.  Only the readers in ``_COEFFS_READERS`` take that view, and
  nothing calls ``_parts``, which unpacked a view back into 4-tuples.
- One literal grammar: quaternion and polynomial texts are both read in
  ``expression.py``, the one module that imports ``re``, and no module
  defines ``_TERM``, the pattern of a second, term-by-term literal grammar.
- No libm on the seeded path by the two routes it once took: no module names
  ``gauss`` (``random.gauss`` calls libm's ``log``, ``cos`` and ``sin``; unit
  draws come from ``_unit_floats``), and nothing is raised
  to the power ``0.5``, which is C ``pow``; ``math.sqrt`` is correctly rounded.
- The zero-set solver off the import path: no module imports ``zeros`` at module
  level.  Only the entry points in ``rational.py`` import it, in their bodies,
  and ``srq/__init__``'s ``__getattr__`` for the three names it exports, so
  ``verify`` and the CLI, which never solve, do not load it.
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


_HORNER_STEP = "qw * w - qx * x - qy * y - qz * z"
#: Calls that draw a cube point or one of its components.
_CUBE_DRAWS = {"_cube_floats", "_cube_point", "random", "uniform"}
_MODULI = {"_norm", "norm"}


def _tokens(text: str) -> list:
    return [t.string for t in tokenize.generate_tokens(io.StringIO(text).readline)
            if t.type in (tokenize.NAME, tokenize.OP, tokenize.NUMBER, tokenize.STRING)]


def horner_steps(text: str) -> int:
    """How often the token sequence of the Hamilton Horner step occurs."""
    tokens, step = _tokens(text), _tokens(_HORNER_STEP)
    return sum(tokens[i:i + len(step)] == step for i in range(len(tokens)))


_HAMILTON_TERM = "w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2"


def hamilton_products(text: str) -> list:
    """The innermost function around each occurrence of the token sequence of
    the Hamilton product's i component, None at module level."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type in (tokenize.NAME, tokenize.OP, tokenize.NUMBER, tokenize.STRING)]
    strings, term = [t.string for t in tokens], _tokens(_HAMILTON_TERM)
    lines = [tokens[i].start[0] for i in range(len(tokens)) if strings[i:i + len(term)] == term]
    return _innermost_functions(ast.parse(text), lines)


def _called(node) -> str:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _is_square_sum(node, drawn) -> bool:
    """``a * a + b * b + ...`` over drawn names, one square or more."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_square_sum(node.left, drawn) and _is_square_sum(node.right, drawn)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Name)
            and node.left.id == node.right.id and node.left.id in drawn)


def _is_modulus(node, drawn, square_sums) -> bool:
    """A modulus of drawn values: their sum of squares, a name bound to one, or
    ``_norm``/``.norm()`` of an expression that names a drawn value."""
    if isinstance(node, ast.Name):
        return node.id in square_sums
    if isinstance(node, ast.Call) and _called(node) in _MODULI:
        return any(isinstance(n, ast.Name) and n.id in drawn
                   for part in node.args + [node.func] for n in ast.walk(part))
    return _is_square_sum(node, drawn)


def ball_rejection_loops(text: str) -> list:
    """Lines of loops that draw values and test their modulus with ``<``.

    A value is drawn when the statement that binds it in the loop calls a draw
    (a cube point, or ``random``/``uniform`` directly or through a local alias
    such as ``draw = rng.random``).  Its modulus is ``_norm`` or ``.norm()`` of
    it, or a sum of its squares ``a * a + b * b``, written out or bound to a
    name.  A value computed from other values, such as a unit scaled by a drawn
    radius, is not drawn, so the bound check of ``_ball_floats`` is no second
    sampler.
    """
    tree = ast.parse(text)
    aliases = {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
               and isinstance(n.value, ast.Attribute) and n.value.attr in _CUBE_DRAWS
               for t in n.targets if isinstance(t, ast.Name)}
    out = []
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.While, ast.For)):
            body = [n for stmt in loop.body for n in ast.walk(stmt)]
            drawn, square_sums = set(), set()
            for n in body:
                if isinstance(n, ast.Assign) and any(
                        isinstance(c, ast.Call) and _called(c) in _CUBE_DRAWS | aliases
                        for c in ast.walk(n.value)):
                    drawn |= {t.id for target in n.targets for t in ast.walk(target)
                              if isinstance(t, ast.Name)}
            for n in body:
                if isinstance(n, ast.Assign) and _is_square_sum(n.value, drawn):
                    square_sums |= {t.id for t in n.targets if isinstance(t, ast.Name)}
            compares = [n for n in body if isinstance(n, ast.Compare)]
            if any(isinstance(op, ast.Lt) and _is_modulus(left, drawn, square_sums)
                   for n in compares for left, op in zip([n.left] + n.comparators, n.ops)):
                out.append(loop.lineno)
    return out


def scalar_horner_steps(text: str) -> list:
    """Lines of assignments ``acc = acc * t + a``, whatever the names: one
    variable times another plus a third, stored back into the first."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Add)
                and isinstance(node.value.left, ast.BinOp)
                and isinstance(node.value.left.op, ast.Mult)
                and isinstance(node.value.left.left, ast.Name)
                and node.value.left.left.id == node.targets[0].id
                and isinstance(node.value.left.right, ast.Name)
                and isinstance(node.value.right, ast.Name)):
            out.append(node.lineno)
    return out


def _is_violation_test(node) -> bool:
    """``m < -t * (a + abs(r))`` or ``-t * (a + abs(r)) > m``, whatever the names."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return False
    if isinstance(node.ops[0], ast.Lt):
        bound = node.comparators[0]
    elif isinstance(node.ops[0], ast.Gt):
        bound = node.left
    else:
        return False
    return (isinstance(bound, ast.BinOp) and isinstance(bound.op, ast.Mult)
            and isinstance(bound.left, ast.UnaryOp) and isinstance(bound.left.op, ast.USub)
            and isinstance(bound.right, ast.BinOp) and isinstance(bound.right.op, ast.Add)
            and isinstance(bound.right.right, ast.Call) and _called(bound.right.right) == "abs")


def _innermost_functions(tree, lines) -> list:
    """The innermost function around each of ``lines``, None at module level."""
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    out = []
    for line in lines:
        around = [f for f in functions if f.lineno <= line <= f.end_lineno]
        out.append(max(around, key=lambda f: f.lineno).name if around else None)
    return out


def violation_tests(text: str) -> list:
    """The innermost function around each violation test, None at module level."""
    tree = ast.parse(text)
    return _innermost_functions(tree, [n.lineno for n in ast.walk(tree) if _is_violation_test(n)])


def _names_sym(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "sym" or isinstance(n, ast.Attribute)
               and n.attr == "sym" for n in ast.walk(node))


def sym_unpacks(text: str) -> list:
    """The innermost function around each line that reads ``.sym.coeffs`` or
    unpacks ``c.w for c in ...`` from an iterable that names ``sym``."""
    tree = ast.parse(text)
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "coeffs"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "sym"):
            lines.add(node.lineno)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            elt = node.elt
            if not (isinstance(elt, ast.Attribute) and elt.attr == "w"
                    and isinstance(elt.value, ast.Name)):
                continue
            if any(isinstance(g.target, ast.Name) and g.target.id == elt.value.id
                   and _names_sym(g.iter) for g in node.generators):
                lines.add(node.lineno)
    return _innermost_functions(tree, sorted(lines))


#: (module, function) pairs that may read a polynomial's quaternion view ``.coeffs``:
#: the CLI's output table, ``isclose`` and ``__repr__``, ``from_expanded`` (whose
#: caller passes a polynomial) and the power-form loop of ``zeros_on_sphere``.
_COEFFS_READERS = {("cli.py", "_cmd_star"), ("series.py", "isclose"), ("series.py", "__repr__"),
                   ("rational.py", "from_expanded"), ("zeros.py", "zeros_on_sphere")}


def coeffs_reads(text: str) -> list:
    """The innermost function around each ``.coeffs`` read, None at module level."""
    tree = ast.parse(text)
    return _innermost_functions(tree, sorted(n.lineno for n in ast.walk(tree)
                                             if isinstance(n, ast.Attribute) and n.attr == "coeffs"))


def parts_calls(text: str) -> list:
    """Lines of calls to ``_parts``, as a name or an attribute."""
    return sorted(n.lineno for n in ast.walk(ast.parse(text))
                  if isinstance(n, ast.Call) and _called(n) == "_parts")


def re_imports(text: str) -> list:
    """Lines of ``import re`` (under any alias) and ``from re import ...``."""
    return sorted(n.lineno for n in ast.walk(ast.parse(text))
                  if isinstance(n, ast.Import) and any(a.name == "re" for a in n.names)
                  or isinstance(n, ast.ImportFrom) and n.module == "re" and not n.level)


def term_definitions(text: str) -> list:
    """Lines that bind the name ``_TERM``."""
    return sorted(n.lineno for n in ast.walk(ast.parse(text))
                  if isinstance(n, ast.Name) and n.id == "_TERM" and isinstance(n.ctx, ast.Store))


def _is_half(token) -> bool:
    try:
        return token.type == tokenize.NUMBER and float(token.string) == 0.5
    except ValueError:  # an imaginary literal
        return False


def libm_routes(text: str) -> list:
    """Lines that name ``gauss`` or raise a value to the power ``0.5``; strings
    and comments are single tokens, so they never match."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in _SKIP]
    return [a.start[0] for a, b in zip(tokens, tokens[1:])
            if a.type == tokenize.NAME and a.string == "gauss"
            or a.string == "**" and _is_half(b)]


def zeros_imports(text: str) -> list:
    """The innermost function around each import of a module named ``zeros``, as
    ``import srq.zeros``, ``from . import zeros`` or ``from .zeros import ...``,
    None at module level."""
    tree = ast.parse(text)
    lines = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            named = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            named = [n.module or ""] + [f"{n.module}.{a.name}" for a in n.names]
        else:
            continue
        if any(name.split(".")[-1] == "zeros" for name in named):
            lines.append(n.lineno)
    return _innermost_functions(tree, sorted(lines))


def test_the_scan_sees_every_module():
    assert {"quaternion.py", "rational.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_builtin_sum(path):
    assert builtin_sum_calls(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "quaternion.py"],
                         ids=[p.name for p in MODULES if p.name != "quaternion.py"])
def test_eps_is_scaled_only_in_quaternion(path):
    assert eps_products(path.read_text()) == []


def test_one_horner_step():
    counts = {p.name: horner_steps(p.read_text()) for p in MODULES}
    assert {name: n for name, n in counts.items() if n} == {"series.py": 1}


def test_one_hamilton_product():
    found = {p.name: hamilton_products(p.read_text()) for p in MODULES}
    assert {name: f for name, f in found.items() if f} == {
        "quaternion.py": ["__mul__", "_hamilton"], "series.py": ["__mul__"]}


def test_the_hamilton_rule_catches_what_it_forbids():
    assert hamilton_products("def g(p, q):\n    w1, x1, y1, z1 = p\n    w2, x2, y2, z2 = q\n"
                             "    x = (w1 * x2 + x1 * w2\n         + y1 * z2 - z1 * y2)\n") == ["g"]
    assert hamilton_products("x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2 + c\n") == [None]
    # a comment, a string, another component or other names are not the formula
    assert hamilton_products("x = 0.0  # w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2\n"
                             "s = 'w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2'\n"
                             "y = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2\n"
                             "i = iw * ex + ix * ew + iy * ez - iz * ey\n") == []


def test_one_scalar_horner_loop():
    counts = {p.name: len(scalar_horner_steps(p.read_text())) for p in MODULES}
    assert {name: n for name, n in counts.items() if n} == {"rational.py": 1}


def test_one_ball_rejection_loop():
    found = {p.name: _innermost_functions(ast.parse(p.read_text()),
                                          ball_rejection_loops(p.read_text())) for p in MODULES}
    assert {name: f for name, f in found.items() if f} == {"geometry.py": ["_disk_floats"]}


def test_one_violation_test():
    found = {p.name: violation_tests(p.read_text()) for p in MODULES}
    assert {name: f for name, f in found.items() if f} == {"verify.py": ["_margins"]}


def test_one_sym_substrate():
    found = {p.name: sym_unpacks(p.read_text()) for p in MODULES}
    assert {name: f for name, f in found.items() if f} == {"rational.py": ["from_expanded"]}


def test_the_rules_catch_what_they_forbid():
    assert builtin_sum_calls("x = sum(v for v in a)\n") == [1]
    assert builtin_sum_calls("x = math.fsum(a)\n# sum(a)\ny = 'sum(a)'\n") == []
    assert eps_products("a = (1.0 +\n     EPS * s)\nb = s * EPS\n") == [2, 3]
    assert eps_products("c = _EPS_SQ * s  # EPS * s\nd = 'EPS * s'\n") == []
    assert horner_steps("w = (qw * w - qx * x\n     - qy * y - qz * z + c.w)\n") == 1
    assert horner_steps("w = qw * w - qx * x - qy * y  # - qz * z\n"
                        "s = 'qw * w - qx * x - qy * y - qz * z'\n") == 0
    assert ball_rejection_loops("while True:\n    w, x, y, z = _cube_floats(rng)\n"
                                "    if _norm(w, x, y, z) < radius:\n        break\n") == [1]
    assert ball_rejection_loops("for _ in range(9):\n    q = _cube_point(rng)\n"
                                "    if q.norm() < 0.5:\n        break\n") == [1]
    # inline draws, directly or through a local alias of rng.random
    assert ball_rejection_loops("draw = rng.random\nwhile len(out) < n:\n"
                                "    w, x = -1.0 + 2.0 * draw(), -1.0 + 2.0 * draw()\n"
                                "    if _norm(w, x, 0.0, 0.0) < r:\n        out.append(w)\n") == [2]
    assert ball_rejection_loops("for _ in range(9):\n    v = [rng.uniform(-1, 1) for _ in a]\n"
                                "    if _norm(*v) < r:\n        break\n") == [1]
    # a second disk loop, with its sum of squares written out or bound to a name
    assert ball_rejection_loops("draw = rng.random\nfor _ in range(9):\n"
                                "    a, b = 2.0 * draw() - 1.0, 2.0 * draw() - 1.0\n"
                                "    if a * a + b * b < 1.0:\n        break\n") == [2]
    assert ball_rejection_loops("while True:\n    c = rng.uniform(-1, 1)\n"
                                "    d = rng.uniform(-1, 1)\n    s2 = c * c + d * d\n"
                                "    if 0.0 < s2 < 1.0:\n        break\n") == [1]
    # redrawing while a modulus is small is not a ball sampler, nor is a bound
    # check on a unit scaled by a drawn radius, nor a lower bound on a square sum
    assert ball_rejection_loops("while c.norm() < 1e-2:\n    c = _cube_point(rng)\n") == []
    assert ball_rejection_loops("draw = rng.random\nwhile len(out) < n:\n"
                                "    a, b = _unit_floats(rng)\n    r = sqrt(draw())\n"
                                "    p = (a * r, b * r)\n"
                                "    if _norm(*p) < 1.0:\n        out.append(p)\n") == []
    assert ball_rejection_loops("while True:\n    a, b = draw(), draw()\n"
                                "    if 1e-3 < a * a + b * b:\n        break\n") == []
    assert scalar_horner_steps("for a in reversed(c):\n    acc = acc * t + a\n") == [2]
    assert scalar_horner_steps("s = s * z + b\nv = (v * z) + c\n") == [1, 2]
    # a running sum, a product of other names, or a subscripted store is not the step
    assert scalar_horner_steps("total = total + v\ny = acc * t + a\n"
                               "out[n] = out[n] * t + a\nacc = acc * t + a * b\n") == []
    assert violation_tests("def f(m, t, r):\n    def g():\n        pass\n"
                           "    return m < -t * (1.0 + abs(r))\n") == ["f"]
    assert violation_tests("if -tol * (1 + abs(rhs)) > margin:\n    n += 1\n") == [None]
    # a bare threshold, or a bound without the 1 + |rhs| scale, is not the test
    assert violation_tests("a = m < -t\nb = m < -t * abs(r)\nc = m > -t * (1.0 + abs(r))\n") == []
    assert sym_unpacks("def f(q):\n    return [c.w for c in q.sym.coeffs]\n") == ["f"]
    assert sym_unpacks("s = tuple(t.w for t in sym.coeffs)\n"
                       "n = len(f.sym.coeffs)\n") == [None, None]
    # the stored floats, another polynomial's parts, or the view itself are not an unpack
    assert sym_unpacks("a = [w for w in f._sym]\nb = [c.w for c in conum.coeffs]\n"
                       "c = f.sym * 2.0\nd = [v.w for c in f.sym for v in c]\n") == []


def test_one_polynomial_substrate():
    reads = {(p.name, f) for p in MODULES for f in coeffs_reads(p.read_text())}
    assert reads <= _COEFFS_READERS
    assert {p.name: parts_calls(p.read_text()) for p in MODULES if parts_calls(p.read_text())} == {}


def test_the_substrate_rule_catches_what_it_forbids():
    assert coeffs_reads("def f(p):\n    return [c.w for c in p.coeffs]\n") == ["f"]
    assert coeffs_reads("n = len(f.conum.coeffs)\nclass A:\n    def g(self):\n"
                        "        return self.coeffs[0]\n") == [None, "g"]
    # the stored tuples, a local name and a JSON key are not the view
    assert coeffs_reads("a = f._c\ncoeffs = [1]\nb = obj['coeffs']\nc = e.coefficients\n") == []
    assert parts_calls("h = _horner_floats(_parts(f.coeffs), points)\nx = series._parts(c)\n") == [1, 2]
    assert parts_calls("parts = [(c.w, c.x, c.y, c.z) for c in cs]\n_partsx(c)\n") == []


def test_one_literal_grammar():
    assert {p.name for p in MODULES if re_imports(p.read_text())} <= {"expression.py"}
    assert {p.name: term_definitions(p.read_text()) for p in MODULES
            if term_definitions(p.read_text())} == {}


def test_the_literal_grammar_rule_catches_what_it_forbids():
    assert re_imports("import math, re\nimport re as regex\nfrom re import compile\n") == [1, 2, 3]
    assert re_imports("import json\nfrom .re import x\ns = 'import re'\n") == []
    assert term_definitions("_TERM = re.compile(r'x')\nA, _TERM = 1, 2\n") == [1, 2]
    assert term_definitions("m = _TERM.match(s)\n_TERMS = 1\n") == []


def test_no_gauss_draw_and_no_half_power():
    assert {p.name: libm_routes(p.read_text()) for p in MODULES if libm_routes(p.read_text())} == {}


def test_the_solver_loads_only_when_it_solves():
    found = {p.name: zeros_imports(p.read_text()) for p in MODULES}
    assert {name: f for name, f in found.items() if f} == {
        "__init__.py": ["__getattr__"],
        "rational.py": ["sphere_zero_set", "durand_kerner", "sphere_zero_set"]}


def test_the_solver_rule_catches_what_it_forbids():
    assert zeros_imports("from . import zeros\nimport srq.zeros\nfrom .zeros import ZeroEntry\n"
                         "from srq.zeros import _durand_kerner as solve\n"
                         "from srq import rational, zeros as z\n") == [None] * 5
    assert zeros_imports("def f():\n    from .zeros import _durand_kerner\n    return 1\n"
                         "class A:\n    def g(self):\n        import srq.zeros\n") == ["f", "g"]
    # another module, a name that starts with zeros, an attribute, a string or a comment
    assert zeros_imports("import zeroes\nfrom .rational import zeros_on_sphere\n"
                         "y = srq.zeros\nx = 'from . import zeros'  # import zeros\n") == []


def test_the_libm_rule_catches_what_it_forbids():
    assert libm_routes("g = rng.gauss\nx = gauss(0, 1)\nn = s ** 0.5\n"
                       "m = (s **\n     .5)\n") == [1, 2, 3, 4]
    # a comment, a string, another power, a longer name or sqrt is not the route
    assert libm_routes("n = math.sqrt(s)  # s ** 0.5\nt = 'gauss'\nv = s ** 2\n"
                       "w = s ** 0.25\nz = s ** 0.5j\ngaussian = 1\n") == []
