"""t-parameterized analytic symbols on the closed unit disk.

A symbol family g_t(z) is a small immutable AST over the disk variable z
and the family parameter t, closed under +, -, *, /, integer powers, exp,
and finite Blaschke products.  Every node is analytic in z, so any parsed
symbol is analytic on the open disk by construction.  Evaluation is pure.
On first use each family compiles its AST once into a numpy kernel
(t, z) -> g_t(z) that accepts arrays of points and broadcasts a t-array
against them, so grid sweeps and t-integrals cost a few array operations
per node instead of one tree walk per t; the values are bit for bit those
of the scalar-t evaluation.

Grammar accepted by :func:`parse_symbol` (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' integer]            # integer may be parenthesized/signed
    atom   := number | 'i' | 'pi' | name | 'z' | 't' | '(' expr ')' | '-' atom
            | 'exp' '(' expr ')' | 'blaschke' '(' '[' complexlist ']' ';' integer ')'

Complex literals inside a blaschke zero list use the forms ``a``, ``a+bi``
and ``bi``.  Free names other than z, t, i, pi must be supplied through the
bindings map and are substituted at parse time, so a family is a pure
function of (t, z) afterwards.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Union

import numpy as np

from .errors import DomainError, EvaluationError, ParseError
from .spaces import _golden_max

__all__ = [
    "Add",
    "Blaschke",
    "Const",
    "Div",
    "Exp",
    "IntPow",
    "Mul",
    "Neg",
    "ParamT",
    "Sub",
    "SymbolExpr",
    "SymbolFamily",
    "VarZ",
    "eval_symbol",
    "format_expr",
    "format_symbol",
    "frozen_symbol",
    "integrate_family_at",
    "is_boundary_continuous",
    "parse_symbol",
    "symbol_names",
]

#: How far outside the closed disk a point may sit before evaluation refuses.
BOUNDARY_SLACK = 1e-12


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Const:
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class VarZ:
    pass


@dataclass(frozen=True)
class ParamT:
    pass


@dataclass(frozen=True)
class Add:
    left: "SymbolExpr"
    right: "SymbolExpr"


@dataclass(frozen=True)
class Sub:
    left: "SymbolExpr"
    right: "SymbolExpr"


@dataclass(frozen=True)
class Mul:
    left: "SymbolExpr"
    right: "SymbolExpr"


@dataclass(frozen=True)
class Div:
    left: "SymbolExpr"
    right: "SymbolExpr"


@dataclass(frozen=True)
class Neg:
    arg: "SymbolExpr"


@dataclass(frozen=True)
class IntPow:
    base: "SymbolExpr"
    power: int

    def __post_init__(self):
        if not isinstance(self.power, int):
            raise ValueError("IntPow exponent must be an integer")


@dataclass(frozen=True)
class Exp:
    arg: "SymbolExpr"


@dataclass(frozen=True)
class Blaschke:
    """Finite Blaschke product z^order * prod (conj(a)/|a|) (a-z)/(1-conj(a)z).

    Zeros at the origin are carried by ``order``; listed zeros must satisfy
    0 < |a| < 1 strictly.
    """

    zeros: tuple[complex, ...]
    order: int = 0

    def __post_init__(self):
        zeros = tuple(complex(a) for a in self.zeros)
        object.__setattr__(self, "zeros", zeros)
        if not isinstance(self.order, int) or self.order < 0:
            raise ValueError("Blaschke order must be a nonnegative integer")
        for a in zeros:
            if a == 0:
                raise ValueError("Blaschke zero at the origin: use the order argument")
            if abs(a) >= 1:
                raise ValueError(f"Blaschke zero {a} lies outside the open unit disk")


SymbolExpr = Union[
    Const, VarZ, ParamT, Add, Sub, Mul, Div, Neg, IntPow, Exp, Blaschke
]


def _walk(node):
    yield node
    for attr in ("left", "right", "arg", "base"):
        child = getattr(node, attr, None)
        if child is not None:
            yield from _walk(child)


def _uses_t(node) -> bool:
    return any(isinstance(n, ParamT) for n in _walk(node))


@dataclass(frozen=True)
class SymbolFamily:
    """An analytic symbol family, constant in t unless the AST mentions t."""

    body: SymbolExpr
    text: str | None = None

    @cached_property
    def uses_t(self) -> bool:
        return _uses_t(self.body)

    @cached_property
    def kernel(self) -> Callable:
        """g as a closure (t, z) -> g_t(z), compiled on first evaluation."""
        return _compile(self.body)

    def __call__(self, t, z):
        return eval_symbol(self, t, z)

    def __str__(self) -> str:
        return format_expr(self.body)


# ---------------------------------------------------------------------------
# Parsing

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OP_CHARS = set("+-*/^()[];,")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            toks.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if ch in _OP_CHARS:
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Token("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, bindings: Mapping[str, float]):
        self._toks = _tokenize(text)
        self._i = 0
        self._bindings = dict(bindings or {})

    def _peek(self) -> _Token:
        return self._toks[self._i]

    def _next(self) -> _Token:
        tok = self._toks[self._i]
        self._i += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self) -> SymbolExpr:
        node = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def _expr(self) -> SymbolExpr:
        node = self._term()
        while self._peek().kind in ("+", "-"):
            op = self._next().kind
            rhs = self._term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def _term(self) -> SymbolExpr:
        node = self._factor()
        while self._peek().kind in ("*", "/"):
            op = self._next().kind
            rhs = self._factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def _factor(self) -> SymbolExpr:
        base = self._atom()
        if self._peek().kind != "^":
            return base
        self._next()
        n = self._signed_integer(allow_paren=True)
        if n >= 0:
            return IntPow(base, n)
        # Negative powers have no node of their own; they normalize to Div.
        return Div(Const(1.0), base if n == -1 else IntPow(base, -n))

    def _signed_integer(self, allow_paren: bool) -> int:
        paren = False
        if allow_paren and self._peek().kind == "(":
            self._next()
            paren = True
        sign = 1
        if self._peek().kind == "-":
            self._next()
            sign = -1
        tok = self._next()
        if tok.kind != "num" or not tok.text.isdigit():
            raise ParseError("exponent must be an integer", tok.pos)
        if paren:
            self._expect(")")
        return sign * int(tok.text)

    def _atom(self) -> SymbolExpr:
        tok = self._next()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "(":
            node = self._expr()
            self._expect(")")
            return node
        if tok.kind == "-":
            inner = self._atom()
            # Fold signs into literals so printing a negative constant
            # round-trips to the same AST.
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        if tok.kind == "name":
            return self._name_atom(tok)
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)

    def _name_atom(self, tok: _Token) -> SymbolExpr:
        name = tok.text
        if name == "z":
            return VarZ()
        if name == "t":
            return ParamT()
        if name == "i":
            return Const(1j)
        if name == "pi":
            return Const(math.pi)
        if name == "exp":
            self._expect("(")
            arg = self._expr()
            self._expect(")")
            return Exp(arg)
        if name == "blaschke":
            return self._blaschke(tok.pos)
        if name in self._bindings:
            return Const(float(self._bindings[name]))
        raise ParseError(f"unbound name {name!r}", tok.pos)

    def _blaschke(self, pos: int) -> SymbolExpr:
        self._expect("(")
        self._expect("[")
        zeros: list[complex] = []
        positions: list[int] = []
        if self._peek().kind != "]":
            while True:
                positions.append(self._peek().pos)
                zeros.append(self._complex_literal())
                if self._peek().kind == ",":
                    self._next()
                    continue
                break
        self._expect("]")
        self._expect(";")
        neg = False
        if self._peek().kind == "-":
            self._next()
            neg = True
        tok = self._next()
        if tok.kind != "num" or not tok.text.isdigit():
            raise ParseError("Blaschke order must be an integer", tok.pos)
        if neg:
            raise ParseError("Blaschke order must be nonnegative", tok.pos)
        order = int(tok.text)
        self._expect(")")
        for a, p in zip(zeros, positions):
            if a == 0:
                raise ParseError("Blaschke zero at the origin: use the order argument", p)
            if abs(a) >= 1:
                raise ParseError(f"Blaschke zero {a} lies outside the open unit disk", p)
        return Blaschke(tuple(zeros), order)

    def _complex_literal(self) -> complex:
        sign = 1.0
        if self._peek().kind == "-":
            self._next()
            sign = -1.0
        tok = self._peek()
        if tok.kind == "name" and tok.text == "i":
            self._next()
            return complex(0.0, sign)
        if tok.kind != "num":
            raise ParseError("expected a complex literal", tok.pos)
        self._next()
        a = sign * float(tok.text)
        nxt = self._peek()
        if nxt.kind == "name" and nxt.text == "i":
            self._next()
            return complex(0.0, a)
        if nxt.kind in ("+", "-"):
            s2 = 1.0 if nxt.kind == "+" else -1.0
            self._next()
            tok2 = self._next()
            if tok2.kind == "name" and tok2.text == "i":
                return complex(a, s2)
            if tok2.kind != "num":
                raise ParseError("expected the imaginary part of a complex literal", tok2.pos)
            itok = self._next()
            if not (itok.kind == "name" and itok.text == "i"):
                raise ParseError("expected 'i' after the imaginary part", itok.pos)
            return complex(a, s2 * float(tok2.text))
        return complex(a, 0.0)


def parse_symbol(text: str, bindings: Mapping[str, float] | None = None) -> SymbolFamily:
    """Parse symbol text into an immutable :class:`SymbolFamily`.

    Named constants are substituted from ``bindings`` while parsing, so the
    result depends on (t, z) only.
    """
    body = _Parser(text, bindings or {}).parse()
    return SymbolFamily(body=body, text=text)


_KEYWORDS = frozenset({"z", "t", "i", "pi", "exp", "blaschke"})


def symbol_names(text: str) -> set[str]:
    """Free names in symbol text that require bindings."""
    return {tok.text for tok in _tokenize(text) if tok.kind == "name"} - _KEYWORDS


# ---------------------------------------------------------------------------
# Printing

_LVL_ADD, _LVL_MUL, _LVL_POW, _LVL_ATOM = 10, 20, 30, 40


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_complex_literal(a: complex) -> str:
    re_, im = a.real, a.imag
    if im == 0:
        return _fmt_float(re_) if re_ >= 0 else "-" + _fmt_float(-re_)
    if re_ == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return (_fmt_float(im) + "i") if im > 0 else ("-" + _fmt_float(-im) + "i")
    head = _fmt_float(re_) if re_ >= 0 else "-" + _fmt_float(-re_)
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    tail = "i" if mag == 1 else _fmt_float(mag) + "i"
    return f"{head}{sign}{tail}"


def _render(node) -> tuple[str, int]:
    if isinstance(node, Const):
        c = node.value
        if c.imag == 0:
            if c.real < 0:
                return "-" + _fmt_float(-c.real), _LVL_ATOM
            return _fmt_float(c.real), _LVL_ATOM
        if c.real == 0 and c.imag == 1:
            return "i", _LVL_ATOM
        if c.real == 0 and c.imag == -1:
            return "-i", _LVL_ATOM
        # General complex constants only arise programmatically; render a
        # parenthesized arithmetic form that parses to an equal value.
        if c.real == 0:
            return f"({_fmt_float(c.imag)} * i)", _LVL_ATOM
        return f"({_fmt_float(c.real)} + {_fmt_float(c.imag)} * i)", _LVL_ATOM
    if isinstance(node, VarZ):
        return "z", _LVL_ATOM
    if isinstance(node, ParamT):
        return "t", _LVL_ATOM
    if isinstance(node, Add):
        return f"{_fmt(node.left, _LVL_ADD)} + {_fmt(node.right, _LVL_ADD + 1)}", _LVL_ADD
    if isinstance(node, Sub):
        return f"{_fmt(node.left, _LVL_ADD)} - {_fmt(node.right, _LVL_ADD + 1)}", _LVL_ADD
    if isinstance(node, Mul):
        return f"{_fmt(node.left, _LVL_MUL)} * {_fmt(node.right, _LVL_MUL + 1)}", _LVL_MUL
    if isinstance(node, Div):
        return f"{_fmt(node.left, _LVL_MUL)} / {_fmt(node.right, _LVL_MUL + 1)}", _LVL_MUL
    if isinstance(node, Neg):
        return "-" + _fmt(node.arg, _LVL_ATOM), _LVL_ATOM
    if isinstance(node, IntPow):
        if node.power >= 0:
            return f"{_fmt(node.base, _LVL_ATOM)}^{node.power}", _LVL_POW
        return f"{_fmt(node.base, _LVL_ATOM)}^({node.power})", _LVL_POW
    if isinstance(node, Exp):
        return f"exp({_fmt(node.arg, 0)})", _LVL_ATOM
    if isinstance(node, Blaschke):
        inner = ", ".join(_fmt_complex_literal(a) for a in node.zeros)
        return f"blaschke([{inner}]; {node.order})", _LVL_ATOM
    raise TypeError(f"not a symbol node: {node!r}")


def _fmt(node, minlevel: int) -> str:
    text, level = _render(node)
    return f"({text})" if level < minlevel else text


def format_expr(node: SymbolExpr) -> str:
    """Render an AST to grammar text; parsing the result reproduces the AST."""
    return _fmt(node, 0)


def format_symbol(f: SymbolFamily) -> str:
    return format_expr(f.body)


# ---------------------------------------------------------------------------
# Evaluation

_BINARY_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _mentions_z(node) -> bool:
    return any(isinstance(n, (VarZ, Blaschke)) for n in _walk(node))


def _per_t(fn):
    """Run ``fn`` once per entry of a t-array, with a Python-complex t."""

    def per_t(t, z):
        if isinstance(t, np.ndarray):
            vals = [fn(tk, z) for tk in t.ravel().tolist()]
            return np.array(vals, dtype=complex).reshape(t.shape)
        return fn(t, z)

    return per_t


def _compile(node, per_t: bool = True):
    """The closure (t, z) -> value of ``node``, built once per AST.

    It runs the numpy operations of the tree in tree order, so a scalar t
    (a Python complex) gives the same bits as a walk of the tree would.  A
    t-array of shape (T, 1) broadcasts against z of shape (1, N).  Python's
    complex arithmetic rounds ``*``, ``/`` and ``**2`` differently from
    numpy's array loops, so each z-free subtree that mentions t runs once
    per t with Python scalars, and only nodes that involve z broadcast.
    """
    if per_t and _uses_t(node) and not _mentions_z(node):
        return _per_t(_compile(node, per_t=False))
    if isinstance(node, Const):
        value = node.value
        return lambda t, z: value
    if isinstance(node, VarZ):
        return lambda t, z: z
    if isinstance(node, ParamT):
        return lambda t, z: t
    if type(node) in _BINARY_OPS:
        op = _BINARY_OPS[type(node)]
        left, right = _compile(node.left, per_t), _compile(node.right, per_t)
        return lambda t, z: op(left(t, z), right(t, z))
    if isinstance(node, Div):
        num, den = _compile(node.left, per_t), _compile(node.right, per_t)

        def div(t, z):
            n, d = num(t, z), den(t, z)
            if np.any(d == 0):
                raise EvaluationError("division by zero in symbol evaluation")
            return n / d

        return div
    if isinstance(node, Neg):
        arg = _compile(node.arg, per_t)
        return lambda t, z: -arg(t, z)
    if isinstance(node, IntPow):
        base, power = _compile(node.base, per_t), node.power
        return lambda t, z: base(t, z) ** power
    if isinstance(node, Exp):
        arg = _compile(node.arg, per_t)
        return lambda t, z: np.exp(arg(t, z))
    if isinstance(node, Blaschke):
        order = node.order
        factors = tuple((a, a.conjugate(), a.conjugate() / abs(a)) for a in node.zeros)

        def blaschke(t, z):
            val = z**order if order else complex(1.0)
            for a, a_conj, unit in factors:
                den = 1.0 - a_conj * z
                if (den == 0).any():
                    raise EvaluationError("Blaschke denominator vanished")
                val = val * unit * ((a - z) / den)
            return val

        return blaschke
    raise TypeError(f"not a symbol node: {node!r}")


def eval_symbol(f: SymbolFamily, t, z):
    """Evaluate g_t(z) for t in (0, 1) and |z| <= 1 with the family's kernel.

    ``z`` may be a complex scalar or a numpy array of any shape.  ``t`` may
    be a scalar or an array that broadcasts against ``z``, e.g.
    ``eval_symbol(f, ts[:, None], zs[None, :])`` gives g_{ts[j]}(zs[k]) at
    [j, k], bit for bit the value of the scalar-t call.  The result has the
    broadcast shape, and is a complex number only when both are scalars.
    Raises :class:`EvaluationError` if a division by zero occurs or any
    value comes out nonfinite, and :class:`DomainError` for points outside
    the closed disk or any t outside (0, 1) when the family uses t.
    """
    arr = np.asarray(z, dtype=complex)
    if arr.size:
        amax = np.abs(arr).max()
        if amax > 1.0 + BOUNDARY_SLACK:
            raise DomainError(f"|z| = {float(amax)} exceeds the closed unit disk")
    kernel = f.kernel
    shape = arr.shape
    if np.ndim(t) == 0:
        tc = complex(0.5)
        if f.uses_t:
            tf = float(t)
            if not 0.0 < tf < 1.0:
                raise DomainError(f"family parameter t = {tf} lies outside (0, 1)")
            tc = complex(tf)
    else:
        tf = np.asarray(t, dtype=float)
        if f.uses_t:
            outside = ~((tf > 0.0) & (tf < 1.0))
            if outside.any():
                bad = float(tf[outside].flat[0])
                raise DomainError(f"family parameter t = {bad} lies outside (0, 1)")
        tc = tf.astype(complex)
        shape = np.broadcast_shapes(tf.shape, shape)
    try:
        with np.errstate(all="ignore"):
            if arr.ndim or isinstance(tc, complex):
                val = kernel(tc, arr)
            else:
                # Operations on a 0-d z return numpy scalars, whose arithmetic
                # rounds unlike the array loops; keep it, one t at a time.
                val = _per_t(kernel)(tc, arr)
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero in symbol evaluation") from exc
    if not shape:
        val = complex(val)
        if not cmath.isfinite(val):
            raise EvaluationError("symbol evaluation produced a nonfinite value")
        return val
    if not isinstance(val, np.ndarray) or val.shape != shape:
        val = np.broadcast_to(np.asarray(val, dtype=complex), shape)
    elif val is arr:
        val = arr.view()
        val.flags.writeable = False
    if not np.isfinite(val).all():
        raise EvaluationError("symbol evaluation produced a nonfinite value")
    return val


def frozen_symbol(f: SymbolFamily, t=None) -> Callable:
    """The symbol frozen at parameter value t, as a plain callable of z."""
    if f.uses_t and t is None:
        raise DomainError("family depends on t; a parameter value is required")
    return lambda z: eval_symbol(f, t, z)


#: Most t x z values that :func:`integrate_family_at` asks of the kernel at once.
_BLOCK_ELEMS = 1 << 13


def integrate_family_at(f: SymbolFamily, z, rule) -> complex:
    """Quadrature value of G(z) = integral of g_t(z) dt over (0, 1).

    ``rule`` is a (nodes, weights) pair on (0, 1) with weights summing to 1,
    e.g. :func:`opnorm_lab.quadrature.gauss_rule_01`.  A family constant in
    t returns its pointwise value untouched.  The kernel evaluates blocks of
    t-nodes against all of z, at most 2^13 values per block, and the rows
    are summed in node order, so G is bit for bit the weighted sum of the
    scalar-t values.
    """
    nodes, weights = rule
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if nodes.size < 2 or nodes.size != weights.size:
        raise DomainError("t-quadrature rule needs at least 2 matching nodes/weights")
    if np.any(nodes <= 0.0) or np.any(nodes >= 1.0):
        raise DomainError("t-quadrature rule must be open on (0, 1)")
    if not f.uses_t:
        return eval_symbol(f, None, z)
    arr = np.asarray(z, dtype=complex)
    # Rows of t against one flat row of z; a 0-d z stays 0-d.
    t_col, z_row = (nodes[:, None], arr.reshape(1, -1)) if arr.ndim else (nodes, arr)
    step = max(1, _BLOCK_ELEMS // max(arr.size, 1))
    acc = np.zeros(arr.shape, dtype=complex)
    for start in range(0, nodes.size, step):
        block = eval_symbol(f, t_col[start : start + step], z_row)
        block = block.reshape(-1, *arr.shape)
        for wj, row in zip(weights[start : start + step], block):
            acc = acc + wj * row
    if arr.ndim == 0:
        return complex(acc)
    return acc


# ---------------------------------------------------------------------------
# Boundary continuity


def _refined_boundary_min(den, ts, mod) -> float:
    """Smallest |den| on the circle near the grid local minima of ``mod``.

    ``mod`` holds |den| on an equispaced boundary grid, one row per entry of
    ``ts``.  Each local minimum is refined by golden section within one
    grid cell on either side, so a zero between grid points shows up.
    """
    left, right = np.roll(mod, 1, axis=1), np.roll(mod, -1, axis=1)
    rows, cols = np.nonzero((mod < left) & (mod <= right))
    if not rows.size:
        return math.inf
    cell = 2.0 * math.pi / mod.shape[1]
    thetas = cell * cols
    t_rows = ts[rows]

    def neg_mod(theta):
        return -np.abs(np.broadcast_to(den(t_rows, np.exp(1j * theta)), theta.shape))

    _, value, _ = _golden_max(neg_mod, thetas - cell, thetas + cell, 40)
    return float(np.min(-value))


def is_boundary_continuous(f: SymbolFamily, denominator_floor: float = 1e-8) -> bool:
    """True when the AST provably defines a boundary-continuous symbol.

    Every node except Div preserves continuity on the closed disk.  Each Div
    denominator is screened for zeros on a boundary plus interior grid (and
    across a probe grid of t values for t-dependent denominators, all in one
    kernel call); every boundary-grid local minimum of its modulus is then
    refined by golden section within one grid cell, which catches a zero on
    the circle between grid points.  The whole symbol must respect the
    maximum principle on the same grid, which catches poles the rings
    straddle.  Negative integer powers never occur in parsed ASTs but fail
    the check if built by hand.  Returns False whenever continuity is not
    provable.
    """
    for node in _walk(f.body):
        if isinstance(node, IntPow) and node.power < 0:
            return False
    divs = [n for n in _walk(f.body) if isinstance(n, Div)]
    if not divs:
        return True
    n_boundary = 512
    boundary = np.exp(2j * np.pi * np.arange(n_boundary) / n_boundary)
    angles = np.exp(2j * np.pi * np.arange(128) / 128)
    rings = [r * angles for r in (0.2, 0.4, 0.6, 0.8, 0.9, 0.96, 0.99)]
    interior = np.concatenate([np.array([0.0 + 0.0j]), *rings])
    grid = np.concatenate([boundary, interior])
    t_probes = np.linspace(1.0 / 32, 31.0 / 32, 16) if f.uses_t else np.array([0.5])
    ts = t_probes.astype(complex)[:, None]
    try:
        with np.errstate(all="ignore"):
            for div in divs:
                den = _compile(div.right)
                t_den = ts if _uses_t(div.right) else ts[:1]
                mod = np.abs(np.broadcast_to(den(t_den, grid), (len(t_den), grid.size)))
                if not np.isfinite(mod).all() or mod.min() <= denominator_floor:
                    return False
                low = _refined_boundary_min(den, t_den[:, 0], mod[:, :n_boundary])
                if not low > denominator_floor:
                    return False
            full = np.abs(np.broadcast_to(f.kernel(ts, grid), (len(ts), grid.size)))
    except (EvaluationError, ZeroDivisionError):
        return False
    if not np.isfinite(full).all():
        return False
    boundary_max = full[:, :n_boundary].max(axis=1)
    interior_max = full[:, n_boundary:].max(axis=1)
    return not (interior_max > boundary_max * (1.0 + 1e-6) + 1e-9).any()
