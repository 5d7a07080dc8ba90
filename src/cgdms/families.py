"""Contraction families: derivative brackets, cylinder images, coding points.

All built-in families act on compact intervals of the real line.  Every
operation returns certified lower/upper pairs; tightness varies by family:

* similarities have constant derivatives, so brackets are exact;
* the continued-fraction family ``x -> 1/(x+k)`` composes to a Moebius map
  whose derivative is a monotone function of a single linear form, so word
  brackets are again exact (computed from the two trailing continuants);
* custom families are evaluated by composing interval images right to
  left, which yields valid but in general non-tight enclosures.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainMismatchError, InvalidWordError
from .symbolic import is_admissible


@dataclass(frozen=True)
class DerivativeBracket:
    """Enclosure of log|phi_w'| over the terminal domain, natural log."""

    word: tuple
    sup_log_deriv: float
    inf_log_deriv: float


@dataclass(frozen=True)
class CodingPoint:
    """Midpoint/radius enclosure of the coded point of a word prefix."""

    word_prefix: tuple
    point_estimate: float
    radius: float


class MapFamily:
    """Base class for 1-d contraction families.

    Attributes
    ----------
    contraction_bound : float
        Rate s in (0,1) with ``sup|phi_w'| <= prefactor * s**len(w)``.
    contraction_prefactor : float
        The constant in the bound above; 1 whenever every single map is
        an s-contraction, larger when only compositions contract at rate s
        (the continued-fraction family needs 2).
    distortion_constant : float
        K >= 1 bounding derivative ratios along any word.
    """

    kind = "abstract"
    contraction_bound = 0.5
    contraction_prefactor = 1.0
    distortion_constant = 1.0
    n_edges: Optional[int] = None
    distortion_free = False  # True when derivative brackets have zero width

    def domain(self, vertex=0) -> tuple:
        return (0.0, 1.0)

    def check_edge(self, e) -> None:
        """Reject an edge index, or an index array, outside 1..n_edges."""
        lo, hi = (e.min(initial=1), e.max(initial=1)) if isinstance(e, np.ndarray) else (e, e)
        if lo < 1:
            raise InvalidWordError(f"edge index must be positive, got {lo}")
        if self.n_edges is not None and hi > self.n_edges:
            raise InvalidWordError(f"edge {hi} out of range (n_edges={self.n_edges})")

    # -- single-edge interval primitives -------------------------------
    def image(self, e: int, iv: tuple) -> tuple:
        raise NotImplementedError

    def deriv_log_range(self, e: int, iv: tuple) -> tuple:
        """Range of log|phi_e'| over the interval iv."""
        raise NotImplementedError

    # -- word-level operations ------------------------------------------
    def word_log_deriv_range(self, word: Sequence[int], tail: tuple) -> tuple:
        """Enclosure of log|phi_w'| over the tail interval.

        Default implementation composes right to left via the chain rule;
        subclasses override when an exact form exists.
        """
        lo = hi = 0.0
        iv = tail
        for e in reversed(tuple(word)):
            dlo, dhi = self.deriv_log_range(e, iv)
            lo += dlo
            hi += dhi
            iv = self.image(e, iv)
        return lo, hi

    def word_image(self, word: Sequence[int], tail: tuple) -> tuple:
        iv = tail
        for e in reversed(tuple(word)):
            iv = self.image(e, iv)
        return iv

    # -- the word recursion of the pressure kernel ------------------------
    # A state holds per-word arrays, one entry per word.  A step extends
    # every word w by one leading symbol k (phi_{kw} = phi_k o phi_w), so
    # the tables of all L-words grow into those of all (L+1)-words one
    # symbol at a time, with the same per-word arithmetic as the scalar
    # :meth:`word_image` and :meth:`word_log_deriv_range`.  The default
    # carries the image interval of the tail and, with ``sums``, the
    # chain-rule log-derivative sums.
    def word_start(self, tail: tuple, sums: bool = False) -> tuple:
        """State of the empty word over the ``tail`` interval."""
        iv = (np.full(1, tail[0], dtype=float), np.full(1, tail[1], dtype=float))
        return (*iv, np.zeros(1), np.zeros(1)) if sums else iv

    def word_step(self, k, state: tuple) -> tuple:
        """State of each word k·w from that of w, elementwise: one ``image``
        call, and one ``deriv_log_range`` call when the sums are carried."""
        iv = state[:2]
        image = self.image(k, iv)
        if len(state) == 2:
            return image
        dlo, dhi = self.deriv_log_range(k, iv)
        return (*image, state[2] + dlo, state[3] + dhi)

    def word_bracket(self, state: tuple, tail: tuple) -> tuple:
        """Enclosure of log|phi_w'| over ``tail`` per word, from a state
        started over ``tail`` with ``sums``."""
        return state[2], state[3]

    def head_bracket(self, k, state: tuple, tail: tuple) -> tuple:
        """Range of log|phi_k'| over phi_w(tail) per word k·w: the
        contribution of the window k·w."""
        return self.deriv_log_range(k, state[:2])

    # -- vectorized forms over explicit words -----------------------------
    # Columns of ``syms`` are words; each row is one word position, taken
    # by the word recursion from the last to the first.
    def vec_word_log_deriv(self, syms: np.ndarray, tail: tuple):
        """Per-column enclosures of log|phi_w'| for a (L, M) matrix of
        words."""
        state = self.word_start(tail, sums=True)
        for k in syms[::-1]:
            state = self.word_step(k, state)
        return tuple(_columns(v, syms) for v in self.word_bracket(state, tail))

    def vec_suffix_then_head(self, syms: np.ndarray, tail: tuple):
        """Per-column range of log|phi'_{w_1}| over phi_{w_2..w_L}(tail):
        the single-window contribution."""
        state = self.word_start(tail)
        for k in syms[:0:-1]:
            state = self.word_step(k, state)
        return tuple(_columns(v, syms) for v in self.head_bracket(syms[0], state, tail))


def _columns(v, syms: np.ndarray) -> np.ndarray:
    """One float per column (word) of ``syms``, repeating a constant."""
    return np.broadcast_to(v, syms.shape[1:]).astype(float)


class SimilarityFamily(MapFamily):
    """Affine maps ``phi_e(x) = offset_e + sign_e * ratio_e * x``."""

    kind = "similarity"
    distortion_free = True

    def __init__(self, ratios, offsets=None, flips=None, domain=(0.0, 1.0)):
        ratios = tuple(float(r) for r in ratios)
        if not ratios:
            raise ValueError("need at least one map")
        if any(not (0.0 < r < 1.0) for r in ratios):
            raise ValueError("similarity ratios must lie in (0,1)")
        n = len(ratios)
        if offsets is None:
            # equally spaced placements inside the domain
            a, b = domain
            gap = ((b - a) - sum(r * (b - a) for r in ratios)) / max(n - 1, 1)
            offsets = []
            x = a
            for r in ratios:
                offsets.append(x)
                x += r * (b - a) + gap
            offsets = tuple(offsets)
        else:
            offsets = tuple(float(c) for c in offsets)
        flips = tuple(flips) if flips is not None else (1,) * n
        if len(offsets) != n or len(flips) != n:
            raise ValueError("ratios, offsets, flips must have equal length")
        self.ratios = ratios
        self.offsets = offsets
        self.flips = flips
        self._domain = (float(domain[0]), float(domain[1]))
        self.n_edges = n
        self.contraction_bound = max(ratios)
        self.contraction_prefactor = 1.0
        self.distortion_constant = 1.0
        self._logr = np.array([0.0] + [math.log(r) for r in ratios])

    def domain(self, vertex=0):
        return self._domain

    def image(self, e, iv):
        self.check_edge(e)
        r, c, f = self.ratios[e - 1], self.offsets[e - 1], self.flips[e - 1]
        a = c + f * r * iv[0]
        b = c + f * r * iv[1]
        return (min(a, b), max(a, b))

    def deriv_log_range(self, e, iv):
        self.check_edge(e)
        lr = math.log(self.ratios[e - 1])
        return (lr, lr)

    def word_log_deriv_range(self, word, tail):
        s = sum(math.log(self.ratios[e - 1]) for e in word)
        return (s, s)

    # the state is the sum of log ratios, added from the last symbol to the
    # first; every bracket has zero width
    def word_start(self, tail, sums=False):
        return (np.zeros(1),)

    def word_step(self, k, state):
        return (self._logr[k] + state[0],)

    def word_bracket(self, state, tail):
        return state[0], state[0]

    def head_bracket(self, k, state, tail):
        s = self._logr[k]
        return s, s


class MoebiusCFFamily(MapFamily):
    """The family ``phi_k(x) = 1/(x+k)`` on [0,1], k = 1, 2, 3, ...

    Compositions are Moebius maps with unit determinant; writing the word
    map as ``(p + p1 x)/(q + q1 x)`` with the trailing continuants (q, q1),
    the derivative magnitude is ``(q + q1 x)**-2``, monotone in x, so word
    brackets are exact.

    The first map is not a strict contraction (its derivative reaches 1 at
    x=0) but every two-step composition contracts by at least 1/4, which
    gives ``sup|phi_w'| <= 2 * (1/2)**len(w)`` and cylinder diameters
    ``<= 2**-len(w)``; hence rate 1/2 with prefactor 2.
    """

    kind = "moebius-cf"
    contraction_bound = 0.5
    contraction_prefactor = 2.0
    distortion_constant = 4.0
    n_edges = None

    def image(self, e, iv):
        self.check_edge(e)
        a, b = iv
        return (1.0 / (b + e), 1.0 / (a + e))

    def deriv_log_range(self, e, iv):
        self.check_edge(e)
        a, b = iv
        return (-2.0 * math.log(b + e), -2.0 * math.log(a + e))

    @staticmethod
    def _continuants(word):
        pj, pjm = 0, 1
        qj, qjm = 1, 0
        for k in word:
            pj, pjm = k * pj + pjm, pj
            qj, qjm = k * qj + qjm, qj
        return pj, pjm, qj, qjm

    def word_log_deriv_range(self, word, tail):
        word = tuple(word)
        for e in word:
            self.check_edge(e)
        _, _, qn, qn1 = self._continuants(word)
        a, b = tail
        return (-2.0 * math.log(qn + qn1 * b), -2.0 * math.log(qn + qn1 * a))

    def word_image(self, word, tail):
        word = tuple(word)
        if not word:
            return tail
        pn, pn1, qn, qn1 = self._continuants(word)
        a, b = tail
        x0 = (pn + pn1 * a) / (qn + qn1 * a)
        x1 = (pn + pn1 * b) / (qn + qn1 * b)
        return (min(x0, x1), max(x0, x1))

    # The state is the continuants (p, p1, q, q1) of phi_w(x) =
    # (p + p1 x)/(q + q1 x), which one leading symbol k maps to
    # (q, q1, p + k q, p1 + k q1).  They are integers, exact in floats below
    # 2**53, and the table caps keep them far under it, so every table
    # equals the left-to-right continuant recursion bit for bit.
    def word_start(self, tail, sums=False):
        return (np.zeros(1), np.ones(1), np.ones(1), np.zeros(1))

    def word_step(self, k, state):
        p, p1, q, q1 = state
        return q, q1, p + k * q, p1 + k * q1

    def word_bracket(self, state, tail):
        _, _, q, q1 = state
        a, b = tail
        return (-2.0 * np.log(q + q1 * b), -2.0 * np.log(q + q1 * a))

    def head_bracket(self, k, state, tail):
        p, p1, q, q1 = state
        a, b = tail
        x0 = (p + p1 * a) / (q + q1 * a)
        x1 = (p + p1 * b) / (q + q1 * b)
        return (-2.0 * np.log(np.maximum(x0, x1) + k),
                -2.0 * np.log(np.minimum(x0, x1) + k))


# ---------------------------------------------------------------------------
# Expression grammar for custom families
# ---------------------------------------------------------------------------
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-'? power
#   power  := atom ('^' factor)?
#   atom   := NUMBER | 'x' | 'k' | 'log(' expr ')' | 'exp(' expr ')' | '(' expr ')'
#
# With '^' read as '**' the grammar is a subset of Python's expressions,
# with the same precedence, so Python's parser reads it and one walk keeps
# the subset as the tuple tree that eval_interval evaluates over intervals
# with outward-safe monotone rules; 'k' is the edge index.
# MAX_DEPTH is far above any map a user writes (1/(x+k) nests 3 deep) and
# far below the recursion limit eval_interval shares with its callers.
# Python 3.10 builds the tree of a long expression by unguarded C
# recursion (a 200000-term sum crashes it), hence MAX_LENGTH.
MAX_DEPTH, MAX_LENGTH = 100, 10_000
_CHARS = re.compile(r"[0-9A-Za-z.+\-*/^() ]*")
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def parse_expression(src: str):
    """The tuple tree of an expression of the grammar; ValueError for any
    string outside it or nesting deeper than ``MAX_DEPTH``."""
    src = " ".join(src.split())
    bad = _CHARS.match(src).end()
    if bad < len(src):
        raise ValueError(f"unexpected character {src[bad]!r} in expression")
    if "**" in src:
        raise ValueError("'**' is not an operator of the grammar; write '^'")
    if len(src) > MAX_LENGTH:
        raise ValueError(f"expression longer than {MAX_LENGTH} characters")
    # float() reads the integer 007, which Python's parser refuses
    py = re.sub(r"(?<![\w.])0+(?=\d)", "", src).replace("^", "**")
    try:
        # a refused string is reported by the ValueError below, not by a
        # SyntaxWarning that the parser prints for it first ("1or x")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SyntaxWarning)
            tree = ast.parse(py, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        why = exc.msg if isinstance(exc, SyntaxError) else f"nests deeper than {MAX_DEPTH}"
        raise ValueError(f"invalid expression: {why}") from None
    return _grammar_tree(tree.body, py, 1)


def _grammar_tree(node, py: str, depth: int):
    """The tuple tree of ``node``, a node of ``py``'s tree at ``depth``."""
    if depth > MAX_DEPTH:
        raise ValueError(f"invalid expression: nests deeper than {MAX_DEPTH}")
    text = py[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(text):
        return ("num", float(text))
    if isinstance(node, ast.Name) and node.id in ("x", "k"):
        return (node.id,)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return ("neg", _grammar_tree(node.operand, py, depth + 1))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return (_BINARY[type(node.op)], _grammar_tree(node.left, py, depth + 1),
                _grammar_tree(node.right, py, depth + 1))
    # the function is named right where the call starts: log(x), not (log)(x)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("log", "exp") and node.func.col_offset == node.col_offset
            and len(node.args) == 1 and not node.keywords):
        return (node.func.id, _grammar_tree(node.args[0], py, depth + 1))
    raise ValueError(f"{text[:40]!r} is outside the expression grammar")


def _iv_mul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (functools.reduce(np.minimum, vals), functools.reduce(np.maximum, vals))


def _iv_pow(a, b):
    """a ** b: monotone integer powers where b is a fixed integer,
    exp(b * log a) elsewhere."""
    zero_in = (a[0] <= 0.0) & (0.0 <= a[1])
    integer = (b[0] == b[1]) & np.isfinite(b[0]) & (np.floor(b[0]) == b[0])
    if np.any(integer & (b[0] < 0) & zero_in):
        raise ValueError("negative power of an interval containing zero")
    if np.any(~integer & (a[0] <= 0.0)):
        raise ValueError("non-integer power of a non-positive interval")
    # each branch is discarded wherever it does not apply
    with np.errstate(all="ignore"):
        cand = (np.power(a[0], b[0]), np.power(a[1], b[0]))
        lo = np.where((b[0] > 0) & (b[0] % 2 == 0) & zero_in, 0.0, np.minimum(*cand))
        hi = np.maximum(*cand)
        if np.all(integer):
            return lo[()], hi[()]
        e = _iv_mul((np.log(a[0]), np.log(a[1])), b)
        return (np.where(integer, lo, np.exp(e[0]))[()],
                np.where(integer, hi, np.exp(e[1]))[()])


def eval_interval(node, x: tuple, k) -> tuple:
    """Evaluate an expression AST over the interval x with edge index k.

    Elementwise: ``k`` and the endpoints of ``x`` may be numpy arrays
    (broadcast together), and a call raises if any element would."""
    op = node[0]
    if op == "num":
        return (node[1], node[1])
    if op == "x":
        return x
    if op == "k":
        kf = np.asarray(k, dtype=float)[()]
        return (kf, kf)
    a = eval_interval(node[1], x, k)
    if op == "neg":
        return (-a[1], -a[0])
    if op == "log":
        if np.any(a[0] <= 0):
            raise ValueError("log of a non-positive interval")
        return (np.log(a[0]), np.log(a[1]))
    if op == "exp":
        return (np.exp(a[0]), np.exp(a[1]))
    b = eval_interval(node[2], x, k)
    if op == "+":
        return (a[0] + b[0], a[1] + b[1])
    if op == "-":
        return (a[0] - b[1], a[1] - b[0])
    if op == "*":
        return _iv_mul(a, b)
    if op == "/":
        if np.any((b[0] <= 0.0) & (0.0 <= b[1])):
            raise ValueError("division by an interval containing zero")
        return _iv_mul(a, (1.0 / b[1], 1.0 / b[0]))
    if op == "^":
        return _iv_pow(a, b)
    raise ValueError(f"bad AST node {node!r}")


class Custom1DFamily(MapFamily):
    """User-declared 1-d family given by map/derivative expressions.

    ``map_expr`` evaluates phi_k(x); ``abs_deriv_expr`` evaluates
    |phi_k'(x)|.  Both use the grammar with variables x (point) and k
    (edge index).  Contraction and distortion data must be declared; they
    are trusted, not verified analytically.
    """

    kind = "custom-1d"

    def __init__(self, map_expr: str, abs_deriv_expr: str, *,
                 contraction_bound: float, distortion_constant: float = 1.0,
                 contraction_prefactor: float = 1.0,
                 domain: tuple = (0.0, 1.0), n_edges: Optional[int] = None):
        if not (0.0 < contraction_bound < 1.0):
            raise ValueError("contraction_bound must lie in (0,1)")
        if distortion_constant < 1.0:
            raise ValueError("distortion_constant must be >= 1")
        self.map_ast = parse_expression(map_expr)
        self.deriv_ast = parse_expression(abs_deriv_expr)
        self.map_expr = map_expr
        self.abs_deriv_expr = abs_deriv_expr
        self.contraction_bound = float(contraction_bound)
        self.distortion_constant = float(distortion_constant)
        self.contraction_prefactor = float(contraction_prefactor)
        self._domain = (float(domain[0]), float(domain[1]))
        self.n_edges = n_edges

    def domain(self, vertex=0):
        return self._domain

    def image(self, e, iv):
        self.check_edge(e)
        return eval_interval(self.map_ast, iv, e)

    def deriv_log_range(self, e, iv):
        self.check_edge(e)
        lo, hi = eval_interval(self.deriv_ast, iv, e)
        if np.any(lo <= 0):
            raise ValueError("declared |phi'| evaluator returned a non-positive value")
        return (np.log(lo), np.log(hi))


# ---------------------------------------------------------------------------
# Word-level operations
# ---------------------------------------------------------------------------

def log_deriv_bracket(family: MapFamily, word, tail: Optional[tuple] = None,
                      incidence=None) -> DerivativeBracket:
    """Enclosure of log|phi_w'| over the terminal domain (or ``tail``).

    The word must be nonempty; when an incidence matrix is supplied the
    word's chaining is verified and a violation raises
    :class:`DomainMismatchError`.
    """
    w = tuple(int(s) for s in word)
    if not w:
        raise InvalidWordError("word must be nonempty")
    for e in w:
        family.check_edge(e)
    if incidence is not None and not is_admissible(w, incidence):
        raise DomainMismatchError(f"word {w} does not chain")
    tail = family.domain() if tail is None else tail
    lo, hi = family.word_log_deriv_range(w, tail)
    return DerivativeBracket(word=w, sup_log_deriv=hi, inf_log_deriv=lo)


def approximate_pi(family: MapFamily, word_prefix, incidence=None) -> CodingPoint:
    """Midpoint/radius enclosure of the cylinder image of a word prefix."""
    w = tuple(int(s) for s in word_prefix)
    if not w:
        raise InvalidWordError("prefix must be nonempty")
    if incidence is not None and not is_admissible(w, incidence):
        raise InvalidWordError(f"prefix {w} is not admissible")
    iv = family.word_image(w, family.domain())
    return CodingPoint(word_prefix=w,
                       point_estimate=0.5 * (iv[0] + iv[1]),
                       radius=0.5 * (iv[1] - iv[0]))


def geometric_potential_bracket(family: MapFamily, word,
                                tail: Optional[tuple] = None) -> tuple:
    """Enclosure of the Birkhoff sum of the geometric potential over the
    cylinder of the word: equals the negated derivative bracket."""
    br = log_deriv_bracket(family, word, tail)
    return (-br.sup_log_deriv, -br.inf_log_deriv)
