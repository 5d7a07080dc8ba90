import math

import numpy as np
import pytest

from cgdms.errors import InvalidWordError
from cgdms.families import (Custom1DFamily, MoebiusCFFamily, SimilarityFamily,
                            approximate_pi, eval_interval,
                            geometric_potential_bracket, log_deriv_bracket,
                            parse_expression)

CF = MoebiusCFFamily()
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def grid_logderiv_extrema(word, npts=200001):
    """Oracle: dense-grid extrema of log|phi_w'| via the pointwise chain
    rule, no continuants."""
    xs = np.linspace(0.0, 1.0, npts)
    vals = np.zeros_like(xs)
    y = xs.copy()
    for k in reversed(word):
        vals += -2.0 * np.log(y + k)
        y = 1.0 / (y + k)
    return float(vals.min()), float(vals.max())


class TestSimilarity:
    def test_exact_ratio_brackets(self):
        fam = SimilarityFamily([0.5, 0.5], offsets=[0.0, 0.5])
        br = log_deriv_bracket(fam, (1, 2))
        assert br.sup_log_deriv == br.inf_log_deriv == pytest.approx(2 * math.log(0.5))

    def test_word_count_scaling(self):
        fam = SimilarityFamily([0.3, 0.4], offsets=[0.0, 0.6])
        br = log_deriv_bracket(fam, (1, 2, 2))
        assert br.sup_log_deriv == pytest.approx(math.log(0.3) + 2 * math.log(0.4))

    def test_image_placement(self):
        fam = SimilarityFamily([1 / 3, 1 / 3], offsets=[0.0, 2 / 3])
        cp = approximate_pi(fam, (1,))
        assert cp.point_estimate == pytest.approx(1 / 6)
        assert cp.radius == pytest.approx(1 / 6)


class TestMoebiusCF:
    def test_single_symbol_bracket(self):
        br = log_deriv_bracket(CF, (1,))
        assert br.sup_log_deriv == pytest.approx(0.0, abs=1e-15)
        assert br.inf_log_deriv == pytest.approx(-2 * math.log(2))

    def test_symbol_bracket_general_k(self):
        for k in (1, 2, 3, 7):
            lo, hi = geometric_potential_bracket(CF, (k,))
            assert lo == pytest.approx(2 * math.log(k))
            assert hi == pytest.approx(2 * math.log(k + 1))

    def test_word_21_matches_grid_oracle(self):
        br = log_deriv_bracket(CF, (2, 1))
        lo, hi = grid_logderiv_extrema((2, 1))
        assert br.inf_log_deriv == pytest.approx(lo, abs=1e-10)
        assert br.sup_log_deriv == pytest.approx(hi, abs=1e-10)

    def test_random_words_match_grid_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            word = tuple(int(x) for x in rng.integers(1, 4, size=n))
            br = log_deriv_bracket(CF, word)
            lo, hi = grid_logderiv_extrema(word)
            assert br.inf_log_deriv == pytest.approx(lo, abs=1e-9)
            assert br.sup_log_deriv == pytest.approx(hi, abs=1e-9)

    def test_distortion_gap(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            word = tuple(int(x) for x in rng.integers(1, 6, size=n))
            br = log_deriv_bracket(CF, word)
            assert br.inf_log_deriv <= br.sup_log_deriv
            assert br.sup_log_deriv - br.inf_log_deriv <= math.log(CF.distortion_constant) + 1e-12

    def test_contraction_rate_with_prefactor(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            word = tuple(int(x) for x in rng.integers(1, 5, size=n))
            br = log_deriv_bracket(CF, word)
            bound = n * math.log(CF.contraction_bound) + math.log(CF.contraction_prefactor)
            assert br.sup_log_deriv <= bound + 1e-12

    def test_chain_rule_additivity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = tuple(int(x) for x in rng.integers(1, 4, size=rng.integers(1, 4)))
            v = tuple(int(x) for x in rng.integers(1, 4, size=rng.integers(1, 4)))
            dom = CF.domain()
            full = CF.word_log_deriv_range(u + v, dom)
            head = CF.word_log_deriv_range(u, CF.word_image(v, dom))
            tail = CF.word_log_deriv_range(v, dom)
            assert full[0] >= head[0] + tail[0] - 1e-12
            assert full[1] <= head[1] + tail[1] + 1e-12

    def test_pi_golden_ratio(self):
        cp = approximate_pi(CF, (1,) * 20)
        assert abs(cp.point_estimate - GOLDEN) < 1e-8
        assert cp.radius < 1e-8

    def test_radius_contraction(self):
        prev = approximate_pi(CF, (1,)).radius
        word = (1,)
        for _ in range(8):
            word = word + (1,)
            cur = approximate_pi(CF, word).radius
            assert cur <= CF.contraction_bound * prev + 1e-15
            prev = cur

    def test_radius_rate_bound(self):
        for n in range(1, 12):
            cp = approximate_pi(CF, (1,) * n)
            assert cp.radius <= CF.contraction_bound ** n + 1e-15

    def test_geometric_potential_exceeds_rate_floor(self):
        # depth-1 potential values stay above the contraction-rate floor
        for k in (1, 2, 5):
            lo, _ = geometric_potential_bracket(CF, (k,))
            assert lo >= -math.log(CF.contraction_bound) - 1e-12 or lo >= 0.0

    def test_geometric_bracket_is_negated_derivative(self):
        br = log_deriv_bracket(CF, (3, 1, 2))
        lo, hi = geometric_potential_bracket(CF, (3, 1, 2))
        assert lo == -br.sup_log_deriv
        assert hi == -br.inf_log_deriv

    def test_empty_word_rejected(self):
        with pytest.raises(InvalidWordError):
            log_deriv_bracket(CF, ())

    def test_inadmissible_prefix_rejected(self):
        from cgdms.symbolic import IncidenceMatrix
        gated = IncidenceMatrix.from_dense([[1, 1], [0, 1]])
        with pytest.raises(InvalidWordError):
            approximate_pi(CF, (2, 1), incidence=gated)
        from cgdms.errors import DomainMismatchError
        with pytest.raises(DomainMismatchError):
            log_deriv_bracket(CF, (2, 1), incidence=gated)


class TestExpressionGrammar:
    def test_parse_and_eval_point(self):
        ast = parse_expression("1/(x+k)")
        lo, hi = eval_interval(ast, (0.25, 0.25), 2)
        assert lo == hi == pytest.approx(1 / 2.25)

    def test_interval_monotone_ops(self):
        ast = parse_expression("exp(-x) + log(k)")
        lo, hi = eval_interval(ast, (0.0, 1.0), 3)
        assert lo == pytest.approx(math.exp(-1) + math.log(3))
        assert hi == pytest.approx(1 + math.log(3))

    def test_integer_power_even(self):
        ast = parse_expression("x^2")
        lo, hi = eval_interval(ast, (-1.0, 2.0), 1)
        assert lo == 0.0
        assert hi == 4.0

    def test_division_through_zero_rejected(self):
        ast = parse_expression("1/x")
        with pytest.raises(ValueError):
            eval_interval(ast, (-1.0, 1.0), 1)

    def test_negative_power_through_zero_rejected(self):
        ast = parse_expression("x^-2")
        with pytest.raises(ValueError):
            eval_interval(ast, (-1.0, 1.0), 1)
        lo, hi = eval_interval(ast, (1.0, 2.0), 1)
        assert lo == pytest.approx(0.25)
        assert hi == pytest.approx(1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            parse_expression("foo(x)")

    X, K = ("x",), ("k",)

    @pytest.mark.parametrize("src,tree", [
        ("-x^2", ("neg", ("^", X, ("num", 2.0)))),
        ("2^-x^2", ("^", ("num", 2.0), ("neg", ("^", X, ("num", 2.0))))),
        ("x^k^2", ("^", X, ("^", K, ("num", 2.0)))),
        ("x-k-2", ("-", ("-", X, K), ("num", 2.0))),
        ("x/k/2", ("/", ("/", X, K), ("num", 2.0))),
        ("x*-1", ("*", X, ("neg", ("num", 1.0)))),
        ("1E+2", ("num", 100.0)),
        (".25", ("num", 0.25)),
        ("3.", ("num", 3.0)),
        ("007", ("num", 7.0)),
        (" log (x)\n+ exp(-k) ", ("+", ("log", X), ("exp", ("neg", K)))),
    ])
    def test_precedence_associativity_and_numbers(self, src, tree):
        assert parse_expression(src) == tree

    @pytest.mark.parametrize("src", [
        "x**2", "+x", "x%2", "x//2", "0x1f", "0xe", "0o7", "1_0", "1j", "True",
        "log(x,k)", "log(x,)", "exp()", "(log)(x)", "2x", "foo(x)",
    ])
    def test_outside_the_grammar_rejected(self, src):
        with pytest.raises(ValueError):
            parse_expression(src)

    def test_depth_bound(self):
        """A tree of MAX_DEPTH levels parses and evaluates; one more level
        is refused, so evaluation never recurses past that depth."""
        from cgdms.families import MAX_DEPTH

        deepest = "x" + "+x" * (MAX_DEPTH - 1)
        assert eval_interval(parse_expression(deepest), (0.0, 1.0), 1) == (0.0, MAX_DEPTH)
        with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH}"):
            parse_expression(deepest + "+x")

    @pytest.mark.parametrize("key,src", [
        ("abs_deriv_expr", "(" * 3000 + "x" + ")" * 3000),
        ("abs_deriv_expr", "-" * 3000 + "x"),
        ("abs_deriv_expr", "+".join(["x"] * 20000)),
        ("map_expr", "-" * 3000 + "x"),
    ], ids=["parens", "unary-minus", "long-sum", "map-expr"])
    def test_hostile_expression_exits_one(self, tmp_path, capsys, key, src):
        """Expressions nested or chained past the interpreter's recursion
        limit are a config error naming their field, not a traceback."""
        import json

        from cgdms.cli import main

        system = {"kind": "custom-1d", "map_expr": "1/(x+k)",
                  "abs_deriv_expr": "(x+k)^-2", "contraction_bound": 0.5,
                  "contraction_prefactor": 2.0, "distortion_constant": 4.0,
                  key: src}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": system,
                                   "numerics": {"word_length": 6, "truncation": 4}}))
        assert main(["dimension", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"'system.{key}'" in err and "Traceback" not in err

    def test_custom_family_reproduces_cf(self):
        fam = Custom1DFamily("1/(x+k)", "(x+k)^-2",
                             contraction_bound=0.5,
                             distortion_constant=4.0,
                             contraction_prefactor=2.0,
                             n_edges=4)
        for k in (1, 2, 3):
            a, b = fam.image(k, (0.0, 1.0))
            assert a == pytest.approx(1 / (1 + k))
            assert b == pytest.approx(1 / k)
        br = log_deriv_bracket(fam, (2, 1))
        exact = log_deriv_bracket(CF, (2, 1))
        # generic composition encloses the exact range
        assert br.inf_log_deriv <= exact.inf_log_deriv + 1e-12
        assert br.sup_log_deriv >= exact.sup_log_deriv - 1e-12


class TestElementwiseIntervals:
    """Interval primitives over numpy arrays equal elementwise scalar calls,
    so a whole window table is one evaluation per word position."""

    # every grammar node: num, x, k, neg, + - * /, integer and non-integer
    # ^ (mixed within one call through k/2), log, exp
    EVERY_NODE = "-(x*k - 2)/(k+1) + log(x+k)^2 - exp(-x)*(x+1)^0.5 + x^(k/2)"

    @pytest.mark.parametrize("src", ["1/(x+k)", EVERY_NODE])
    def test_arrays_equal_scalar_calls(self, src):
        ast = parse_expression(src)
        rng = np.random.default_rng(3)
        lo = rng.uniform(0.1, 1.0, size=40)
        hi = lo + rng.uniform(0.0, 1.0, size=40)
        ks = rng.integers(1, 6, size=40)
        alo, ahi = eval_interval(ast, (lo, hi), ks)
        for j in range(40):
            assert (alo[j], ahi[j]) == eval_interval(ast, (lo[j], hi[j]), int(ks[j]))

    @staticmethod
    def _windows(N=3, q=5):
        """Every word of q symbols over 1..N as the columns of an array."""
        return np.indices((N,) * q).reshape(q, -1) + 1

    def test_custom_tables_equal_per_column_word_operations(self):
        fam = Custom1DFamily("1/(x+k)", "(x+k)^-2", contraction_bound=0.5,
                             contraction_prefactor=2.0, n_edges=3)
        syms, tail = self._windows(), (0.0, 1.0)
        wlo, whi = fam.vec_word_log_deriv(syms, tail)
        hlo, hhi = fam.vec_suffix_then_head(syms, tail)
        for j in range(syms.shape[1]):
            col = tuple(int(s) for s in syms[:, j])
            assert (wlo[j], whi[j]) == fam.word_log_deriv_range(col, tail)
            head = fam.deriv_log_range(col[0], fam.word_image(col[1:], tail))
            assert (hlo[j], hhi[j]) == head

    def test_custom_cf_tables_contain_closed_forms(self):
        fam = Custom1DFamily("1/(x+k)", "(x+k)^-2", contraction_bound=0.5,
                             contraction_prefactor=2.0, n_edges=3)
        syms, tail = self._windows(), (0.0, 1.0)
        for name in ("vec_word_log_deriv", "vec_suffix_then_head"):
            clo, chi = getattr(fam, name)(syms, tail)
            elo, ehi = getattr(CF, name)(syms, tail)
            assert np.all(clo <= elo + 1e-15 * np.abs(elo))
            assert np.all(chi >= ehi - 1e-15 * np.abs(ehi))

    def test_word_independent_value_fills_every_column(self):
        fam = Custom1DFamily("0.5*x", "0.5", contraction_bound=0.5, n_edges=2)
        lo, hi = fam.vec_suffix_then_head(self._windows(2, 3), (0.0, 1.0))
        assert lo.shape == hi.shape == (8,)
        assert np.all(lo == math.log(0.5)) and np.all(hi == math.log(0.5))

    @pytest.mark.parametrize("src,bad_lo", [
        ("1/x", -0.5),      # division by an interval containing zero
        ("log(x)", 0.0),    # log of a non-positive interval
        ("x^-2", -0.5),     # negative power of an interval containing zero
        ("x^0.5", -0.5),    # non-integer power of a non-positive interval
    ])
    def test_one_bad_element_fails_the_call(self, src, bad_lo):
        ast = parse_expression(src)
        lo = np.array([0.5, 0.5, bad_lo, 0.5])
        eval_interval(ast, (np.full(4, 0.5), np.ones(4)), 1)
        with pytest.raises(ValueError):
            eval_interval(ast, (lo, np.ones(4)), 1)

    def test_edge_arrays_checked(self):
        fam = Custom1DFamily("1/(x+k)", "(x+k)^-2", contraction_bound=0.5,
                             contraction_prefactor=2.0, n_edges=3)
        with pytest.raises(InvalidWordError):
            fam.image(np.array([1, 0, 2]), (0.0, 1.0))
        with pytest.raises(InvalidWordError, match="edge 4 out of range"):
            fam.deriv_log_range(np.array([1, 4, 2]), (0.0, 1.0))
        neg = Custom1DFamily("0.5*x", "x - 0.5", contraction_bound=0.5)
        with pytest.raises(ValueError, match="non-positive"):
            neg.deriv_log_range(np.array([1, 2]), (np.array([0.9, 0.2]), np.ones(2)))
