import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cgdms.cli import main
from cgdms.system import similarity_system
from cgdms.util import format_float

SRC = Path(__file__).resolve().parents[1] / "src"

SIM_CONFIG = {
    "system": {"kind": "similarity", "ratios": [0.5, 0.5],
               "offsets": [0.0, 0.5]},
    "potential": {"kind": "table", "values": {"1": [0.0], "2": [1.0]}},
    "numerics": {"word_length": 12, "tolerance": 1e-8,
                 "workers": 1, "seed": 0},
}

CF2_CONFIG = {
    "system": {"kind": "moebius-cf", "alphabet": 2},
    "potential": {"kind": "zero", "dim": 1},
    "numerics": {"word_length": 10, "truncation": 2, "tolerance": 1e-3,
                 "workers": 1, "seed": 0},
    "pressure": {"beta_grid": [0.4, 0.5, 0.6, 0.7]},
}


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_body(path):
    """Data lines only: the metadata header echoes the worker count."""
    lines = path.read_text().splitlines()
    return "\n".join(l for l in lines if not l.startswith("#"))


def _run_cli(tmp_path, command, doc, timeout=10):
    """``cgdms command`` on ``doc`` in a fresh interpreter, writing to
    ``tmp_path / "o"``, killed after ``timeout`` seconds."""
    cfg = write_config(tmp_path, doc)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from cgdms.cli import main; sys.exit(main(sys.argv[1:]))",
         command, "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=timeout)


class TestPressureCommand:
    def test_full_two_shift_log2_row(self, tmp_path):
        doc = dict(SIM_CONFIG)
        doc["potential"] = {"kind": "zero", "dim": 1}
        doc["pressure"] = {"beta_grid": [0.0]}
        cfg = write_config(tmp_path, doc)
        assert main(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        body = read_body(tmp_path / "o" / "pressure.csv").splitlines()
        header = body[0].split(",")
        row = dict(zip(header, body[1].split(",")))
        assert float(row["lower"]) == pytest.approx(math.log(2), abs=1e-13)
        assert float(row["upper"]) == pytest.approx(math.log(2), abs=1e-13)

    def test_cf2_sign_change_bracketed(self, tmp_path):
        cfg = write_config(tmp_path, CF2_CONFIG)
        assert main(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = read_body(tmp_path / "o" / "pressure.csv").splitlines()[1:]
        vals = [(float(r.split(",")[1]), float(r.split(",")[2]),
                 float(r.split(",")[3])) for r in rows]
        # positive pressure below the dimension, negative above
        assert vals[0][1] > 0        # lower bracket at beta=0.4
        assert vals[-1][2] < 0       # upper bracket at beta=0.7

    def test_one_kernel_for_the_whole_grid(self, tmp_path, monkeypatch):
        from cgdms.kernel import PressureKernel
        builds = []
        init = PressureKernel.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PressureKernel, "__init__", counting_init)
        doc = dict(SIM_CONFIG)
        doc["pressure"] = {"t_points": [[0.5], [1.0]],
                           "beta_grid": [0.4, 0.5, 0.6]}
        cfg = write_config(tmp_path, doc)
        assert main(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = read_body(tmp_path / "o" / "pressure.csv").splitlines()[1:]
        assert len(rows) == 6
        assert len(builds) == 1

    def test_overflowing_weights_exit_two(self, tmp_path, capsys):
        """A log weight that overflows to +inf (1e300 times t = 1e10) is no
        bracket: exit 2 with one line naming t and beta, and no row."""
        doc = {"system": {"kind": "moebius-cf", "alphabet": 3},
               "potential": {"kind": "table",
                             "values": {"1": [1e300], "2": [0], "3": [0]}},
               "numerics": {"word_length": 10},
               "pressure": {"t_points": [[1e10]], "beta_grid": [0.5]}}
        cfg = write_config(tmp_path, doc)
        assert main(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "t=[10000000000.0], beta=0.5" in err[0], err
        assert not (tmp_path / "o" / "pressure.csv").exists()

    def test_malformed_negative_beta_exit_one(self, tmp_path, capsys):
        doc = dict(CF2_CONFIG)
        doc["pressure"] = {"beta_grid": [-0.5]}
        cfg = write_config(tmp_path, doc)
        assert main(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "beta_grid" in err

    def test_missing_field_named(self, tmp_path, capsys):
        doc = {"system": {"kind": "similarity"}, "numerics": {}}
        cfg = write_config(tmp_path, doc)
        assert main(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "system.ratios" in capsys.readouterr().err

    def test_unknown_numerics_field_named(self, tmp_path, capsys):
        doc = dict(CF2_CONFIG)
        doc["numerics"] = dict(doc["numerics"], wordlength=10)
        cfg = write_config(tmp_path, doc)
        assert main(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "numerics.wordlength" in capsys.readouterr().err

    def test_invalid_json_diagnosed(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["pressure", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["file", "file/sub"],
                             ids=["existing-file", "under-a-file"])
    def test_out_that_cannot_be_created(self, tmp_path, capsys, monkeypatch, out):
        """An --out that is a file, or lies under one, exits 1 with one line
        naming --out before any kernel is built."""
        from cgdms.kernel import PressureKernel

        def no_build(self, *args, **kwargs):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(PressureKernel, "__init__", no_build)
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path, SIM_CONFIG)
        assert main(["pressure", "--config", cfg, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--out" in err[0], err
        assert (tmp_path / "file").read_text() == ""


class TestDimensionCommand:
    def test_similarity_third_report(self, tmp_path):
        doc = {
            "system": {"kind": "similarity", "ratios": [1 / 3, 1 / 3],
                       "offsets": [0.0, 2 / 3]},
            "numerics": {"word_length": 8, "tolerance": 1e-9},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["dimension", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "dimension.json").read_text())
        lo = rep["hausdorff_dim"]["lo"]
        hi = rep["hausdorff_dim"]["hi"]
        assert lo <= math.log(2) / math.log(3) <= hi
        assert rep["regularity"] == "strongly-regular"

    def test_custom_family_via_grammar(self, tmp_path):
        # two affine maps declared through expressions reproduce the
        # closed-form dimension log2/log3
        doc = {
            "system": {"kind": "custom-1d",
                       "map_expr": "x/3 + 2*(k-1)/3",
                       "abs_deriv_expr": "1/3 + 0*x",
                       "contraction_bound": 0.34,
                       "edges": 2},
            "numerics": {"word_length": 8, "tolerance": 1e-8},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["dimension", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "dimension.json").read_text())
        mid = 0.5 * (rep["hausdorff_dim"]["lo"] + rep["hausdorff_dim"]["hi"])
        assert mid == pytest.approx(math.log(2) / math.log(3), abs=1e-6)

    def test_cf_full_alphabet_theta(self, tmp_path):
        # theta and the classification are the point here; the dimension
        # enclosure of the truncated stand-in only needs a loose width
        doc = {
            "system": {"kind": "moebius-cf"},
            "numerics": {"word_length": 6, "truncation": 12,
                         "tolerance": 0.05},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["dimension", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "dimension.json").read_text())
        assert rep["theta"]["lo"] <= 0.5 <= rep["theta"]["hi"]
        assert rep["regularity"] == "co-finitely-regular"

    @pytest.mark.parametrize("system,numerics,needed,deepest,N", [
        ({"kind": "moebius-cf", "alphabet": 2},
         {"word_length": 16, "tolerance": 1e-11}, 25, 21, 2),
        ({"kind": "custom-1d", "map_expr": "1/(x+k)", "abs_deriv_expr": "(x+k)^-2",
          "contraction_bound": 0.5, "contraction_prefactor": 2.0},
         {"truncation": 4, "tolerance": 1e-6}, 12, 10, 4),
    ], ids=["cf2", "custom-1d"])
    def test_window_past_the_table_cap(self, tmp_path, capsys, system, numerics,
                                       needed, deepest, N):
        """A failed certification whose estimated window passes the deepest
        window that the table cap admits says that the tolerance is out of
        reach and names that window."""
        cfg = write_config(tmp_path, {"system": system, "numerics": numerics})
        assert main(["dimension", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (f"roughly window {needed} would be needed, past window {deepest}, "
                f"the deepest that the table cap admits at truncation {N}: by "
                "this estimate, this tolerance is out of reach at this "
                "truncation") in err
        assert "Traceback" not in err

    def test_explicit_window_certifies_past_the_automatic_choice(self, tmp_path,
                                                                capsys):
        """cf2 at tol 5e-11: the automatic window 19 fails and advises
        window 20, from a best enclosure at most twice tol wide, which the
        table cap admits, so the tolerance is not called out of reach;
        ``numerics.window`` 20 certifies it around dim E_2 =
        0.531280506277205 (Jenkinson-Pollicott), at most tol wide."""
        doc = {"system": {"kind": "moebius-cf", "alphabet": 2},
               "numerics": {"word_length": 20, "truncation": 2,
                            "tolerance": 5e-11}}
        cfg = write_config(tmp_path, doc, "auto.json")
        assert main(["dimension", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert "at window 19; roughly window 20 would be needed\n" in err
        assert "out of reach" not in err
        doc["numerics"]["window"] = 20
        cfg = write_config(tmp_path, doc, "w20.json")
        assert main(["dimension", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        dim = json.loads((tmp_path / "o" / "dimension.json").read_text())["hausdorff_dim"]
        assert dim["lo"] <= 0.531280506277205 <= dim["hi"]
        assert Fraction(dim["hi"]) - Fraction(dim["lo"]) <= Fraction(5e-11)


class TestBetaCommand:
    def test_closed_form_row(self, tmp_path):
        doc = dict(SIM_CONFIG)
        doc["beta"] = {"t_points": [[0.0], [1.0]]}
        cfg = write_config(tmp_path, doc)
        assert main(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = read_body(tmp_path / "o" / "beta.csv").splitlines()[1:]
        est0 = float(rows[0].split(",")[3])
        est1 = float(rows[1].split(",")[3])
        assert est0 == pytest.approx(1.0, abs=1e-9)
        assert est1 == pytest.approx(math.log(1 + math.e) / math.log(2), abs=1e-9)

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        """The class names of the stage kernels and window transfers built
        from now on, in order."""
        from cgdms.kernel import PressureKernel, WindowTransfer
        builds = []
        for cls in (PressureKernel, WindowTransfer):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                builds.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        return builds

    def test_one_stage_kernel_per_t_point(self, tmp_path, monkeypatch):
        """solve_beta and grad_beta share the stage kernel, which runs the
        dp recursion on its own window transfer here (a similarity system)
        at the certifying window, so that transfer also certifies the limit
        enclosure and no other is built."""
        builds = self._count_builds(monkeypatch)
        doc = dict(SIM_CONFIG)
        doc["numerics"] = dict(doc["numerics"], word_length=16)
        doc["beta"] = {"t_points": [[0.5]]}
        cfg = write_config(tmp_path, doc)
        assert main(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(read_body(tmp_path / "o" / "beta.csv").splitlines()) == 2
        assert builds == ["PressureKernel", "WindowTransfer"]

    MOD_CF3 = {"system": {"kind": "moebius-cf", "alphabet": 3},
               "potential": {"kind": "mod-cycle",
                             "tables": [[-1.0, 1.0], [0.0, 1.0, -1.0]]},
               "numerics": {"word_length": 10, "window": 6, "tolerance": 0.05}}

    def test_rows_independent_of_point_order(self, tmp_path):
        """A repeated t-point writes the same row, and reversed t-points
        write the same rows in reverse order."""
        t1, t2 = [0.7, -0.4], [0.1, 0.3]
        bodies = []
        for name, pts in (("fwd", [t1, t2, t1]), ("rev", [t1, t2, t1][::-1])):
            cfg = write_config(tmp_path, dict(self.MOD_CF3, beta={"t_points": pts}),
                               f"{name}.json")
            assert main(["beta", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            bodies.append(read_body(tmp_path / name / "beta.csv").splitlines())
        fwd, rev = bodies
        assert fwd[1] == fwd[3]
        assert rev[1:] == fwd[1:][::-1]

    def test_certifies_on_the_stage_kernel_table(self, tmp_path, monkeypatch):
        """A dp-mode run whose stage window is the certifying one builds
        one stage kernel, with its own transfer, and certifies every
        t-point on that transfer."""
        builds = self._count_builds(monkeypatch)
        doc = dict(self.MOD_CF3, beta={"t_points": [[0.7, -0.4], [0.1, 0.3]]})
        cfg = write_config(tmp_path, doc)
        assert main(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(read_body(tmp_path / "o" / "beta.csv").splitlines()) == 3
        assert builds == ["PressureKernel", "WindowTransfer"]

    def test_one_certifying_table_for_three_t_points(self, tmp_path, monkeypatch):
        """A stage kernel whose window is shorter than the certifying one
        (cf3 at word length 8: stage window 7, certifying window 8) leaves
        the run to build one certifying transfer, at window 8, and certify
        all three t-points on it; the repeated point writes the same row."""
        builds = self._count_builds(monkeypatch)
        t1, t2 = [0.7, -0.4], [0.1, 0.3]
        doc = dict(self.MOD_CF3, numerics={"word_length": 8, "tolerance": 0.05},
                   beta={"t_points": [t1, t2, t1]})
        cfg = write_config(tmp_path, doc)
        assert main(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = read_body(tmp_path / "o" / "beta.csv").splitlines()
        assert len(rows) == 4 and rows[1] == rows[3]
        assert builds == ["PressureKernel", "WindowTransfer", "WindowTransfer"]

    def test_markov_window_one_is_window_two(self, tmp_path):
        """On a Markov incidence window 1 is clamped to 2 for the
        certifying transfer as for the stage kernel: same data row."""
        doc = dict(SIM_CONFIG)
        doc["system"] = dict(SIM_CONFIG["system"], incidence=[[1, 1], [1, 0]])
        doc["beta"] = {"t_points": [[0.5]]}
        rows = []
        for window in (1, 2):
            doc["numerics"] = dict(SIM_CONFIG["numerics"], window=window)
            cfg = write_config(tmp_path, doc, f"w{window}.json")
            out = tmp_path / f"o{window}"
            assert main(["beta", "--config", cfg, "--out", str(out)]) == 0
            rows.append(read_body(out / "beta.csv").splitlines()[1])
        assert rows[0] == rows[1]

    def test_one_moment_pass_per_t_point(self, tmp_path, monkeypatch):
        """The Gibbs means of solve_beta and the gradient of grad_beta are
        one memoized moment pass of the point's solver."""
        from cgdms.kernel import PressureKernel
        calls = []
        moments = PressureKernel.moments

        def counting_moments(self, *args, **kwargs):
            calls.append(1)
            return moments(self, *args, **kwargs)

        monkeypatch.setattr(PressureKernel, "moments", counting_moments)
        doc = {"system": {"kind": "moebius-cf", "alphabet": 24},
               "potential": {"kind": "mod-cycle",
                             "tables": [[-1.0, 1.0], [0.0, 1.0, -1.0]]},
               "numerics": {"word_length": 10, "truncation": 24, "window": 3,
                            "tolerance": 0.2},
               "beta": {"t_points": [[0.1, -0.2], [-0.25, 0.05]]}}
        cfg = write_config(tmp_path, doc)
        assert main(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(read_body(tmp_path / "o" / "beta.csv").splitlines()) == 3
        assert len(calls) == 2


class TestSpectrumCommand:
    def test_surface_and_points(self, tmp_path):
        doc = dict(SIM_CONFIG)
        doc["spectrum"] = {
            "alpha_grid": [[0.5], [1.0]],
            "t_grid": {"min": [-2.0], "max": [2.0], "points": 5},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        spec_rows = read_body(tmp_path / "o" / "spectrum.csv").splitlines()
        surf_rows = read_body(tmp_path / "o" / "surface.csv").splitlines()
        assert len(spec_rows) == 3
        assert len(surf_rows) == 6
        assert all("interior" in r for r in spec_rows[1:])

    def test_empty_alpha_grid_surface_only(self, tmp_path):
        doc = dict(SIM_CONFIG)
        doc["spectrum"] = {"alpha_grid": [],
                           "t_grid": {"min": [-1.0], "max": [1.0], "points": 3}}
        cfg = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(read_body(tmp_path / "o" / "spectrum.csv").splitlines()) == 1
        assert len(read_body(tmp_path / "o" / "surface.csv").splitlines()) == 4


class TestSetsCommand:
    def test_artifacts_written(self, tmp_path):
        doc = dict(SIM_CONFIG)
        doc["sets"] = {"t_grid": {"min": [-2.0], "max": [2.0], "points": 5}}
        cfg = write_config(tmp_path, doc)
        assert main(["sets", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        for name in ("m_points.csv", "k_points.csv", "l_points.csv",
                     "inclusion.json"):
            assert (tmp_path / "o" / name).exists()
        rep = json.loads((tmp_path / "o" / "inclusion.json").read_text())
        assert rep["inclusion"]["K_inside"]


    def test_non_finite_values_are_strict_json(self, tmp_path):
        """J = (0.1, 0.2) is positive on both maps, so the minimizer search
        for alpha = 0 leaves the domain and beta_min is NaN: it is written
        as the string "nan", and the document parses as strict JSON, which
        has no NaN or Infinity."""
        doc = {"system": {"kind": "similarity", "ratios": [0.5, 0.3]},
               "potential": {"kind": "table", "values": {"1": [0.1], "2": [0.2]}},
               "numerics": {"word_length": 12, "tolerance": 1e-6},
               "sets": {"t_grid": {"min": [-1.0], "max": [1.0], "points": 3}}}
        cfg = write_config(tmp_path, doc)
        assert main(["sets", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rep = json.loads((tmp_path / "o" / "inclusion.json").read_text(),
                         parse_constant=refuse)
        assert rep["beta_min"] == "nan" and rep["minimizer"] is None


class TestCounterexampleCommand:
    def test_table_and_verdict(self, tmp_path):
        doc = {
            "system": {"kind": "moebius-cf"},
            "numerics": {"word_length": 4, "truncation": 8},
            "counterexample": {"M_param": 100.0, "n_list": [1000, 10000]},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["counterexample", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "counterexample.json").read_text())
        assert rep["verdict"] == "strict-gap"
        rows = read_body(tmp_path / "o" / "counterexample.csv").splitlines()[1:]
        assert all(float(r.split(",")[3]) >= 150.0 for r in rows)


class TestReproducibility:
    def test_metadata_header_present(self, tmp_path):
        doc = dict(SIM_CONFIG)
        doc["pressure"] = {"beta_grid": [0.5]}
        cfg = write_config(tmp_path, doc)
        main(["pressure", "--config", cfg, "--out", str(tmp_path / "o")])
        head = (tmp_path / "o" / "pressure.csv").read_text().splitlines()[:7]
        keys = {l.split(":")[0].strip("# ") for l in head if l.startswith("#")}
        assert {"command", "tool_version", "config_hash", "seed",
                "word_length", "truncation", "workers"} <= keys

    def test_bodies_identical_across_worker_counts(self, tmp_path):
        cfg = write_config(tmp_path, CF2_CONFIG)
        bodies = []
        for w in (1, 4, 8):
            out = tmp_path / f"o{w}"
            assert main(["pressure", "--config", cfg, "--out", str(out),
                         "--workers", str(w)]) == 0
            bodies.append(read_body(out / "pressure.csv"))
        assert bodies[0] == bodies[1] == bodies[2]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, CF2_CONFIG)
        main(["pressure", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["pressure", "--config", cfg, "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "pressure.csv").read_bytes()
                == (tmp_path / "b" / "pressure.csv").read_bytes())

    def test_seventeen_digit_format(self):
        assert format_float(math.pi) == "3.1415926535897931"
        assert format_float(float("inf")) == "inf"
        assert "." in format_float(1.0) or "1" == format_float(1.0)


class TestConfigValidation:
    """Faults caught by validation: exit 1, the dotted field path named,
    and nothing computed (the output directory is never created)."""

    CF_SETS = {
        "system": {"kind": "moebius-cf"},
        "potential": {"kind": "mod-cycle",
                      "tables": [[-1.0, 1.0], [0.0, 1.0, -1.0]]},
        "numerics": {"word_length": 10, "truncation": 24, "tolerance": 1e-5},
        "sets": {"t_grid": {"min": [-1.0, -1.0], "max": [1.0, 1.0],
                            "points": 3}},
    }

    def _rejected(self, tmp_path, capsys, command, doc, field):
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"'{field}'" in err
        assert not (tmp_path / "o").exists()
        return err

    def _sets(self, **params):
        doc = dict(self.CF_SETS)
        doc["sets"] = dict(doc["sets"], **params)
        return doc

    def test_bernoulli_without_probs_or_rule(self, tmp_path, capsys):
        self._rejected(tmp_path, capsys, "sets",
                       self._sets(bernoulli=[{"foo": 1}]),
                       "sets.bernoulli[0].probs")

    def test_bernoulli_unknown_rule(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, "sets",
                             self._sets(bernoulli=[{"rule": "cauchy"}]),
                             "sets.bernoulli[0].rule")
        assert "cauchy" in err

    def test_bernoulli_probs_not_summing_to_one(self, tmp_path, capsys):
        doc = self._sets(bernoulli=[{"rule": "inverse-square"},
                                    {"probs": {"1": 0.5, "2": 0.4}}])
        err = self._rejected(tmp_path, capsys, "sets", doc,
                             "sets.bernoulli[1].probs")
        assert "not 1" in err

    def test_bernoulli_rule_on_finite_alphabet(self, tmp_path, capsys):
        doc = self._sets(bernoulli=[{"rule": "inverse-square"}])
        doc["system"] = {"kind": "moebius-cf", "alphabet": 2}
        err = self._rejected(tmp_path, capsys, "sets", doc,
                             "sets.bernoulli[0].rule")
        assert "infinite-alphabet" in err

    def test_bernoulli_edge_outside_alphabet(self, tmp_path, capsys):
        doc = self._sets(bernoulli=[{"probs": {"5": 1.0}}])
        doc["system"] = {"kind": "moebius-cf", "alphabet": 2}
        err = self._rejected(tmp_path, capsys, "sets", doc,
                             "sets.bernoulli[0].probs")
        assert "edge 5 out of range" in err

    def test_inadmissible_cycle(self, tmp_path, capsys):
        doc = {
            "system": {"kind": "similarity", "ratios": [0.5, 0.5],
                       "offsets": [0.0, 0.5], "incidence": [[1, 1], [1, 0]]},
            "numerics": {"word_length": 8},
            "sets": {"cycles": [[1], [1, 2, 2]]},
        }
        err = self._rejected(tmp_path, capsys, "sets", doc, "sets.cycles[1]")
        assert "2 -> 2 inadmissible" in err

    # a table potential declared on edges 1..3 only
    TABLE3 = {"kind": "table", "values": {"1": [0.0], "2": [1.0], "3": [0.5]}}

    def test_table_missing_an_edge_of_the_truncation(self, tmp_path, capsys):
        doc = {"system": {"kind": "moebius-cf", "alphabet": 4},
               "potential": {"kind": "table",
                             "values": {"1": [0.0], "2": [1.0]}},
               "numerics": {"word_length": 6},
               "pressure": {"beta_grid": [1.0]}}
        err = self._rejected(tmp_path, capsys, "pressure", doc,
                             "potential.values")
        assert "edge 3" in err

    @pytest.mark.parametrize("measure,field,edge", [
        ({"rule": "inverse-square"}, "sets.bernoulli[0].rule", "edge 4"),
        ({"probs": {"1": 0.5, "7": 0.5}}, "sets.bernoulli[0].probs", "edge 7"),
    ])
    def test_table_missing_an_edge_of_a_measure(self, tmp_path, capsys,
                                                measure, field, edge):
        doc = self._sets(bernoulli=[measure], t_grid={
            "min": [-1.0], "max": [1.0], "points": 3})
        doc["potential"] = self.TABLE3
        doc["numerics"] = dict(doc["numerics"], truncation=3)
        err = self._rejected(tmp_path, capsys, "sets", doc, field)
        assert edge in err

    def test_table_missing_an_edge_of_a_cycle(self, tmp_path, capsys):
        doc = self._sets(cycles=[[1, 9]], t_grid={
            "min": [-1.0], "max": [1.0], "points": 3})
        doc["potential"] = self.TABLE3
        doc["numerics"] = dict(doc["numerics"], truncation=3)
        err = self._rejected(tmp_path, capsys, "sets", doc, "sets.cycles[0]")
        assert "edge 9" in err

    @pytest.mark.parametrize("command,numerics", [
        ("dimension", {"window": 30_000_000}),
        ("pressure", {"word_length": 10 ** 9, "window": 10 ** 9}),
    ], ids=["dimension-window", "pressure-length-and-window"])
    def test_huge_window_refused_at_once(self, tmp_path, command, numerics):
        """A window far past the table cap on cf3 exits 1 within seconds,
        naming its field: the cap is checked by the deepest window that it
        admits, and 3**q is never computed."""
        doc = {"system": {"kind": "moebius-cf", "alphabet": 3}, "numerics": numerics}
        run = _run_cli(tmp_path, command, doc)
        assert run.returncode == 1
        assert "'numerics.window'" in run.stderr and "Traceback" not in run.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,numerics,field", [
        ("dimension", {"window": 100_000_000}, "numerics.window"),
        ("pressure", {"word_length": 10 ** 6}, "numerics.word_length"),
    ], ids=["dimension-window", "pressure-length"])
    def test_truncation_one_refused_at_once(self, tmp_path, command, numerics,
                                           field):
        """At truncation 1 a table has one entry but takes a level per
        window symbol to build, so the caps are those of truncation 2: a
        window of 10**8 passes the table cap, and words of length 10**6 at
        the automatic window 19 pass the stage-step cap.  Each exits 1
        within seconds, naming its field, with no numpy warning."""
        doc = {"system": {"kind": "moebius-cf", "alphabet": 1}, "numerics": numerics}
        run = _run_cli(tmp_path, command, doc)
        assert run.returncode == 1
        assert f"'{field}'" in run.stderr
        assert "Traceback" not in run.stderr and "Warning" not in run.stderr
        assert not (tmp_path / "o").exists()

    def test_truncation_one_long_words_certify_at_window_19(self, tmp_path):
        """``dimension`` at truncation 1 with words of length 10**6 runs at
        window 19, the deepest automatic window of truncation 2, within
        seconds and with no numpy warning."""
        from cgdms.system import truncated_cf_system
        from cgdms.thermo import bowen_dimension

        doc = {"system": {"kind": "moebius-cf", "alphabet": 1},
               "numerics": {"word_length": 10 ** 6}}
        run = _run_cli(tmp_path, "dimension", doc)
        assert run.returncode == 0, run.stderr
        assert "Warning" not in run.stderr
        assert bowen_dimension(truncated_cf_system(1), 10 ** 6, tol=1e-6).window == 19

    def test_word_length_past_the_stage_step_cap(self, tmp_path, capsys):
        """A length whose stage recursion would run for about an hour is
        refused before any work."""
        from cgdms.kernel import STAGE_STEP_CAP

        doc = dict(CF2_CONFIG, numerics=dict(CF2_CONFIG["numerics"],
                                             word_length=10 ** 6))
        err = self._rejected(tmp_path, capsys, "pressure", doc,
                             "numerics.word_length")
        assert str(STAGE_STEP_CAP) in err

    def test_word_length_past_the_step_floor(self, tmp_path, capsys):
        """Each stage step counts at least STEP_FLOOR state-steps: on the
        golden-mean similarity system, whose window 2 has two states, a
        million steps would run for minutes and are refused before any
        work, while the longest admitted length fits the cap exactly."""
        from cgdms.config import validate_config
        from cgdms.errors import ConfigError
        from cgdms.kernel import STAGE_STEP_CAP, STEP_FLOOR

        doc = {
            "system": {"kind": "similarity", "ratios": [0.5, 0.5],
                       "offsets": [0.0, 0.5], "incidence": [[1, 1], [1, 0]]},
            "numerics": {"word_length": 10 ** 6},
            "pressure": {"beta_grid": [0.5, 1.0]},
        }
        err = self._rejected(tmp_path, capsys, "pressure", doc,
                             "numerics.word_length")
        assert str(STAGE_STEP_CAP) in err
        # (longest - 1) steps of STEP_FLOOR state-steps each make the cap
        longest = STAGE_STEP_CAP // STEP_FLOOR + 1
        doc["numerics"] = {"word_length": longest}
        assert validate_config(doc, "pressure").word_length == longest
        doc["numerics"] = {"word_length": longest + 1}
        with pytest.raises(ConfigError, match=f"'numerics.word_length'.*{STAGE_STEP_CAP}"):
            validate_config(doc, "pressure")

    @pytest.mark.parametrize("window,field", [
        (None, "numerics.word_length"), (1, "numerics.window")])
    def test_no_window_shorter_than_the_word(self, tmp_path, capsys, window, field):
        """A Markov incidence clamps every window to 2, past word length 1:
        refused before any work, whether or not a window is given."""
        doc = {"system": {"kind": "similarity", "ratios": [0.5, 0.5],
                          "offsets": [0.0, 0.5], "incidence": [[1, 1], [1, 0]]},
               "numerics": {"word_length": 1, "window": window},
               "pressure": {"beta_grid": [0.5]}}
        err = self._rejected(tmp_path, capsys, "pressure", doc, field)
        assert "shorter than its clamped window 2" in err

    def test_word_length_one_at_a_large_truncation(self, tmp_path):
        """Words of one symbol over 200000 take window 1, the clamp of the
        full shift, in one transfer step."""
        doc = dict(CF2_CONFIG, system={"kind": "moebius-cf"},
                   numerics={"word_length": 1, "truncation": 200000},
                   pressure={"beta_grid": [1.0]})
        cfg = write_config(tmp_path, doc)
        assert main(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        row = read_body(tmp_path / "o" / "pressure.csv").splitlines()[1].split(",")
        lower, upper, n, N = float(row[2]), float(row[3]), row[4], row[5]
        assert (n, N) == ("1", "200000") and lower < upper

    @pytest.mark.parametrize("command,t_grid,field", [
        ("spectrum", {"min": [-1.0, -1.0], "max": [1.0, 1.0], "points": 200000},
         "spectrum.t_grid.points"),
        ("sets", {"min": [-1.0, -1.0], "max": [1.0, 1.0], "points": 100},
         "sets.t_grid.points"),
        ("spectrum", None, "spectrum.t_grid"),
    ], ids=["2-d-200000", "sets-2-d-100", "default-6-d"])
    def test_t_grid_over_the_cap(self, tmp_path, capsys, command, t_grid, field):
        """An expanded t_grid costs a stage root per point: one of more than
        T_GRID_CAP points is refused before it is built, and so is the
        default grid of 9 points per axis at potential dim 6."""
        from cgdms.config import T_GRID_CAP

        doc = json.loads(json.dumps(self.CF_SETS))
        if t_grid is None:
            doc["potential"] = {"kind": "mod-cycle", "tables": [[1.0, 0.0]] * 6}
        doc[command] = {} if t_grid is None else {"t_grid": t_grid}
        err = self._rejected(tmp_path, capsys, command, doc, field)
        assert str(T_GRID_CAP) in err

    def test_t_grid_cap_boundary(self):
        """The largest square grid within T_GRID_CAP points passes
        validation, one more point per axis does not."""
        from cgdms.config import T_GRID_CAP, validate_config
        from cgdms.errors import ConfigError

        side = math.isqrt(T_GRID_CAP)
        doc = json.loads(json.dumps(self.CF_SETS))
        doc["spectrum"] = {"t_grid": dict(doc["sets"]["t_grid"], points=side)}
        validate_config(doc, "spectrum")
        doc["spectrum"]["t_grid"]["points"] = side + 1
        with pytest.raises(ConfigError, match="spectrum.t_grid.points"):
            validate_config(doc, "spectrum")

    @pytest.mark.parametrize("command", ["spectrum", "sets"])
    def test_listed_t_grid_cap(self, command):
        """A t_grid written as a list is held to T_GRID_CAP points too."""
        from cgdms.config import T_GRID_CAP, validate_config
        from cgdms.errors import ConfigError

        doc = json.loads(json.dumps(self.CF_SETS))
        points = [[0.001 * i, -0.001 * i] for i in range(T_GRID_CAP + 1)]
        doc[command] = {"t_grid": points[:T_GRID_CAP]}
        assert len(validate_config(doc, command).command_params["t_grid"]) == T_GRID_CAP
        doc[command] = {"t_grid": points}
        with pytest.raises(ConfigError, match=f"'{command}.t_grid'.*{T_GRID_CAP}"):
            validate_config(doc, command)

    def test_nilpotent_incidence(self, tmp_path, capsys):
        doc = {
            "system": {"kind": "similarity", "ratios": [0.5, 0.3],
                       "offsets": [0.0, 0.6], "incidence": [[0, 1], [0, 0]]},
            "numerics": {"word_length": 8},
        }
        err = self._rejected(tmp_path, capsys, "dimension", doc, "system")
        assert "nilpotent" in err

    @pytest.mark.parametrize("command", ["dimension", "beta", "pressure"])
    def test_dead_truncation(self, tmp_path, capsys, command):
        """Two maps that must alternate, truncated to the first: the
        incidence block [[0]] admits no infinite word, so the truncated
        system is empty and every command that builds a transfer refuses
        it, where ``dimension`` reported [0, 0] as regular."""
        doc = {"system": {"kind": "similarity", "ratios": [0.5, 0.4],
                          "incidence": [[0, 1], [1, 0]]},
               "numerics": {"word_length": 6, "truncation": 1}}
        err = self._rejected(tmp_path, capsys, command, doc, "numerics.truncation")
        assert "no infinite word" in err
        doc["numerics"]["truncation"] = 2
        assert main([command, "--config", write_config(tmp_path, doc, "two.json"),
                     "--out", str(tmp_path / "ok")]) == 0

    @pytest.mark.parametrize("command,field", [
        ("pressure", "beta_grids"), ("pressure", "alpha_grid"),
        ("beta", "alpha_grid"), ("beta", "t_grid"), ("spectrum", "t_points"),
        ("sets", "t_points"), ("sets", "alpha_grid"),
        ("counterexample", "t_points"), ("dimension", "t_points"),
    ])
    def test_unknown_command_field(self, tmp_path, capsys, command, field):
        """A command object holds only the fields its command reads; a
        misspelt ``beta_grids`` no longer runs beta = 0 alone."""
        doc = json.loads(json.dumps(self.CF_SETS))
        doc[command] = dict(doc["sets"] if command == "sets" else {},
                            **{field: [[0.0, 0.0]]})
        self._rejected(tmp_path, capsys, command, doc, f"{command}.{field}")

    @pytest.mark.parametrize("command", ["pressure", "beta"])
    def test_empty_t_points(self, tmp_path, capsys, command):
        """An empty ``t_points`` is refused, as an empty ``beta_grid`` is,
        rather than read as the origin."""
        doc = dict(CF2_CONFIG, **{command: {"t_points": []}})
        err = self._rejected(tmp_path, capsys, command, doc, f"{command}.t_points")
        assert "nonempty" in err

    def test_dimension_window_over_the_cap(self, tmp_path, capsys):
        """``dimension`` reads ``numerics.window``: a window whose table
        passes the cap is refused naming it, as for ``beta``."""
        doc = dict(CF2_CONFIG, numerics=dict(CF2_CONFIG["numerics"], window=22))
        err = self._rejected(tmp_path, capsys, "dimension", doc, "numerics.window")
        assert "2**22" in err

    @pytest.mark.parametrize("ratios,incidence,why", [
        ([0.3, 0.3, 0.3], [[1, 1], [1, 0]], "3 edges"),
        ([0.5, 0.3], [[1, 1, 1], [1, 1, 1], [1, 1, 1]], "2 edges"),
        ([0.5, 0.3], [[1, 2], [1, 0]], "0 or 1"),
    ])
    def test_malformed_incidence(self, tmp_path, capsys, ratios, incidence, why):
        with pytest.raises(ValueError, match=why):
            similarity_system(ratios, incidence=incidence)
        doc = {"system": {"kind": "similarity", "ratios": ratios,
                          "incidence": incidence},
               "numerics": {"word_length": 8}}
        err = self._rejected(tmp_path, capsys, "dimension", doc, "system")
        assert why in err

    @pytest.mark.parametrize("section,key,field", [
        ("numerics", "word_length", "numerics.word_length"),
        ("numerics", "truncation", "numerics.truncation"),
        ("numerics", "window", "numerics.window"),
        ("numerics", "workers", "numerics.workers"),
        ("numerics", "seed", "numerics.seed"),
        ("t_grid", "points", "sets.t_grid.points"),
        ("system", "alphabet", "system.alphabet"),
        ("system", "edges", "system.edges"),
    ])
    def test_json_true_is_not_an_integer(self, tmp_path, capsys,
                                         section, key, field):
        doc = json.loads(json.dumps(self.CF_SETS))
        if section == "t_grid":
            doc["sets"]["t_grid"][key] = True
        elif key == "edges":
            doc["system"] = {"kind": "custom-1d", "map_expr": "1/(x+k)",
                             "abs_deriv_expr": "1/(x+k)^2",
                             "contraction_bound": 0.5,
                             "contraction_prefactor": 2.0, "edges": True}
        else:
            doc[section][key] = True
        self._rejected(tmp_path, capsys, "sets", doc, field)

    CUSTOM = {"kind": "custom-1d", "map_expr": "x/3 + 2*(k-1)/3",
              "abs_deriv_expr": "1/3 + 0*x", "contraction_bound": 0.34,
              "edges": 2}

    @pytest.mark.parametrize("command,section,value,field", [
        ("pressure", "potential", {"kind": "zero", "dim": 0}, "potential.dim"),
        ("pressure", "potential", {"kind": "mod-cycle", "tables": [["a", 1.0]]},
         "potential.tables"),
        ("dimension", "system", {"kind": "similarity", "ratios": [0.5, 0.5],
                                 "flips": ["x", 1]}, "system.flips"),
        ("dimension", "system", dict(CUSTOM, domain=[]), "system.domain"),
        ("dimension", "system", dict(CUSTOM, edges=0), "system.edges"),
        ("spectrum", "spectrum", {"t_grid": [["a"]]}, "spectrum.t_grid[0]"),
        ("spectrum", "spectrum", {"t_grid": [[0.1, 0.2]]}, "spectrum.t_grid[0]"),
        ("sets", "sets", {"t_grid": {"min": ["a"], "max": [1.0]}},
         "sets.t_grid.min"),
        ("pressure", "potential", {"kind": "mod-cycle", "tables": [[1, 0], [0, 1]],
                                   "dim": 3}, "potential.dim"),
        ("dimension", "system", dict(CUSTOM, contraction_bound=1.5),
         "system.contraction_bound"),
        ("dimension", "system", dict(CUSTOM, distortion_constant=0.5),
         "system.distortion_constant"),
    ], ids=["dim-zero", "tables-word", "flips-word", "custom-domain-empty",
            "custom-edges-zero", "t-grid-word", "t-grid-length", "t-grid-min-word",
            "mod-cycle-dim", "custom-contraction", "custom-distortion"])
    def test_malformed_field(self, tmp_path, capsys, command, section, value, field):
        doc = json.loads(json.dumps(SIM_CONFIG))
        doc[section] = value
        self._rejected(tmp_path, capsys, command, doc, field)

    def test_parser_warning_silenced(self, tmp_path):
        """'1or x' is refused naming its field, and the command line prints
        no SyntaxWarning of Python's parser before that message."""
        doc = dict(SIM_CONFIG, system=dict(self.CUSTOM, map_expr="1or x"))
        cfg = write_config(tmp_path, doc)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-c",
             "import sys; from cgdms.cli import main; sys.exit(main(sys.argv[1:]))",
             "dimension", "--config", cfg, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert run.returncode == 1
        assert "'system.map_expr'" in run.stderr
        assert "SyntaxWarning" not in run.stderr, run.stderr

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("command,section,value,field", [
        ("pressure", "pressure", {"beta_grid": [NAN, 0.5]}, "pressure.beta_grid[0]"),
        ("pressure", "potential", {"kind": "table", "values": {"1": [NAN], "2": [1]}},
         "potential.values"),
        ("counterexample", "counterexample", {"M_param": NAN},
         "counterexample.M_param"),
        ("spectrum", "spectrum", {"alpha_grid": [[NAN]]}, "spectrum.alpha_grid[0]"),
        ("sets", "sets", {"bernoulli": [{"probs": {"1": NAN, "2": 0.5}}]},
         "sets.bernoulli[0].probs"),
        ("dimension", "system", {"kind": "similarity", "ratios": [0.5, 0.5],
                                 "domain": [0, INF]}, "system.domain"),
        ("dimension", "system", {"kind": "similarity", "ratios": [0.5, 0.5],
                                 "offsets": [0, NAN]}, "system.offsets"),
        ("beta", "beta", {"t_points": [[NAN]]}, "beta.t_points[0]"),
        ("dimension", "system", dict(CUSTOM, contraction_bound=-INF),
         "system.contraction_bound"),
    ], ids=["beta-grid", "table-values", "M-param", "alpha-grid", "bernoulli-probs",
            "domain", "offsets", "t-points", "custom-number"])
    def test_non_finite_number(self, tmp_path, capsys, command, section, value, field):
        """JSON NaN and Infinity, which Python's json parses, are refused
        like any other malformed number."""
        doc = json.loads(json.dumps(SIM_CONFIG))
        doc[section] = value
        self._rejected(tmp_path, capsys, command, doc, field)

    @pytest.mark.parametrize("command", ["pressure", "dimension"])
    def test_truncation_over_the_table_cap(self, tmp_path, capsys, command):
        """Even window 1 of a cf truncation of three million symbols passes
        the table cap: refused before the potential's table is built."""
        doc = dict(CF2_CONFIG, system={"kind": "moebius-cf"},
                   numerics=dict(CF2_CONFIG["numerics"], truncation=3_000_000))
        err = self._rejected(tmp_path, capsys, command, doc, "numerics.truncation")
        assert "3000000**1" in err

    def test_window_table_over_the_cap(self, tmp_path, capsys):
        """cf24 at window 5 needs a 24**5 table for the certifying
        transfer of ``beta``: rejected before any table is built."""
        doc = {"system": {"kind": "moebius-cf", "alphabet": 24},
               "potential": self.CF_SETS["potential"],
               "numerics": {"word_length": 10, "truncation": 24, "window": 5,
                            "tolerance": 0.2},
               "beta": {"t_points": [[0.1, -0.2]]}}
        err = self._rejected(tmp_path, capsys, "beta", doc, "numerics.window")
        assert "24**5" in err

    def test_certifier_alone_over_the_cap(self, tmp_path, capsys):
        """At word length 3 the cf24 stage kernel runs at window 2 (24**2
        entries), so only the certifying transfer at window 5 passes the
        cap."""
        doc = {"system": {"kind": "moebius-cf", "alphabet": 24},
               "potential": self.CF_SETS["potential"],
               "numerics": {"word_length": 3, "truncation": 24, "window": 5,
                            "tolerance": 0.2},
               "beta": {"t_points": [[0.1, -0.2]]}}
        err = self._rejected(tmp_path, capsys, "beta", doc, "numerics.window")
        assert "24**5" in err
