import json
import math

import pytest

from cgdms.cli import main
from cgdms.system import similarity_system
from cgdms.util import format_float

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

    def test_one_stage_kernel_per_t_point(self, tmp_path, monkeypatch):
        """solve_beta and grad_beta share the stage kernel, which enumerates
        here; the only other build is the window transfer that certifies
        the limit enclosure."""
        from cgdms.kernel import PressureKernel, WindowTransfer
        builds = []
        for cls in (PressureKernel, WindowTransfer):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                builds.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        doc = dict(SIM_CONFIG)
        doc["numerics"] = dict(doc["numerics"], word_length=16)
        doc["beta"] = {"t_points": [[0.5]]}
        cfg = write_config(tmp_path, doc)
        assert main(["beta", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(read_body(tmp_path / "o" / "beta.csv").splitlines()) == 2
        assert builds == ["PressureKernel", "WindowTransfer"]

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

    def test_nilpotent_incidence(self, tmp_path, capsys):
        doc = {
            "system": {"kind": "similarity", "ratios": [0.5, 0.3],
                       "offsets": [0.0, 0.6], "incidence": [[0, 1], [0, 0]]},
            "numerics": {"word_length": 8},
        }
        err = self._rejected(tmp_path, capsys, "dimension", doc, "system")
        assert "nilpotent" in err

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
    ], ids=["dim-zero", "tables-word", "flips-word", "custom-domain-empty",
            "custom-edges-zero", "t-grid-word", "t-grid-length", "t-grid-min-word",
            "mod-cycle-dim"])
    def test_malformed_field(self, tmp_path, capsys, command, section, value, field):
        doc = json.loads(json.dumps(SIM_CONFIG))
        doc[section] = value
        self._rejected(tmp_path, capsys, command, doc, field)

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
        """At word length 3 the cf24 stage kernel enumerates (24**3 words),
        so only the certifying transfer at window 5 passes the cap."""
        doc = {"system": {"kind": "moebius-cf", "alphabet": 24},
               "potential": self.CF_SETS["potential"],
               "numerics": {"word_length": 3, "truncation": 24, "window": 5,
                            "tolerance": 0.2},
               "beta": {"t_points": [[0.1, -0.2]]}}
        err = self._rejected(tmp_path, capsys, "beta", doc, "numerics.window")
        assert "24**5" in err
