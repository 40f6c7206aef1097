"""Config parsing, experiment dispatch, artifacts and exit codes."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tvheat import Interval, build_mesh, cli, default_p_sequence, \
    load_field
from tvheat.cli import (_SCHEMA, ConfigError, RunConfig, canonical_json,
                        emit_summary, main, parse_config, run_experiment)
from tvheat.limit import ContinuationReport, MemberRecord

BASE = """
[domain]
kind = interval
length = 1.0
resolution = 50

[reaction]
kind = power
q = 3

[solver]
p = 1.5
t_end = 0.02

[initial]
profile = hat
amplitude = 0.01
"""

def continuation_text(block: str) -> str:
    """BASE in continuation mode: no reaction, no [solver] p, and ``block``
    as the [continuation] section."""
    return BASE.replace("[reaction]\nkind = power\nq = 3\n", "") \
               .replace("p = 1.5\n", "") + "\n[continuation]\n" + block + "\n"


class TestCanonicalJson:
    def test_sorted_keys_and_17g_floats(self):
        s = canonical_json({"b": 1, "a": 1.0 / 3.0})
        assert s == '{"a":0.33333333333333331,"b":1}'

    def test_special_floats(self):
        s = canonical_json([math.inf, -math.inf, math.nan])
        assert s == '["inf","-inf","nan"]'

    def test_nested_determinism(self):
        obj = {"z": [1, 2], "a": {"y": True, "x": None}}
        assert canonical_json(obj) == canonical_json(json.loads(
            canonical_json(obj))) == '{"a":{"x":null,"y":true},"z":[1,2]}'

    def test_numpy_scalars(self):
        assert canonical_json(np.float64(2.0)) == "2"
        assert canonical_json(np.int64(3)) == "3"

    def test_strings_round_trip(self):
        # control characters are escaped (a raw tab or newline is not
        # valid JSON); quotes, backslashes and other text as before
        for text in ("a\tb", "s\n.json", 'q"\\', "\x00\x1f\x7f", "µ∂"):
            out = canonical_json({text: text})
            assert json.loads(out) == {text: text}
        assert canonical_json('a"b\\c µ') == '"a\\"b\\\\c µ"'

    def test_unsupported_type_fails_by_name(self):
        with pytest.raises(ConfigError, match="cannot serialize set"):
            canonical_json({"a": {1, 2}})


class TestParseConfig:
    def test_valid(self):
        cfg = parse_config(BASE)
        assert cfg.solver.p == 1.5
        assert cfg.mesh.n_nodes == 51
        assert cfg.u0.sup() == pytest.approx(0.01)
        assert cfg.plan is None

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE + "\n[extras]\nfoo = 1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wibble"):
            parse_config(BASE + "\nwibble = 3\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(BASE.replace("t_end = 0.02", "t_end = soon"))

    def test_missing_domain(self):
        with pytest.raises(ConfigError, match="domain"):
            parse_config("[solver]\np = 1.5\n")

    def test_missing_p(self):
        text = BASE.replace("p = 1.5\n", "")
        with pytest.raises(ConfigError, match="p"):
            parse_config(text)

    def test_p_must_be_below_theta(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_config(BASE.replace("q = 3", "q = 1.2"))

    def test_radial_needs_p_below_p0(self):
        text = BASE.replace(
            "kind = interval\nlength = 1.0",
            "kind = annulus\na = 1.0\nb = 2.0").replace("p = 1.5",
                                                        "p = 1.9")
        with pytest.raises(ConfigError, match="p0"):
            parse_config(text)

    def test_unknown_domain_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(BASE.replace("kind = interval", "kind = torus"))

    def test_bump_profile(self):
        text = BASE.replace(
            "profile = hat\namplitude = 0.01",
            "profile = bump\namplitude = 0.5\ncenter = 0.25\nwidth = 0.3")
        cfg = parse_config(text)
        x = cfg.mesh.nodes[:, 0]
        assert cfg.u0.values[np.argmin(np.abs(x - 0.25))] == pytest.approx(
            0.5, abs=0.05)
        assert cfg.u0.values[np.abs(x - 0.25) > 0.15].max() == 0.0

    def test_file_profile_roundtrip(self, tmp_path):
        mesh = build_mesh(Interval(1.0), 50)
        vals = np.sin(np.pi * mesh.nodes[:, 0])
        path = tmp_path / "u0.txt"
        mesh.dump(path, vals)
        text = BASE.replace("profile = hat\namplitude = 0.01",
                            f"profile = file\npath = {path}")
        cfg = parse_config(text)
        interior = cfg.mesh.interior_mask
        assert np.allclose(cfg.u0.values[interior], vals[interior])

    def test_file_without_values_fails_by_name(self, tmp_path, capsys):
        # a dump without a value column used to load its boundary flags as
        # u0, and the run ended extinct at t = 0
        mesh = build_mesh(Interval(1.0), 50)
        dump = tmp_path / "mesh.txt"
        mesh.dump(dump)
        text = BASE.replace("profile = hat\namplitude = 0.01",
                            f"profile = file\npath = {dump}")
        with pytest.raises(ConfigError, match=r"\[initial\] path.*columns"):
            parse_config(text)
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["run", str(path), "--output-dir",
                     str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "[initial] path" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_continuation_block(self):
        text = BASE.replace("[reaction]\nkind = power\nq = 3\n", "") \
                   .replace("p = 1.5\n", "") + """
[continuation]
m_start = 1
m_end = 3
checkpoints = 0.01
"""
        cfg = parse_config(text)
        assert cfg.plan.p_sequence == (1.5, 1.25, 1.125)
        assert cfg.plan.checkpoint_times == (0.01,)
        assert cfg.plan.cfg_template is cfg.solver

    def test_empty_continuation_section_selects_continuation(self):
        # an empty section used to mean single mode, which then missed p
        cfg = parse_config(continuation_text(""))
        assert cfg.plan.p_sequence == default_p_sequence()
        assert cfg.solver.p == 1.5


class TestRunExperiment:
    def test_single_run_artifacts(self, tmp_path):
        cfg = parse_config(BASE)
        cfg.out_dir = str(tmp_path)
        code = run_experiment(cfg)
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["format_version"] == 1
        assert summary["mode"] == "single"
        assert (summary["status"], summary["stop_reason"]) == \
            ("completed", "t_end")
        assert summary["audits"]["well_invariance"]["all_inside"] is True
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "# format_version=1"
        assert len(lines) > 3

    def test_switched_off_audits_are_skipped(self, tmp_path):
        text = BASE + "\n[audits]\nwell = false\nl2 = false\n" \
            "gradient_bound = false\nconditions = false\n"
        cfg = parse_config(text)
        cfg.out_dir = str(tmp_path)
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["audits"] == {"well_invariance": "skipped",
                                     "l2": "skipped",
                                     "gradient_bound": "skipped",
                                     "f_conditions": "skipped"}

    def test_blowup_exit_code(self, tmp_path):
        text = BASE.replace("amplitude = 0.01", "amplitude = 30.0") \
                   .replace("t_end = 0.02", "t_end = 2.0\nu_max = 1e4")
        cfg = parse_config(text)
        cfg.out_dir = str(tmp_path)
        assert run_experiment(cfg) == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["status"], summary["stop_reason"]) == \
            ("blowup", "u_max")
        assert summary["t_max"] != "inf"

    def test_u0_past_u_max_ends_at_t0(self, tmp_path):
        # u0 is judged as an accepted step is: with no reaction, sup u0 =
        # 2e6 past the default U_max = 1e6 ends blowup at t = 0
        text = BASE.replace("[reaction]\nkind = power\nq = 3\n", "") \
                   .replace("amplitude = 0.01", "amplitude = 2e6")
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["status"], summary["stop_reason"],
                summary["t_final"]) == ("blowup", "u_max", 0.0)

    def test_summary_is_byte_stable(self, tmp_path):
        cfg = parse_config(BASE)
        cfg.out_dir = str(tmp_path)
        run_experiment(cfg)
        first = (tmp_path / "summary.json").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "summary.json").read_bytes() == first

    def test_summary_echoes_tab_and_continuation_line(self, tmp_path):
        # a value with a tab, and one continued on a second line (which
        # configparser joins with a newline), are echoed as valid JSON
        text = BASE + "\n[output]\ndirectory = out\tdir\n" \
            "summary_json = s\n  .json\n"
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "s\n.json").read_text())
        assert summary["config"]["output"] == {"directory": "out\tdir",
                                               "summary_json": "s\n.json"}

    def test_last_state_dumped_under_its_step_count(self, tmp_path):
        # the extinct state ends 302 accepted steps, one CSV row each after
        # the initial state's
        text = BASE.replace("[reaction]\nkind = power\nq = 3\n", "") \
                   .replace("p = 1.5", "p = 1.05") \
            + "\n[output]\nstate_dumps = checkpoints\n"
        cfg = parse_config(text)
        cfg.out_dir = str(tmp_path)
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "extinct"
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[2:]
        assert len(rows) - 1 == 302
        dumps = sorted(p.name for p in tmp_path.glob("state_*.txt"))
        assert dumps == ["state_00302.txt"]
        last = load_field(tmp_path / dumps[0], cfg.mesh)
        assert last.sup() == summary["final"]["sup"]

    @pytest.mark.parametrize("where", ["out_dir", "summary_json",
                                       "trajectory_csv"])
    def test_io_failure_exit_code(self, tmp_path, capsys, where):
        # an output directory below a regular file, or a summary or CSV
        # path that names a directory: exit 4, one I/O error line on
        # stderr, no traceback
        (tmp_path / "file").write_text("")
        (tmp_path / "out" / "taken").mkdir(parents=True)
        out = tmp_path / ("file/out" if where == "out_dir" else "out")
        output = {"out_dir": "", "summary_json": "summary_json = taken\n",
                  "trajectory_csv": "trajectory_csv = taken\n"}[where]
        path = tmp_path / "run.ini"
        path.write_text(BASE + "\n[output]\n" + output)
        assert main(["run", str(path), "--output-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_continuation_run(self, tmp_path):
        text = BASE.replace("[reaction]\nkind = power\nq = 3\n", "") \
                   .replace("p = 1.5\n", "") + """
[continuation]
m_start = 1
m_end = 2
checkpoints = 0.01
"""
        cfg = parse_config(text)
        cfg.out_dir = str(tmp_path)
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "continuation"
        assert len(summary["continuation"]["records"]) == 2


class TestMain:
    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/run.ini"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_config_not_utf8_fails_by_name(self, tmp_path, capsys):
        # one Latin-1 byte in a comment: exit 1, one stderr line, no
        # traceback
        path = tmp_path / "run.ini"
        path.write_bytes(BASE.encode() + b"# caf\xe9\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot read config:")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_utf8_config_runs_in_the_c_locale(self, tmp_path):
        # the config is read, and the summary that echoes it written, as
        # UTF-8 whatever the locale's encoding
        path = tmp_path / "run.ini"
        path.write_bytes((BASE + "\n[output]\ndirectory = résumé\n")
                         .encode("utf-8"))
        out = tmp_path / "out"
        src = pathlib.Path(cli.__file__).parents[1]
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from tvheat.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "run", str(path),
             "--output-dir", str(out)], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode()
        summary = json.loads((out / "summary.json").read_bytes())
        assert summary["config"]["output"] == {"directory": "résumé"}

    @pytest.mark.parametrize("key", ["directory", "summary_json",
                                     "trajectory_csv"])
    def test_unencodable_output_path_is_io_error(self, tmp_path, key):
        # under the C locale a non-ASCII output path cannot be encoded:
        # each of the three [output] path keys ends in exit 4, by name
        name = {"directory": "résumé", "summary_json": "résumé.json",
                "trajectory_csv": "résumé.csv"}[key]
        path = tmp_path / "run.ini"
        path.write_bytes((BASE + f"\n[output]\n{key} = {name}\n")
                         .encode("utf-8"))
        args = ["run", str(path)]
        if key != "directory":
            args += ["--output-dir", str(tmp_path / "out")]
        src = pathlib.Path(cli.__file__).parents[1]
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from tvheat.cli import main; "
             "sys.exit(main(sys.argv[1:]))"] + args,
            env=env, capture_output=True, cwd=tmp_path)
        err = done.stderr.decode()
        assert done.returncode == 4, err
        assert err.startswith("I/O error:") and "Traceback" not in err

    @staticmethod
    def scipy_modules(code: str) -> list:
        """The scipy modules loaded, in a fresh process, once ``code`` has
        run after ``import tvheat.cli``, and the ones the import alone
        loaded: [after, at_import]."""
        src = pathlib.Path(cli.__file__).parents[1]
        script = ("import json, sys, tvheat.cli\n"
                  "def scipy(): return sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy')\n"
                  "at_import = scipy()\n" + code +
                  "\nprint(json.dumps([scipy(), at_import]))")
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    # scipy's shared array-API layer (scipy._lib._util) comes with any of
    # these packages and costs a process about 20 MB of resident memory
    HEAVY = ("scipy.linalg", "scipy.sparse", "scipy.special",
             "scipy.optimize", "scipy._lib._util")

    def test_import_loads_neither_optimize_nor_special(self):
        # the CLI loads LAPACK's extension, by its file, and no scipy
        # package beside it: the Nehari scale needs no scipy.optimize,
        # ExpPower.F sums its own series, and only a mesh that is not a
        # chain loads scipy's sparse kernels, also by their file
        loaded, _ = self.scipy_modules("")
        assert "scipy.linalg._flapack" in loaded
        for name in self.HEAVY:
            assert name not in loaded

    def test_1d_runs_load_no_scipy_package(self):
        # a criterion 1 run and a two-member continuation, with its flux
        # audits, load no scipy module that the import did not, nor
        # numpy.ma
        loaded, at_import = self.scipy_modules(
            "import numpy as np\n"
            "from tvheat import ContinuationPlan, Field, Interval, "
            "SolverConfig, Zero, build_mesh, run, run_continuation\n"
            "mesh = build_mesh(Interval(1.0), 40)\n"
            "u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()\n"
            "assert run(mesh, u0, SolverConfig(p=1.01), Zero())"
            ".status.kind == 'extinct'\n"
            "plan = ContinuationPlan(u0, Zero(), SolverConfig(p=1.5, "
            "T_end=0.05), p_sequence=(1.5, 1.25), checkpoint_times=(0.04,))\n"
            "assert len(run_continuation(plan).records) == 2\n"
            "assert 'numpy.ma' not in sys.modules")
        assert loaded == at_import
        for name in self.HEAVY:
            assert name not in loaded

    def test_exp_power_levels_load_no_scipy_special(self):
        # radial_exp's reaction on its annulus: the well level and the
        # condition audit evaluate F past ExpPower.Z0, where its own series
        # replaced scipy.special, and load no scipy module the import did
        # not
        loaded, at_import = self.scipy_modules(
            "import numpy as np\n"
            "from tvheat import Annulus, build_mesh, check_f_conditions, "
            "default_dictionary, estimate_dp\n"
            "from tvheat.model import ExpPower\n"
            "z_max = []\n"
            "F = ExpPower.F\n"
            "def traced(self, u):\n"
            "    z = self.alpha * np.asarray(u, dtype=float) ** 2\n"
            "    z_max.append(float(z.max(initial=0.0)))\n"
            "    return F(self, u)\n"
            "ExpPower.F = traced\n"
            "nl = ExpPower(3, 1, p0=1.9)\n"
            "mesh = build_mesh(Annulus(1.0, 2.0, dim=3), 100)\n"
            "assert np.isfinite(estimate_dp(mesh, 1.5, nl, "
            "default_dictionary(mesh)))\n"
            "check_f_conditions(nl)\n"
            "assert max(z_max) > ExpPower.Z0, z_max")
        assert loaded == at_import
        for name in self.HEAVY:
            assert name not in loaded

    def test_rectangle_run_loads_only_the_sparse_kernels(self):
        # a 2-D run with its well level and flux uses every sparse product
        # (the gradient, its adjoint, the stiffness scatter and the Schur
        # complement's), all through scipy's kernels, loaded by their file:
        # the only scipy module it adds to the import's is that extension,
        # beside LAPACK's, which the import loads. Nor does it load
        # numpy.ma, which costs a process about 1 MB resident
        loaded, at_import = self.scipy_modules(
            "import numpy as np\n"
            "from tvheat import Field, Power, Rectangle, SolverConfig, "
            "build_mesh, default_dictionary, estimate_dp, extract_flux, "
            "run\n"
            "mesh = build_mesh(Rectangle(1.0, 1.0), 8)\n"
            "u0 = Field(mesh, np.sin(np.pi * mesh.nodes).prod(axis=1))"
            ".constrained()\n"
            "nl = Power(3.0)\n"
            "assert np.isfinite(estimate_dp(mesh, 1.5, nl, "
            "default_dictionary(mesh, 4)))\n"
            "traj = run(mesh, u0, SolverConfig(p=1.5, T_end=0.004), nl)\n"
            "assert traj.status.kind == 'completed' and traj.pcg_iterations\n"
            "assert np.isfinite(extract_flux(traj.states[-1][1], 1.5).z)"
            ".all()\n"
            "assert 'numpy.ma' not in sys.modules")
        assert "scipy.linalg._flapack" in at_import
        assert sorted(set(loaded) - set(at_import)) == [
            "scipy.sparse._sparsetools"]
        for name in self.HEAVY:
            assert name not in loaded

    def test_sparse_package_imports_after_a_2d_run(self):
        # a process that ran on the kernels alone can still import
        # scipy.sparse.linalg, as the benchmark's tracer does through
        # solver.spla: the package adopts the extension already loaded,
        # and its products and spsolve agree with the mesh's
        src = pathlib.Path(cli.__file__).parents[1]
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from tvheat import Field, Rectangle, SolverConfig, Zero, "
            "build_mesh, solver, step\n"
            "mesh = build_mesh(Rectangle(1.0, 1.0), 6)\n"
            "u0 = Field(mesh, np.ones(mesh.n_nodes)).constrained()\n"
            "step(u0, 0.0, SolverConfig(p=1.5), Zero())\n"
            "kernels = sys.modules['scipy.sparse._sparsetools']\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "spla = solver.spla\n"
            "import scipy.sparse as sp\n"
            "from scipy.sparse import _sparsetools\n"
            "assert _sparsetools is kernels\n"
            "g = mesh._grad\n"
            "G = sp.csr_matrix((g.data, g.indices, g.indptr), shape=g.shape)\n"
            "u = np.sin(np.arange(mesh.n_nodes))\n"
            "assert (G @ u).tobytes() == g.product(u).tobytes()\n"
            "A = sp.csc_matrix(G.T @ G + sp.identity(mesh.n_nodes))\n"
            "x = spla.spsolve(A, u)\n"
            "assert np.abs(A @ x - u).max() <= 1e-10 * np.abs(u).max()\n")
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True)
        assert done.returncode == 0, done.stderr

    def test_malformed_config_fails_by_name(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        # a key given twice in one section ([initial] amplitude)
        path.write_text(BASE + "amplitude = 0.02\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config")
        assert "Traceback" not in err

    def test_config_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[domain]\nkind = interval\nbogus = 1\n")
        assert main(["run", str(path)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("solver, block, key", [
        ("", "p_sequence = 1.5, abc", "p_sequence"),
        ("", "checkpoints = 0.1, soon", "checkpoints"),
        ("", "m_start = 3\nm_end = 1", "m_end"),
        ("", "p_sequence = 1.5, 1.7", "p_sequence"),
        ("p = 1.9\n", "m_end = 2", "[solver] p"),
        ("eps = 0.5\n", "m_end = 2", "[solver] eps"),
        ("", "m_end = 53", "m_end"),
        ("", "checkpoints = 5", "[continuation]: checkpoint_times"),
    ], ids=["p_sequence_value", "checkpoints_value", "empty_m_range",
            "increasing_p_sequence", "solver_p", "solver_eps",
            "m_end_past_52", "checkpoint_past_t_end"])
    def test_bad_continuation_fails_by_name(self, tmp_path, capsys, solver,
                                            block, key):
        # in continuation mode the p sequence sets p and eps = (p - 1)^2
        text = BASE.replace("[reaction]\nkind = power\nq = 3\n", "") \
                   .replace("p = 1.5\n", solver) \
            + "\n[continuation]\n" + block + "\n"
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(text)
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["run", str(path), "--output-dir",
                     str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("amp", ["3", "8"])
    def test_reaction_overflow_exit_code(self, tmp_path, amp):
        # exp(u^2) overflows long before u_max: the first trial state's
        # energy is -inf. Amplitude 3 used to end step_failure, 8 to hang.
        text = BASE.replace("kind = power\nq = 3",
                            "kind = exp_power\nq = 3\nalpha = 1") \
                   .replace("amplitude = 0.01", f"amplitude = {amp}") \
                   .replace("t_end = 0.02", "t_end = 1.0")
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "blowup"

    @pytest.mark.parametrize("reaction", [
        "kind = power\nq = 3", "kind = exp_power\nq = 3\nalpha = 1"],
        ids=["power", "exp_power"])
    def test_u0_past_the_float_range_ends_blowup_without_warning(
            self, tmp_path, reaction):
        # a hat of amplitude 1e200: u0's gradient squares and |u0|^q
        # overflow in its well level, which the bumps decide without a
        # warning, and the run ends blowup at t = 0
        text = BASE.replace("kind = power\nq = 3", reaction) \
                   .replace("resolution = 50", "resolution = 20") \
                   .replace("amplitude = 0.01", "amplitude = 1e200")
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(path), "--output-dir", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["status"], summary["stop_reason"]) == \
            ("blowup", "u_max")
        if reaction.startswith("kind = power"):
            assert summary["d_hat"] == 41.025641025640965

    @pytest.mark.parametrize("initial, key", [
        ("center = abc\nwidth = 1", "center"),
        ("center = 0.5\nwidth = 0", "width"),
        ("center = 0.5\nwidth = -1", "width"),
        ("center = nan\nwidth = 1", "center"),
        ("center = 0.5\nwidth = inf", "width"),
        ("center = 0.5, 0.5\nwidth = 1", "center"),
    ], ids=["center_text", "width_zero", "width_negative", "center_nan",
            "width_inf", "center_dimension"])
    def test_bad_bump_fails_by_name(self, tmp_path, capsys, initial, key):
        text = BASE.replace("profile = hat", "profile = bump\n" + initial)
        with pytest.raises(ConfigError, match=re.escape(f"[initial] {key}")):
            parse_config(text)
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["run", str(path), "--output-dir",
                     str(tmp_path / "out")]) == 1
        assert f"[initial] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("eps = nan", "[solver]: eps"),
        ("eps = inf", "[solver]: eps"),
        ("eps = 1e300", "[solver]: eps"),
        ("energy_residual_tol = nan", "[solver]: energy_residual_tol"),
        ("energy_residual_tol = 0", "[solver]: energy_residual_tol"),
        ("tol_ext = nan", "[solver]: tol_ext"),
        ("u_max = nan", "[solver]: U_max"),
        ("amplitude = nan", "[initial] amplitude"),
        ("amplitude = inf", "[initial] amplitude"),
        ("dt_max = 0", "[solver]: dt_max"),
        ("dt_max = -1", "[solver]: dt_max"),
        ("dt_max = nan", "[solver]: dt_max"),
        ("dt_min = 0", "[solver]: dt_min"),
        ("dt_min = -1", "[solver]: dt_min"),
    ], ids=["eps_nan", "eps_inf", "eps_square_overflow", "residual_tol_nan",
            "residual_tol_zero", "tol_ext_nan", "u_max_nan", "amplitude_nan",
            "amplitude_inf", "dt_max_zero", "dt_max_negative", "dt_max_nan",
            "dt_min_zero", "dt_min_negative"])
    def test_value_that_switches_off_a_check_fails_by_name(
            self, tmp_path, capsys, line, key):
        # configparser keys are case-insensitive: U_max names key u_max
        text = (BASE.replace("amplitude = 0.01", line)
                if key.startswith("[initial]")
                else BASE.replace("[solver]\n", f"[solver]\n{line}\n"))
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(text)
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["run", str(path), "--output-dir",
                     str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text, section, key", [
        (BASE.replace("length = 1.0", "length = 1.0\na = 0.5"), "domain",
         "a"),
        (BASE.replace("profile = hat", "profile = hat\ncenter = 0.5"),
         "initial", "center"),
        (BASE.replace("profile = hat", "profile = flat\nwidth = 0.5"),
         "initial", "width"),
        (BASE.replace("profile = hat", "profile = file\npath = u0.txt"),
         "initial", "amplitude"),
        (continuation_text("p_sequence = 1.5, 1.25\nm_start = 1"),
         "continuation", "m_start"),
        (continuation_text("m_end = 2\n[audits]\nwell = false"), "audits",
         "well"),
        (continuation_text("m_end = 2\n[output]\ntrajectory_csv = t.csv"),
         "output", "trajectory_csv"),
        (continuation_text("m_end = 2").replace("[solver]\n",
                                                "[solver]\nstore_stride = 2\n"),
         "solver", "store_stride"),
        (BASE.replace("[solver]\n", "[solver]\nstore_stride = 2\n"), "solver",
         "store_stride"),
        (BASE.replace("length = 1.0", "length = -1"), "domain", "length"),
        (BASE.replace("kind = interval\nlength = 1.0",
                      "kind = annulus\na = 2\nb = 1"), "domain", "a"),
        (BASE.replace("kind = interval\nlength = 1.0",
                      "kind = rectangle\nlx = 0"), "domain", "lx"),
        (BASE.replace("kind = interval\nlength = 1.0",
                      "kind = annulus\na = 1\nb = 2\ndim = 1"), "domain",
         "dim"),
        (continuation_text("p_sequence = 0.9"), "continuation",
         "p_sequence"),
        (BASE.replace("q = 3", "q = 1.4").replace("p = 1.5\n", "")
         + "\n[continuation]\nm_end = 2\n", "continuation", "m_end"),
        # dictionary_size is no key: with any value, and with a zero u0
        # (whose dictionary was once empty), it is an unknown key
        (continuation_text("m_end = 2\ndictionary_size = 0"), "continuation",
         "dictionary_size"),
        (BASE.replace("amplitude = 0.01", "amplitude = 0")
         .replace("p = 1.5\n", "")
         + "\n[continuation]\nm_end = 2\ndictionary_size = -3\n",
         "continuation", "dictionary_size"),
    ], ids=["interval_a", "hat_center", "flat_width", "file_amplitude",
            "p_sequence_m_start", "continuation_audits",
            "continuation_trajectory_csv", "continuation_store_stride",
            "single_store_stride",
            "length_negative",
            "annulus_a_above_b", "lx_zero", "dim_1",
            "continuation_p_below_1", "continuation_p_above_theta",
            "dictionary_size_zero", "dictionary_size_negative_zero_u0"])
    def test_unused_or_rejected_key_fails_by_name(self, tmp_path, capsys,
                                                  text, section, key):
        # each was accepted, silently ignored, or a traceback
        named = re.compile(rf"\[{section}\].*\b{key}\b")
        with pytest.raises(ConfigError, match=named):
            parse_config(text)
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["run", str(path), "--output-dir",
                     str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert named.search(err) and "Traceback" not in err
        # no other section is blamed
        assert set(re.findall(r"\[(\w+)\]", err)) == {section}

    def test_step_failure_exit_code(self, tmp_path):
        text = BASE.replace("[reaction]\nkind = power\nq = 3\n", "") \
                   .replace("resolution = 50", "resolution = 40") \
                   .replace("p = 1.5", "p = 1.5\neps = 0") \
                   .replace("profile = hat", "profile = flat")
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "step_failure"

    def test_step_failure_exit_code_rectangle(self, tmp_path):
        text = BASE.replace("[reaction]\nkind = power\nq = 3\n", "") \
                   .replace("kind = interval\nlength = 1.0\n"
                            "resolution = 50",
                            "kind = rectangle\nresolution = 8") \
                   .replace("p = 1.5", "p = 1.5\neps = 0") \
                   .replace("profile = hat", "profile = flat")
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "step_failure"

    def test_weights_past_the_float_range_end_step_failure(self, tmp_path):
        # ly = 4.49e307: the quadrature weights are near the float range,
        # so the step's mass term qw / dt overflows; the step fails before
        # it forms the system, without a RuntimeWarning, and the run ends
        # step_failure
        text = ("[domain]\nkind = rectangle\nlx = 1\n"
                "ly = 4.49423283715579e+307\nresolution = 4\n"
                "[initial]\nprofile = dictionary\nindex = 1\n"
                "[solver]\np = 1.5\nt_end = 0.01\n")
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(path), "--output-dir", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["status"], summary["stop_reason"]) == \
            ("step_failure", "linear_solve")

    def test_continuation_blowup_exit_code(self, tmp_path):
        text = BASE.replace("amplitude = 0.01", "amplitude = 100.0") \
                   .replace("p = 1.5\nt_end = 0.02",
                            "t_end = 2.0\nu_max = 1e3") \
            + "\n[continuation]\nm_end = 2\n"
        path = tmp_path / "run.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert [r["status"] for r in summary["continuation"]["records"]] \
            == ["blowup", "blowup"]

    @pytest.mark.parametrize("statuses, code", [
        (("completed", "extinct"), 0), (("extinct", "blowup"), 2),
        (("blowup", "blowup"), 2), (("blowup", "step_failure"), 3),
        (("step_failure", "completed"), 3)])
    def test_continuation_exit_code_is_the_gravest(self, tmp_path,
                                                   monkeypatch, statuses,
                                                   code):
        # the members' statuses are set directly: no small run ends one
        # member in blow-up and another in a failed solve
        def members_end_in(plan):
            return ContinuationReport([MemberRecord(
                p, eps, status, 0.0, 1.0, 0.0, 0.0, 0.0, math.inf, 0.0, 0,
                0, 0) for p, eps, status in zip(
                    plan.p_sequence, plan.eps_schedule, statuses)], {})
        monkeypatch.setattr(cli, "run_continuation", members_end_in)
        path = tmp_path / "run.ini"
        path.write_text(continuation_text("m_end = 2"))
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == code
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == statuses[-1]

    def test_end_to_end(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(BASE)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 0
        assert (out / "summary.json").exists()


# one line of config text: no line breaks, so the value cannot add keys
_line = st.text(st.characters(blacklist_characters="\n\r"), max_size=30)
_numbers = st.lists(st.floats(), min_size=1, max_size=3).map(
    lambda xs: ", ".join(map(repr, xs)))

# configs that together use every key of _SCHEMA, on tiny meshes
_BASES = [
    {"domain": {"kind": "interval", "length": "1", "resolution": "4"},
     "reaction": {"kind": "sum_powers", "q": "3", "s": "4", "p0": "1.6"},
     "solver": {"p": "1.5", "eps": "1e-4", "dt0": "1e-3", "dt_min": "1e-14",
                "t_end": "0.02", "u_max": "1e6", "tol_ext": "1e-8",
                "energy_residual_tol": "1e-5", "dt_max": "1e-3"},
     "initial": {"profile": "bump", "amplitude": "0.5", "center": "0.5",
                 "width": "0.5"},
     "output": {"directory": "out", "trajectory_csv": "t.csv",
                "summary_json": "s.json", "state_dumps": "checkpoints"},
     "audits": {"well": "yes", "l2": "on", "gradient_bound": "1",
                "conditions": "false"}},
    {"domain": {"kind": "annulus", "a": "1", "b": "2", "dim": "3",
                "resolution": "4"},
     "reaction": {"kind": "exp_power", "q": "3", "alpha": "1", "p0": "1.9"},
     "solver": {"p": "1.5"},
     "initial": {"profile": "hat", "amplitude": "0.5"}},
    {"domain": {"kind": "rectangle", "lx": "1", "ly": "2", "resolution": "4"},
     "solver": {"p": "1.5"},
     "initial": {"profile": "dictionary", "index": "1"}},
    {"domain": {"kind": "interval", "resolution": "4"},
     "solver": {"t_end": "0.1"},
     "initial": {"profile": "file", "path": "{path}"},
     "continuation": {"m_start": "1", "m_end": "3", "checkpoints": "0.05"}},
    {"domain": {"kind": "interval", "resolution": "4"},
     "continuation": {"p_sequence": "1.5, 1.25"}},
]


@pytest.fixture(scope="module")
def u0_path(tmp_path_factory):
    mesh = build_mesh(Interval(1.0), 4)
    path = tmp_path_factory.mktemp("u0") / "u0.txt"
    mesh.dump(path, np.sin(np.pi * mesh.nodes[:, 0]))
    return str(path)


def render(sections: dict, u0_path: str) -> str:
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in
                                         keys.items())
                   for s, keys in sections.items()).replace("{path}", u0_path)


@pytest.mark.parametrize("base", _BASES)
def test_every_base_parses(u0_path, base):
    assert isinstance(parse_config(render(base, u0_path)), RunConfig)


@pytest.mark.parametrize("section, key", [
    (s, k) for s in _SCHEMA for k in _SCHEMA[s]
    if (s, k) != ("domain", "resolution")])
@settings(deadline=None, max_examples=12)
@given(value=st.one_of(_line, _numbers, st.integers().map(str)))
# a span past half the float range: default_dictionary's centers overflowed
@example(value="4.49423283715579e+307")
def test_every_key_parses_or_fails_by_name(u0_path, section, key, value):
    # any one-line text as one key's value, in a config that uses the key,
    # gives a RunConfig or a ConfigError; resolution is left out because
    # a large one is slow, not wrong
    base = next(b for b in _BASES if key in b.get(section, {}))
    sections = {s: dict(keys) for s, keys in base.items()}
    sections[section][key] = value
    try:
        cfg = parse_config(render(sections, u0_path))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def test_dictionary_past_half_the_float_range_is_finite(u0_path):
    # ly = 4.49e307: span * (j + 1) overflows, and the centers divide first
    base = next(b for b in _BASES if "ly" in b.get("domain", {}))
    sections = {s: dict(keys) for s, keys in base.items()}
    sections["domain"]["ly"] = "4.49423283715579e+307"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cfg = parse_config(render(sections, u0_path))
    assert cfg.u0.sup() > 0 and np.all(np.isfinite(cfg.u0.values))


@settings(deadline=None)
@given(center=st.one_of(_line, _numbers), width=st.one_of(_line, _numbers))
def test_bump_values_parse_or_fail_by_name(center, width):
    # any text as [initial] center and width either gives a finite bump or
    # fails with a ConfigError; the resolution stays fixed
    text = BASE.replace("profile = hat", f"profile = bump\ncenter = {center}"
                        f"\nwidth = {width}")
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert np.all(np.isfinite(cfg.u0.values))


def test_readme_config_table_names_every_key():
    # each row of README's config table names its keys in backquotes in
    # its second column, under the last section named in its first; each
    # section names every key of _SCHEMA's, once, and no other
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    named, section = {}, None
    for line in readme.read_text().splitlines():
        cells = line.split("|")
        if len(cells) < 4 or not line.startswith("|"):
            continue
        title = re.match(r"\s*`\[(\w+)\]`", cells[1])
        if title:
            section = title.group(1)
        if section is not None:
            named.setdefault(section, []).extend(
                re.findall(r"`(\w+)`", cells[2]))
    assert {s: sorted(keys) for s, keys in named.items()} == \
        {s: sorted(keys) for s, keys in _SCHEMA.items()}


def test_readme_quick_start_config_parses():
    # README's quick-start run.ini is a config that parse_config accepts,
    # so it cannot drift from _SCHEMA
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```ini\n# run\.ini\n(.*?)```", readme.read_text(),
                      re.S)
    cfg = parse_config(block.group(1))
    assert cfg.plan is None and cfg.out_dir == "out"
    assert (cfg.solver.p, cfg.solver.T_end) == (1.5, 1.0)
    assert cfg.mesh.n_nodes == 401 and cfg.u0.sup() == 0.01


def test_readme_quick_start_runs(tmp_path, capsys):
    # README's quick-start run.ini runs end to end, and its first Python
    # block prints the flat profile's extinction
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text()
    ini = re.search(r"```ini\n# run\.ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["mode"], summary["status"]) == ("single", "extinct")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(block, {})
    assert re.fullmatch(r"extinct 0\.48\d*\n", capsys.readouterr().out)


def test_emit_summary_trailing_newline(tmp_path):
    path = tmp_path / "s.json"
    emit_summary({"a": 1}, path)
    assert path.read_text() == '{"a":1}\n'
