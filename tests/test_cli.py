import gc
import json
import os
import weakref
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io as sio
import scipy.sparse as sp

import ekstab
from ekstab import cli
from ekstab.cli import build_parser, main
from ekstab.sysmodel import load_bundle


# Every command that writes run_manifest.json, with flags that keep it small.
MANIFEST_COMMANDS = [
    ["gen", "--nv", "20", "--np", "3"],
    ["reduce", "--m", "2"],
    ["bode", "--m", "2", "--points", "5"],
    ["riccati"],
    ["stabilize", "--m", "2", "--points", "5"],
    ["simulate", "--m", "2", "--horizon", "1"],
]

# The JSON type each manifest key promises, matched with type() so that a
# bool does not pass for an int.
MANIFEST_TYPES = {
    "command": (str,),
    "version": (str,),
    "config": (dict,),
    "wall_time_s": (float,),
    "system_manifest": (str,),
    "dims": (list,),
    "order": (int,),
    "breakdown_at": (int, type(None)),
    "hinf_sample": (float,),
    "skipped_points": (list,),
    "sweep_workers": (int,),
    "sweep_factorizations": (int,),
    "sweep_fallbacks": (int,),
    "iterations": (int,),
    "converged": (bool,),
    "status": (str,),
    "rank": (int,),
    "final_relative_residual": (float,),
    "reduced_order": (int,),
    "closed_loop_max_real": (float,),
    "steps": (int,),
    "max_output_error": (float, type(None)),
    "reduced_max_real": (float, type(None)),
    "blas_threads": (int, type(None)),
}

# {command: {dest: (default, type, required, choices)}} of every flag.
PARSER_TABLE = {
    "gen": {
        "nv": (None, int, False, None),
        "np": (None, int, True, None),
        "nb": (2, int, False, None),
        "nc": (2, int, False, None),
        "seed": (0, int, False, None),
        "unstable": (0, int, False, None),
        "shift": (0.5, float, False, None),
        "grid": (None, int, False, None),
        "viscosity": (1.0, float, False, None),
        "out": (None, None, True, None),
    },
    "reduce": {
        "bundle": (None, None, True, None),
        "config": (None, None, False, None),
        "m": (20, int, False, None),
        "form": ("state-space", None, False, ["state-space", "generalized"]),
        "out": (None, None, True, None),
    },
    "bode": {
        "bundle": (None, None, True, None),
        "config": (None, None, False, None),
        "m": (20, int, False, None),
        "wlo": (1e-5, float, False, None),
        "whi": (1e5, float, False, None),
        "points": (200, int, False, None),
        "out": (None, None, True, None),
    },
    "riccati": {
        "bundle": (None, None, True, None),
        "config": (None, None, False, None),
        "tol": (1e-8, float, False, None),
        "dtol": (1e-12, float, False, None),
        "mmax": (100, int, False, None),
        "out": (None, None, True, None),
    },
    "stabilize": {
        "bundle": (None, None, True, None),
        "config": (None, None, False, None),
        "tol": (1e-8, float, False, None),
        "dtol": (1e-12, float, False, None),
        "mmax": (100, int, False, None),
        "m": (20, int, False, None),
        "wlo": (1e-5, float, False, None),
        "whi": (1e5, float, False, None),
        "points": (200, int, False, None),
        "out": (None, None, True, None),
    },
    "simulate": {
        "bundle": (None, None, True, None),
        "config": (None, None, False, None),
        "input": ("const", None, False, None),
        "h": (0.05, float, False, None),
        "horizon": (30.0, float, False, None),
        "gain": (None, None, False, None),
        "m": (0, int, False, None),
        "out": (None, None, True, None),
    },
    "verify": {
        "bundle": (None, None, True, None),
        "config": (None, None, False, None),
        "cap": (None, int, False, None),
    },
}


# Every float-typed flag, as (command, destination).
FLOAT_FLAGS = [
    (command, dest)
    for command, flags in PARSER_TABLE.items()
    for dest, (_, kind, _, _) in flags.items()
    if kind is float
]


def _with_bundle(argv, bundle):
    return argv if argv[0] == "gen" else argv + ["--bundle", str(bundle)]


def _on_return(monkeypatch, name, seen):
    """Wrap ``cli.<name>`` so that ``seen`` is called with every result."""
    real = getattr(cli, name)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        seen(out)
        return out

    monkeypatch.setattr(cli, name, wrapped)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    rc = main(
        [
            "gen",
            "--nv", "60", "--np", "8", "--nb", "2", "--nc", "2",
            "--unstable", "2", "--shift", "0.5", "--seed", "7",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out / "system.manifest"


class TestGen:
    def test_artifacts_exist(self, bundle):
        base = bundle.parent
        for name in ("M", "A", "G", "B", "C"):
            assert (base / f"{name}.mtx").exists()
        assert (base / "run_manifest.json").exists()
        sys_ = load_bundle(bundle)
        assert sys_.dims == (60, 8, 2, 2)

    def test_manifest_records_config(self, bundle):
        payload = json.loads((bundle.parent / "run_manifest.json").read_text())
        assert payload["command"] == "gen"
        assert payload["config"]["seed"] == 7
        assert "version" in payload

    def test_nv_derived_from_grid(self, tmp_path):
        assert main(
            ["gen", "--grid", "8", "6", "--np", "6", "--unstable", "1",
             "--out", str(tmp_path)]
        ) == 0
        assert load_bundle(tmp_path / "system.manifest").n_v == 48
        payload = json.loads((tmp_path / "run_manifest.json").read_text())
        assert payload["config"]["nv"] == 48

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["--grid", "8", "8", "--nv", "60", "--np", "6"], "InfeasibleSpec"),
            (["--grid", "8", "8", "--nv", "64", "--np", "6", "--viscosity", "-1"],
             "InfeasibleSpec"),
            (["--np", "6"], "ValidationError"),
            (["--grid", "-2", "-3", "--np", "1"], "InfeasibleSpec"),
            (["--nv", "10", "--np", "3", "--seed", "-1"], "InfeasibleSpec"),
        ],
    )
    def test_bad_spec_is_single_line_error(self, argv, kind, tmp_path, capsys):
        assert main(["gen", *argv, "--out", str(tmp_path / "g")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {kind}:")
        assert not (tmp_path / "g").exists()

    def test_gen_flags(self):
        gen = build_parser().subcommands.choices["gen"]
        flags = {a.option_strings[0] for a in gen._actions if a.dest != "help"}
        assert flags == {
            "--nv", "--np", "--nb", "--nc", "--seed", "--unstable", "--shift",
            "--grid", "--viscosity", "--out",
        }

    def test_every_flag_keeps_its_default_type_and_choices(self):
        commands = build_parser().subcommands.choices
        table = {
            name: {
                a.dest: (a.default, a.type, a.required, a.choices)
                for a in command._actions
                if a.dest != "help"
            }
            for name, command in commands.items()
        }
        assert table == PARSER_TABLE


class TestRiccati:
    def test_end_to_end_residual(self, bundle, tmp_path):
        rc = main(
            ["riccati", "--bundle", str(bundle), "--tol", "1e-8",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "residuals.csv").read_text().splitlines()
        assert lines[0] == "iteration,residual"
        assert float(lines[-1].split(",")[1]) < 1e-8
        k = np.atleast_2d(np.asarray(sio.mmread(tmp_path / "K.mtx")))
        assert k.shape == (2, 60)
        assert (tmp_path / "Z.mtx").exists()

    @pytest.mark.parametrize(
        "argv, written",
        [
            (["riccati"], []),
            (["stabilize", "--m", "2", "--points", "5"], ["closedloop_sweep.csv"]),
        ],
        ids=["riccati", "stabilize"],
    )
    def test_unconverged_gain_exits_3_with_artifacts(
        self, bundle, tmp_path, argv, written
    ):
        rc = main(
            argv + ["--bundle", str(bundle), "--mmax", "1", "--out", str(tmp_path)]
        )
        assert rc == 3
        payload = json.loads((tmp_path / "run_manifest.json").read_text())
        assert payload["converged"] is False
        assert payload["status"] == "max_iterations"
        assert payload["iterations"] == 1
        for name in ["Z.mtx", "K.mtx", "residuals.csv", *written]:
            assert (tmp_path / name).exists()


class TestReduce:
    def test_generalized_form_artifacts(self, bundle, tmp_path):
        rc = main(
            ["reduce", "--bundle", str(bundle), "--m", "4",
             "--form", "generalized", "--out", str(tmp_path)]
        )
        assert rc == 0
        for name in ("A_m", "B_m", "C_m", "M_m"):
            assert (tmp_path / f"{name}.mtx").exists()
        m_m = np.atleast_2d(np.asarray(sio.mmread(tmp_path / "M_m.mtx")))
        assert m_m.shape == (16, 16)
        assert np.allclose(m_m, m_m.T)

    def test_invalid_knob_rejected(self, bundle, tmp_path, capsys):
        rc = main(
            ["riccati", "--bundle", str(bundle), "--tol", "-1",
             "--out", str(tmp_path)]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ValidationError:")


class TestBode:
    def test_exactness_error_column(self, bundle, tmp_path):
        rc = main(
            ["bode", "--bundle", str(bundle), "--m", "13", "--points", "40",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        errors = [float(r.split(",")[3]) for r in rows]
        assert len(errors) == 40
        assert max(errors) <= 1e-8

    @pytest.mark.parametrize("command", ["bode", "stabilize"])
    @pytest.mark.parametrize("wlo", ["0", "-1"])
    def test_nonpositive_wlo_is_single_line_error(
        self, bundle, tmp_path, capsys, command, wlo
    ):
        out = tmp_path / "o"
        rc = main(
            [command, "--bundle", str(bundle), "--wlo", wlo, "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ValidationError: config: wlo must be positive"]
        assert not out.exists()

    def test_inverted_frequency_range_is_single_line_error(
        self, bundle, tmp_path, capsys
    ):
        out = tmp_path / "o"
        rc = main(
            ["bode", "--bundle", str(bundle), "--wlo", "10", "--whi", "1",
             "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ValidationError: config: need wlo < whi"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reduce", "bode", "stabilize"])
    def test_order_zero_is_single_line_error(self, bundle, tmp_path, capsys, command):
        out = tmp_path / "o"
        rc = main([command, "--bundle", str(bundle), "--m", "0", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ValidationError: config: m must be >= 1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bode", "stabilize"])
    def test_manifest_records_sweep_workers(
        self, bundle, tmp_path, monkeypatch, command
    ):
        cpus = {0, 1, 2}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert main(
            [command, "--bundle", str(bundle), "--m", "2", "--points", "5",
             "--out", str(tmp_path)]
        ) == 0
        payload = json.loads((tmp_path / "run_manifest.json").read_text())
        assert payload["sweep_workers"] == 3


    def test_one_factor_per_unshifted_block(self, bundle, tmp_path, kinds):
        # The sweep's real processes reuse the reduction's mass and
        # stiffness factors, held past its basis.
        rc = main(["bode", "--bundle", str(bundle), "--m", "4", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "run_manifest.json").read_text())
        unshifted = sorted(kind for kind in kinds if kind != "shifted")
        assert unshifted == ["identity", "mass", "stiffness"]
        assert kinds.count("shifted") == payload["sweep_factorizations"]


class TestStabilize:
    def test_artifacts(self, bundle, tmp_path):
        rc = main(
            ["stabilize", "--bundle", str(bundle), "--m", "13", "--points", "20",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "run_manifest.json").read_text())
        assert payload["closed_loop_max_real"] < 0.0
        assert (tmp_path / "closedloop_sweep.csv").exists()

    def test_one_factor_per_unshifted_block(self, bundle, tmp_path, kinds):
        rc = main(
            ["stabilize", "--bundle", str(bundle), "--m", "13", "--points", "4",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        assert sorted(kinds) == ["identity", "mass", "stiffness"]

    def test_sweep_holds_nothing_of_the_earlier_stages(
        self, bundle, tmp_path, monkeypatch
    ):
        refs = {}

        def hold(**objects):
            refs.update((name, weakref.ref(obj)) for name, obj in objects.items())

        _on_return(monkeypatch, "ebara_solve", lambda s: hold(basis=s.basis, z=s.z))
        _on_return(monkeypatch, "reduce_closed_loop", lambda r: hold(reduction=r[0]))
        alive = []
        sweep = cli.frequency_sweep

        def looking(system, *args, **kwargs):
            gc.collect()
            alive.extend(name for name, ref in refs.items() if ref() is not None)
            alive.extend(kind for kind, _ in system.sys._factors.keys())
            return sweep(system, *args, **kwargs)

        monkeypatch.setattr(cli, "frequency_sweep", looking)
        rc = main(
            ["stabilize", "--bundle", str(bundle), "--m", "4", "--points", "4",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        assert sorted(refs) == ["basis", "reduction", "z"]
        assert sorted(alive) == ["mass", "stiffness"]

    def test_exactness_error_column(self, bundle, tmp_path):
        rc = main(
            ["stabilize", "--bundle", str(bundle), "--m", "13", "--points", "40",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "closedloop_sweep.csv").read_text().splitlines()[1:]
        errors = [float(r.split(",")[3]) for r in rows]
        assert len(errors) == 40
        assert max(errors) <= 1e-8


class TestSimulate:
    def test_open_and_reduced(self, bundle, tmp_path):
        stab = tmp_path / "stab"
        assert main(
            ["stabilize", "--bundle", str(bundle), "--m", "13", "--points", "10",
             "--out", str(stab)]
        ) == 0
        sim = tmp_path / "sim"
        rc = main(
            ["simulate", "--bundle", str(bundle), "--gain", str(stab / "K.mtx"),
             "--input", "const:1,1", "--h", "0.05", "--horizon", "10",
             "--m", "13", "--out", str(sim)]
        )
        assert rc == 0
        header = (sim / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,y_1,y_2,u_1,u_2"
        assert (sim / "trajectory_reduced.csv").exists()
        payload = json.loads((sim / "run_manifest.json").read_text())
        assert payload["max_output_error"] <= 1e-6


    def test_zero_input(self, bundle, tmp_path):
        rc = main(
            ["simulate", "--bundle", str(bundle), "--input", "zero",
             "--horizon", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        u = [j for j, name in enumerate(header) if name.startswith("u_")]
        assert len(u) == 2
        assert len(rows) == 21
        assert np.all(rows[:, u] == 0.0)

    def test_manifest_records_the_reduced_spectral_abscissa(
        self, bundle, tmp_path, monkeypatch
    ):
        models = []
        _on_return(monkeypatch, "reduce_closed_loop", lambda r: models.append(r[1]))
        _on_return(monkeypatch, "build_reduced", models.append)
        stab = tmp_path / "stab"
        runs = [
            ["stabilize", "--m", "2", "--points", "5", "--out", str(stab)],
            ["simulate", "--gain", str(stab / "K.mtx"), "--m", "2", "--horizon", "1",
             "--out", str(tmp_path / "simk")],
            ["simulate", "--m", "2", "--horizon", "1", "--out", str(tmp_path / "sim")],
            ["simulate", "--horizon", "1", "--out", str(tmp_path / "full")],
        ]
        for argv in runs:
            models.clear()
            assert main(argv + ["--bundle", str(bundle)]) == 0
            payload = json.loads((Path(argv[-1]) / "run_manifest.json").read_text())
            if models:
                (model,) = models
                expected = float(np.linalg.eigvals(model.a).real.max())
                assert payload["reduced_max_real"] == expected
            else:
                assert payload["reduced_max_real"] is None


class TestVerify:
    def test_passes_on_generated_bundle(self, bundle, capsys):
        assert main(["verify", "--bundle", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out


class TestErrorsAndConfig:
    def test_missing_bundle_is_single_line_error(self, tmp_path, capsys):
        rc = main(
            ["riccati", "--bundle", str(tmp_path / "nope.manifest"),
             "--out", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ParseError:")

    def test_non_finite_matrix_is_single_line_error(self, bundle, tmp_path, capsys):
        data = tmp_path / "bundle"
        shutil.copytree(bundle.parent, data)
        b = np.asarray(sio.mmread(data / "B.mtx"))
        b[0, 0] = np.nan
        sio.mmwrite(data / "B.mtx", b, precision=17)
        rc = main(
            ["reduce", "--bundle", str(data / "system.manifest"), "--m", "2",
             "--out", str(tmp_path / "out")]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ValidationError: finite: B ")

    def test_empty_array_matrix_is_single_line_error(self, bundle, tmp_path):
        # In a child process: a reader that crashes on this file kills the
        # child, not the test run.
        data = tmp_path / "bundle"
        shutil.copytree(bundle.parent, data)
        (data / "B.mtx").write_text("%%MatrixMarket matrix array real general\n0 2\n")
        paths = [str(Path(ekstab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        result = subprocess.run(
            [sys.executable, "-m", "ekstab.cli", "reduce",
             "--bundle", str(data / "system.manifest"), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        )
        assert result.returncode == 1
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ParseError:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, dest", FLOAT_FLAGS)
    def test_non_finite_float_flag_is_single_line_error(
        self, bundle, tmp_path, capsys, command, dest, value
    ):
        argv = {a[0]: a for a in MANIFEST_COMMANDS}.get(command, [command])
        out = tmp_path / "o"
        rc = main(
            _with_bundle(argv, bundle) + [f"--{dest}={value}", "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: ValidationError: config: {dest} must be finite"]
        assert not out.exists()

    def test_non_finite_config_value_is_single_line_error(
        self, bundle, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = nan\n")
        out = tmp_path / "o"
        rc = main(
            ["riccati", "--bundle", str(bundle), "--config", str(cfg),
             "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ValidationError: config: tol must be finite"]
        assert not out.exists()

    @pytest.mark.parametrize("h, horizon", [("10", "1"), ("1.5", "1")])
    def test_step_longer_than_horizon_is_single_line_error(
        self, bundle, tmp_path, capsys, h, horizon
    ):
        out = tmp_path / "o"
        rc = main(
            ["simulate", "--bundle", str(bundle), "--h", h, "--horizon", horizon,
             "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ValidationError: config: need h <= horizon"]
        assert not out.exists()

    def test_config_file_defaults_and_flag_priority(self, bundle, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 2\npoints = 15\n")
        out1 = tmp_path / "o1"
        assert main(
            ["bode", "--bundle", str(bundle), "--config", str(cfg),
             "--out", str(out1)]
        ) == 0
        rows = (out1 / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 15  # config applied
        out2 = tmp_path / "o2"
        assert main(
            ["bode", "--bundle", str(bundle), "--config", str(cfg),
             "--points", "5", "--out", str(out2)]
        ) == 0
        rows = (out2 / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 5  # explicit flag wins

    @pytest.mark.parametrize(
        "command, flag, dest, line, given",
        [
            ("reduce", "--m", "m", "m = 3", 20),
            ("bode", "--points", "points", "points = 15", 200),
            ("bode", "--poi", "points", "points = 15", 200),
        ],
    )
    def test_explicit_flag_equal_to_its_default_wins(
        self, bundle, tmp_path, command, flag, dest, line, given
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert build_parser().subcommands.choices[command].get_default(dest) == given
        out = tmp_path / "o"
        argv = [command, "--bundle", str(bundle), "--config", str(cfg),
                flag, str(given), "--out", str(out)]
        assert main(argv + (["--m", "2"] if command == "bode" else [])) == 0
        payload = json.loads((out / "run_manifest.json").read_text())
        assert payload["config"][dest] == given

    def test_config_value_takes_the_flag_type(self, bundle, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cap = 600\n")
        assert main(["verify", "--bundle", str(bundle), "--config", str(cfg)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_config_key_naming_no_flag_is_ignored(self, bundle, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = x\nno_such_flag = 1\nm = 3\n")
        out = tmp_path / "o"
        assert main(
            ["reduce", "--bundle", str(bundle), "--config", str(cfg), "--out", str(out)]
        ) == 0
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        assert config["m"] == 3
        assert "points" not in config and "no_such_flag" not in config

    @pytest.mark.parametrize("line", ["m = x", "form = bogus"])
    def test_invalid_config_value(self, bundle, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main(
            ["reduce", "--bundle", str(bundle), "--config", str(cfg),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ParseError:")

    @pytest.mark.parametrize(
        "argv, env, kind",
        [
            (["simulate", "--input", "const:a"], None, "ParseError"),
            (["simulate", "--input", "const:1,2,3"], None, "DimensionMismatch"),
            (["verify"], "abc", "ParseError"),
            (["simulate", "--h", "1e-300", "--horizon", "1"], None, "DimensionMismatch"),
            (["simulate", "--input", "ramp:1"], None, "ParseError"),
            (["verify"], "-1", "ParseError"),
        ],
    )
    def test_bad_input_is_single_line_error(
        self, bundle, tmp_path, capsys, monkeypatch, argv, env, kind
    ):
        if env is not None:
            monkeypatch.setenv("EKSTAB_ORACLE_CAP", env)
        extra = ["--out", str(tmp_path)] if argv[0] == "simulate" else []
        rc = main(argv + ["--bundle", str(bundle)] + extra)
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {kind}:")

    @pytest.mark.parametrize("columns", [1, 3])
    def test_input_csv_of_wrong_width(self, bundle, tmp_path, capsys, columns):
        path = tmp_path / "u.csv"
        header = ",".join(["t"] + [f"u_{i + 1}" for i in range(columns)])
        path.write_text(f"{header}\n0,{','.join(['1'] * columns)}\n")
        rc = main(
            ["simulate", "--bundle", str(bundle), "--input", f"csv:{path}",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: DimensionMismatch:")

    @pytest.mark.parametrize(
        "spec, rows",
        [
            ("step:nan:1,1", None),
            ("const:nan,1", None),
            ("step:1:1,inf", None),
            ("csv", "2,5,5\n0,1,1\n1,3,3\n"),
            ("csv", "0,1,1\n0,3,3\n"),
            ("csv", "0,1,nan\n1,3,3\n"),
        ],
        ids=["step-nan-time", "const-nan", "step-inf", "csv-unsorted", "csv-repeated",
             "csv-nan"],
    )
    def test_input_it_cannot_honour_is_parse_error_before_factoring(
        self, bundle, tmp_path, capsys, kinds, spec, rows
    ):
        if rows is not None:
            path = tmp_path / "u.csv"
            path.write_text("t,u_1,u_2\n" + rows)
            spec = f"csv:{path}"
        rc = main(
            ["simulate", "--bundle", str(bundle), "--input", spec,
             "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ParseError:")
        assert kinds == []

    @pytest.mark.parametrize("content", [None, "not a matrix\n"], ids=["missing", "garbage"])
    def test_unreadable_gain_is_single_line_error(
        self, bundle, tmp_path, capsys, content
    ):
        gain = tmp_path / "K.mtx"
        if content is not None:
            gain.write_text(content)
        rc = main(
            ["simulate", "--bundle", str(bundle), "--gain", str(gain),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ParseError:")
        assert not (tmp_path / "o").exists()

    def test_coordinate_gain_simulates_like_array_gain(self, bundle, tmp_path):
        stab = tmp_path / "stab"
        assert main(
            ["stabilize", "--bundle", str(bundle), "--m", "2", "--points", "4",
             "--out", str(stab)]
        ) == 0
        coordinate = tmp_path / "K_coo.mtx"
        sio.mmwrite(coordinate, sp.coo_matrix(sio.mmread(stab / "K.mtx")))
        for gain, out in ((stab / "K.mtx", "array"), (coordinate, "coordinate")):
            assert main(
                ["simulate", "--bundle", str(bundle), "--gain", str(gain),
                 "--horizon", "2", "--out", str(tmp_path / out)]
            ) == 0
        trajectory = [
            (tmp_path / out / "trajectory.csv").read_bytes()
            for out in ("array", "coordinate")
        ]
        assert trajectory[0] == trajectory[1]

    def test_non_finite_gain_is_single_line_error(self, bundle, tmp_path, capsys):
        k = np.zeros((2, 60))
        k[1, 7] = np.nan
        gain = tmp_path / "K.mtx"
        sio.mmwrite(gain, k)
        rc = main(
            ["simulate", "--bundle", str(bundle), "--gain", str(gain),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ValidationError: finite: K ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", MANIFEST_COMMANDS, ids=lambda argv: argv[0])
    def test_out_naming_a_file_is_single_line_error(
        self, bundle, tmp_path, capsys, argv
    ):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(_with_bundle(argv, bundle) + ["--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: FileExistsError:")

    @pytest.mark.parametrize("argv", MANIFEST_COMMANDS, ids=lambda argv: argv[0])
    def test_malformed_oracle_cap_is_refused_before_any_file_is_written(
        self, bundle, tmp_path, capsys, monkeypatch, argv
    ):
        monkeypatch.setenv("EKSTAB_ORACLE_CAP", "abc")
        out = tmp_path / "out"
        rc = main(_with_bundle(argv, bundle) + ["--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ParseError:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", MANIFEST_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_oracle_cap_below_one_is_refused_before_any_file_is_written(
        self, bundle, tmp_path, capsys, monkeypatch, cap, argv
    ):
        # A cap below 1 would switch every desk-scale check off.
        monkeypatch.setenv("EKSTAB_ORACLE_CAP", cap)
        out = tmp_path / "out"
        rc = main(_with_bundle(argv, bundle) + ["--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: ParseError: EKSTAB_ORACLE_CAP='{cap}' is below 1"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", MANIFEST_COMMANDS, ids=lambda argv: argv[0])
    def test_manifest_values_have_their_json_types(self, bundle, tmp_path, argv):
        assert main(_with_bundle(argv, bundle) + ["--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "run_manifest.json").read_text())
        keys = list(payload)
        assert keys[:3] == ["command", "version", "config"]
        assert keys[-1] == "wall_time_s"
        for key, value in payload.items():
            assert type(value) in MANIFEST_TYPES[key], (key, value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--nv", "40", "--np", "4", "--unstable", "1", "--shift", "1.5e308"],
            ["gen", "--grid", "6", "6", "--np", "4", "--viscosity", "1e308"],
            ["simulate", "--input", "const:1e308,1e308", "--horizon", "1"],
        ],
        ids=["gen-shift", "gen-viscosity", "simulate-input"],
    )
    def test_overflow_is_one_line_error(self, bundle, tmp_path, argv):
        # In a child process: its stderr holds any warning as a user sees it.
        paths = [str(Path(ekstab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        result = subprocess.run(
            [sys.executable, "-m", "ekstab.cli", *_with_bundle(argv, bundle),
             "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        )
        assert result.returncode == 1
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_console_entry_point(self, tmp_path):
        # The child imports the package from where this process found it.
        paths = [str(Path(ekstab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        result = subprocess.run(
            [sys.executable, "-m", "ekstab.cli", "gen", "--nv", "20", "--np", "3",
             "--seed", "1", "--out", str(tmp_path / "g")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "g" / "system.manifest").exists()


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            gen_dir = tmp_path / f"gen_{name}"
            assert main(
                ["gen", "--nv", "40", "--np", "5", "--unstable", "1",
                 "--seed", "3", "--out", str(gen_dir)]
            ) == 0
            ric_dir = tmp_path / f"ric_{name}"
            assert main(
                ["riccati", "--bundle", str(gen_dir / "system.manifest"),
                 "--out", str(ric_dir)]
            ) == 0
            outs.append((gen_dir, ric_dir))
        for fname in ("M.mtx", "A.mtx", "G.mtx", "B.mtx", "C.mtx"):
            assert (outs[0][0] / fname).read_bytes() == (
                outs[1][0] / fname
            ).read_bytes()
        assert (outs[0][1] / "residuals.csv").read_bytes() == (
            outs[1][1] / "residuals.csv"
        ).read_bytes()
        assert (outs[0][1] / "K.mtx").read_bytes() == (
            outs[1][1] / "K.mtx"
        ).read_bytes()

    def test_commands_run_on_one_blas_thread_and_restore_the_count(
        self, bundle, tmp_path, monkeypatch
    ):
        before = [get() for _, get in cli._openblas_threads()]
        during = []
        reduce = cli._cmd_reduce

        def looking(args, sys_):
            during.extend(get() for _, get in cli._openblas_threads())
            return reduce(args, sys_)

        monkeypatch.setattr(cli, "_cmd_reduce", looking)
        assert main(
            ["reduce", "--bundle", str(bundle), "--m", "2", "--out", str(tmp_path)]
        ) == 0
        assert during == [1] * len(before)
        assert [get() for _, get in cli._openblas_threads()] == before
        payload = json.loads((tmp_path / "run_manifest.json").read_text())
        assert payload["blas_threads"] == (1 if before else None)

    def test_default_blas_threading_writes_the_one_thread_bytes(self, tmp_path):
        # With OpenBLAS's own threading the generalized model's A_m and M_m
        # on this bundle differed in their last digits from one thread's.
        assert main(
            ["gen", "--grid", "20", "20", "--np", "25", "--unstable", "2",
             "--out", str(tmp_path / "sys")]
        ) == 0
        paths = [str(Path(ekstab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        unset = {k: v for k, v in env.items() if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
        one = {**env, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
        for name, child_env in (("default", unset), ("one", one)):
            result = subprocess.run(
                [sys.executable, "-m", "ekstab.cli", "reduce", "--form", "generalized",
                 "--bundle", str(tmp_path / "sys" / "system.manifest"),
                 "--out", str(tmp_path / name)],
                capture_output=True,
                text=True,
                env=child_env,
            )
            assert result.returncode == 0, result.stderr
        for fname in ("A_m.mtx", "M_m.mtx", "B_m.mtx", "C_m.mtx"):
            assert (tmp_path / "default" / fname).read_bytes() == (
                tmp_path / "one" / fname
            ).read_bytes()
