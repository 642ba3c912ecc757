import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from excepta import cli

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDENS = REPO / "goldens"


def run_cli(args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "excepta.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def config_command(path: Path) -> str:
    return json.loads(path.read_text())["command"]


def config_argv(stem: str, out: Path) -> list:
    cfg = CONFIGS / f"{stem}.json"
    return [config_command(cfg), "--config", str(cfg), "--out", str(out)]


def edited_config(stem: str, edit) -> dict:
    cfg = json.loads((CONFIGS / f"{stem}.json").read_text())
    edit(cfg)
    return cfg


# Configs that must be rejected with exit 2 and a JSON diagnostic, each an
# example config with one field removed or spoiled.
BAD_CONFIGS = {
    "chain_entry_without_seed_point": ("chain_theoretical", lambda c: c["traces"][0].pop("seed_point")),
    "chain_window_without_lo": ("chain_theoretical", lambda c: c["window"].pop("lo")),
    "chain_window_unknown_key": ("chain_theoretical", lambda c: c["window"].update(bogus=1)),
    "chain_empty_traces": ("chain_theoretical", lambda c: c.update(traces=[])),
    "chain_refine_line_without_origin": ("chain_theoretical", lambda c: c["refine_line"].pop("origin")),
    "trace_window_without_lo": ("trace_er", lambda c: c["window"].pop("lo")),
    "box_without_lo": ("surface_audit_box", lambda c: c["surface"]["box"].pop("lo")),
    "sphere_without_radius": (
        "surface_audit_box",
        lambda c: c.update(surface={"sphere": {"center": [0.0, 0.0, 0.0]}}),
    ),
    "unknown_relation": ("symmetry_gamma", lambda c: c.update(relation="nope")),
    "fit_free_without_bounds": ("fit_demo", lambda c: c["bounds"].pop("c")),
    "fit_unknown_free": ("fit_demo", lambda c: c.update(free=c["free"] + ["bogus"])),
    "fit_starts_zero": ("fit_demo", lambda c: c.update(starts=0)),
    "circle_radius_bool": ("vorticity_chain_loop", lambda c: c["loop"]["circle"].update(radius=True)),
    "circle_n_fractional": ("vorticity_chain_loop", lambda c: c["loop"]["circle"].update(n=64.5)),
    "circle_n_integral_float": ("vorticity_chain_loop", lambda c: c["loop"]["circle"].update(n=64.0)),
    "circle_center_two_entries": ("vorticity_chain_loop", lambda c: c["loop"]["circle"].update(center=[0.0, 0.0])),
    "trace_plane_bad_value": ("trace_er", lambda c: c.update(plane="kx=abc")),
    "sweep_ramp_n_string": ("sweep_experimental_chi", lambda c: c["ramp"].update(n="x")),
    "lattice_ky_bad_string": ("lattice_bands_small", lambda c: c.update(ky="abc")),
    "chain_same_line_twice": ("chain_theoretical", lambda c: c.update(traces=[c["traces"][0]] * 2)),
    "trace_oblique_theoretical": ("trace_er", lambda c: c.update(plane="oblique")),
    "circle_n_below_16": ("vorticity_chain_loop", lambda c: c["loop"]["circle"].update(n=8)),
    "lattice_grid_below_2": ("lattice_bands_small", lambda c: c.update(grid=[1, 16])),
    "lattice_ky_outside_zone": ("lattice_bands_small", lambda c: c.update(ky=5.0)),
    "arc_n_below_16": ("arc_one_chain", lambda c: c["arc"].update(n=8)),
    "box_without_extent": ("surface_audit_box", lambda c: c["surface"]["box"].update(hi=c["surface"]["box"]["lo"])),
    "wavepacket_grid_below_8": ("wavepacket_small", lambda c: c.update(spec={"grid": [4, 4]})),
    "model_param_nan": ("solve_theoretical", lambda c: c["model"]["params"].update(chi=float("nan"))),
    "loop_radius_infinity": ("surface_audit_box", lambda c: c.update(loop_radius=float("inf"))),
    "vorticity_same_band_twice": ("vorticity_chain_loop", lambda c: c.update(bands=[0, 0])),
    "vorticity_band_out_of_range": ("vorticity_chain_loop", lambda c: c.update(bands=[0, 5])),
    "effective_omega0_negative": ("effective_two_band", lambda c: c.update(omega0=-1)),
    "synth_freqs_decreasing": ("synth_demo", lambda c: c["freqs"].update({"from": 22.0, "to": 2.0})),
    "wavepacket_empty_slab": ("wavepacket_small", lambda c: c.update(slab=[0, 0])),
    "chain_step_zero": ("chain_theoretical", lambda c: c.update(step=0)),
    "lattice_trace_window_past_zone": (
        "trace_er",
        lambda c: c.update(
            model={"model": "lattice", "params": {}},
            plane="kx=0",
            seed_point=[0.0, 1.3, 0.05],
            step=0.03,
            window={"lo": [-3.2, -3.2, -3.2], "hi": [3.2, 3.2, 3.2]},
        ),
    ),
}

# Range errors that the handlers find: each message names its field.
RANGE_ERROR_FIELDS = {
    "vorticity_same_band_twice": "bands",
    "vorticity_band_out_of_range": "bands",
    "effective_omega0_negative": "omega0",
    "synth_freqs_decreasing": "freqs",
    "wavepacket_empty_slab": "slab",
    "chain_step_zero": "step",
    "lattice_trace_window_past_zone": "window",
}

# Keys where an explicit null means the default (None).
NULL_MEANS_DEFAULT = {"omega0", "loop_radius", "seed"}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_paths(value, path=()):
    """Paths to every number and every list of numbers inside a config."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numeric_paths(item, path + (key,))
    elif isinstance(value, list):
        if value and all(is_number(v) for v in value):
            yield path
        for i, item in enumerate(value):
            yield from numeric_paths(item, path + (i,))
    elif is_number(value):
        yield path


def replaced(cfg: dict, path: tuple, value) -> dict:
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return cfg


class TestExitCodes:
    def test_success(self, tmp_path):
        res = run_cli(["solve", "--config", str(CONFIGS / "solve_theoretical.json"), "--out", str(tmp_path)])
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["pf_gap_ok"] is True

    def test_missing_config_file(self, tmp_path):
        res = run_cli(["solve", "--config", str(tmp_path / "nope.json")])
        assert res.returncode == 2

    def test_malformed_missing_model(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"command": "solve", "output": "x"}))
        res = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert "model" in err["message"]

    @pytest.mark.parametrize("model", ["theoretical", "experimental", "lattice"])
    def test_unknown_key_rejected(self, model, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "solve",
                    "model": {"model": model, "params": {"bogus": 1.0}},
                    "output": "x",
                }
            )
        )
        res = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 2
        assert json.loads(res.stderr)["message"] == f"unknown field 'bogus' in '{model}' params"

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_invalid_config_exit_2(self, case, tmp_path):
        stem, edit = BAD_CONFIGS[case]
        cfg = edited_config(stem, edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        res = run_cli([cfg["command"], "--config", str(path), "--out", str(tmp_path)])
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"] == "config"

    @pytest.mark.parametrize("case", sorted(RANGE_ERROR_FIELDS))
    def test_range_error_names_its_field(self, case, capsys, tmp_path):
        stem, edit = BAD_CONFIGS[case]
        cfg = edited_config(stem, edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([cfg["command"], "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"'{RANGE_ERROR_FIELDS[case]}'" in json.loads(capsys.readouterr().err)["message"]

    def test_chain_names_duplicate_traces(self, tmp_path):
        cfg = edited_config("chain_theoretical", BAD_CONFIGS["chain_same_line_twice"][1])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(cfg))
        res = run_cli(["chain", "--config", str(path), "--out", str(tmp_path)])
        assert res.returncode == 2
        assert "lines 0 and 1 trace the same exceptional line" in json.loads(res.stderr)["message"]

    @pytest.mark.parametrize("rows", ["first_30", "no_header"])
    def test_fit_bad_data_names_data(self, rows, tmp_path):
        lines = (GOLDENS / "synth_demo.csv").read_text().splitlines(keepends=True)
        data = tmp_path / "data.csv"
        data.write_text("".join(lines[:31] if rows == "first_30" else lines[1:]))
        cfg = edited_config("fit_demo", lambda c: c.update(data=str(data)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        res = run_cli(["fit", "--config", str(path), "--out", str(tmp_path)])
        assert res.returncode == 2, res.stderr
        assert "'data'" in json.loads(res.stderr)["message"]

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_spoiled_numbers_exit_2(self, config, tmp_path, capsys):
        # Every number and numeric list, replaced by a string or by null, is a
        # config error, except null on a key whose default is None.
        base = json.loads(config.read_text())
        command = base["command"]
        failures = []
        for path in numeric_paths(base):
            for value in ("x", None):
                cfg = replaced(base, path, value)
                if value is None and path[-1] in NULL_MEANS_DEFAULT:
                    assert cli.load(cli.SCHEMAS[command], cfg)[path[-1]] is None
                    continue
                cfg_path = tmp_path / "bad.json"
                cfg_path.write_text(json.dumps(cfg))
                code = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                if code != 2:
                    failures.append(f"{path}={value!r}: exit {code} {err[-200:]}")
        assert not failures, "\n".join(failures)

    def test_command_mismatch(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "sweep",
                    "model": {"model": "theoretical", "params": {}},
                    "output": "x",
                }
            )
        )
        res = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 2

    def test_numerical_failure_exit_3(self, tmp_path):
        # A loop through the chain point cannot be tracked.
        cfg = tmp_path / "num.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "vorticity",
                    "model": {"model": "theoretical", "params": {"dchi": -0.05}},
                    "loop": {
                        "points": {
                            "points": [[0.0, -0.02 + 0.0025 * i, 0.0] for i in range(17)],
                            "closed": False,
                        }
                    },
                    "output": "x",
                }
            )
        )
        res = run_cli(["vorticity", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 3
        assert json.loads(res.stderr)["error"] == "TrackingError"

    def test_numerical_failure_reports_its_point(self, tmp_path):
        # At kappa = 3 one band frequency is imaginary: the seed has no line gap.
        def seed_without_gap(cfg):
            cfg["seed_point"] = [0.0, 0.0, 3.0]
            cfg["window"]["hi"][2] = 3.5

        cfg = tmp_path / "gapless.json"
        cfg.write_text(json.dumps(edited_config("trace_er", seed_without_gap)))
        res = run_cli(["trace", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 3
        err = json.loads(res.stderr)
        assert err["error"] == "RefineError"
        assert err["point"] == [0.0, 0.0, 3.0]


    def test_chain_node_refinement_failure_reports_its_point(self, tmp_path):
        # Along gamma the node refinement passes through the chain point at
        # chi = 0, where Re D+ has a double zero: Newton on the line cannot
        # meet its tolerance, and the run exits 3 instead of crashing.
        def refine_along_gamma(cfg):
            cfg["refine_line"]["direction"] = [1.0, 0.0, 0.0]

        cfg = tmp_path / "chain_gamma.json"
        cfg.write_text(json.dumps(edited_config("chain_theoretical", refine_along_gamma)))
        res = run_cli(["chain", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 3
        err = json.loads(res.stderr)
        assert err["error"] == "RefineError"
        assert len(err["point"]) == 3

    def test_linalg_error_exit_3(self, tmp_path):
        # Both values pass validation, but kbar / m0 overflows the companion
        # matrix, and numpy's LinAlgError is a numerical failure.
        cfg = tmp_path / "overflow.json"
        model = {"model": "theoretical", "params": {"m0": 1e-300, "kbar": 1e300}}
        cfg.write_text(json.dumps({"command": "solve", "model": model, "output": "x"}))
        res = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 3, res.stderr
        err = json.loads(res.stderr)  # the whole of stderr: numpy's warnings are inside it
        assert err["error"] == "LinAlgError"
        assert err["message"]
        assert err["warnings"] == ["invalid value encountered in multiply"]

    def test_warnings_of_a_successful_run_still_print(self):
        # A run that warns and succeeds: the warning is printed as Python prints it, then the summary.
        script = ("import sys, warnings; from excepta import cli; "
                  "cli.run = lambda *args: warnings.warn('overflow in a sample', RuntimeWarning) or {'ok': 1}; "
                  "sys.exit(cli.main(['solve', '--config', 'unused.json']))")
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=REPO)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"ok": 1}
        assert "RuntimeWarning: overflow in a sample" in res.stderr

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_unusable_out_exit_2(self, out, tmp_path):
        (tmp_path / "taken").write_text("not a directory")
        cfg = CONFIGS / "solve_theoretical.json"
        res = run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / out)])
        assert res.returncode == 2, res.stderr
        err = json.loads(res.stderr)
        assert err["error"] == "config"
        assert "--out" in err["message"]
        assert (tmp_path / "taken").read_text() == "not a directory"


# The library's numerical error classes, each with the base it had before
# numkernel.NumericalError.
OLD_BASES = {
    "excepta.numkernel.ConvergenceError": RuntimeError,
    "excepta.qep.SpectralGapError": RuntimeError,
    "excepta.topology.TrackingError": RuntimeError,
    "excepta.topology.IsolationError": RuntimeError,
    "excepta.tracer.RefineError": RuntimeError,
    "excepta.tracer.DiabolicPointError": RuntimeError,
    "excepta.lattice.ChainPointError": ValueError,
    "excepta.symmetry.PoleError": RuntimeError,
}

# Each of them, and numpy's LinAlgError, raised from inside a handler whose
# module the CLI imports on demand: (module and function patched, error, its
# structured fields, config stem).
NUMERICAL_FAILURES = [
    ("retrieval", "fit_parameters", "excepta.numkernel.ConvergenceError", {"best": [0.5, 1.5], "residual": 0.25},
     "fit_demo"),
    ("topology", "arc_invariant", "excepta.qep.SpectralGapError", {}, "arc_one_chain"),
    ("topology", "track_bands", "excepta.topology.TrackingError", {}, "vorticity_chain_loop"),
    ("topology", "surface_audit", "excepta.topology.IsolationError", {}, "surface_audit_box"),
    ("tracer", "trace_el", "excepta.tracer.RefineError", {"point": [0.1, 0.2, 0.3], "value": 0.5}, "trace_er"),
    ("tracer", "trace_el", "excepta.tracer.DiabolicPointError", {}, "chain_theoretical"),
    ("lattice", "chain_point_coords", "excepta.lattice.ChainPointError", {}, "chain_point_lattice"),
    ("symmetry", "theorem2_crosscheck", "excepta.symmetry.PoleError", {}, "latent_theoretical"),
    ("retrieval", "synth_response", "numpy.linalg.LinAlgError", {}, "synth_demo"),
]

# Replace one library function by one that raises, then run the CLI in-process.
INJECT_FAILURE = (
    "import importlib, json, sys\n"
    "from excepta import cli\n"
    "module, function, error, fields, argv = json.loads(sys.argv[1])\n"
    "error_module, _, error_name = error.rpartition('.')\n"
    "exc = getattr(importlib.import_module(error_module), error_name)('injected', **fields)\n"
    "def fail(*args, **kwargs):\n"
    "    raise exc\n"
    "setattr(importlib.import_module('excepta.' + module), function, fail)\n"
    "sys.exit(cli.main(argv))\n"
)


class TestNumericalFailures:
    @pytest.mark.parametrize(
        "module, function, error, fields, stem",
        NUMERICAL_FAILURES,
        ids=[case[2].split(".")[-1] for case in NUMERICAL_FAILURES],
    )
    def test_exit_3_with_structured_fields(self, module, function, error, fields, stem, tmp_path):
        argv = config_argv(stem, tmp_path)
        res = subprocess.run(
            [sys.executable, "-c", INJECT_FAILURE, json.dumps([module, function, error, fields, argv])],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert res.returncode == 3, res.stderr
        assert json.loads(res.stderr) == {"error": error.split(".")[-1], "message": "injected", **fields}

    def test_every_numerical_error_is_injected(self):
        from excepta import lattice, retrieval, symmetry  # noqa: F401  (defines the rest of the classes)
        from excepta.numkernel import NumericalError

        assert {f"{c.__module__}.{c.__name__}" for c in NumericalError.__subclasses__()} == set(OLD_BASES)
        assert sorted(case[2] for case in NUMERICAL_FAILURES) == sorted([*OLD_BASES, "numpy.linalg.LinAlgError"])

    @pytest.mark.parametrize("error", OLD_BASES, ids=lambda path: path.split(".")[-1])
    def test_marker_base_keeps_the_old_base(self, error):
        from excepta.numkernel import NumericalError

        module, _, name = error.rpartition(".")
        exc = getattr(importlib.import_module(module), name)("injected")
        assert isinstance(exc, NumericalError)
        assert isinstance(exc, OLD_BASES[error])


# What `import excepta.cli` loads; each handler imports the rest on demand.
CLI_MODULES = ["excepta", "excepta.cli", "excepta.models", "excepta.numkernel", "excepta.qep"]


def excepta_modules(argv: list) -> list:
    """The excepta modules of a fresh interpreter after `from excepta import cli` and, given argv, cli.main(argv)."""
    script = (
        "import json, sys\n"
        "from excepta import cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "rc = cli.main(argv) if argv else 0\n"
        "print()\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('excepta'))]))\n"
    )
    res = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], capture_output=True, text=True, cwd=REPO)
    assert res.returncode == 0, res.stderr
    rc, modules = json.loads(res.stdout.splitlines()[-1])
    assert rc == 0, res.stderr
    return modules


class TestColdStart:
    # numpy is the only runtime dependency: no library module imports scipy,
    # and every example config runs where importing it fails.
    @pytest.mark.parametrize(
        "statement",
        [
            "import excepta.cli",
            "from excepta import models, topology, tracer, lattice",
            "import excepta.retrieval",
        ],
        ids=["cli", "core", "retrieval"],
    )
    def test_import_loads_no_scipy(self, statement):
        res = subprocess.run(
            [sys.executable, "-c", f"import sys; {statement}; print([m for m in sys.modules if m.startswith('scipy')])"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    @pytest.mark.parametrize("stem", ["vorticity_fig1_loops", "trace_er", "sweep_experimental_chi"])
    def test_band_matching_commands_load_no_scipy(self, stem, tmp_path):
        # The loop tracker, the probe orientation and the sweep matcher.
        cfg = CONFIGS / f"{stem}.json"
        args = [config_command(cfg), "--config", str(cfg), "--out", str(tmp_path)]
        res = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; from excepta import cli; rc = cli.main({args!r}); print(); "
                "print(rc, [m for m in sys.modules if m.startswith('scipy')])",
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "0 []"

    def test_every_config_runs_with_scipy_blocked(self, tmp_path):
        configs = sorted(CONFIGS.glob("*.json"))
        runs = [[config_command(c), "--config", str(c), "--out", str(tmp_path / c.stem)] for c in configs]
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from excepta import cli\n"
            "codes = [cli.main(args) for args in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True, cwd=REPO
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == [0] * len(configs), res.stderr
        for config in configs:
            produced = sorted((tmp_path / config.stem).iterdir())
            assert produced, config.stem
            for path in produced:
                assert path.read_bytes() == (GOLDENS / path.name).read_bytes(), path.name

    def test_import_loads_only_the_shared_modules(self):
        assert excepta_modules([]) == CLI_MODULES

    @pytest.mark.parametrize(
        "stem, extra",
        [
            ("solve_theoretical", []),
            ("effective_two_band", []),
            ("fit_demo", ["excepta.retrieval"]),
            ("synth_demo", ["excepta.retrieval"]),
        ],
    )
    def test_command_loads_exactly(self, stem, extra, tmp_path):
        assert excepta_modules(config_argv(stem, tmp_path)) == sorted(CLI_MODULES + extra)

    @pytest.mark.parametrize(
        "stem, unused",
        [
            ("trace_er", ["excepta.lattice", "excepta.retrieval", "excepta.symmetry"]),
            ("chain_theoretical", ["excepta.lattice", "excepta.retrieval", "excepta.symmetry"]),
            ("wavepacket_small", ["excepta.retrieval", "excepta.symmetry"]),
        ],
    )
    def test_command_skips_unused_modules(self, stem, unused, tmp_path):
        assert not set(unused) & set(excepta_modules(config_argv(stem, tmp_path)))

    def test_no_scipy_import(self):
        for source in sorted((REPO / "src" / "excepta").glob("*.py")):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), f"{source.name}:{node.lineno}"


class TestGoldenRoundTrip:
    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_regenerates_identically(self, config, tmp_path):
        res = run_cli([config_command(config), "--config", str(config), "--out", str(tmp_path)])
        assert res.returncode == 0, res.stderr
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert produced
        for name in produced:
            assert (GOLDENS / name).exists(), f"no golden for {name}"
            assert (tmp_path / name).read_bytes() == (GOLDENS / name).read_bytes()


class TestJobs:
    def test_parallel_vorticity_matches_serial(self, tmp_path):
        cfg = CONFIGS / "vorticity_fig1_loops.json"
        serial = run_cli(["vorticity", "--config", str(cfg), "--out", str(tmp_path / "a")])
        parallel = run_cli(
            ["vorticity", "--config", str(cfg), "--out", str(tmp_path / "b"), "--jobs", "3"]
        )
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout
        a = (tmp_path / "a" / "vorticity_fig1_loops.json").read_bytes()
        b = (tmp_path / "b" / "vorticity_fig1_loops.json").read_bytes()
        assert a == b


class TestFieldDump:
    def test_wavepacket_field_dump_format(self, tmp_path):
        cfg = tmp_path / "wp.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "wavepacket",
                    "model": {
                        "model": "lattice",
                        "params": {"kappa1": 1.3, "kappa2": -0.7, "chi": 0.5, "dchi": 0.4, "gamma": 0.7},
                    },
                    "spec": {"q": 0.15707963267948966, "kmax": 1.2566370614359172, "grid": [8, 8]},
                    "times": [0.0, 5.0],
                    "slab": [16, 16],
                    "dump_fields": True,
                    "output": "wp",
                }
            )
        )
        res = run_cli(["wavepacket", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 0, res.stderr
        dump = (tmp_path / "wp_field_t5.csv").read_text()
        header = dump.splitlines()[0].split(",")
        assert header[:2] == ["x", "z"]
        assert len(header) == 10  # x, z, re/im of 4 components
        assert len(dump.splitlines()) == 1 + 16 * 16


class TestSweepExamples:
    def test_zero_length_ramp_single_row(self, tmp_path):
        cfg = tmp_path / "ramp.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "sweep",
                    "model": {"model": "experimental", "params": {"gamma0": 0.085, "dchi": -0.073}},
                    "ramp": {"param": "chi", "from": 0.05, "to": 0.05, "n": 1},
                    "output": "ramp",
                }
            )
        )
        res = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.returncode == 0
        rows = (tmp_path / "ramp.csv").read_text().splitlines()
        assert len(rows) == 2  # header + single row

    def test_exact_phase_has_common_imaginary_part(self):
        # In the exact phase both bands share Im(w) = -gamma0 / (2 m0).
        rows = (GOLDENS / "sweep_experimental_chi.csv").read_text().splitlines()[1:]
        tail = [list(map(float, r.split(","))) for r in rows[-5:]]
        for _, _, im1, _, im2 in tail:
            assert abs(im1 + 0.0425) < 1e-9
            assert abs(im2 + 0.0425) < 1e-9
