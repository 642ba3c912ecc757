import json
import subprocess
import sys
from pathlib import Path

import pytest

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
}


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


class TestColdStart:
    @staticmethod
    def loaded_after_cli_import(module: str) -> str:
        res = subprocess.run(
            [sys.executable, "-c", f"import sys, excepta.cli; print({module!r} in sys.modules)"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert res.returncode == 0, res.stderr
        return res.stdout.strip()

    def test_cli_import_skips_scipy_stats(self):
        # Only synth and fit need the retrieval module and its scipy.stats.
        assert self.loaded_after_cli_import("scipy.stats") == "False"

    def test_cli_import_skips_scipy_optimize(self):
        # Band matching and the particle-hole residual import it when called.
        assert self.loaded_after_cli_import("scipy.optimize") == "False"


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
