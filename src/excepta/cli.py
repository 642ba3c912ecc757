"""Command-line front end: JSON-configured runs emitting CSV/JSON artifacts.

    excepta <command> --config cfg.json [--out DIR] [--seed N] [--jobs N]

Exit codes: 0 success, 2 config/validation error, 3 numerical failure
(diagnostics as JSON on stderr).  All floats are printed with 12
significant digits and JSON keys are sorted, so artifacts are stable
golden files for a fixed seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import lattice as lat
from . import models, symmetry, topology, tracer
from . import qep
from .numkernel import ConvergenceError, SingularMatrixError

COMMANDS = (
    "solve",
    "sweep",
    "vorticity",
    "arc",
    "trace",
    "chain",
    "surface-audit",
    "symmetry-check",
    "latent-check",
    "effective",
    "lattice-bands",
    "chain-point",
    "wavepacket",
    "synth",
    "fit",
)

NUMERICAL_ERRORS = (
    ConvergenceError,
    SingularMatrixError,
    qep.SpectralGapError,
    qep.NearSingularError,
    topology.TrackingError,
    topology.IsolationError,
    tracer.RefineError,
    tracer.DiabolicPointError,
    lat.ChainPointError,
    symmetry.PoleError,
)


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _fmt(x: float) -> float:
    return float(f"{float(x):.12g}")


def _round_floats(obj):
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, complex):
        return [_fmt(obj.real), _fmt(obj.imag)]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing required field '{key}'")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"field '{key}' has wrong type (expected {getattr(kind, '__name__', kind)})")
    return val


def _check_keys(cfg: dict, allowed: set, where: str = "config"):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown field '{sorted(unknown)[0]}' in {where}")


def parse_model(spec: dict):
    _check_keys(spec, {"model", "params"}, "model spec")
    name = _require(spec, "model", str)
    if name not in models.MODELS:
        raise ConfigError(f"field 'model' must be one of {sorted(models.MODELS)}")
    cls = models.MODELS[name].params
    params = spec.get("params", {})
    _check_keys(params, {f.name for f in dataclasses.fields(cls)}, f"'{name}' params")
    try:
        return name, cls(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model params: {exc}") from exc


def parse_path(spec: dict) -> topology.ParameterPath:
    kinds = {"circle", "rect", "points"}
    keys = kinds & set(spec)
    if len(keys) != 1:
        raise ConfigError(f"path spec needs exactly one of {sorted(kinds)}")
    kind = keys.pop()
    _check_keys(spec, {kind}, "path spec")
    body = spec[kind]
    if kind == "circle":
        _check_keys(body, {"center", "normal", "radius", "n"}, "circle spec")
        return topology.circle_path(
            _require(body, "center", list),
            _require(body, "normal", list),
            float(_require(body, "radius", (int, float))),
            int(body.get("n", 64)),
        )
    if kind == "rect":
        _check_keys(body, {"center", "u", "v", "half_u", "half_v", "n_per_edge"}, "rect spec")
        return topology.rect_path(
            _require(body, "center", list),
            _require(body, "u", list),
            _require(body, "v", list),
            float(_require(body, "half_u", (int, float))),
            float(_require(body, "half_v", (int, float))),
            int(body.get("n_per_edge", 16)),
        )
    _check_keys(body, {"points", "closed"}, "points spec")
    return topology.ParameterPath(
        points=np.asarray(_require(body, "points", list), dtype=float),
        closed=bool(body.get("closed", True)),
    )


def parse_plane(spec, params) -> tracer.PlaneSpec:
    if isinstance(spec, str):
        if spec == "gamma=0":
            return tracer.plane_gamma0()
        if spec == "kappa=0":
            return tracer.plane_kappa0()
        if spec == "oblique":
            return tracer.plane_oblique(params.gamma0, params.m0)
        if spec.startswith("k") and "=" in spec:
            axis, val = spec[1:].split("=")
            return tracer.plane_wavevector(axis, float(val))
        raise ConfigError(f"unknown plane '{spec}'")
    _check_keys(spec, {"origin", "u", "v", "tag"}, "plane spec")
    return tracer.PlaneSpec(
        origin=np.asarray(_require(spec, "origin", list), dtype=float),
        u=np.asarray(_require(spec, "u", list), dtype=float),
        v=np.asarray(_require(spec, "v", list), dtype=float),
        tag=spec.get("tag", "custom"),
    )


def parse_window(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    window = _require(cfg, "window", dict)
    _check_keys(window, {"lo", "hi"}, "window spec")
    return (
        np.asarray(_require(window, "lo", list), dtype=float),
        np.asarray(_require(window, "hi", list), dtype=float),
    )


def _omega_list(ws) -> list:
    return [[_fmt(w.real), _fmt(w.imag)] for w in ws]


def cmd_solve(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "output"}, "solve config")
    name, params = parse_model(_require(cfg, "model", dict))
    spectrum = qep.solve(models.MODELS[name].qmp(params))
    result = {
        "omegas": _omega_list(spectrum.omegas),
        "pf_gap_ok": spectrum.pf_gap_ok,
        "ep_clusters": [list(c) for c in spectrum.ep_clusters],
    }
    return result, [(cfg["output"] + ".json", _dump_json(result))]


def cmd_sweep(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "ramp", "output"}, "sweep config")
    name, params = parse_model(_require(cfg, "model", dict))
    if name == "lattice":
        raise ConfigError("field 'model': sweep supports the synthetic-dimension models")
    ramp = _require(cfg, "ramp", dict)
    _check_keys(ramp, {"param", "from", "to", "n"}, "ramp spec")
    pname = _require(ramp, "param", str)
    axis = {"gamma": 0, "chi": 1, "kappa": 2}.get(pname)
    if axis is None:
        raise ConfigError("ramp field 'param' must be gamma, chi, or kappa")
    n = int(ramp.get("n", 101))
    values = np.linspace(float(_require(ramp, "from", (int, float))), float(_require(ramp, "to", (int, float))), max(n, 1))
    base = params.g
    build = models.builder(params)
    # Sweeps may cross exceptional points (band merging is the interesting
    # feature), so continuation is lenient: per-sample assignment matching
    # without the EP-refusing adaptive refinement used for loop invariants.
    rows = []
    prev = None
    for v in values:
        g = base.copy()
        g[axis] = v
        w = qep.pf_omegas(qep.solve(build(g)))
        if prev is not None:
            w = w[topology.match_bands(prev, w)]
        prev = w
        rows.append([v] + [x for wi in w for x in (wi.real, wi.imag)])
    text = qep.csv_text(["param", "re_w1", "im_w1", "re_w2", "im_w2"], rows)
    return {"rows": len(rows)}, [(cfg["output"] + ".csv", text)]


def cmd_vorticity(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "loop", "loops", "bands", "output"}, "vorticity config")
    name, params = parse_model(_require(cfg, "model", dict))
    build = models.builder(params)
    bands = cfg.get("bands", [0, 1])
    if "loops" in cfg:
        loop_specs = _require(cfg, "loops", list)
    elif "loop" in cfg:
        loop_specs = [{"name": "loop", "loop": cfg["loop"]}]
    else:
        raise ConfigError("missing required field 'loop' (or 'loops')")

    def one(spec):
        _check_keys(spec, {"name", "loop"}, "loop entry")
        path = parse_path(_require(spec, "loop", dict))
        tb = topology.track_bands(build, path)
        return spec.get("name", "loop"), topology.energy_vorticity(tb, bands[0], bands[1])

    if jobs > 1 and len(loop_specs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            items = list(pool.map(one, loop_specs))
    else:
        items = [one(s) for s in loop_specs]
    items.sort(key=lambda kv: kv[0])
    if len(items) == 1:
        result = {"nu": _fmt(items[0][1])}
    else:
        result = {"nu": {k: _fmt(v) for k, v in items}}
    return result, [(cfg["output"] + ".json", _dump_json(result))]


def cmd_arc(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "arc", "output"}, "arc config")
    name, params = parse_model(_require(cfg, "model", dict))
    spec = _require(cfg, "arc", dict)
    _check_keys(spec, {"start", "end", "via", "bulge", "n"}, "arc spec")
    path = topology.arc_path(
        _require(spec, "start", list),
        _require(spec, "end", list),
        _require(spec, "via", list),
        float(_require(spec, "bulge", (int, float))),
        int(spec.get("n", 64)),
    )
    val = topology.arc_invariant(models.builder(params), path)
    result = {"d_plus": _fmt(val)}
    return result, [(cfg["output"] + ".json", _dump_json(result))]


def _line_payload(line: tracer.ExceptionalLine) -> dict:
    return {
        "closed": line.closed,
        "orientation": line.orientation,
        "plane": line.plane_tag,
        "n_vertices": len(line.polyline),
        "polyline": [[_fmt(c) for c in p] for p in line.polyline],
    }


def _line_csv(lines) -> str:
    rows = ([e, i, *p] for e, line in enumerate(lines) for i, p in enumerate(line.polyline))
    return qep.csv_text(["edge", "vertex", "x0", "x1", "x2"], rows)


def cmd_trace(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "plane", "seed_point", "step", "window", "output"}, "trace config")
    name, params = parse_model(_require(cfg, "model", dict))
    build = models.builder(params)
    plane = parse_plane(cfg.get("plane"), params) if cfg.get("plane") else None
    line = tracer.trace_el(
        build,
        np.asarray(_require(cfg, "seed_point", list), dtype=float),
        float(_require(cfg, "step", (int, float))),
        parse_window(cfg),
        plane=plane,
    )
    payload = _line_payload(line)
    return {"closed": line.closed, "orientation": line.orientation, "n_vertices": len(line.polyline)}, [
        (cfg["output"] + ".json", _dump_json(payload)),
        (cfg["output"] + ".csv", _line_csv([line])),
    ]


def cmd_chain(cfg, out_dir, seed, jobs):
    _check_keys(
        cfg,
        {"command", "model", "traces", "step", "window", "junction_tol", "refine_line", "output"},
        "chain config",
    )
    name, params = parse_model(_require(cfg, "model", dict))
    build = models.builder(params)
    win = parse_window(cfg)
    step = float(_require(cfg, "step", (int, float)))
    traces = _require(cfg, "traces", list)
    if not traces:
        raise ConfigError("field 'traces' must not be empty")
    lines = []
    for entry in traces:
        _check_keys(entry, {"plane", "seed_point"}, "trace entry")
        plane = parse_plane(entry.get("plane"), params) if entry.get("plane") else None
        seed_point = np.asarray(_require(entry, "seed_point", list), dtype=float)
        lines.append(tracer.trace_el(build, seed_point, step, win, plane=plane))
    refine_line = None
    if "refine_line" in cfg:
        rl = _require(cfg, "refine_line", dict)
        _check_keys(rl, {"origin", "direction"}, "refine_line spec")
        refine_line = (
            np.asarray(_require(rl, "origin", list), dtype=float),
            np.asarray(_require(rl, "direction", list), dtype=float),
        )
    graph = tracer.assemble_chain(
        build,
        lines,
        junction_tol=float(cfg.get("junction_tol", 2.0 * step)),
        refine_line=refine_line,
    )
    payload = {
        "valid": graph.valid,
        "nodes": [
            {"position": [_fmt(c) for c in n.position], "in": n.n_in, "out": n.n_out}
            for n in graph.nodes
        ],
        "edges": [
            {
                "plane": e.line.plane_tag,
                "orientation": e.line.orientation,
                "start_node": e.start_node,
                "end_node": e.end_node,
                "n_vertices": len(e.line.polyline),
            }
            for e in graph.edges
        ],
    }
    files = [
        (cfg["output"] + ".json", _dump_json(payload)),
        (cfg["output"] + ".csv", _line_csv([e.line for e in graph.edges])),
    ]
    return {"valid": graph.valid, "n_nodes": len(graph.nodes), "n_edges": len(graph.edges)}, files


def cmd_surface_audit(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "surface", "punctures", "loop_radius", "output"}, "surface-audit config")
    name, params = parse_model(_require(cfg, "model", dict))
    build = models.builder(params)
    spec = _require(cfg, "surface", dict)
    kinds = {"box", "sphere"} & set(spec)
    if len(kinds) != 1:
        raise ConfigError("surface spec needs exactly one of ['box', 'sphere']")
    kind = kinds.pop()
    body = spec[kind]
    if kind == "box":
        _check_keys(body, {"lo", "hi", "n_per_edge"}, "box spec")
        surface = topology.box_surface(
            _require(body, "lo", list), _require(body, "hi", list), int(body.get("n_per_edge", 8))
        )
    else:
        _check_keys(body, {"center", "radius", "n_theta", "n_phi"}, "sphere spec")
        surface = topology.sphere_surface(
            _require(body, "center", list),
            float(_require(body, "radius", (int, float))),
            int(body.get("n_theta", 8)),
            int(body.get("n_phi", 16)),
        )
    punctures = cfg.get("punctures", [])
    radius = cfg.get("loop_radius")
    result = topology.surface_audit(
        build, surface, punctures, loop_radius=None if radius is None else float(radius)
    )
    payload = {"pfdns": list(result.pfdns), "total": result.total}
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_symmetry_check(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "relation", "n_samples", "scale", "output", "seed"}, "symmetry-check config")
    name, params = parse_model(_require(cfg, "model", dict))
    rel_name = _require(cfg, "relation", str)
    gamma0 = getattr(params, "gamma0", 0.0)
    m0 = getattr(params, "m0", getattr(params, "m", 1.0))
    try:
        rel = symmetry.builtin_relation(rel_name, gamma0=gamma0, m0=m0)
    except KeyError as exc:
        raise ConfigError(f"field 'relation': {exc.args[0]}") from exc
    n = int(cfg.get("n_samples", 100))
    scale = float(cfg.get("scale", 0.3))
    rng = np.random.default_rng(int(cfg.get("seed", seed)))
    samples = []
    for _ in range(n):
        omega = complex(rng.normal(), rng.normal())
        if name == "lattice":
            g = rng.uniform(-np.pi, np.pi, size=3)
        else:
            g = rng.uniform(-scale, scale, size=3)
            if rel_name == "gamma-sub":
                g[0] = 0.0
            elif rel_name == "kappa-sub":
                g[2] = gamma0 * g[0] / (2.0 * m0)
        samples.append((omega, g))
    res = symmetry.relation_residual(models.builder(params), rel, samples)
    payload = {"relation": rel_name, "residual": _fmt(res), "n_samples": n}
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_latent_check(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "point", "n_max", "output"}, "latent-check config")
    name, params = parse_model(_require(cfg, "model", dict))
    if name == "lattice":
        raise ConfigError("field 'model': latent-check supports the synthetic-dimension models")
    g = np.asarray(_require(cfg, "point", list), dtype=float)
    n_max = int(cfg.get("n_max", 4))
    if name == "theoretical":
        h = qep.linearize(models.theoretical_qmp(params.at(g)))
        h_mapped = qep.linearize(models.theoretical_qmp(params.at(g * np.array([1.0, 1.0, -1.0]))))
    else:
        # Loss-biased model: latent structure lives in the frequency-shifted
        # form on the plane kappa = gamma0 gamma / (2 m0).
        g = g.copy()
        g[2] = params.gamma0 * g[0] / (2.0 * params.m0)
        h = qep.linearize(models.experimental_shifted_qmp(params.at(g)))
        h_mapped = h
    res = symmetry.theorem2_crosscheck(h_mapped, h, models.SIGMA_X, symmetry.velocity_block(2), n_max=n_max)
    payload = {
        "latent_residual": _fmt(res.latent),
        "reduction_residual": _fmt(res.reduction),
        "passed": res.passed,
        "point": [_fmt(v) for v in g],
    }
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_effective(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "omega0", "output"}, "effective config")
    name, params = parse_model(_require(cfg, "model", dict))
    if name == "lattice":
        raise ConfigError("field 'model': effective reduction supports the synthetic-dimension models")
    q = models.MODELS[name].qmp(params)
    eff = models.effective_two_band(q, cfg.get("omega0"))
    pf = qep.pf_omegas(qep.solve(q))
    exact_split = pf[1] - pf[0]
    shifts = eff.shifts
    payload = {
        "omega0": _fmt(eff.omega0),
        "valid_radius": _fmt(eff.valid_radius),
        "h_eff": [[[_fmt(z.real), _fmt(z.imag)] for z in row] for row in eff.h_eff],
        "shifts": _omega_list(shifts),
        "effective_splitting": _omega_list([shifts[1] - shifts[0]])[0],
        "exact_splitting": _omega_list([exact_split])[0],
    }
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_lattice_bands(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "ky", "grid", "window", "output"}, "lattice-bands config")
    name, params = parse_model(_require(cfg, "model", dict))
    if name != "lattice":
        raise ConfigError("field 'model' must be 'lattice'")
    ky = cfg.get("ky", "chain-point")
    if ky == "chain-point":
        ky = float(lat.chain_point_coords(params)[1])
    grid = tuple(cfg.get("grid", [32, 32]))
    window = cfg.get("window", [[-np.pi, np.pi], [-np.pi, np.pi]])
    field = lat.band_slice(params, float(ky), grid=grid, window=(tuple(window[0]), tuple(window[1])))
    rows = []
    for i, kx in enumerate(field.kx):
        for j, kz in enumerate(field.kz):
            w = field.omegas[i, j]
            rows.append([kx, kz, w[0].real, w[0].imag, w[1].real, w[1].imag])
    text = qep.csv_text(["kx", "kz", "re_w1", "im_w1", "re_w2", "im_w2"], rows)
    return {"ky": _fmt(ky), "n_rows": len(rows), "bad_cells": len(field.bad_cells)}, [
        (cfg["output"] + ".csv", text)
    ]


def cmd_chain_point(cfg, out_dir, seed, jobs):
    _check_keys(cfg, {"command", "model", "output"}, "chain-point config")
    name, params = parse_model(_require(cfg, "model", dict))
    if name != "lattice":
        raise ConfigError("field 'model' must be 'lattice'")
    k = lat.chain_point_coords(params)
    payload = {"ky": _fmt(k[1]), "k": [_fmt(v) for v in k]}
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_wavepacket(cfg, out_dir, seed, jobs):
    _check_keys(
        cfg, {"command", "model", "spec", "times", "slab", "dump_fields", "output"}, "wavepacket config"
    )
    name, params = parse_model(_require(cfg, "model", dict))
    if name != "lattice":
        raise ConfigError("field 'model' must be 'lattice'")
    spec_cfg = cfg.get("spec", {})
    _check_keys(spec_cfg, {"q", "kmax", "grid"}, "wavepacket spec")
    spec = lat.WavepacketSpec(
        q=float(spec_cfg.get("q", 0.05 * np.pi)),
        kmax=float(spec_cfg.get("kmax", 0.4 * np.pi)),
        grid=tuple(spec_cfg.get("grid", [64, 64])),
    )
    times = [float(t) for t in _require(cfg, "times", list)]
    slab = tuple(cfg.get("slab", [256, 256]))
    fields = lat.evolve_wavepacket(params, spec, times, slab=slab)
    rows = []
    for f in fields:
        for band in (1, 2):
            m = lat.pulse_metrics(f, band)
            rows.append(
                [f.t, band, m.centroid_z, m.log_amplitude, m.width_x, m.width_z, m.aspect, int(f.boundary_contaminated)]
            )
    header = ["t", "band", "centroid_z", "log_amplitude", "width_x", "width_z", "aspect", "boundary_flag"]
    g1, g2 = lat.max_growth_rates(params, spec)
    payload = {"n_times": len(times), "max_growth": [_fmt(g1), _fmt(g2)]}
    files = [(cfg["output"] + ".csv", qep.csv_text(header, rows))]
    if cfg.get("dump_fields"):
        for f in fields:
            files.append((f"{cfg['output']}_field_t{f.t:g}.csv", lat.field_to_csv(f)))
    return payload, files


def cmd_synth(cfg, out_dir, seed, jobs):
    from . import retrieval

    _check_keys(cfg, {"command", "params", "freqs", "noise", "seed", "output"}, "synth config")
    params = _require(cfg, "params", dict)
    _check_keys(params, set(retrieval.PARAM_NAMES), "synth params")
    full = {n: float(params.get(n, 0.0)) for n in retrieval.PARAM_NAMES}
    fspec = _require(cfg, "freqs", dict)
    _check_keys(fspec, {"from", "to", "n"}, "freqs spec")
    freqs = np.linspace(float(fspec["from"]), float(fspec["to"]), int(fspec["n"]))
    spectra = retrieval.synth_response(
        full, freqs, noise=float(cfg.get("noise", 0.0)), seed=int(cfg.get("seed", seed))
    )
    return {"n_freqs": len(freqs), "noise": spectra.noise_level}, [
        (cfg["output"] + ".csv", retrieval.spectra_to_csv(spectra))
    ]


def cmd_fit(cfg, out_dir, seed, jobs):
    from . import retrieval

    _check_keys(
        cfg, {"command", "data", "free", "bounds", "fixed", "starts", "seed", "output"}, "fit config"
    )
    data_path = Path(_require(cfg, "data", str))
    if not data_path.exists():
        raise ConfigError(f"field 'data': file {data_path} does not exist")
    spectra = retrieval.spectra_from_csv(data_path.read_text())
    try:
        model = retrieval.FitModel(
            free=tuple(_require(cfg, "free", list)),
            bounds={k: tuple(v) for k, v in _require(cfg, "bounds", dict).items()},
            fixed={k: float(v) for k, v in cfg.get("fixed", {}).items()},
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid fit model: {exc}") from exc
    result = retrieval.fit_parameters(
        spectra, model, starts=int(cfg.get("starts", 16)), seed=int(cfg.get("seed", seed))
    )
    payload = {
        "params": {k: _fmt(v) for k, v in result.params.items()},
        "rms_residual": _fmt(result.rms_residual),
        "curvature": {k: _fmt(v) for k, v in result.curvature.items()},
    }
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


HANDLERS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "vorticity": cmd_vorticity,
    "arc": cmd_arc,
    "trace": cmd_trace,
    "chain": cmd_chain,
    "surface-audit": cmd_surface_audit,
    "symmetry-check": cmd_symmetry_check,
    "latent-check": cmd_latent_check,
    "effective": cmd_effective,
    "lattice-bands": cmd_lattice_bands,
    "chain-point": cmd_chain_point,
    "wavepacket": cmd_wavepacket,
    "synth": cmd_synth,
    "fit": cmd_fit,
}


def run(command: str, config_path: str, out_dir: str = ".", seed: int = 0, jobs: int = 1) -> dict:
    path = Path(config_path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    declared = _require(cfg, "command", str)
    if declared not in COMMANDS:
        raise ConfigError(f"field 'command' must be one of {sorted(COMMANDS)}")
    if declared != command:
        raise ConfigError(f"config declares command '{declared}' but '{command}' was invoked")
    _require(cfg, "output", str)
    summary, files = HANDLERS[command](cfg, out_dir, seed, jobs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, content in files:
        (out / fname).write_text(content)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="excepta", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        summary = run(args.command, args.config, args.out, args.seed, args.jobs)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 3
    print(_dump_json(summary), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
