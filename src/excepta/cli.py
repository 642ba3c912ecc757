"""Command-line front end: JSON-configured runs emitting CSV/JSON artifacts.

    excepta <command> --config cfg.json [--out DIR] [--seed N] [--jobs N]

Exit codes: 0 success, 2 config/validation error or an --out that cannot be
made a directory, 3 numerical failure, numpy's LinAlgError included
(diagnostics as one JSON document on stderr: error, message, the point/value
or best/residual the failure carries, and any warnings raised before it).
All floats are printed with 12 significant digits and JSON keys are sorted,
so artifacts are stable golden files for a fixed seed.  SCHEMAS lists each
command's config keys with their kinds and defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import models, qep
from .numkernel import NumericalError


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _round_floats(obj):
    """JSON-ready copy of obj: floats to 12 significant digits, complex as [re, im], arrays as lists."""
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, complex):
        return [_round_floats(obj.real), _round_floats(obj.imag)]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"


# A schema maps each config key to a kind, or to (kind, default) when the key
# is optional.  A kind is a nested schema (a dict) or a function
# (value, key, where) -> checked value that raises ConfigError naming `key`.
# Defaults are written as they would be in a config and go through their
# kind; an explicit null is accepted only where the default is None.
_REQUIRED = object()


def load(schema: dict, obj: dict, where: str = "config") -> dict:
    """Check `obj` against `schema`; return the checked values, defaults filled in."""
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigError(f"unknown field '{unknown[0]}' in {where}")
    out = {}
    for key, entry in schema.items():
        kind, default = entry if isinstance(entry, tuple) else (entry, _REQUIRED)
        value = obj.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required field '{key}'")
        out[key] = None if value is None and default is None else _parse(kind, value, key, where)
    return out


def _parse(kind, value, key: str, where: str):
    if isinstance(kind, dict):
        return load(kind, OBJECT(value, key, where), f"{where}.{key}")
    return kind(value, key, where)


def _leaf(expected: str, test, cast=None):
    def parse(value, key, where):
        if not test(value):
            raise ConfigError(f"field '{key}' has wrong type (expected {expected})")
        return value if cast is None else cast(value)

    return parse


def _is_number(value) -> bool:
    # json.loads reads NaN and Infinity, and an int can be too large for a float.
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


NUMBER = _leaf("finite number", _is_number, float)
INT = _leaf("int", lambda v: isinstance(v, int) and not isinstance(v, bool))
STR = _leaf("str", lambda v: isinstance(v, str))
BOOL = _leaf("bool", lambda v: isinstance(v, bool))
OBJECT = _leaf("object", lambda v: isinstance(v, dict))


def list_of(item, length: int | None = None):
    """A list of `item` (exactly `length` long when given), returned as a tuple."""
    shape = _leaf("list" if length is None else f"list of {length}",
                  lambda v: isinstance(v, list) and length in (None, len(v)))

    def parse(value, key, where):
        return tuple(_parse(item, v, f"{key}[{i}]", where) for i, v in enumerate(shape(value, key, where)))

    return parse


def dict_of(item):
    """An object with free keys and values of one kind."""

    def parse(value, key, where):
        return {k: _parse(item, v, k, f"{where}.{key}") for k, v in OBJECT(value, key, where).items()}

    return parse


def choice(*values):
    def parse(value, key, where):
        if value not in values:
            raise ConfigError(f"field '{key}' must be one of {sorted(values)}")
        return value

    return parse


def one_of(**alternatives):
    """An object holding exactly one of the given keys; returns (key, checked body)."""
    schema = {name: (kind, None) for name, kind in alternatives.items()}

    def parse(value, key, where):
        given = [(k, v) for k, v in _parse(schema, value, key, where).items() if v is not None]
        if len(given) != 1:
            raise ConfigError(f"field '{key}' needs exactly one of {sorted(alternatives)}")
        return given[0]

    return parse


def model_of(*names):
    """A {model, params} spec -> (name, params); params are the model dataclass's number fields."""
    head = {"model": choice(*names), "params": (OBJECT, {})}

    def parse(value, key, where):
        spec = _parse(head, value, key, where)
        name = spec["model"]
        cls = models.MODELS[name].params
        fields = {f.name: (NUMBER, f.default) for f in dataclasses.fields(cls)}
        params = load(fields, spec["params"], f"'{name}' params")
        try:
            return name, cls(**params)
        except ValueError as exc:
            raise ConfigError(f"invalid model params: {exc}") from exc

    return parse


def _plane(value, key, where):
    """A plane name (see parse_plane) or an explicit {origin, u, v, tag}."""
    return value if isinstance(value, str) else _parse(PLANE, value, key, where)


VEC3 = list_of(NUMBER, 3)
MODEL = model_of(*models.MODELS)
SYNTHETIC = model_of("theoretical", "experimental")
LATTICE = model_of("lattice")
WINDOW = {"lo": VEC3, "hi": VEC3}
PLANE = {"origin": VEC3, "u": VEC3, "v": VEC3, "tag": (STR, "custom")}
PATH = one_of(
    circle={"center": VEC3, "normal": VEC3, "radius": NUMBER, "n": (INT, 64)},
    rect={"center": VEC3, "u": VEC3, "v": VEC3, "half_u": NUMBER, "half_v": NUMBER, "n_per_edge": (INT, 16)},
    points={"points": list_of(VEC3), "closed": (BOOL, True)},
)
AXES = ("gamma", "chi", "kappa")
KY = _leaf("finite number or 'chain-point'", lambda v: v == "chain-point" or _is_number(v),
           lambda v: v if isinstance(v, str) else float(v))
PAIR = list_of(INT, 2)

# Every command's config keys.  A None default means: for junction_tol twice
# the step, for loop_radius a size scaled to the surface, for omega0 the PF
# band centre, for seed the --seed option, and otherwise that the key is unused.
SCHEMAS = {
    command: {"command": STR, "output": STR, **keys}
    for command, keys in {
        "solve": {"model": MODEL},
        "sweep": {"model": SYNTHETIC, "ramp": {"param": choice(*AXES), "from": NUMBER, "to": NUMBER, "n": (INT, 101)}},
        "vorticity": {
            "model": MODEL,
            "loop": (PATH, None),
            "loops": (list_of({"name": (STR, "loop"), "loop": PATH}), None),
            "bands": (PAIR, [0, 1]),
        },
        "arc": {"model": MODEL, "arc": {"start": VEC3, "end": VEC3, "via": VEC3, "bulge": NUMBER, "n": (INT, 64)}},
        "trace": {"model": MODEL, "plane": (_plane, None), "seed_point": VEC3, "step": NUMBER, "window": WINDOW},
        "chain": {
            "model": MODEL,
            "traces": list_of({"plane": (_plane, None), "seed_point": VEC3}),
            "step": NUMBER,
            "window": WINDOW,
            "junction_tol": (NUMBER, None),
            "refine_line": ({"origin": VEC3, "direction": VEC3}, None),
        },
        "surface-audit": {
            "model": MODEL,
            "surface": one_of(
                box={"lo": VEC3, "hi": VEC3, "n_per_edge": (INT, 8)},
                sphere={"center": VEC3, "radius": NUMBER, "n_theta": (INT, 8), "n_phi": (INT, 16)},
            ),
            "punctures": (list_of(VEC3), []),
            "loop_radius": (NUMBER, None),
        },
        "symmetry-check": {
            "model": MODEL, "relation": STR, "n_samples": (INT, 100), "scale": (NUMBER, 0.3), "seed": (INT, None),
        },
        "latent-check": {"model": SYNTHETIC, "point": VEC3, "n_max": (INT, 4)},
        "effective": {"model": SYNTHETIC, "omega0": (NUMBER, None)},
        "lattice-bands": {
            "model": LATTICE,
            "ky": (KY, "chain-point"),
            "grid": (PAIR, [32, 32]),
            "window": (list_of(list_of(NUMBER, 2), 2), [[-np.pi, np.pi], [-np.pi, np.pi]]),
        },
        "chain-point": {"model": LATTICE},
        "wavepacket": {
            "model": LATTICE,
            "spec": ({"q": (NUMBER, 0.05 * np.pi), "kmax": (NUMBER, 0.4 * np.pi), "grid": (PAIR, [64, 64])}, {}),
            "times": list_of(NUMBER),
            "slab": (PAIR, [256, 256]),
            "dump_fields": (BOOL, False),
        },
        "synth": {
            "params": {name: (NUMBER, 0.0) for name in qep.PARAM_NAMES},
            "freqs": {"from": NUMBER, "to": NUMBER, "n": INT},
            "noise": (NUMBER, 0.0),
            "seed": (INT, None),
        },
        "fit": {
            "data": STR,
            "free": list_of(STR),
            "bounds": dict_of(list_of(NUMBER, 2)),
            "fixed": (dict_of(NUMBER), {}),
            "starts": (INT, 16),
            "seed": (INT, None),
        },
    }.items()
}
COMMANDS = tuple(SCHEMAS)


def _built(fields: str, make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError on a config value raised as a ConfigError naming `fields`.

    np.linalg.LinAlgError is a ValueError too, but a numerical failure, so it passes through.
    """
    try:
        return make(*args, **kwargs)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(f"field {fields}: {exc}") from exc


def parse_path(spec) -> topology.ParameterPath:
    from . import topology

    kind, body = spec
    if kind == "circle":
        return topology.circle_path(**body)
    if kind == "rect":
        return topology.rect_path(*(body[k] for k in ("center", "u", "v", "half_u", "half_v", "n_per_edge")))
    return topology.ParameterPath(**body)


def parse_plane(spec, params) -> tracer.PlaneSpec | None:
    """None, a checked {origin, u, v, tag}, a named plane or 'k<axis>=<value>'."""
    from . import tracer

    if spec is None:
        return None
    if isinstance(spec, dict):
        return tracer.PlaneSpec(**spec)
    if spec == "gamma=0":
        return tracer.plane_gamma0()
    if spec == "kappa=0":
        return tracer.plane_kappa0()
    if spec == "oblique":
        if not isinstance(params, models.ExperimentalParams):
            raise ConfigError("field 'plane': the oblique plane needs the experimental model")
        return tracer.plane_oblique(params.gamma0, params.m0)
    axis, _, value = spec.partition("=")
    try:
        if axis.startswith("k"):
            return tracer.plane_wavevector(axis[1:], float(value))
    except ValueError:
        pass
    raise ConfigError(f"unknown plane '{spec}'")


def cmd_solve(cfg, jobs):
    name, params = cfg["model"]
    spectrum = qep.solve(models.MODELS[name].qmp(params))
    result = {"omegas": spectrum.omegas, "pf_gap_ok": spectrum.pf_gap_ok,
              "ep_clusters": [list(c) for c in spectrum.ep_clusters]}
    return result, [(cfg["output"] + ".json", _dump_json(result))]


def cmd_sweep(cfg, jobs):
    from . import topology

    _, params = cfg["model"]
    ramp = cfg["ramp"]
    axis = AXES.index(ramp["param"])
    if ramp["n"] < 1:
        raise ConfigError("field 'n' of 'ramp' must be at least 1")
    values = np.linspace(ramp["from"], ramp["to"], ramp["n"])
    ramp_points = np.tile(params.g, (len(values), 1))
    ramp_points[:, axis] = values
    # Sweeps may cross exceptional points (band merging is the interesting
    # feature), so continuation is lenient: per-sample assignment matching
    # without the EP-refusing adaptive refinement used for loop invariants.
    rows = []
    prev = None
    for v, spectrum in zip(values, qep.solve(models.builder(params)(ramp_points))):
        w = qep.pf_omegas(spectrum)
        if prev is not None:
            w = w[topology.match_bands(prev, w)]
        prev = w
        rows.append([v] + [x for wi in w for x in (wi.real, wi.imag)])
    text = qep.csv_text(["param", "re_w1", "im_w1", "re_w2", "im_w2"], rows)
    return {"rows": len(rows)}, [(cfg["output"] + ".csv", text)]


def cmd_vorticity(cfg, jobs):
    from . import topology

    name, params = cfg["model"]
    build = models.builder(params)
    i, j = cfg["bands"]
    n_bands = models.MODELS[name].qmp(params).dim
    if i == j or not (0 <= i < n_bands and 0 <= j < n_bands):
        raise ConfigError(f"field 'bands' must be two different band indices below {n_bands}")
    if cfg["loops"] is not None:
        loop_specs = cfg["loops"]
    elif cfg["loop"] is not None:
        loop_specs = [{"name": "loop", "loop": cfg["loop"]}]
    else:
        raise ConfigError("missing required field 'loop' (or 'loops')")

    loops = [(spec["name"], _built("'loop'", parse_path, spec["loop"])) for spec in loop_specs]

    def one(loop):
        name, path = loop
        return name, topology.energy_vorticity(topology.track_bands(build, path), i, j)

    if jobs > 1 and len(loops) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            items = list(pool.map(one, loops))
    else:
        items = [one(loop) for loop in loops]
    items.sort(key=lambda kv: kv[0])
    if len(items) == 1:
        result = {"nu": items[0][1]}
    else:
        result = {"nu": dict(items)}
    return result, [(cfg["output"] + ".json", _dump_json(result))]


def cmd_arc(cfg, jobs):
    from . import topology

    _, params = cfg["model"]
    a = cfg["arc"]
    path = _built("'arc'", topology.arc_path, a["start"], a["end"], a["via"], a["bulge"], a["n"])
    val = topology.arc_invariant(models.builder(params), path)
    result = {"d_plus": val}
    return result, [(cfg["output"] + ".json", _dump_json(result))]


def _line_csv(lines) -> str:
    rows = ([e, i, *p] for e, line in enumerate(lines) for i, p in enumerate(line.polyline))
    return qep.csv_text(["edge", "vertex", "x0", "x1", "x2"], rows)


def _window(cfg) -> tuple:
    """(lo, hi) of a trace; on the lattice 3 steps (the probe radius) inside the first Brillouin zone."""
    lo, hi = cfg["window"]["lo"], cfg["window"]["hi"]
    if not cfg["step"] > 0:
        raise ConfigError("field 'step' must be positive")
    if cfg["model"][0] == "lattice" and max(-min(lo), max(hi)) > np.pi - 3.0 * cfg["step"]:
        raise ConfigError("field 'window' must stay 3 steps inside the first Brillouin zone [-pi, pi] on the lattice")
    return lo, hi


def cmd_trace(cfg, jobs):
    from . import tracer

    _, params = cfg["model"]
    window = _window(cfg)
    plane = parse_plane(cfg["plane"], params)
    line = tracer.trace_el(models.builder(params), cfg["seed_point"], cfg["step"], window, plane=plane)
    summary = {"closed": line.closed, "orientation": line.orientation, "n_vertices": len(line.polyline)}
    payload = {**summary, "plane": line.plane_tag, "polyline": line.polyline}
    out = cfg["output"]
    return summary, [(out + ".json", _dump_json(payload)), (out + ".csv", _line_csv([line]))]


def cmd_chain(cfg, jobs):
    from . import tracer

    _, params = cfg["model"]
    build = models.builder(params)
    window = _window(cfg)
    step = cfg["step"]
    traces = cfg["traces"]
    if not traces:
        raise ConfigError("field 'traces' must not be empty")
    planes = [parse_plane(t["plane"], params) for t in traces]
    lines = [tracer.trace_el(build, t["seed_point"], step, window, plane=p) for t, p in zip(traces, planes)]
    rl = cfg["refine_line"]
    refine_line = None if rl is None else (rl["origin"], rl["direction"])
    junction_tol = 2.0 * step if cfg["junction_tol"] is None else cfg["junction_tol"]
    try:
        graph = tracer.assemble_chain(build, lines, junction_tol=junction_tol, refine_line=refine_line)
    except tracer.DuplicateLineError as exc:
        raise ConfigError(f"field 'traces': {exc}") from exc
    payload = {
        "valid": graph.valid,
        "nodes": [{"position": n.position, "in": n.n_in, "out": n.n_out} for n in graph.nodes],
        "edges": [
            {"plane": e.line.plane_tag, "orientation": e.line.orientation, "start_node": e.start_node,
             "end_node": e.end_node, "n_vertices": len(e.line.polyline)}
            for e in graph.edges
        ],
    }
    files = [
        (cfg["output"] + ".json", _dump_json(payload)),
        (cfg["output"] + ".csv", _line_csv([e.line for e in graph.edges])),
    ]
    return {"valid": graph.valid, "n_nodes": len(graph.nodes), "n_edges": len(graph.edges)}, files


def cmd_surface_audit(cfg, jobs):
    from . import topology

    _, params = cfg["model"]
    kind, body = cfg["surface"]
    surface = _built("'surface'", topology.box_surface if kind == "box" else topology.sphere_surface, **body)
    result = topology.surface_audit(models.builder(params), surface, cfg["punctures"], loop_radius=cfg["loop_radius"])
    payload = {"pfdns": list(result.pfdns), "total": result.total}
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_symmetry_check(cfg, jobs):
    from . import symmetry

    name, params = cfg["model"]
    rel_name = cfg["relation"]
    gamma0 = getattr(params, "gamma0", 0.0)
    m0 = getattr(params, "m0", getattr(params, "m", 1.0))
    try:
        rel = symmetry.builtin_relation(rel_name, gamma0=gamma0, m0=m0)
    except KeyError as exc:
        raise ConfigError(f"field 'relation': {exc.args[0]}") from exc
    n, scale = cfg["n_samples"], cfg["scale"]
    rng = np.random.default_rng(cfg["seed"])
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
    res = _built("'n_samples'", symmetry.relation_residual, models.builder(params), rel, samples)
    payload = {"relation": rel_name, "residual": res, "n_samples": n}
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_latent_check(cfg, jobs):
    from . import symmetry

    name, params = cfg["model"]
    g = np.asarray(cfg["point"])
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
    res = _built("'n_max'", symmetry.theorem2_crosscheck, h_mapped, h, models.SIGMA_X, symmetry.velocity_block(2),
                 n_max=cfg["n_max"])
    payload = {
        "latent_residual": res.latent,
        "reduction_residual": res.reduction,
        "passed": res.passed,
        "point": g,
    }
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_effective(cfg, jobs):
    name, params = cfg["model"]
    q = models.MODELS[name].qmp(params)
    eff = _built("'omega0'", models.effective_two_band, q, cfg["omega0"])
    pf = qep.pf_omegas(qep.solve(q))
    exact_split = pf[1] - pf[0]
    shifts = eff.shifts
    payload = {
        "omega0": eff.omega0,
        "valid_radius": eff.valid_radius,
        "h_eff": eff.h_eff,
        "shifts": shifts,
        "effective_splitting": shifts[1] - shifts[0],
        "exact_splitting": exact_split,
    }
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_lattice_bands(cfg, jobs):
    from . import lattice

    _, params = cfg["model"]
    ky = float(lattice.chain_point_coords(params)[1]) if cfg["ky"] == "chain-point" else cfg["ky"]
    field = _built("'ky', 'grid' or 'window'", lattice.band_slice, params, ky, grid=cfg["grid"], window=cfg["window"])
    rows = []
    for i, kx in enumerate(field.kx):
        for j, kz in enumerate(field.kz):
            w = field.omegas[i, j]
            rows.append([kx, kz, w[0].real, w[0].imag, w[1].real, w[1].imag])
    text = qep.csv_text(["kx", "kz", "re_w1", "im_w1", "re_w2", "im_w2"], rows)
    return {"ky": ky, "n_rows": len(rows), "bad_cells": len(field.bad_cells)}, [
        (cfg["output"] + ".csv", text)
    ]


def cmd_chain_point(cfg, jobs):
    from . import lattice

    _, params = cfg["model"]
    k = lattice.chain_point_coords(params)
    payload = {"ky": k[1], "k": k}
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


def cmd_wavepacket(cfg, jobs):
    from . import lattice

    _, params = cfg["model"]
    spec = _built("'spec'", lattice.WavepacketSpec, **cfg["spec"])
    times = cfg["times"]
    if min(cfg["slab"]) < 1:
        raise ConfigError("field 'slab' needs at least one site along each axis")
    fields = lattice.evolve_wavepacket(params, spec, times, slab=cfg["slab"])
    rows = []
    for f in fields:
        for band in (1, 2):
            m = lattice.pulse_metrics(f, band)
            rows.append(
                [f.t, band, m.centroid_z, m.log_amplitude, m.width_x, m.width_z, m.aspect, int(f.boundary_contaminated)]
            )
    header = ["t", "band", "centroid_z", "log_amplitude", "width_x", "width_z", "aspect", "boundary_flag"]
    g1, g2 = lattice.max_growth_rates(params, spec)
    payload = {"n_times": len(times), "max_growth": [g1, g2]}
    files = [(cfg["output"] + ".csv", qep.csv_text(header, rows))]
    if cfg["dump_fields"]:
        for f in fields:
            files.append((f"{cfg['output']}_field_t{f.t:g}.csv", lattice.field_to_csv(f)))
    return payload, files


def cmd_synth(cfg, jobs):
    from . import retrieval

    f = cfg["freqs"]
    freqs = _built("'freqs'", np.linspace, f["from"], f["to"], f["n"])
    spectra = _built("'freqs', 'params' or 'noise'", retrieval.synth_response,
                     cfg["params"], freqs, cfg["noise"], cfg["seed"])
    return {"n_freqs": len(freqs), "noise": spectra.noise_level}, [
        (cfg["output"] + ".csv", retrieval.spectra_to_csv(spectra))
    ]


def cmd_fit(cfg, jobs):
    from . import retrieval

    data_path = Path(cfg["data"])
    if not data_path.exists():
        raise ConfigError(f"field 'data': file {data_path} does not exist")
    spectra = _built("'data'", retrieval.spectra_from_csv, data_path.read_text())
    try:
        model = retrieval.FitModel(free=cfg["free"], bounds=cfg["bounds"], fixed=cfg["fixed"])
    except ValueError as exc:
        raise ConfigError(f"invalid fit model: {exc}") from exc
    result = _built(
        "'starts' or 'data'", retrieval.fit_parameters, spectra, model, starts=cfg["starts"], seed=cfg["seed"]
    )
    payload = {
        "params": result.params,
        "rms_residual": result.rms_residual,
        "curvature": result.curvature,
    }
    return payload, [(cfg["output"] + ".json", _dump_json(payload))]


# The handler of command "a-b" is cmd_a_b.
HANDLERS = {command: globals()["cmd_" + command.replace("-", "_")] for command in SCHEMAS}


def run(command: str, config_path: str, out_dir: str = ".", seed: int = 0, jobs: int = 1) -> dict:
    path = Path(config_path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("command") != command:
        raise ConfigError(f"field 'command' must be '{command}', the command invoked")
    cfg = load(SCHEMAS[command], raw)
    if "seed" in cfg and cfg["seed"] is None:
        cfg["seed"] = seed
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"option '--out': cannot make directory {out}: {exc.strerror}") from exc
    summary, files = HANDLERS[command](cfg, jobs)
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
        with warnings.catch_warnings(record=True) as caught:
            summary = run(args.command, args.config, args.out, args.seed, args.jobs)
    except ConfigError as exc:
        code, diagnostic = 2, {"error": "config", "message": str(exc)}
    except (NumericalError, np.linalg.LinAlgError) as exc:
        fields = {k: getattr(exc, k, None) for k in ("point", "value", "best", "residual")}
        code, diagnostic = 3, {"error": type(exc).__name__, "message": str(exc)}
        diagnostic.update((k, v) for k, v in fields.items() if v is not None)
    else:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        print(_dump_json(summary), end="")
        return 0
    # A failure's stderr is one JSON document, which lists the warnings held back before it.
    if caught:
        diagnostic["warnings"] = [str(w.message) for w in caught]
    print(json.dumps(_round_floats(diagnostic)), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
