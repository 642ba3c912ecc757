"""Traced entry points of each excepta layer and the per-layer metrics built from them.

Counts are per pass (a traced run repeats identical passes, so they are
exact integers or exact ratios of integers); times are seconds per pass.
A layer that a workload never reaches reports 0.
"""

from __future__ import annotations

import importlib

from spans import SpanRecorder, Target

COMPLEX_MAC_FLOPS = 8


def _track_counts(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"samples": len(result.points), "requested": len(path.points) + int(path.closed)}


def _scan_counts(args, kwargs, result):
    n1, n2 = args[2] if len(args) > 2 else kwargs["grid"]
    return {"points": (n1 + 1) * (n2 + 1)}


def _slice_counts(args, kwargs, result):
    return {"kpoints": len(result.kx) * len(result.kz)}


def _synthesis_counts(args, kwargs, result):
    """Floating-point work of the two matrix products per band and component.

    Computed from array sizes, not measured: each snapshot evaluation does
    (Lx x nx)(nx x nz) and (Lx x nz)(nz x Lz) complex products for 2 bands x
    4 components; t = 0 is evaluated once and shared.
    """
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    nx, nz = spec.grid
    _, lx, lz = result[0].total.shape
    evaluations = 1 + sum(1 for f in result if f.t != 0.0)
    macs = lx * nx * nz + lx * nz * lz
    return {"gflop": evaluations * 2 * 4 * COMPLEX_MAC_FLOPS * macs / 1e9}


def _trace_counts(args, kwargs, result):
    return {"vertices": len(result.polyline)}


TARGETS = [
    Target("numkernel.poly_roots", "excepta.numkernel", "poly_roots"),
    Target("numkernel.nullspace", "excepta.numkernel", "nullspace"),
    Target("qep.solve", "excepta.qep", "solve"),
    Target("topology.track_bands", "excepta.topology", "track_bands", _track_counts),
    Target("topology.surface_audit", "excepta.topology", "surface_audit"),
    Target("tracer.scan_plane", "excepta.tracer", "scan_plane", _scan_counts),
    Target("tracer.refine_ep", "excepta.tracer", "refine_ep"),
    Target("tracer.trace_el", "excepta.tracer", "trace_el", _trace_counts),
    Target("tracer.probe_orientation", "excepta.tracer", "probe_orientation"),
    Target("tracer.assemble_chain", "excepta.tracer", "assemble_chain"),
    Target("lattice.band_slice", "excepta.lattice", "band_slice", _slice_counts),
    Target("lattice.evolve_wavepacket", "excepta.lattice", "evolve_wavepacket", _synthesis_counts),
    Target("lattice.max_growth_rates", "excepta.lattice", "max_growth_rates"),
    Target("retrieval.fit_parameters", "excepta.retrieval", "fit_parameters"),
    Target("retrieval.response_magnitudes", "excepta.retrieval", "response_magnitudes"),
    Target("cli.run", "excepta.cli", "run"),
]

# name -> unit; every metric is "better": "lower".  The cli.* and trace.*
# entries are measured by run.py around the passes rather than from spans.
PER_LAYER = {
    "numkernel.poly_roots.calls": "count",
    "numkernel.poly_roots.self_s": "s",
    "numkernel.nullspace.calls": "count",
    "numkernel.nullspace.self_s": "s",
    "qep.solve.calls": "count",
    "qep.solve.s": "s",
    "qep.solve.self_s": "s",
    "qep.solve.us_per_call": "us",
    "topology.track_bands.calls": "count",
    "topology.track_bands.s": "s",
    "topology.track_bands.self_s": "s",
    "topology.track_bands.samples": "count",
    "topology.track_bands.refine_ratio": "ratio",
    "topology.surface_audit.s": "s",
    "tracer.scan_plane.s": "s",
    "tracer.scan_plane.points": "count",
    "tracer.refine_ep.calls": "count",
    "tracer.refine_ep.failed": "count",
    "tracer.refine_ep.solves_per_call": "ratio",
    "tracer.trace_el.s": "s",
    "tracer.trace_el.vertices": "count",
    "tracer.trace_el.solves_per_vertex": "ratio",
    "tracer.probe_orientation.calls": "count",
    "tracer.probe_orientation.s": "s",
    "tracer.assemble_chain.self_s": "s",
    "lattice.band_slice.calls": "count",
    "lattice.band_slice.s": "s",
    "lattice.band_slice.kpoints": "count",
    "lattice.band_slice.us_per_kpoint": "us",
    "lattice.evolve_wavepacket.self_s": "s",
    "lattice.field_synthesis.gflop": "GFLOP-computed",
    "lattice.max_growth_rates.s": "s",
    "retrieval.fit_parameters.s": "s",
    "retrieval.fit_parameters.self_s": "s",
    "retrieval.response_magnitudes.calls": "count",
    "retrieval.response_magnitudes.us_per_call": "us",
    "retrieval.evals_per_fit": "ratio",
    "cli.import_s": "s",
    "cli.run.s": "s",
    "cli.startup_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}

# Work counts that must repeat exactly between runs at one seed.
COUNT_SUFFIXES = (".calls", ".kpoints", ".vertices", ".samples", ".points", ".failed", "evals_per_fit")


def import_targets() -> None:
    for target in TARGETS:
        importlib.import_module(target.module)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of the spans recorded over one pass."""
    from excepta.tracer import RefineError

    summary = rec.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": [], "counts": {}}

    def get(name):
        return summary.get(name, empty)

    m: dict[str, float] = {}
    for name in ("numkernel.poly_roots", "numkernel.nullspace"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self_s"]
    solve = get("qep.solve")
    m.update({"qep.solve.calls": solve["calls"], "qep.solve.s": solve["s"], "qep.solve.self_s": solve["self_s"],
              "qep.solve.us_per_call": 1e6 * _ratio(solve["s"], solve["calls"])})

    tb = get("topology.track_bands")
    m.update({"topology.track_bands.calls": tb["calls"], "topology.track_bands.s": tb["s"],
              "topology.track_bands.self_s": tb["self_s"],
              "topology.track_bands.samples": tb["counts"].get("samples", 0),
              "topology.track_bands.refine_ratio": _ratio(tb["counts"].get("samples", 0),
                                                          tb["counts"].get("requested", 0)),
              "topology.surface_audit.s": get("topology.surface_audit")["s"]})

    refine, trace = get("tracer.refine_ep"), get("tracer.trace_el")
    vertices = trace["counts"].get("vertices", 0)
    m.update({"tracer.scan_plane.s": get("tracer.scan_plane")["s"],
              "tracer.scan_plane.points": get("tracer.scan_plane")["counts"].get("points", 0),
              "tracer.refine_ep.calls": refine["calls"],
              "tracer.refine_ep.failed": sum(1 for e in refine["errors"] if issubclass(e, RefineError)),
              "tracer.refine_ep.solves_per_call": _ratio(rec.under("qep.solve", "tracer.refine_ep"), refine["calls"]),
              "tracer.trace_el.s": trace["s"], "tracer.trace_el.vertices": vertices,
              "tracer.trace_el.solves_per_vertex": _ratio(rec.under("qep.solve", "tracer.trace_el"), vertices),
              "tracer.probe_orientation.calls": get("tracer.probe_orientation")["calls"],
              "tracer.probe_orientation.s": get("tracer.probe_orientation")["s"],
              "tracer.assemble_chain.self_s": get("tracer.assemble_chain")["self_s"]})

    bs = get("lattice.band_slice")
    kpoints = bs["counts"].get("kpoints", 0)
    m.update({"lattice.band_slice.calls": bs["calls"], "lattice.band_slice.s": bs["s"],
              "lattice.band_slice.kpoints": _ratio(kpoints, bs["calls"]),
              "lattice.band_slice.us_per_kpoint": 1e6 * _ratio(bs["s"], kpoints),
              "lattice.evolve_wavepacket.self_s": get("lattice.evolve_wavepacket")["self_s"],
              "lattice.field_synthesis.gflop": get("lattice.evolve_wavepacket")["counts"].get("gflop", 0.0),
              "lattice.max_growth_rates.s": get("lattice.max_growth_rates")["s"]})

    fit, resp = get("retrieval.fit_parameters"), get("retrieval.response_magnitudes")
    m.update({"retrieval.fit_parameters.s": fit["s"], "retrieval.fit_parameters.self_s": fit["self_s"],
              "retrieval.response_magnitudes.calls": resp["calls"],
              "retrieval.response_magnitudes.us_per_call": 1e6 * _ratio(resp["s"], resp["calls"]),
              "retrieval.evals_per_fit": _ratio(rec.under("retrieval.response_magnitudes",
                                                          "retrieval.fit_parameters"), fit["calls"])})
    return m
