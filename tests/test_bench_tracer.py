"""The benchmark's span tracer (bench/spans.py) against the package: every
name it rebinds must exist and be called, so that a rename fails here before
it breaks a traced benchmark run."""

import pathlib

import pytest

from tvheat import mesh, solver

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

LAYER_SPANS = {
    "mesh.gradient", "mesh.build_mesh",
    "model.energy", "model.snapshot", "model.estimate_dp",
    "model.check_f_conditions", "model.reaction_F",
    "solver.run", "solver.step", "solver.linsolve", "solver.audit",
    "limit.run_continuation", "limit.extract_flux", "limit.audit",
    "cli.parse_config", "cli.run_experiment", "cli.write",
}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads
    return spans, workloads


def test_tracer_sees_every_layer_and_uninstalls(bench, tmp_path):
    spans, workloads = bench
    untraced = (mesh.Mesh.gradient, mesh.build_mesh, solver.step,
                solver.solveh_banded, solver.spla)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for cls in workloads.WORKLOADS.values():
            w = cls(smoke=True)
            w.execute(w.setup(0), str(tmp_path))
    finally:
        tracer.uninstall()
    restored = (mesh.Mesh.gradient, mesh.build_mesh, solver.step,
                solver.solveh_banded, solver.spla)
    assert all(a is b for a, b in zip(restored, untraced))

    summary = tracer.summary()
    calls = {name: row["calls"] for name, row in summary["spans"].items()}
    assert LAYER_SPANS <= set(calls)
    assert summary["nested"]
    # run calls step and step reaches the linear solver through the module
    # globals: one traced solve per traced step
    assert calls["solver.linsolve"] == calls["solver.step"]
