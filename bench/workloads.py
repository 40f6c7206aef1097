"""The benchmark's workloads: inputs made from a seed, one timed execution,
and the checks that decide whether the execution was correct.

Every call into the program goes through a module attribute
(``solver.run``, ``cli.run_experiment``, ...) so that the tracer in
``spans.py`` can rebind those names and see the calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from tvheat import cli, limit, solver
from tvheat import mesh as mesh_mod
from tvheat import model

# Seeds select one of this many input variants, so that a finite set of
# stored tight-tolerance references covers every seed; variant 0 is the
# nominal data.
N_VARIANTS = 8

# The references are this much tighter in energy_residual_tol than the
# measured runs (which use the solver default 1e-5).
REF_TOL_FACTOR = 100.0
DEFAULT_TOL = 1e-5

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


class BenchError(RuntimeError):
    """A benchmark precondition is missing (for example a reference)."""


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def perturbation(seed: int) -> tuple[float, float]:
    """(amplitude factor, centre shift as a share of the domain span) for a
    seed: variant 0 is (1, 0); others stay within 0.5 % of the nominal
    data, so every variant exercises the same regime."""
    v = variant_of(seed)
    if v == 0:
        return 1.0, 0.0
    r = np.random.default_rng(v).uniform(-1.0, 1.0, size=2)
    return 1.0 + 0.005 * float(r[0]), 0.005 * float(r[1])


@dataclass
class Outcome:
    """What one execution produced, reduced to what the checks need."""

    acc_err: float
    fingerprint: tuple            # bitwise identity of the results
    figures: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    csv_rows: int | None = None   # radial_exp: data rows in the CSV


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _hat(mesh, amp: float, shift: float):
    """Tensor hat of the given amplitude whose support is the bounding box
    of the nodes, with its centre moved by ``shift`` of the span."""
    coords = mesh.nodes
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    span = hi - lo
    center = lo + (0.5 + shift) * span
    prof = np.ones(mesh.n_nodes)
    for k in range(mesh.dim_coord):
        prof *= np.maximum(
            0.0, 1.0 - np.abs(coords[:, k] - center[k]) / (0.5 * span[k]))
    return mesh_mod.Field(mesh, amp * prof).constrained()


# ---------------------------------------------------------------------------
# tvf1d: flat-profile extinction, then the six-member p -> 1 continuation
# ---------------------------------------------------------------------------

class Tvf1d:
    """Criterion 1 and criterion 7. Ignores the seed: the oracle t_ext = 1/2
    holds for the exact flat profile only."""

    name = "tvf1d"
    uses_reference = False

    def __init__(self, smoke: bool = False):
        self.n = 40 if smoke else 400
        self.members = 2 if smoke else 6
        self.T_cont = 0.05 if smoke else 0.41
        self.checkpoint = 0.04 if smoke else 0.4

    def setup(self, seed: int, tol: float = DEFAULT_TOL):
        mesh = mesh_mod.build_mesh(mesh_mod.Interval(1.0), self.n)
        u0 = mesh_mod.Field(mesh, np.ones(mesh.n_nodes)).constrained()
        return mesh, u0, tol

    def execute(self, inputs, workdir: str):
        mesh, u0, tol = inputs
        flat = solver.run(mesh, u0, solver.SolverConfig(
            p=1.01, eps=1e-4, T_end=1.0, energy_residual_tol=tol), model.Zero())
        plan = limit.ContinuationPlan(
            u0, model.Zero(),
            solver.SolverConfig(p=1.5, T_end=self.T_cont,
                                energy_residual_tol=tol),
            p_sequence=tuple(1.0 + 2.0 ** -m
                             for m in range(1, self.members + 1)),
            checkpoint_times=(self.checkpoint,))
        return flat, limit.run_continuation(plan)

    def check(self, inputs, result, ref) -> Outcome:
        flat, report = result
        failures = []
        t_ext = flat.status.time
        if flat.status.kind != "extinct":
            failures.append(f"flat run ended {flat.status.kind}")
        elif abs(t_ext - 0.5) > 0.025:
            failures.append(f"|t_ext - 1/2| = {abs(t_ext - 0.5):.4f} > 0.025")
        verdict = {k: v for k, v in report.verdict.items()
                   if isinstance(v, bool)}
        if not all(verdict.values()):
            failures.append(f"continuation verdict {verdict}")
        statuses = [r.status for r in report.records]
        if any(s not in ("completed", "extinct") for s in statuses):
            failures.append(f"member statuses {statuses}")
        last = report.records[-1]
        records = tuple(tuple(sorted(r.as_dict().items()))
                        for r in report.records)
        return Outcome(
            acc_err=abs(t_ext - 0.5) / 0.5,
            fingerprint=(t_ext, len(flat.times), records),
            figures={"t_ext": t_ext, "flat_accepted": len(flat.times) - 1,
                     "flux_z_excess": last.max_abs_z - 1.0,
                     "verdict": verdict},
            failures=failures)


# ---------------------------------------------------------------------------
# rect2d: the 2-D sparse path
# ---------------------------------------------------------------------------

class Rect2d:
    """Unit square, Power(3), p = 1.5, hat of amplitude about 1."""

    name = "rect2d"
    uses_reference = True

    def __init__(self, smoke: bool = False):
        self.res = 8 if smoke else 64
        self.T_end = 0.002 if smoke else 0.02

    def setup(self, seed: int, tol: float = DEFAULT_TOL):
        amp, shift = perturbation(seed)
        mesh = mesh_mod.build_mesh(mesh_mod.Rectangle(1.0, 1.0), self.res)
        u0 = _hat(mesh, amp, shift)
        nl = model.Power(3.0)
        dictionary = model.default_dictionary(mesh, 8) + [u0]
        d_hat = model.estimate_dp(mesh, 1.5, nl, dictionary)
        cfg = solver.SolverConfig(p=1.5, T_end=self.T_end,
                                  energy_residual_tol=tol)
        return mesh, u0, nl, d_hat, cfg

    def execute(self, inputs, workdir: str):
        mesh, u0, nl, d_hat, cfg = inputs
        return solver.run(mesh, u0, cfg, nl, d_hat)

    def reference(self, inputs, result) -> dict:
        return {"values": result.states[-1][1].values,
                "accepted": len(result.times) - 1}

    def check(self, inputs, traj, ref) -> Outcome:
        mesh = inputs[0]
        failures = []
        if traj.status.kind != "completed":
            failures.append(f"run ended {traj.status.kind}")
        u = traj.states[-1][1].values
        finite = bool(np.all(np.isfinite(u))) and all(
            math.isfinite(s.E_p) and math.isfinite(s.dissipation_cum)
            for s in traj.snapshots)
        if not finite:
            failures.append("non-finite state or diagnostics")
        # criterion 2: dissipation + E_p(t) <= E_p(0) up to the slack
        E0 = traj.snapshots[0].E_p
        slack = 1e-3 * (1.0 + abs(E0))
        excess = max(s.dissipation_cum + s.E_p - E0 - slack
                     for s in traj.snapshots)
        if not excess <= 0.0:
            failures.append(f"energy inequality excess {excess:.3e}")
        u_ref = ref["values"]
        qw = mesh.quad_weights
        err = math.sqrt(float(qw @ (u - u_ref) ** 2) / float(qw @ u_ref ** 2))
        return Outcome(
            acc_err=err,
            fingerprint=(len(traj.times), _digest(u)),
            figures={"accepted": len(traj.times) - 1,
                     "energy_slack_excess": excess, "state_err": err},
            failures=failures)


# ---------------------------------------------------------------------------
# radial_exp: the command-line path end to end
# ---------------------------------------------------------------------------

RADIAL_CONFIG = """\
[domain]
kind = annulus
a = 1
b = 2
dim = 3
resolution = {res}

[reaction]
kind = exp_power
q = 3
alpha = 1
p0 = 1.9

[solver]
p = 1.5
t_end = 1
energy_residual_tol = {tol!r}

[initial]
profile = bump
amplitude = {amp!r}
center = {center!r}
width = 1

[output]
directory = {out}
state_dumps = checkpoints

[audits]
well = true
l2 = true
gradient_bound = true
conditions = true
"""


class RadialExp:
    """Annulus(1, 2, dim=3), ExpPower(3, 1, p0=1.9), p = 1.5, through
    ``cli.parse_config`` and ``cli.run_experiment``."""

    name = "radial_exp"
    uses_reference = True

    def __init__(self, smoke: bool = False):
        self.res = 60 if smoke else 800

    def setup(self, seed: int, tol: float = DEFAULT_TOL):
        amp, shift = perturbation(seed)
        text = RADIAL_CONFIG.format(res=self.res, tol=tol, amp=amp,
                                    center=1.5 + shift, out="out")
        return cli.parse_config(text)

    def execute(self, cfg, workdir: str):
        cfg.out_dir = workdir
        return cli.run_experiment(cfg)

    def reference(self, cfg, code) -> dict:
        summary = _read_summary(cfg.out_dir)
        if summary["status"] != "extinct":
            raise BenchError(f"reference run ended {summary['status']}")
        return {"t_ext": summary["extinction_time"]}

    def check(self, cfg, code, ref) -> Outcome:
        failures = []
        if code != 0:
            failures.append(f"exit code {code}")
        with open(os.path.join(cfg.out_dir, cfg.summary_json), "rb") as fh:
            summary_bytes = fh.read()
        summary = json.loads(summary_bytes)
        if summary["status"] != "extinct":
            failures.append(f"status {summary['status']}")
        rows = _csv_rows(os.path.join(cfg.out_dir, cfg.trajectory_csv))
        t = np.array([r[0] for r in rows])
        dt = np.array([r[-1] for r in rows])
        # one row for the initial state, then one per accepted step
        if not (len(rows) >= 2 and t[0] == 0.0 and dt[0] == 0.0
                and np.all(dt[1:] > 0.0) and np.all(np.diff(t) > 0.0)
                and t[-1] == summary["t_final"]):
            failures.append("CSV rows are not one per accepted step plus one")
        t_ext = summary["extinction_time"]
        err = (abs(t_ext - ref["t_ext"]) / ref["t_ext"]
               if t_ext is not None else math.inf)
        audits = summary["audits"]
        verdicts = {
            "well.all_inside": audits["well_invariance"]["all_inside"],
            "l2.monotone": audits["l2"]["monotone"],
            "gradient_bound.holds": audits["gradient_bound"]["holds"],
            "f_conditions.superlinearity_ok":
                audits["f_conditions"]["superlinearity_ok"],
        }
        return Outcome(
            acc_err=err,
            fingerprint=(hashlib.sha256(summary_bytes).hexdigest(),),
            figures={"t_ext": t_ext, "accepted": len(rows) - 1,
                     "bytes_written": _bytes_in(cfg.out_dir),
                     "audit_verdicts": verdicts},
            failures=failures,
            csv_rows=len(rows))


def _read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def _csv_rows(path: str) -> list:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]


def _bytes_in(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory))


WORKLOADS = {w.name: w for w in (Tvf1d, Rect2d, RadialExp)}


# ---------------------------------------------------------------------------
# Stored tight-tolerance references
# ---------------------------------------------------------------------------

def reference_path(workload, seed: int) -> str:
    return os.path.join(REFS_DIR, f"{workload.name}-v{variant_of(seed)}.npz")


def load_reference(workload, seed: int):
    if not workload.uses_reference:
        return None
    path = reference_path(workload, seed)
    if not os.path.exists(path):
        raise BenchError(
            f"missing reference {os.path.relpath(path)} for workload "
            f"{workload.name} seed {seed}; build it with: python3 bench/run.py "
            f"--build-refs --workload {workload.name} --seed {seed}")
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def compute_reference(workload, seed: int, workdir: str) -> dict:
    """Run the workload at energy_residual_tol / REF_TOL_FACTOR."""
    inputs = workload.setup(seed, tol=DEFAULT_TOL / REF_TOL_FACTOR)
    fresh_dir(workdir)
    try:
        result = workload.execute(inputs, workdir)
        return workload.reference(inputs, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def save_reference(workload, seed: int, ref: dict) -> str:
    os.makedirs(REFS_DIR, exist_ok=True)
    path = reference_path(workload, seed)
    np.savez_compressed(path, **{k: np.asarray(v) for k, v in ref.items()},
                        energy_residual_tol=DEFAULT_TOL / REF_TOL_FACTOR)
    return path


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
