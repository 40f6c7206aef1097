"""Configuration-driven experiment runner.

Parses a sectioned key=value run description, builds the mesh, reaction and
initial state, dispatches a single solver run or a p -> 1 continuation, and
writes CSV/JSON artifacts. Exit codes distinguish mathematical outcomes from
software failures: 0 completed/extinct, 1 config error, 2 blow-up detected,
3 step failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__
from .mesh import Annulus, Field, Interval, Mesh, MeshError, Rectangle, \
    build_mesh, load_field
from .model import ModelError, Nonlinearity, Zero, check_f_conditions, \
    default_dictionary, estimate_dp, make_nonlinearity
from .limit import ContinuationPlan, LimitError, default_p_sequence, \
    run_continuation
from .solver import SolverConfig, SolverError, Status, detect_tmax, \
    gradient_bound_audit, l2_audit, run, well_invariance_audit, \
    write_trajectory_csv

FORMAT_VERSION = 1


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits,
    infinities and NaN as strings."""
    out = []
    _dump(obj, out)
    return "".join(out)


def _dump(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            out.append('"inf"' if x > 0 else '"-inf"')
        elif math.isnan(x):
            out.append('"nan"')
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _dump(str(k), out)
            out.append(":")
            _dump(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _dump(v, out)
        out.append("]")
    else:
        raise ConfigError(f"cannot serialize {type(obj).__name__}")


def emit_summary(report: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(report))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_SCHEMA = {
    "domain": {"kind", "length", "a", "b", "dim", "lx", "ly", "resolution"},
    "reaction": {"kind", "q", "s", "alpha", "p0"},
    "solver": {"p", "eps", "dt0", "dt_min", "t_end", "u_max", "tol_ext",
               "energy_residual_tol", "adapt", "store_stride", "dt_max"},
    "initial": {"profile", "amplitude", "center", "width", "index", "path"},
    "continuation": {"enabled", "m_start", "m_end", "p_sequence",
                     "checkpoints", "dictionary_size"},
    "output": {"directory", "trajectory_csv", "summary_json", "state_dumps"},
    "audits": {"well", "l2", "gradient_bound", "conditions"},
}


@dataclass
class RunConfig:
    """Validated experiment description."""

    mesh: Mesh
    nl: Nonlinearity
    solver: SolverConfig
    u0: Field
    continuation: bool
    p_sequence: tuple
    checkpoints: tuple
    dictionary_size: int
    out_dir: str
    trajectory_csv: str
    summary_json: str
    state_dumps: str
    audits: dict
    echo: dict = dc_field(default_factory=dict)


def _get(sec, key, cast, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"missing required key [{sec.name}] {key}")
        return default
    raw = sec[key]
    try:
        if cast is bool:
            if raw.lower() in ("true", "on", "yes", "1"):
                return True
            if raw.lower() in ("false", "off", "no", "0"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError:
        raise ConfigError(
            f"key [{sec.name}] {key}: cannot parse {raw!r} as "
            f"{cast.__name__}") from None


def floats(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(","))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned key=value run description.

    Every key is either consumed or rejected by name; silent ignoring of an
    unknown key is a defect.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}] {key}")

    # domain -------------------------------------------------------------
    if "domain" not in cp:
        raise ConfigError("missing [domain] section")
    dom_sec = cp["domain"]
    kind = _get(dom_sec, "kind", str, required=True)
    if kind == "interval":
        domain = Interval(_get(dom_sec, "length", float, 1.0))
    elif kind == "annulus":
        a = _get(dom_sec, "a", float, required=True)
        b = _get(dom_sec, "b", float, required=True)
        domain = Annulus(a, b, _get(dom_sec, "dim", int, 2))
    elif kind == "rectangle":
        domain = Rectangle(_get(dom_sec, "lx", float, 1.0),
                           _get(dom_sec, "ly", float, 1.0))
    else:
        raise ConfigError(f"key [domain] kind: unknown domain {kind!r}")
    res_raw = _get(dom_sec, "resolution", str, "100")
    try:
        resolution = ([int(r) for r in res_raw.split("x")]
                      if "x" in res_raw else int(res_raw))
    except ValueError:
        raise ConfigError(
            f"key [domain] resolution: cannot parse {res_raw!r}") from None
    try:
        mesh = build_mesh(domain, resolution)
    except MeshError as exc:
        raise ConfigError(str(exc)) from None

    # reaction -----------------------------------------------------------
    rsec = cp["reaction"] if "reaction" in cp else {}
    rkind = rsec.get("kind", "zero") if rsec else "zero"
    params = {}
    if rsec:
        for key, cast in (("q", float), ("s", float), ("alpha", float),
                          ("p0", float)):
            if key in rsec:
                params[key] = _get(rsec, key, cast)
    try:
        nl = make_nonlinearity(rkind, **params)
    except (ModelError, TypeError) as exc:
        raise ConfigError(f"[reaction]: {exc}") from None

    # solver -------------------------------------------------------------
    ssec = cp["solver"] if "solver" in cp else None
    csec = cp["continuation"] if "continuation" in cp else None
    continuation = bool(csec) and _get(csec, "enabled", bool, True)

    p_sequence = ()
    checkpoints = ()
    dictionary_size = 8
    if continuation:
        for key in ("p", "eps"):
            if ssec is not None and key in ssec:
                raise ConfigError(f"key [solver] {key}: unused in continuation "
                                  "mode; the p sequence sets p, eps = (p-1)^2")
        if csec.get("p_sequence"):
            p_sequence = _get(csec, "p_sequence", floats)
        else:
            m0 = _get(csec, "m_start", int, 1)
            m1 = _get(csec, "m_end", int, 8)
            p_sequence = default_p_sequence(m0, m1)
            if not p_sequence:
                raise ConfigError(
                    f"key [continuation] m_end: must be >= m_start "
                    f"(m_start={m0}, m_end={m1})")
        if csec.get("checkpoints"):
            checkpoints = _get(csec, "checkpoints", floats)
        dictionary_size = _get(csec, "dictionary_size", int, 8)
        p_run = max(p_sequence)
    else:
        if ssec is None or "p" not in ssec:
            raise ConfigError("missing required key [solver] p")
        p_run = _get(ssec, "p", float)

    def sget(key, cast, default):
        return _get(ssec, key, cast, default) if ssec is not None else default

    try:
        solver = SolverConfig(
            p=p_run,
            eps=sget("eps", float, 1e-4),
            dt0=sget("dt0", float, 1e-3),
            dt_min=sget("dt_min", float, 1e-14),
            T_end=sget("t_end", float, 1.0),
            U_max=sget("u_max", float, 1e6),
            tol_ext=sget("tol_ext", float, 1e-8),
            energy_residual_tol=sget("energy_residual_tol", float, 1e-5),
            adapt=sget("adapt", bool, True),
            store_stride=sget("store_stride", int, 1),
            dt_max=sget("dt_max", float, None),
        )
    except SolverError as exc:
        raise ConfigError(f"[solver]: {exc}") from None

    # structural compatibility: the well machinery needs p < theta, and the
    # radial theory additionally needs p < p0
    ps = p_sequence if continuation else (p_run,)
    for p in ps:
        if not p > 1:
            raise ConfigError(f"key [solver] p: must exceed 1, got {p}")
        if not isinstance(nl, Zero) and not p < nl.theta:
            raise ConfigError(
                f"key [solver] p: needs p < theta (p={p}, theta={nl.theta})")
        if isinstance(domain, Annulus) and not isinstance(nl, Zero) \
                and not p < nl.p0:
            raise ConfigError(
                f"key [solver] p: radial runs need p < p0 "
                f"(p={p}, p0={nl.p0})")

    # initial state ------------------------------------------------------
    isec = cp["initial"] if "initial" in cp else {}
    profile = isec.get("profile", "flat") if isec else "flat"
    u0 = _build_initial(mesh, isec, profile)

    # output -------------------------------------------------------------
    osec = cp["output"] if "output" in cp else {}
    out_dir = osec.get("directory", ".") if osec else "."
    traj_csv = osec.get("trajectory_csv", "trajectory.csv") if osec else "trajectory.csv"
    summary_json = osec.get("summary_json", "summary.json") if osec else "summary.json"
    state_dumps = osec.get("state_dumps", "none") if osec else "none"
    if state_dumps not in ("none", "checkpoints"):
        raise ConfigError(
            f"key [output] state_dumps: unknown mode {state_dumps!r}")

    asec = cp["audits"] if "audits" in cp else None
    audits = {
        "well": _get(asec, "well", bool, True) if asec else True,
        "l2": _get(asec, "l2", bool, True) if asec else True,
        "gradient_bound": _get(asec, "gradient_bound", bool, True) if asec else True,
        "conditions": _get(asec, "conditions", bool, True) if asec else True,
    }

    if continuation:
        try:
            ContinuationPlan(u0, nl, solver, p_sequence)
        except LimitError as exc:
            raise ConfigError(f"key [continuation] p_sequence: {exc}") from None

    echo = {s: dict(cp[s]) for s in cp.sections()}
    return RunConfig(mesh, nl, solver, u0, continuation, p_sequence,
                     checkpoints, dictionary_size, out_dir, traj_csv,
                     summary_json, state_dumps, audits, echo)


def _build_initial(mesh: Mesh, isec, profile: str) -> Field:
    coords = mesh.nodes
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    span = hi - lo
    amp = _get(isec, "amplitude", float, 1.0) if isec else 1.0
    if not math.isfinite(amp):
        raise ConfigError(f"key [initial] amplitude: must be finite, got "
                          f"{isec['amplitude']!r}")
    if profile == "flat":
        return Field(mesh, np.full(mesh.n_nodes, amp)).constrained()
    if profile in ("hat", "bump"):
        if profile == "hat":
            center = lo + 0.5 * span
            width = span.copy()
        else:
            center = np.array(_get(isec, "center", floats, required=True))
            width = np.array(_get(isec, "width", floats, required=True))
            for key, v in (("center", center), ("width", width)):
                if v.shape != (mesh.dim_coord,) or not np.all(np.isfinite(v)):
                    raise ConfigError(
                        f"key [initial] {key}: needs {mesh.dim_coord} finite "
                        f"comma-separated values, got {isec[key]!r}")
            if not np.all(width > 0):
                raise ConfigError(f"key [initial] width: must be > 0, got "
                                  f"{isec['width']!r}")
        prof = np.ones(mesh.n_nodes)
        for k in range(mesh.dim_coord):
            # |x - c| / (w/2) overflows to inf for a tiny width: profile 0
            with np.errstate(over="ignore"):
                dist = 2.0 * (np.abs(coords[:, k] - center[k]) / width[k])
            prof *= np.maximum(0.0, 1.0 - dist)
        return Field(mesh, amp * prof).constrained()
    if profile == "dictionary":
        idx = _get(isec, "index", int, 0)
        dic = default_dictionary(mesh)
        if not 0 <= idx < len(dic):
            raise ConfigError(f"key [initial] index: out of range {idx}")
        return Field(mesh, amp * dic[idx].values)
    if profile == "file":
        path = _get(isec, "path", str, None, required=True)
        try:
            return load_field(path, mesh).constrained()
        except (OSError, MeshError) as exc:
            raise ConfigError(f"[initial] path: {exc}") from None
    raise ConfigError(f"key [initial] profile: unknown profile {profile!r}")


# ---------------------------------------------------------------------------
# Experiment dispatch
# ---------------------------------------------------------------------------

def run_experiment(cfg: RunConfig) -> int:
    """Run the experiment described by ``cfg``; writes artifacts and returns
    the exit code. Audit violations are recorded, never fatal."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4

    if cfg.continuation:
        summary, code = _run_continuation(cfg)
    else:
        summary, code = _run_single(cfg)

    summary["format_version"] = FORMAT_VERSION
    summary["code_version"] = __version__
    summary["config"] = cfg.echo
    try:
        emit_summary(summary, os.path.join(cfg.out_dir, cfg.summary_json))
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return code


def _run_single(cfg: RunConfig):
    nl, mesh = cfg.nl, cfg.mesh
    has_reaction = not isinstance(nl, Zero)
    d_hat = math.inf
    if has_reaction:
        dictionary = default_dictionary(mesh, 8)
        if cfg.u0.sup() > 0:
            dictionary.append(cfg.u0)
        d_hat = estimate_dp(mesh, cfg.solver.p, nl, dictionary)

    traj = run(mesh, cfg.u0, cfg.solver, nl, d_hat)
    try:
        write_trajectory_csv(
            traj, os.path.join(cfg.out_dir, cfg.trajectory_csv))
        if cfg.state_dumps == "checkpoints":
            for i, (t, f) in enumerate(traj.states):
                if t in cfg.solver.checkpoint_times or t == traj.times[-1]:
                    mesh.dump(os.path.join(cfg.out_dir, f"state_{i:05d}.txt"),
                              f.values)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return {"status": "io_error"}, 4

    tmax = detect_tmax(traj, cfg.solver)
    audits = {}
    if cfg.audits["well"] and has_reaction:
        audits["well_invariance"] = well_invariance_audit(traj, d_hat)
    else:
        audits["well_invariance"] = "skipped"
    audits["l2"] = l2_audit(traj) if cfg.audits["l2"] else "skipped"
    if cfg.audits["gradient_bound"] and has_reaction \
            and nl.theta > cfg.solver.p:
        audits["gradient_bound"] = gradient_bound_audit(traj, nl.theta, d_hat)
    else:
        audits["gradient_bound"] = "skipped"
    if cfg.audits["conditions"]:
        rep = check_f_conditions(nl, nl.p0)
        audits["f_conditions"] = dict(rep.__dict__)
    else:
        audits["f_conditions"] = "skipped"

    last = traj.snapshots[-1]
    summary = {
        "mode": "single",
        "status": traj.status.kind,
        "t_final": traj.times[-1],
        "t_max": tmax,
        "extinction_time": (traj.status.time
                            if traj.status.kind == "extinct" else None),
        "d_hat": d_hat,
        "final": {"E_p": last.E_p, "I_p": last.I_p, "tv": last.tv,
                  "l2": last.l2, "sup": last.sup,
                  "dissipation_cum": last.dissipation_cum},
        "audits": audits,
        "tolerances": {
            "energy_residual_tol": cfg.solver.energy_residual_tol,
            "tol_ext": cfg.solver.tol_ext,
            "U_max": cfg.solver.U_max,
        },
    }
    return summary, Status.EXIT_CODES[traj.status.kind]


def _run_continuation(cfg: RunConfig):
    plan = ContinuationPlan(
        u0=cfg.u0, nl=cfg.nl, cfg_template=cfg.solver,
        p_sequence=cfg.p_sequence, checkpoint_times=cfg.checkpoints,
        dictionary_size=cfg.dictionary_size)
    report = run_continuation(plan)
    statuses = [r.status for r in report.records]
    if any(s == "step_failure" for s in statuses):
        code = 3
    elif any(s == "blowup" for s in statuses):
        code = 2
    else:
        code = 0
    summary = {
        "mode": "continuation",
        "status": statuses[-1],
        "continuation": report.as_dict(),
    }
    return summary, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tvheat",
        description="Reaction-driven total variation flow experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a config file")
    runp.add_argument("config", help="path to the sectioned key=value config")
    runp.add_argument("--output-dir", help="override [output] directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.output_dir:
        cfg.out_dir = args.output_dir
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
