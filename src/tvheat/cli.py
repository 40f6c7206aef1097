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
import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__
from .mesh import Annulus, Field, Interval, Mesh, MeshError, Rectangle, \
    build_mesh, load_field
from .model import ModelError, Nonlinearity, Zero, check_f_conditions, \
    default_dictionary, make_nonlinearity, tent, well_levels
from .limit import ContinuationPlan, LimitError, check_p_sequence, \
    default_p_sequence, run_continuation
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
    infinities and NaN as strings, and strings as ``json.dumps`` writes them
    without escaping non-ASCII text."""
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
        out.append(json.dumps(obj, ensure_ascii=False))
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def floats(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(","))


def resolution(raw: str):
    return [int(r) for r in raw.split("x")] if "x" in raw else int(raw)


# _SCHEMA[section][key] casts the key's text. parse_config passes each
# section's typed keys to the object it configures, whose own defaults and
# checks apply; the CLI restates neither.
_SCHEMA = {
    "domain": {"kind": str, "length": float, "a": float, "b": float,
               "dim": int, "lx": float, "ly": float, "resolution": resolution},
    "reaction": {"kind": str, "q": float, "s": float, "alpha": float,
                 "p0": float},
    "solver": {"p": float, "eps": float, "dt0": float, "dt_min": float,
               "t_end": float, "u_max": float, "tol_ext": float,
               "energy_residual_tol": float, "dt_max": float},
    "initial": {"profile": str, "amplitude": float, "center": floats,
                "width": floats, "index": int, "path": str},
    "continuation": {"m_start": int, "m_end": int, "p_sequence": floats,
                     "checkpoints": floats},
    "output": {"directory": str, "trajectory_csv": str, "summary_json": str,
               "state_dumps": str},
    "audits": {"well": boolean, "l2": boolean, "gradient_bound": boolean,
               "conditions": boolean},
}
_DOMAINS = {"interval": Interval, "annulus": Annulus, "rectangle": Rectangle}
# keys named apart from the field they set
_FIELDS = {"t_end": "T_end", "u_max": "U_max",
           "checkpoints": "checkpoint_times", "directory": "out_dir"}
# keys only a single run reads: continuation mode rejects them
_SINGLE_ONLY = {"solver": ("p", "eps"),
                "output": ("trajectory_csv", "state_dumps"),
                "audits": tuple(_SCHEMA["audits"])}


@dataclass
class RunConfig:
    """Validated experiment description; ``plan`` is None for a single run."""

    mesh: Mesh
    nl: Nonlinearity
    solver: SolverConfig
    u0: Field
    plan: ContinuationPlan | None = None
    out_dir: str = "."
    trajectory_csv: str = "trajectory.csv"
    summary_json: str = "summary.json"
    state_dumps: str = "none"
    audits: dict = dc_field(
        default_factory=lambda: dict.fromkeys(_SCHEMA["audits"], True))
    echo: dict = dc_field(default_factory=dict)


def _read(cp: configparser.ConfigParser) -> dict:
    """Every section's keys cast through _SCHEMA, under the name of the
    field each sets; an unknown section or key, or a value its cast rejects,
    fails by name."""
    sections = {}
    for name in cp.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        sections[name] = {}
        for key, raw in cp[name].items():
            cast = _SCHEMA[name].get(key)
            if cast is None:
                raise ConfigError(f"unknown key [{name}] {key}")
            try:
                sections[name][_FIELDS.get(key, key)] = cast(raw)
            except ValueError:
                raise ConfigError(f"key [{name}] {key}: cannot parse {raw!r} "
                                  f"as {cast.__name__}") from None
    return sections


def _make(section: str, make, *args, **keys):
    """``make(*args, **keys)`` with ``keys`` from config section ``section``:
    a key ``make`` does not take or misses (a TypeError naming the key), and
    a value it rejects, fail as a ConfigError naming the section."""
    try:
        return make(*args, **keys)
    except (TypeError, MeshError, ModelError, SolverError, LimitError) as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned key=value run description.

    Every key is either consumed or rejected by name; silent ignoring of a
    key is a defect. A ``[continuation]`` section selects continuation mode.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    sections = _read(cp)

    if "domain" not in sections:
        raise ConfigError("missing [domain] section")
    dom = dict(sections["domain"])
    kind = dom.pop("kind", None)
    if kind not in _DOMAINS:
        raise ConfigError(f"key [domain] kind: must be one of "
                          f"{sorted(_DOMAINS)}, got {kind!r}")
    res = dom.pop("resolution", 100)
    domain = _make("domain", _DOMAINS[kind], **dom)
    mesh = _make("domain", build_mesh, domain, res)

    nl = _make("reaction", make_nonlinearity,
               **{"kind": "zero", **sections.get("reaction", {})})

    solver = dict(sections.get("solver", {}))
    cont = sections.get("continuation")
    p_key = "[solver] p"   # the key every p of the run comes from
    if cont is not None:
        for section, keys in _SINGLE_ONLY.items():
            for key in keys:
                if key in sections.get(section, {}):
                    raise ConfigError(f"key [{section}] {key}: unused in "
                                      "continuation mode")
        cont = dict(cont)
        ms = {k: cont.pop(k) for k in ("m_start", "m_end") if k in cont}
        if "p_sequence" not in cont:
            cont["p_sequence"] = _make("continuation", default_p_sequence,
                                       **ms)
        elif ms:
            raise ConfigError(f"key [continuation] {next(iter(ms))}: unused "
                              "when p_sequence is given")
        p_key = "[continuation] " + ("/".join(ms) or "p_sequence")
        # checked before the solver template takes its largest p
        cont["p_sequence"] = _make("continuation", check_p_sequence,
                                   cont["p_sequence"])
        solver["p"] = max(cont["p_sequence"])
    solver = _make("solver", SolverConfig, **solver)

    init = dict(sections.get("initial", {}))
    profile = init.pop("profile", "flat")
    if profile not in _PROFILES:
        raise ConfigError(f"key [initial] profile: unknown profile "
                          f"{profile!r}")
    if not math.isfinite(init.get("amplitude", 0.0)):
        raise ConfigError(f"key [initial] amplitude: must be finite, got "
                          f"{init['amplitude']}")
    u0 = _make("initial", _PROFILES[profile], mesh, **init)

    plan = None
    if cont is not None:
        plan = _make("continuation", ContinuationPlan, u0, nl, solver, **cont)

    # structural compatibility: the well machinery needs p < theta, and the
    # radial theory additionally needs p < p0
    for p in plan.p_sequence if plan else (solver.p,):
        if not isinstance(nl, Zero) and not p < nl.theta:
            raise ConfigError(
                f"key {p_key}: needs p < theta (p={p}, theta={nl.theta})")
        if isinstance(domain, Annulus) and not isinstance(nl, Zero) \
                and not p < nl.p0:
            raise ConfigError(
                f"key {p_key}: radial runs need p < p0 "
                f"(p={p}, p0={nl.p0})")

    cfg = RunConfig(mesh, nl, solver, u0, plan, **sections.get("output", {}),
                    echo={s: dict(cp[s]) for s in cp.sections()})
    if cfg.state_dumps not in ("none", "checkpoints"):
        raise ConfigError(
            f"key [output] state_dumps: unknown mode {cfg.state_dumps!r}")
    cfg.audits.update(sections.get("audits", {}))
    return cfg


# [initial] profiles: each takes the mesh and the section's other keys

def flat_profile(mesh: Mesh, amplitude: float = 1.0) -> Field:
    return Field(mesh, np.full(mesh.n_nodes, amplitude)).constrained()


def hat_profile(mesh: Mesh, amplitude: float = 1.0) -> Field:
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    span = hi - lo
    return tent(mesh, amplitude, lo + 0.5 * span, span)


def bump_profile(mesh: Mesh, center: tuple, width: tuple,
                 amplitude: float = 1.0) -> Field:
    center, width = np.array(center), np.array(width)
    for key, v in (("center", center), ("width", width)):
        if v.shape != (mesh.dim_coord,) or not np.all(np.isfinite(v)):
            raise ConfigError(
                f"key [initial] {key}: needs {mesh.dim_coord} finite "
                f"comma-separated values, got {tuple(v)}")
    if not np.all(width > 0):
        raise ConfigError(f"key [initial] width: must be > 0, got "
                          f"{tuple(width)}")
    return tent(mesh, amplitude, center, width)


def dictionary_profile(mesh: Mesh, index: int = 0,
                       amplitude: float = 1.0) -> Field:
    dic = default_dictionary(mesh)
    if not 0 <= index < len(dic):
        raise ConfigError(f"key [initial] index: out of range {index}")
    return Field(mesh, amplitude * dic[index].values)


def file_profile(mesh: Mesh, path: str) -> Field:
    try:
        return load_field(path, mesh).constrained()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"key [initial] path: {exc}") from None


_PROFILES = {"flat": flat_profile, "hat": hat_profile, "bump": bump_profile,
             "dictionary": dictionary_profile, "file": file_profile}


# ---------------------------------------------------------------------------
# Experiment dispatch
# ---------------------------------------------------------------------------

def run_experiment(cfg: RunConfig) -> int:
    """Run the experiment described by ``cfg``; writes artifacts and returns
    the exit code. Audit violations are recorded, never fatal."""
    # a path the file-system encoding cannot encode (a non-ASCII name
    # under the C locale) raises UnicodeEncodeError, not OSError
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except (OSError, UnicodeEncodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4

    if cfg.plan is not None:
        summary, code = _run_continuation(cfg)
    else:
        summary, code = _run_single(cfg)

    summary["format_version"] = FORMAT_VERSION
    summary["code_version"] = __version__
    summary["config"] = cfg.echo
    try:
        emit_summary(summary, os.path.join(cfg.out_dir, cfg.summary_json))
    except (OSError, UnicodeEncodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return code


def _run_single(cfg: RunConfig):
    nl, mesh = cfg.nl, cfg.mesh
    has_reaction = not isinstance(nl, Zero)
    d_hat, = well_levels(mesh, cfg.u0, nl, [cfg.solver.p])

    traj = run(mesh, cfg.u0, cfg.solver, nl, d_hat)
    try:
        write_trajectory_csv(
            traj, os.path.join(cfg.out_dir, cfg.trajectory_csv))
        if cfg.state_dumps == "checkpoints":
            # the run's last state, under its accepted-step count
            i = len(traj.times) - 1
            mesh.dump(os.path.join(cfg.out_dir, f"state_{i:05d}.txt"),
                      traj.states[-1][1].values)
    except (OSError, UnicodeEncodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return {"status": "io_error"}, 4

    tmax = detect_tmax(traj)
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
        rep = check_f_conditions(nl)
        audits["f_conditions"] = dict(rep.__dict__)
    else:
        audits["f_conditions"] = "skipped"

    last = traj.snapshots[-1]
    summary = {
        "mode": "single",
        "status": traj.status.kind,
        "stop_reason": traj.status.reason,
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
    report = run_continuation(cfg.plan)
    statuses = [r.status for r in report.records]
    summary = {
        "mode": "continuation",
        "status": statuses[-1],
        "continuation": report.as_dict(),
    }
    # the gravest member's code: step failure over blow-up over success
    return summary, max(Status.EXIT_CODES[s] for s in statuses)


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
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
