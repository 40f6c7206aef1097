"""Span tracing of tvheat from outside the package.

The package binds its collaborators with from-imports, so a call such as
``energy(...)`` inside ``tvheat.solver`` looks the name up in
``tvheat.solver``'s globals. ``Tracer.install`` therefore rebinds every
module attribute that refers to a traced function, and patches traced
methods on their classes; ``Tracer.uninstall`` puts the originals back.

Spans are kept in memory as four parallel arrays (name id, parent index,
start, end). All calls run on one thread, so a span's children are exactly
the spans recorded while it is open, and its self time is its duration
minus theirs.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import tvheat
from tvheat import cli, limit, mesh, model, solver

MODULES = (tvheat, mesh, model, solver, limit, cli)


class _ModuleProxy:
    """Stands in for a module inside one tvheat module, overriding some
    attributes and delegating the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._undo: list = []
        # (accepted steps, accepted dts) of every solver.run, in call order
        self.runs: list[tuple[int, np.ndarray]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, post=None):
        nid = self._id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if post is not None:
                post(result)
            return result
        return traced

    def root(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a top-level span."""
        if self._open != [-1]:
            raise RuntimeError("root span opened inside another span")
        return self.wrap(name, fn)(*args)

    # -- installation ------------------------------------------------------

    def _rebind(self, name: str, fn, post=None) -> None:
        traced = self.wrap(name, fn, post)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _record_run(self, traj) -> None:
        times = np.asarray(traj.times)
        self.runs.append((len(times) - 1, np.diff(times)))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._set(mesh.Mesh, "gradient",
                  self.wrap("mesh.gradient", mesh.Mesh.gradient))
        self._set(mesh.Mesh, "dump", self.wrap("cli.write", mesh.Mesh.dump))
        self._rebind("mesh.build_mesh", mesh.build_mesh)

        self._rebind("model.energy", model.energy)
        self._rebind("model.snapshot", model.snapshot)
        self._rebind("model.estimate_dp", model.estimate_dp)
        self._rebind("model.check_f_conditions", model.check_f_conditions)
        for cls in (model.Zero, model.Power, model.SumPowers, model.ExpPower):
            self._set(cls, "F", self.wrap("model.reaction_F", cls.F))

        self._rebind("solver.run", solver.run, post=self._record_run)
        self._rebind("solver.step", solver.step)
        self._rebind("solver.linsolve", solver.solveh_banded)
        self._set(solver, "spla", _ModuleProxy(
            solver.spla,
            spsolve=self.wrap("solver.linsolve", solver.spla.spsolve)))
        for fn in (solver.well_invariance_audit, solver.l2_audit,
                   solver.gradient_bound_audit):
            self._rebind("solver.audit", fn)
        self._rebind("cli.write", solver.write_trajectory_csv)

        self._rebind("limit.run_continuation", limit.run_continuation)
        self._rebind("limit.extract_flux", limit.extract_flux)
        for fn in (limit.flux_alignment, limit.boundary_sign_check,
                   limit.limit_energy):
            self._rebind("limit.audit", fn)

        self._rebind("cli.parse_config", cli.parse_config)
        self._rebind("cli.run_experiment", cli.run_experiment)
        self._rebind("cli.write", cli.emit_summary)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name_id": name_id, "parent": parent, "start": start,
                "end": end, "dur": dur, "self": dur - child}

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; per
        root span: its duration and the sum of self times beneath it; and
        whether every span nests inside its parent."""
        a = self.arrays()
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=a["dur"], minlength=k)
        own = np.bincount(a["name_id"], weights=a["self"], minlength=k)
        roots = np.nonzero(a["parent"] < 0)[0]
        bounds = list(roots) + [len(a["dur"])]
        root_rows = [{"name": self.names[a["name_id"][r]], "index": int(r),
                      "dur": float(a["dur"][r]),
                      "self_sum": float(a["self"][r:nxt].sum())}
                     for r, nxt in zip(bounds, bounds[1:])]
        # every span lies inside its parent, so no self time is negative
        kids = a["parent"] >= 0
        par = a["parent"][kids]
        nested = bool(np.all(a["start"][kids] >= a["start"][par])
                      and np.all(a["end"][kids] <= a["end"][par])
                      and np.all(a["self"] >= -1e-9))
        return {"spans": {n: {"calls": int(calls[i]), "s": float(total[i]),
                              "self_s": float(own[i])}
                          for i, n in enumerate(self.names)},
                "roots": root_rows,
                "nested": nested,
                "n_spans": len(a["dur"])}

    def outer_time(self, names, since: int = 0) -> float:
        """Time inside any span named in ``names`` (counted once where they
        nest), over the spans recorded from index ``since`` on."""
        a = self.arrays()
        ids = [self._ids[n] for n in names if n in self._ids]
        member = np.isin(a["name_id"], ids)
        covered = np.zeros(len(member), dtype=bool)
        anc = a["parent"].copy()
        while np.any(anc >= 0):
            up = anc >= 0
            covered[up] |= member[anc[up]]
            anc[up] = a["parent"][anc[up]]
        outermost = member & ~covered
        return float(a["dur"][since:][outermost[since:]].sum())

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: a[k] for k in ("name_id", "parent",
                                                 "start", "end")})
