"""Numerical laboratory for reaction-driven total variation flow, solved
through its p-Laplacian approximation and a p -> 1 continuation."""

__version__ = "0.1.0"

from .mesh import (Annulus, Domain, Field, Interval, Mesh, MeshError,
                   Rectangle, build_mesh, load_field)
from .model import (ConditionReport, EnergySnapshot, ExpPower, ModelError,
                    NehariScaleError, Nonlinearity, Power, SumPowers,
                    WellReport, WellStatus, Zero, check_f_conditions,
                    default_dictionary, energy, estimate_dp,
                    make_nonlinearity, nehari_I, nehari_scale, well_status)
from .solver import (SolverConfig, Status, StepFailureError, Trajectory,
                     detect_tmax, gradient_bound_audit, l2_audit, run, step,
                     well_invariance_audit, write_trajectory_csv)
from .limit import (ContinuationPlan, ContinuationReport, FluxField,
                    boundary_sign_check, default_p_sequence, extract_flux,
                    flux_alignment, green_residual, limit_energy,
                    radial_sup_bound_check, run_continuation)
