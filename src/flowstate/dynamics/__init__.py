"""Synthetic data generation: vehicle and SIR simulators, moons, windowing."""

from .dataio import SchemaError, ingest_external_sir, read_dataset, sidecar_path, write_dataset
from .moons import arc_distances, two_moons
from .sir import InitialConditionError, SirParams, SirState, rk4_step, sir_ensemble, sir_rhs, sir_simulate
from .trajectory import Normalization, Trajectory, TrajectorySet
from .vehicle import VehicleParams, VehicleState, vehicle_continuations, vehicle_simulate, vehicle_step
from .windows import TrajectoryTooShortError, Window, WindowedDataset, make_windows

__all__ = [
    "InitialConditionError",
    "Normalization",
    "SchemaError",
    "SirParams",
    "SirState",
    "Trajectory",
    "TrajectorySet",
    "TrajectoryTooShortError",
    "VehicleParams",
    "VehicleState",
    "Window",
    "WindowedDataset",
    "arc_distances",
    "ingest_external_sir",
    "make_windows",
    "read_dataset",
    "rk4_step",
    "sidecar_path",
    "sir_ensemble",
    "sir_rhs",
    "sir_simulate",
    "two_moons",
    "vehicle_continuations",
    "vehicle_simulate",
    "vehicle_step",
    "write_dataset",
]
