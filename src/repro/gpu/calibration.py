"""Calibration fitting for the virtual device.

The default kernel constants in :mod:`repro.gpu.kernel` were produced
by this module: given a target sustained playout rate for a reference
launch (e.g. the paper's ~8.5e5 playouts/s at 224 blocks x 64 threads
on a C2050), solve for the ``cycles_per_step`` that reproduces it.
Keeping the fit in the repository makes the calibration auditable and
lets users re-calibrate for other devices or games.
"""

from __future__ import annotations

from dataclasses import replace

from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import KernelSpec, LaunchConfig
from repro.gpu.timing import peak_playout_rate


class CalibrationError(RuntimeError):
    """Raised when no kernel constant can reach the target rate."""


def fit_cycles_per_step(
    spec: DeviceSpec,
    kernel: KernelSpec,
    config: LaunchConfig,
    target_rate: float,
    mean_steps: float = 65.0,
    latency_ratio: float | None = None,
    bounds: tuple[float, float] = (10.0, 1e7),
) -> float:
    """The ``cycles_per_step`` at which ``config`` sustains
    ``target_rate`` playouts/second.

    ``latency_ratio`` fixes ``latency_cycles_per_step`` as a multiple
    of the fitted value (default: keep the kernel's current ratio).
    Monotonicity (more cycles -> slower) makes this a bisection
    over ``bounds``.
    """
    if target_rate <= 0:
        raise CalibrationError(
            f"target rate must be positive: {target_rate}"
        )
    ratio = (
        latency_ratio
        if latency_ratio is not None
        else kernel.latency_cycles_per_step / kernel.cycles_per_step
    )
    if ratio < 1.0:
        raise CalibrationError(
            f"latency ratio must be >= 1, got {ratio}"
        )

    def rate_at(cycles: float) -> float:
        trial = replace(
            kernel,
            cycles_per_step=cycles,
            latency_cycles_per_step=cycles * ratio,
        )
        return peak_playout_rate(spec, trial, config, mean_steps)

    lo, hi = bounds
    f_lo = rate_at(lo) - target_rate
    f_hi = rate_at(hi) - target_rate
    if f_lo < 0:
        raise CalibrationError(
            f"target {target_rate:.3g} playouts/s is unreachable even "
            f"at {lo} cycles/step (max {rate_at(lo):.3g})"
        )
    if f_hi > 0:
        raise CalibrationError(
            f"target {target_rate:.3g} playouts/s is exceeded even at "
            f"{hi} cycles/step; widen bounds"
        )
    # Halve the bracket until the floats run out between its ends.
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if rate_at(mid) > target_rate:
            lo = mid
        else:
            hi = mid


def calibrated_kernel(
    spec: DeviceSpec,
    kernel: KernelSpec,
    config: LaunchConfig,
    target_rate: float,
    mean_steps: float = 65.0,
) -> KernelSpec:
    """A copy of ``kernel`` re-fitted so ``config`` hits
    ``target_rate`` on ``spec``."""
    cycles = fit_cycles_per_step(
        spec, kernel, config, target_rate, mean_steps
    )
    ratio = kernel.latency_cycles_per_step / kernel.cycles_per_step
    return replace(
        kernel,
        cycles_per_step=cycles,
        latency_cycles_per_step=cycles * ratio,
    )
