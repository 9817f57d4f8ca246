"""Monte Carlo simulation of the original coupled delayed stochastic system.

Semi-implicit Euler stepping of displacement, velocity and harvested voltage
with the colored noise advanced by its exact one-step update, delayed feedback
read with linear interpolation from a step-major history, and ensemble
estimators for the mean output power, RMS voltage, conversion efficiency,
stationary histogram and a periodogram-based SNR.

The ensemble is stepped in chunks of _CHUNK steps.  Each chunk keeps its
(history + chunk, m) displacement and velocity rows, with the previous
chunk's last steps on top, and accumulates the estimators once from them.
plan groups the cells of a sweep into lockstep batches and run_batch steps
each batch as the rows of one run (_step_cells); run_ensemble is a one-cell
batch and simulate_trajectory a one-row _step_cells run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads these lazily; load them at import, so a run's time is its work:
# every run draws from numpy.random, every psd run transforms with numpy.fft
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from . import _kernels
from .averaging import DensityField, GridSpec
from .errors import ParameterError
from .model import (
    ExcitationParams, NoiseParams, SystemParams, harvested_power, well_minimum,
)

# Steps per lockstep chunk.  A chunk's step-major records (draws, noise path,
# drive, V, the x and v histories) and the temporaries of its estimators come
# to about a dozen (1024, m) float arrays, less than (m, 16384) draws.
_CHUNK = 1024

# Rows of one lockstep batch of sweep cells.  A step costs far less than
# proportionally more as the ensemble widens up to here (run_batch on the
# noise-sweep system, 4000 steps, 2-vCPU host: 8 rows in 0.055-0.070 s, 64 in
# 0.08-0.09 s, 128 in 0.10-0.13 s), so a batch of narrow cells costs a small
# multiple of one cell.
_BATCH_ROWS = 128


@dataclass(frozen=True)
class PsdSettings:
    """Spectral-estimation settings for the periodogram SNR.

    segment_time is the length of each periodogram segment in time units; it
    must cover at least ten periods of the periodic excitation.
    """

    segment_time: float
    overlap: float = 0.5
    n_bootstrap: int = 200

    def __post_init__(self):
        if not self.segment_time > 0:
            raise ParameterError("segment_time must be > 0")
        if not 0.0 <= self.overlap < 1.0:
            raise ParameterError("overlap must lie in [0, 1)")
        if self.n_bootstrap < 10:
            raise ParameterError("n_bootstrap must be >= 10")


@dataclass(frozen=True)
class SimConfig:
    """Integration and ensemble settings for the Monte Carlo runs."""

    dt: float
    t_total: float
    t_transient: float | None = None
    n_traj: int = 100
    seed: int = 0
    x0: float | None = None
    v0: float = 0.0
    V0: float = 0.0
    grid: GridSpec = field(
        default_factory=lambda: GridSpec(nx=64, nv=64)
    )
    psd: PsdSettings | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError(f"dt must be > 0, got {self.dt}")
        if not self.t_total > 0:
            raise ParameterError(f"t_total must be > 0, got {self.t_total}")
        if self.t_transient is not None and not 0 <= self.t_transient < self.t_total:
            raise ParameterError("t_transient must lie in [0, t_total)")
        if self.n_traj < 1:
            raise ParameterError("n_traj must be >= 1")

    def resolved_transient(self, ex: ExcitationParams) -> float:
        """Transient discard window; default 20% of the run, and at least 200
        forcing periods when the periodic excitation is on."""
        if self.t_transient is not None:
            return self.t_transient
        t = 0.2 * self.t_total
        if ex.eps > 0:
            t = max(t, 200.0 * 2.0 * math.pi / ex.Omega)
        return min(t, 0.95 * self.t_total)


@dataclass(frozen=True)
class PsdSnr:
    """Background-subtracted spectral SNR estimate at the drive frequency."""

    estimate: float
    stderr: float
    n_segments: int
    bin_freq: float
    freq_resolution: float


@dataclass(frozen=True)
class TrajectoryResult:
    """Post-transient series and running estimators of a single trajectory."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    V: np.ndarray
    power_sum: float
    input_power_sum: float
    n_samples: int
    divergent: bool
    final_state: tuple[float, float, float, float]  # (x, v, V, xi)


@dataclass(frozen=True)
class EnsembleEstimates:
    """Pooled stationary estimators of the simulated ensemble; counts holds
    the (nx, nv) phase-space histogram counts on grid."""

    mean_power: float
    v_rms: float
    efficiency_pct: float
    efficiency_defined: bool
    counts: np.ndarray
    grid: GridSpec
    n_divergent: int
    n_samples: int
    psd_snr: PsdSnr | None = None

    @property
    def histogram(self) -> DensityField:
        """Stationary density estimate from counts, built where it is read:
        an ensemble with no sample on the grid fails only here."""
        g = self.grid
        dx = (g.x_max - g.x_min) / g.nx
        dv = (g.v_max - g.v_min) / g.nv
        total = self.counts.sum()
        if total == 0:
            raise ParameterError("no in-grid samples collected; widen the grid")
        dens = self.counts / (total * dx * dv)
        xc = g.x_min + dx * (np.arange(g.nx) + 0.5)
        vc = g.v_min + dv * (np.arange(g.nv) + 0.5)
        return DensityField(x=xc, v=vc, values=dens, norm_const=1.0)


# One sweep cell of an ensemble run: its system, noise and excitation.
Cell = tuple[SystemParams, NoiseParams, ExcitationParams]


def lane() -> str:
    """The stepping lane, recorded in run provenance: the numpy lockstep
    kernel is the only one."""
    return "numpy"


def _ou_coefficients(noise: NoiseParams, dt: float) -> tuple[float, float]:
    """Decay and innovation scale of the exact one-step colored-noise update."""
    decay = math.exp(-dt / noise.c)
    scale = math.sqrt(noise.D / noise.c * (1.0 - math.exp(-2.0 * dt / noise.c)))
    return decay, scale


def ou_initial_draw(noise: NoiseParams, gaussian_draw: float) -> float:
    """Stationary initialization: xi0 ~ Normal(0, D/c)."""
    return math.sqrt(noise.D / noise.c) * gaussian_draw


def _validate_step(p: SystemParams, noise: NoiseParams, cfg: SimConfig) -> None:
    scales = [s for s in (p.tau1, p.tau2, noise.c) if s > 0]
    if scales and cfg.dt > min(scales) / 20.0:
        raise ParameterError(
            f"dt={cfg.dt} too large: must be <= min(tau1, tau2, c)/20 = "
            f"{min(scales) / 20.0:.6g}"
        )


def _delay_offsets(tau: float, dt: float) -> tuple[int, float]:
    r = tau / dt
    k = int(math.floor(r + 1e-12))
    frac = r - k
    if frac < 1e-12:
        frac = 0.0
    return k, frac


def _step_counts(ex: ExcitationParams, cfg: SimConfig) -> tuple[int, int]:
    """Total steps and the number of leading transient steps discarded."""
    n_steps = int(round(cfg.t_total / cfg.dt))
    skip = int(round(cfg.resolved_transient(ex) / cfg.dt))
    return n_steps, skip


def _batch_key(
    p: SystemParams, noise: NoiseParams, ex: ExcitationParams, cfg: SimConfig
) -> tuple[int, int, int, int]:
    """Check that a cell can be stepped, and return what the cells of one
    lockstep batch must share: (n_steps, skip, k1, k2)."""
    _validate_step(p, noise, cfg)
    n_steps, skip = _step_counts(ex, cfg)
    if skip >= n_steps:
        raise ParameterError("transient discard leaves no samples")
    k1 = _delay_offsets(p.tau1, cfg.dt)[0]
    k2 = _delay_offsets(p.tau2, cfg.dt)[0]
    return n_steps, skip, k1, k2


def _forcing_chunk(ex: ExcitationParams, dt: float, s0: int, n: int) -> np.ndarray:
    if ex.eps == 0 or ex.G == 0:
        return np.zeros(n)
    return ex.amplitude * np.sin(ex.Omega * dt * np.arange(s0, s0 + n, dtype=float))


def _initial_positions(p: SystemParams, cfg: SimConfig, n: int) -> np.ndarray:
    base = cfg.x0 if cfg.x0 is not None else well_minimum(p, p.delta1)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return base * signs


def _step_cells(
    cells: list[Cell],
    cfg: SimConfig,
    gens: list[np.random.Generator],
    x0: np.ndarray,
    store: int,
):
    """Step len(gens) trajectories of every cell in one lockstep ensemble.

    The cells share their step counts and delay offsets (_batch_key); the
    rows are cell-major, and each row carries its own cell's parameters,
    noise scales and forcing.  Row i of every cell reads gens[i]: each
    chunk's normals are drawn once and tiled across the cells, which scale
    them by their own noise, so a cell's rows are the ones its own run would
    step.  x0 holds every row's start position.

    Returns acc (rows, 3), the histogram counts of each cell (cells, nx, nv),
    the divergent mask, the stored series (rows, columns, n_post) or None,
    and the final (x, v, V, xi) arrays.
    """
    n_steps, skip, k1, k2 = _batch_key(*cells[0], cfg)
    # rows of history kept before each chunk: an interpolated delayed read
    # at step s reaches back to step s - k - 1
    n_back = max(k1, k2) + 1
    k = len(gens)
    m = len(cells) * k

    def per_row(values):
        return values[0] if len(cells) == 1 else np.repeat(values, k)

    systems = [p for p, _, _ in cells]
    ou = [_ou_coefficients(noise, cfg.dt) for _, noise, _ in cells]
    coeffs = (
        cfg.dt,
        *(
            per_row([getattr(p, name) for p in systems])
            for name in ("beta", "delta1", "delta3", "kappa", "alpha", "mu", "nu")
        ),
        k1,
        per_row([_delay_offsets(p.tau1, cfg.dt)[1] for p in systems]),
        k2,
        per_row([_delay_offsets(p.tau2, cfg.dt)[1] for p in systems]),
        per_row([decay for decay, _ in ou]),
        per_row([scale for _, scale in ou]),
        skip,
    )
    g = cfg.grid
    hspec = (
        g.x_min, (g.x_max - g.x_min) / g.nx, g.nx,
        g.v_min, (g.v_max - g.v_min) / g.nv, g.nv,
    )
    # one forcing column per distinct excitation, spread over its cells' rows
    drives = list(dict.fromkeys(ex for _, _, ex in cells))
    drive_of_row = np.repeat([drives.index(ex) for _, _, ex in cells], k)

    hist = np.zeros((len(cells), g.nx, g.nv), dtype=np.int64)
    x = np.array(x0, dtype=float)
    v = np.full(m, cfg.v0)
    V = np.full(m, cfg.V0)
    first = [gen.standard_normal() for gen in gens]
    xi = np.array(
        [ou_initial_draw(noise, z) for _, noise, _ in cells for z in first]
    )
    # step-major histories; the delay history before t=0 is the start state
    rows = n_back + min(_CHUNK, n_steps) + 1
    xh = np.empty((rows, m))
    vh = np.empty((rows, m))
    xh[:n_back] = x
    vh[:n_back] = v
    acc = np.zeros((m, 3))
    alive = np.ones(m, dtype=bool)
    n_cols = 1 if store == _kernels.STORE_X else 3
    series = (
        np.zeros((m, n_cols, n_steps - skip)) if store != _kernels.STORE_NONE
        else np.zeros((m, 1, 1))
    )
    s0 = 0
    while s0 < n_steps:
        n = min(_CHUNK, n_steps - s0)
        forcing = np.stack(
            [_forcing_chunk(ex, cfg.dt, s0, n) for ex in drives], axis=1
        )
        if len(drives) > 1:
            forcing = forcing[:, drive_of_row]
        draws = np.empty((n, k))
        for i, gen in enumerate(gens):
            draws[:, i] = gen.standard_normal(n)
        if len(cells) > 1:
            draws = np.tile(draws, len(cells))
        end = n_back + n + 1
        _kernels._chunk_batch(
            x, v, V, xi, alive, xh[:end], vh[:end], s0, n, forcing, draws,
            *coeffs, hist, *hspec, acc, series, store,
        )
        s0 += n
    out_series = series if store != _kernels.STORE_NONE else None
    return acc, hist, ~alive, out_series, (x, v, V, xi)


def simulate_trajectory(
    p: SystemParams,
    noise: NoiseParams,
    ex: ExcitationParams,
    cfg: SimConfig,
    traj_seed,
) -> TrajectoryResult:
    """Integrate one trajectory; deterministic given traj_seed.

    traj_seed may be an integer or a numpy SeedSequence.  This is the
    ensemble stepping on one row, so seeding it with the first child of
    SeedSequence(cfg.seed) and starting it where run_ensemble starts its
    first trajectory reproduces the one-trajectory ensemble bit for bit.
    The delay history before t=0 is held constant at the initial condition.
    """
    acc, _, divergent, series, final = _step_cells(
        [(p, noise, ex)], cfg, [np.random.default_rng(traj_seed)],
        _initial_positions(p, cfg, 1), _kernels.STORE_XVV,
    )
    _, skip = _step_counts(ex, cfg)
    n_samples = int(acc[0, 2])
    t = (skip + np.arange(n_samples)) * cfg.dt
    return TrajectoryResult(
        t=t,
        x=series[0, 0, :n_samples].copy(),
        v=series[0, 1, :n_samples].copy(),
        V=series[0, 2, :n_samples].copy(),
        power_sum=harvested_power(p, acc[0, 1]),
        input_power_sum=acc[0, 0],
        n_samples=n_samples,
        divergent=bool(divergent[0]),
        final_state=tuple(float(a[0]) for a in final),
    )


def _check_segment(ex: ExcitationParams, cfg: SimConfig) -> None:
    drive_period = 2.0 * math.pi / ex.Omega
    if cfg.psd.segment_time < 10.0 * drive_period:
        raise ParameterError(
            f"segment_time={cfg.psd.segment_time} must cover >= 10 drive "
            f"periods ({10.0 * drive_period:.6g})"
        )


def plan(cells: list[Cell], cfg: SimConfig):
    """Lockstep batches of cell indices, and the exception of each cell that
    cannot be stepped.  A batch holds cells with the same step counts and
    delay offsets, in order, up to _BATCH_ROWS rows; a cell that fails its
    checks before stepping is in none."""
    groups: dict[tuple, list[int]] = {}
    failures: dict[int, Exception] = {}
    for i, (p, noise, ex) in enumerate(cells):
        try:
            if cfg.psd is not None:
                _check_segment(ex, cfg)
            key = _batch_key(p, noise, ex, cfg)
        except Exception as e:  # confined to this cell
            failures[i] = e
            continue
        groups.setdefault(key, []).append(i)
    per = max(1, _BATCH_ROWS // cfg.n_traj)
    batches = [
        group[j : j + per] for group in groups.values()
        for j in range(0, len(group), per)
    ]
    return batches, failures


def _estimates(p, ex, cfg, acc, hist, divergent, series) -> EnsembleEstimates:
    """Pooled estimates of one cell from its rows of a lockstep run."""
    pm_sum = float(np.sum(acc[:, 0]))
    vsq_sum = float(np.sum(acc[:, 1]))
    n = float(np.sum(acc[:, 2]))
    if n == 0:
        raise ParameterError("all trajectories diverged before the transient ended")
    vsq_mean = vsq_sum / n
    mean_power = harvested_power(p, vsq_mean)
    p_in = pm_sum / n
    defined = p_in > 1e-8
    eff = 100.0 * mean_power / p_in if defined else math.nan
    return EnsembleEstimates(
        mean_power=mean_power,
        v_rms=math.sqrt(vsq_mean),
        efficiency_pct=eff,
        efficiency_defined=defined,
        counts=hist,
        grid=cfg.grid,
        n_divergent=int(np.sum(divergent)),
        n_samples=int(n),
        psd_snr=(
            None if cfg.psd is None
            else estimate_snr_psd(series, divergent, ex, cfg)
        ),
    )


def run_batch(cells: list[Cell], cfg: SimConfig) -> list:
    """Per cell of one lockstep batch of plan, its EnsembleEstimates (its own
    run_ensemble, bit for bit) or the exception it raised; an exception of
    the lockstep pass is every cell's."""
    gens = [
        np.random.default_rng(c)
        for c in np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)
    ]
    x0 = np.concatenate(
        [_initial_positions(p, cfg, cfg.n_traj) for p, _, _ in cells]
    )
    store = _kernels.STORE_NONE if cfg.psd is None else _kernels.STORE_X
    try:
        acc, hist, divergent, series, _ = _step_cells(cells, cfg, gens, x0, store)
    except Exception as e:  # a failed pass fails each of its cells
        return [e] * len(cells)
    out = []
    for c, (p, _, ex) in enumerate(cells):
        rows = slice(c * cfg.n_traj, (c + 1) * cfg.n_traj)
        try:
            out.append(_estimates(
                p, ex, cfg, acc[rows].copy(), hist[c], divergent[rows],
                None if series is None else series[rows],
            ))
        except Exception as e:  # confined to this cell
            out.append(e)
    return out


def run_ensemble(
    p: SystemParams,
    noise: NoiseParams,
    ex: ExcitationParams,
    cfg: SimConfig,
) -> EnsembleEstimates:
    """Ensemble estimates pooled over all post-transient samples.

    Trajectory i draws from the i-th child of SeedSequence(cfg.seed).
    Merging is a fixed-order sum over trajectory index, so the result does not
    depend on scheduling.  Divergent trajectories contribute the samples they
    collected before diverging and are counted in n_divergent.  With a psd
    block the displacement series is stored in the same pass and psd_snr is
    estimated from it; storing it does not change the other estimates.  This
    is a one-cell batch: plan, then run_batch.
    """
    cells = [(p, noise, ex)]
    _, failures = plan(cells, cfg)
    (result,) = failures.values() if failures else run_batch(cells, cfg)
    if isinstance(result, Exception):
        raise result
    return result


def _segment_periodograms(
    series: np.ndarray,
    divergent: np.ndarray,
    n_seg: int,
    step: int,
    bins=slice(None),
) -> np.ndarray:
    """Hann-windowed periodograms of every segment of every clean trajectory,
    one row per segment, kept on `bins` only (every bin by default)."""
    window = np.hanning(n_seg)
    wnorm = np.sum(window**2)
    rows = np.flatnonzero(~divergent)
    starts = range(0, series.shape[2] - n_seg + 1, step)
    n_bins = np.arange(n_seg // 2 + 1)[bins].size
    # column-major, like the fancy-indexed copy `pgs[:, bins]` it replaces, so
    # the mean over segments adds each bin's column in the same (pairwise)
    # order and the SNR and its bootstrap stay the same to the bit
    out = np.empty((rows.size * len(starts), n_bins), order="F")
    k = 0
    for i in rows:
        xs = series[i, 0]
        for start in starts:
            seg = xs[start : start + n_seg]
            seg = (seg - seg.mean()) * window
            out[k] = np.abs(np.fft.rfft(seg)[bins]) ** 2 / wnorm
            k += 1
    return out


def _snr_window(j: int, n_bins: int) -> np.ndarray:
    """Bins the SNR at drive bin j reads: j itself, then its background
    neighbors, up to five on each side, skipping DC and the bins next to j."""
    lo = np.arange(max(j - 6, 1), max(j - 1, 1))
    hi = np.arange(j + 2, min(j + 7, n_bins))
    return np.concatenate([[j], lo, hi])


def _snr_from_mean(mean_window: np.ndarray) -> float:
    """Background-subtracted SNR from the mean spectrum on _snr_window bins."""
    background = float(np.mean(mean_window[1:]))
    if background <= 0:
        return 0.0
    return (float(mean_window[0]) - background) / background


def estimate_snr_psd(
    series: np.ndarray | SystemParams,
    divergent: np.ndarray | NoiseParams,
    ex: ExcitationParams,
    cfg: SimConfig,
) -> PsdSnr:
    """Periodogram SNR of the displacement at the drive frequency.

    series[i, 0] is trajectory i's post-transient displacement and divergent
    marks the trajectories to leave out; cfg.psd sets the segments.  Averages
    Hann periodograms over overlapping segments of every clean trajectory,
    subtracts the noise floor interpolated from neighboring bins, and attaches
    a bootstrap standard error over segments.

    Called as estimate_snr_psd(p, noise, ex, cfg), with the system and noise
    parameters in the first two places, it returns
    run_ensemble(p, noise, ex, cfg).psd_snr; perfbench/make_reference.py
    calls it that way.
    """
    if isinstance(series, SystemParams):
        if cfg.psd is None:
            raise ParameterError("psd settings are required for spectral estimation")
        return run_ensemble(series, divergent, ex, cfg).psd_snr
    if np.all(divergent):
        raise ParameterError("all trajectories diverged; no spectra available")

    n_seg = int(round(cfg.psd.segment_time / cfg.dt))
    step = max(1, int(round(n_seg * (1.0 - cfg.psd.overlap))))
    n_starts = len(range(0, series.shape[2] - n_seg + 1, step))
    n_pg = int(np.count_nonzero(~divergent)) * n_starts
    if n_pg == 0:
        raise ParameterError("no complete segments; increase t_total")
    n_bins = n_seg // 2 + 1
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n_seg, d=cfg.dt)
    j = int(np.argmin(np.abs(freqs - ex.Omega)))
    if j < 3 or j > n_bins - 8:
        raise ParameterError("drive frequency too close to the spectral edge")

    # the SNR reads 13 bins at most; keep and resample only those
    window = _segment_periodograms(
        series, divergent, n_seg, step, _snr_window(j, n_bins)
    )
    estimate = _snr_from_mean(window.mean(axis=0))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(2**20,)))
    boot = np.empty(cfg.psd.n_bootstrap)
    for b in range(cfg.psd.n_bootstrap):
        pick = rng.integers(0, n_pg, n_pg)
        boot[b] = _snr_from_mean(window[pick].mean(axis=0))
    return PsdSnr(
        estimate=estimate,
        stderr=float(np.std(boot, ddof=1)),
        n_segments=n_pg,
        bin_freq=float(freqs[j]),
        freq_resolution=float(freqs[1]),
    )
