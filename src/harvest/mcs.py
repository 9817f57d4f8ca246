"""Monte Carlo simulation of the original coupled delayed stochastic system.

Semi-implicit Euler stepping of displacement, velocity and harvested voltage
with the colored noise advanced by its exact one-step update, delayed feedback
read with linear interpolation from a step-major history, and ensemble
estimators for the mean output power, RMS voltage, conversion efficiency,
stationary histogram and a periodogram-based SNR.

The ensemble is stepped in chunks of _CHUNK steps.  Each chunk keeps its
(history + chunk, 3, m) rows of displacement, velocity and voltage, with the
previous chunk's last steps on top, and accumulates the estimators once from
them.
plan groups the cells of a sweep into lockstep batches and run_batch steps
each batch as the rows of one run (_step_cells); run_ensemble is a one-cell
batch and simulate_trajectory a one-row _step_cells run.

A psd run stores no series: each chunk hands its post-transient
displacements to one _SpectralSums per cell, which keeps only the running
windowed-DFT sums of every segment at the 11 bins the SNR reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads this lazily; load it at import, so a run's time is its work:
# every run draws from numpy.random
import numpy.random  # noqa: F401

from . import _kernels
from .averaging import DensityField, GridSpec
from .errors import ParameterError
from .model import (
    ExcitationParams, NoiseParams, SystemParams, harvested_power, well_minimum,
)

# Steps per lockstep chunk.  A chunk's step-major records (draws, noise path,
# drive, the x, v and V history) and the temporaries of its estimators come
# to about a dozen (1024, m) float arrays, less than (m, 16384) draws.
_CHUNK = 1024

# Post-transient samples per block of the spectral sums (_SpectralSums).
_BLOCK = 1024

# Rows of one lockstep batch of sweep cells.  A run costs less than
# proportionally more as the ensemble widens up to here (run_batch on the
# noise-sweep system on the C lane, 4000 steps, one CPU: 8 rows in 2.0-2.1 ms,
# 64 in 7.8-8.5 ms, 128 in 20-21.5 ms), so a batch of narrow cells costs less
# than its cells run one at a time.
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

    dt: float = 0.01
    t_total: float = 2000.0
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
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")

    def resolved_transient(self, ex: ExcitationParams) -> float:
        """Transient discard window; default 20% of the run, and at least 200
        forcing periods when the drive amplitude eps*G is non-zero."""
        if self.t_transient is not None:
            return self.t_transient
        t = 0.2 * self.t_total
        if ex.amplitude > 0:
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
    """The stepping lane, recorded in run provenance: "c" when the compiled
    step loop runs in this process, "numpy" when it fell back."""
    return _kernels.lane()


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
    if ex.amplitude == 0:
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
    sink=None,
):
    """Step len(gens) trajectories of every cell in one lockstep ensemble.

    The cells share their step counts and delay offsets (_batch_key); the
    rows are cell-major, and each row carries its own cell's parameters,
    noise scales and forcing.  Row i of every cell reads gens[i]: each
    chunk's normals are drawn once and tiled across the cells, which scale
    them by their own noise, so a cell's rows are the ones its own run would
    step.  x0 holds every row's start position; sink is passed on to every
    _chunk_batch call.

    Returns acc (rows, 3), the histogram counts of each cell (cells, nx, nv),
    the divergent mask, the stored series (rows, 3, n_post) or None, and the
    final (x, v, V, xi) arrays.
    """
    n_steps, skip, k1, k2 = _batch_key(*cells[0], cfg)
    # rows of history kept before each chunk: an interpolated delayed read
    # at step s reaches back to step s - k - 1
    n_back = max(k1, k2) + 1
    k = len(gens)
    m = len(cells) * k

    # the coefficient block, one column per cell repeated over its k rows
    named = []
    for p, noise, _ in cells:
        E_ou, S_ou = _ou_coefficients(noise, cfg.dt)
        f1, f2 = (_delay_offsets(tau, cfg.dt)[1] for tau in (p.tau1, p.tau2))
        named.append(dict(vars(p), f1=f1, f2=f2, E_ou=E_ou, S_ou=S_ou))
    coef = np.repeat(
        np.array([[c[r] for c in named] for r in _kernels.COEF_ROWS], dtype=float),
        k, axis=1,
    )
    g = cfg.grid
    hspec = (g.x_min, (g.x_max - g.x_min) / g.nx, g.v_min, (g.v_max - g.v_min) / g.nv)
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
    # step-major history of [x, v, V] rows; the delay history before t=0 is
    # the start state
    h = np.empty((n_back + min(_CHUNK, n_steps) + 1, 3, m))
    h[:n_back] = x, v, V
    acc = np.zeros((m, 3))
    alive = np.ones(m, dtype=bool)
    series = (
        np.zeros((m, 3, n_steps - skip)) if store != _kernels.STORE_NONE
        else np.zeros((m, 1, 1))
    )
    # one row of normals per stream, reused by every chunk
    normals = np.empty((k, min(_CHUNK, n_steps)))
    s0 = 0
    while s0 < n_steps:
        n = min(_CHUNK, n_steps - s0)
        forcing = np.stack(
            [_forcing_chunk(ex, cfg.dt, s0, n) for ex in drives], axis=1
        )
        if len(drives) > 1:
            forcing = forcing[:, drive_of_row]
        for row, gen in zip(normals, gens):
            gen.standard_normal(out=row[:n])
        draws = normals[:, :n].T
        if len(cells) > 1:
            draws = np.tile(draws, len(cells))
        _kernels._chunk_batch(
            x, v, V, xi, alive, h[: n_back + n + 1], s0, n, forcing, draws,
            coef, cfg.dt, k1, k2, skip, hist, hspec, acc, series, store, sink,
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


# Offsets from the drive bin of the bins the SNR reads: the drive bin, then
# five background bins on each side, skipping the bins next to it
_SNR_OFFSETS = np.array([0, -6, -5, -4, -3, -2, 2, 3, 4, 5, 6])


@dataclass(frozen=True)
class _PsdGeometry:
    """Where the segments of a psd run lie and which bins its SNR reads."""

    n_seg: int  # samples per segment
    starts: range  # post-transient index of each segment's first sample
    bins: np.ndarray  # drive bin + _SNR_OFFSETS
    bin_freq: float  # angular frequency of the drive bin
    freq_resolution: float


def _psd_geometry(ex: ExcitationParams, cfg: SimConfig) -> _PsdGeometry:
    """The segments and SNR bins of a psd run, checked before it is stepped,
    in this order: a segment covers at least ten drive periods, the run holds
    at least one segment, and the window stops below the last rfft bin
    n_bins - 1 (j <= n_bins - 8), so the Nyquist bin of an even segment is
    never background.  Ten periods put the drive bin j at 10 or above, so the
    window j - 6 .. j + 6 always has its five background bins on each side,
    above DC."""
    drive_period = 2.0 * math.pi / ex.Omega
    if cfg.psd.segment_time < 10.0 * drive_period:
        raise ParameterError(
            f"segment_time={cfg.psd.segment_time} must cover >= 10 drive "
            f"periods ({10.0 * drive_period:.6g})"
        )
    n_steps, skip = _step_counts(ex, cfg)
    n_seg = int(round(cfg.psd.segment_time / cfg.dt))
    step = max(1, int(round(n_seg * (1.0 - cfg.psd.overlap))))
    starts = range(0, n_steps - skip - n_seg + 1, step)
    if not starts:
        raise ParameterError("no complete segments; increase t_total")
    n_bins = n_seg // 2 + 1
    # 2 pi * np.fft.rfftfreq(n_seg, cfg.dt), bit for bit
    freqs = 2.0 * math.pi * (np.arange(n_bins) * (1.0 / (n_seg * cfg.dt)))
    j = int(np.argmin(np.abs(freqs - ex.Omega)))
    if j > n_bins - 8:
        raise ParameterError("drive frequency too close to the spectral edge")
    return _PsdGeometry(
        n_seg, starts, j + _SNR_OFFSETS, float(freqs[j]), float(freqs[1])
    )


class _SpectralSums:
    """Running windowed-DFT sums of every psd segment of one cell's rows.

    At an SNR bin k, DFT((x - mean) w)[k] = DFT(x w)[k] - mean DFT(w)[k]
    (Welch 1967), so a segment needs only its sums of x w cos and -x w sin at
    the bins and its sum of x, never its samples.  add copies post-transient
    rows into a block of _BLOCK samples at fixed post-transient indices; each
    full block, and the last partial one, adds its part of every segment it
    overlaps with one matrix product.  The block edges do not depend on how
    the run is chunked, so neither do the sums.  Segment 0 starts at index 0,
    so the column sums of its parts add up to DFT(w) at the bins (dft_w) as
    the blocks pass.
    """

    def __init__(self, geometry: _PsdGeometry, rows: int):
        self.geometry = geometry
        self.window = np.hanning(geometry.n_seg)
        self.block = np.empty((_BLOCK, rows))
        self.start = 0  # post-transient index of the block's first row
        self.end = 0  # one past the last post-transient index added
        # per row and segment: the cos sums, the sin sums, the sum of x
        self.sums = np.zeros((rows, len(geometry.starts), 2 * geometry.bins.size + 1))
        self.dft_w = np.zeros(2 * geometry.bins.size + 1)

    def _columns(self, offsets: np.ndarray) -> np.ndarray:
        """w cos and -w sin at each bin, then ones, at the segment offsets:
        shape (offsets, 2 bins + 1)."""
        n_seg = self.geometry.n_seg
        # the phase is reduced in integers, so it is exact at every offset
        phase = offsets[:, None] * self.geometry.bins % n_seg
        angle = phase * (2.0 * math.pi / n_seg)
        w = self.window[offsets, None]
        return np.hstack(
            [w * np.cos(angle), -w * np.sin(angle), np.ones((offsets.size, 1))]
        )

    def add(self, rows: np.ndarray, first: int) -> None:
        """Take the samples rows (steps, rows), from post-transient index
        first on; a call starts where the one before it ended."""
        i = 0
        while i < len(rows):
            at = first + i - self.start
            take = min(len(rows) - i, _BLOCK - at)
            self.block[at : at + take] = rows[i : i + take]
            i += take
            self.end = first + i
            if at + take == _BLOCK:
                self._flush()

    def _flush(self) -> None:
        """Add the block's rows to every segment they overlap."""
        g = self.geometry
        lo, hi = self.start, self.end
        self.start = hi
        if lo == hi:
            return
        step = g.starts.step
        overlapping = range(
            max(0, (lo - g.n_seg) // step + 1),
            min(len(g.starts), (hi - 1) // step + 1),
        )
        # a row that diverged may hold inf or nan; it is dropped at the end
        with np.errstate(over="ignore", invalid="ignore"):
            for s in overlapping:
                st = g.starts[s]
                a, b = max(lo, st), min(hi, st + g.n_seg)
                columns = self._columns(np.arange(a - st, b - st))
                self.sums[:, s] += self.block[a - lo : b - lo].T @ columns
                if s == 0:
                    self.dft_w += columns.sum(axis=0)

    def periodograms(self, divergent: np.ndarray) -> np.ndarray:
        """Hann periodograms at the SNR bins, one row per segment of each
        row not in divergent, in row then segment order."""
        self._flush()  # the last, partial block
        n_seg, nb = self.geometry.n_seg, self.geometry.bins.size
        sums = self.sums[~divergent].reshape(-1, 2 * nb + 1)
        mean = sums[:, -1:] / n_seg
        re = sums[:, :nb] - mean * self.dft_w[:nb]
        im = sums[:, nb:-1] - mean * self.dft_w[nb:-1]
        return (re * re + im * im) / np.sum(self.window**2)


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
                _psd_geometry(ex, cfg)
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


def _estimates(p, ex, cfg, acc, hist, divergent, spectra) -> EnsembleEstimates:
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
            None if spectra is None
            else estimate_snr_psd(spectra, divergent, ex, cfg)
        ),
    )


def run_batch(cells: list[Cell], cfg: SimConfig) -> list:
    """Per cell of one lockstep batch of plan, its EnsembleEstimates (its own
    run_ensemble, bit for bit) or the exception it raised; an exception of
    the lockstep pass is every cell's."""
    k = cfg.n_traj
    gens = [
        np.random.default_rng(c)
        for c in np.random.SeedSequence(cfg.seed).spawn(k)
    ]
    x0 = np.concatenate([_initial_positions(p, cfg, k) for p, _, _ in cells])
    spectra = [None] * len(cells)

    def sink(rows, first):  # each cell's sums take its own rows
        for c, sums in enumerate(spectra):
            sums.add(rows[:, c * k : (c + 1) * k], first)

    try:
        if cfg.psd is not None:
            spectra = [_SpectralSums(_psd_geometry(ex, cfg), k) for _, _, ex in cells]
        acc, hist, divergent, _, _ = _step_cells(
            cells, cfg, gens, x0, _kernels.STORE_NONE,
            None if cfg.psd is None else sink,
        )
    except Exception as e:  # a failed pass fails each of its cells
        return [e] * len(cells)
    out = []
    for c, (p, _, ex) in enumerate(cells):
        rows = slice(c * k, (c + 1) * k)
        try:
            out.append(_estimates(
                p, ex, cfg, acc[rows].copy(), hist[c], divergent[rows], spectra[c],
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
    block the same pass sums the spectral segments for psd_snr; that does
    not change the other estimates.  This is a one-cell batch: plan, then
    run_batch.
    """
    cells = [(p, noise, ex)]
    _, failures = plan(cells, cfg)
    (result,) = failures.values() if failures else run_batch(cells, cfg)
    if isinstance(result, Exception):
        raise result
    return result


def _snr_from_mean(mean_window: np.ndarray) -> float:
    """Background-subtracted SNR from the mean spectrum on the SNR bins."""
    background = float(np.mean(mean_window[1:]))
    if background <= 0:
        return 0.0
    return (float(mean_window[0]) - background) / background


def estimate_snr_psd(
    spectra: _SpectralSums | SystemParams,
    divergent: np.ndarray | NoiseParams,
    ex: ExcitationParams,
    cfg: SimConfig,
) -> PsdSnr:
    """Periodogram SNR of the displacement at the drive frequency.

    spectra holds the segment sums of a cell's trajectories and divergent
    marks the trajectories to leave out.  Averages the Hann periodograms of
    every segment of every clean trajectory on the SNR bins, subtracts the
    noise floor interpolated from neighboring bins, and attaches a bootstrap
    standard error over segments.

    Called as estimate_snr_psd(p, noise, ex, cfg), with the system and noise
    parameters in the first two places, it returns
    run_ensemble(p, noise, ex, cfg).psd_snr; perfbench/make_reference.py
    calls it that way.
    """
    if isinstance(spectra, SystemParams):
        if cfg.psd is None:
            raise ParameterError("psd settings are required for spectral estimation")
        return run_ensemble(spectra, divergent, ex, cfg).psd_snr
    if np.all(divergent):
        raise ParameterError("all trajectories diverged; no spectra available")

    window = spectra.periodograms(divergent)
    n_pg = window.shape[0]
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
        bin_freq=spectra.geometry.bin_freq,
        freq_resolution=spectra.geometry.freq_resolution,
    )
