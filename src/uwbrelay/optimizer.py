"""Split-parameter optimization for the relay-channel rate bounds.

Both bounds are max-min problems over per-tone split magnitudes: maximize
the worse of two tone-averaged terms.  Phases are handled analytically
(align_phases), so the search runs over real magnitudes in [0, 1] per
tone:

* partial decode-and-forward: (a_i, b_i) = (|relay_corr_i|, |aux_corr_i|),
  terms mac / decode;
* cut-set: only the product t_i = a_i * b_i matters, terms mac /
  broadcast, searched in one dimension;
* degraded restriction: b_i = 1 fixed, searched over a_i.

The engine scalarizes with a weight lam in [0, 1]: for fixed lam the
weighted sum separates across tones and the per-tone maximizer is found
on a grid plus local refinement.  An outer bisection drives the weighted
solution toward equal terms, every iterate is kept as a candidate, and a
few corner profiles with known analytic roles are always evaluated so
grid placement cannot miss them.  Exactness is certified empirically
against brute_force_oracle, never assumed.

Deterministic tie-breaking: grids are enumerated in ascending
lexicographic order and argmax takes the first maximizer, so among equal
objectives the smallest (a_i, then b_i) wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rates
from .rates import PowerBudget, RelayChannelInstance, SplitParams, LN2


@dataclass(frozen=True)
class OptimizerSettings:
    """Search controls.  The defaults (101-point tone grids, three
    tenfold refinement rounds, 1e-6 weight bisection) meet the 2e-3 bit
    oracle tolerance."""

    tone_grid_points: int = 101
    lambda_tolerance: float = 1e-6
    max_lambda_iters: int = 60
    refine_steps: int = 3

    def __post_init__(self) -> None:
        if self.tone_grid_points < 2:
            raise ValueError("tone_grid_points must be >= 2")
        if not (0 < self.lambda_tolerance < 1):
            raise ValueError("lambda_tolerance must be in (0, 1)")
        if self.max_lambda_iters < 1:
            raise ValueError("max_lambda_iters must be >= 1")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")


@dataclass
class OptimizationResult:
    """Solution of one bound optimization.  rate is the rates-module
    evaluation of split; magnitudes (k, d) and the tone-averaged terms
    (first = multiple-access, second = decode or broadcast) are the search
    optimum; converged is False only when the weight bisection hit its
    iteration cap; full_decode is the degraded optimum of a pdf search."""

    split: SplitParams
    rate: float
    magnitudes: np.ndarray
    terms: tuple
    iterations: int
    converged: bool
    objective: str
    lambda_trace: list = field(default_factory=list)
    full_decode: OptimizationResult | None = None

    @property
    def binding_term(self) -> str:
        """The smaller term: 'first', 'second', or 'both' when equalized."""
        first, second = self.terms
        if abs(first - second) <= 1e-9:
            return "both"
        return "first" if first < second else "second"


def align_phases(instance: RelayChannelInstance) -> np.ndarray:
    """Per-tone phase that makes the coherent cross term real and maximal.

    Giving both split coefficients this phase puts the cross coefficient
    sqrt(relay_corr) * sqrt(aux_corr) at exactly exp(j*theta) times the
    magnitudes, so Re{coeff * g_sd * conj(g_rd)} hits its upper envelope
    |coeff| |g_sd| |g_rd| on every tone.
    """
    return -np.angle(instance.g_sd * np.conj(instance.g_rd))


def aligned_split(instance: RelayChannelInstance, relay_mag, aux_mag) -> SplitParams:
    """Build a SplitParams from magnitudes in [0, 1] with phases aligned
    to the instance."""
    relay_mag = np.broadcast_to(np.asarray(relay_mag, dtype=float),
                                (instance.block_size,))
    aux_mag = np.broadcast_to(np.asarray(aux_mag, dtype=float),
                              (instance.block_size,))
    if np.any(relay_mag < 0) or np.any(aux_mag < 0):
        raise ValueError("split magnitudes must be >= 0")
    rotor = np.exp(1j * align_phases(instance))
    return SplitParams(relay_mag * rotor, aux_mag * rotor)


# Coarse-table entries (tones x grid points) per tone block: the engine
# builds and scores one block at a time so its working set stays
# cache-sized.  2^18 and 2^19 run no faster and keep larger score buffers.
_BLOCK_ENTRIES = 1 << 17
# Consecutive blocks per chunk, the unit of tone work refined at once:
# about 100 tones at a 101-point grid, enough for numpy's inner loops to
# outweigh the interpreter in the refinement.
_CHUNK_BLOCKS = 8


class _TermsBase:
    """Per-tone evaluation of the two competing terms (bits per tone) on
    tensor-product grids.  The first (multiple-access) term is shared;
    subclasses supply its coherent fraction and the second term.

    Broadcasting computes a factor that depends on one axis only once per
    axis value, while every grid point still sees the same float
    operations in the same order as a pointwise evaluation."""

    def __init__(self, instance: RelayChannelInstance, powers: PowerBudget):
        self.block_size = instance.block_size
        sd_pow = np.abs(instance.g_sd) ** 2 * powers.p_src
        rd_pow = np.abs(instance.g_rd) ** 2 * powers.p_rel
        self.mac_base = (sd_pow + rd_pow) / instance.n_dest
        self.mac_cross = (2.0 * math.sqrt(powers.p_src * powers.p_rel)
                          * np.abs(instance.g_sd) * np.abs(instance.g_rd)
                          / instance.n_dest)

    def at(self, axes, tones=slice(None), out=(None, None)):
        """Terms on the product of the search axes for the selected tones.
        Each axis is (1, n_i), shared across tones, or (tones, n_i), one
        row per tone.  Returns (first_term, second_term), each
        (tones, n_1 * ... * n_d) in lexicographic grid order, written into
        the arrays of `out` when given.

        Each term is built in its output array by a chain of in-place
        ufuncs with the operations and operand order of the plain
        expression, so no full-size temporary is made."""
        d = len(axes)
        grid = []
        for i, axis in enumerate(axes):
            shape = [axis.shape[0]] + [1] * d
            shape[1 + i] = axis.shape[1]
            grid.append(axis.reshape(shape))

        def tone(gain):
            return gain[tones].reshape((-1,) + (1,) * d)

        base = tone(self.mac_base)
        full = (len(base),) + tuple(axis.shape[1] for axis in axes)
        first, second = (np.empty(full) if o is None else o.reshape(full)
                         for o in out)
        # log1p(base + cross * sqrt(coherent)) / LN2
        np.sqrt(self._coherent(grid, first), out=first)
        np.multiply(tone(self.mac_cross), first, out=first)
        np.add(base, first, out=first)
        np.log1p(first, out=first)
        np.divide(first, LN2, out=first)
        np.divide(self._second_nats(grid, tone, second), LN2, out=second)
        return first.reshape(len(base), -1), second.reshape(len(base), -1)

    def _coherent(self, grid, out):
        """The coherent fraction, written into out or returned unchanged
        when it is an axis itself."""
        raise NotImplementedError

    def _second_nats(self, grid, tone, out):
        """The second term in nats, written into out."""
        raise NotImplementedError


class _PdfTerms(_TermsBase):
    """Terms of the partial decode-and-forward problem over (a, b)."""

    def __init__(self, instance: RelayChannelInstance, powers: PowerBudget):
        super().__init__(instance, powers)
        self.sr_gain = np.abs(instance.g_sr) ** 2 * powers.p_src / instance.n_relay
        self.sd_gain = np.abs(instance.g_sd) ** 2 * powers.p_src / instance.n_dest

    def _coherent(self, grid, out):
        a, b = grid
        return np.multiply(a, b, out=out)

    def _second_nats(self, grid, tone, out):
        # log1p(sr * (1 - a) * b / (sr * (1 - b) + 1)) + log1p(sd * (1 - b))
        a, b = grid
        sr = tone(self.sr_gain)
        sd = tone(self.sd_gain)
        np.multiply(sr * (1.0 - a), b, out=out)
        np.divide(out, sr * (1.0 - b) + 1.0, out=out)
        np.log1p(out, out=out)
        return np.add(out, np.log1p(sd * (1.0 - b)), out=out)


class _CutsetTerms(_TermsBase):
    """Terms of the cut-set problem over the product t = a * b."""

    def __init__(self, instance: RelayChannelInstance, powers: PowerBudget):
        # the broadcast-cut SNR with no correlation spent (t = 0)
        self.bc_gain = rates.broadcast_cut_snr(
            instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
            instance.n_relay, 0.0, 0.0, instance.noise_corr)
        super().__init__(instance, powers)

    def _coherent(self, grid, out):
        return grid[0]

    def _second_nats(self, grid, tone, out):
        # log1p(bc * (1 - t))
        np.multiply(tone(self.bc_gain), 1.0 - grid[0], out=out)
        return np.log1p(out, out=out)


@dataclass
class _Candidate:
    points: np.ndarray  # (K, d) split magnitudes
    first: float
    second: float

    @property
    def value(self) -> float:
        return min(self.first, self.second)


def _score(lam, first, second, scratch=(None, None)):
    """Weighted scalarization at weight lam, or the pointwise minimum of
    the two terms when lam is None.  scratch optionally holds two arrays
    shaped like the terms; the score is written into the first."""
    out, spare = scratch
    if lam is None:
        return np.minimum(first, second, out=out)
    score = np.multiply(first, lam, out=out)
    score += np.multiply(second, 1.0 - lam, out=spare)
    return score


class _Engine:
    """Shared max-min machinery (see module docstring)."""

    def __init__(self, terms: _TermsBase, axes, settings: OptimizerSettings):
        self.terms = terms
        self.axes = [np.asarray(ax, dtype=float) for ax in axes]
        self.settings = settings
        self.shape = tuple(ax.size for ax in self.axes)
        k = terms.block_size
        size = math.prod(self.shape)
        step = max(1, _BLOCK_ENTRIES // size)
        self.blocks = [slice(start, min(start + step, k))
                       for start in range(0, k, step)]
        self.chunks = [self.blocks[i:i + _CHUNK_BLOCKS]
                       for i in range(0, len(self.blocks), _CHUNK_BLOCKS)]
        self.coarse_first = np.empty((k, size))
        self.coarse_second = np.empty((k, size))
        shared = [ax[None] for ax in self.axes]
        for tones in self.blocks:
            terms.at(shared, tones,
                     out=(self.coarse_first[tones], self.coarse_second[tones]))
        # reused by every coarse scoring pass instead of fresh block-sized
        # temporaries, which would be page-faulted in again on each pass
        self.scratch = tuple(np.empty((min(step, k), size)) for _ in range(2))
        # per refinement round and axis: 21 offsets spanning +/- one parent
        # step at a tenth of it; fixed (singleton) axes stay put
        self.offsets = []
        scale = 1.0
        for _ in range(settings.refine_steps):
            scale /= 10.0
            self.offsets.append([
                np.arange(-10, 11, dtype=float)
                * ((ax[-1] - ax[0]) / (ax.size - 1) * scale)
                if ax.size > 1 else np.zeros(1) for ax in self.axes])
        self.trace = []
        self.solves = 0

    def _solve(self, lam: float | None) -> _Candidate:
        """Per-tone maximizer of _score on the grid, scored one tone block
        at a time, then refined locally one chunk at a time.  lam=None maximizes the pointwise
        minimum on every tone separately: for a single tone that is the
        max-min problem itself, so the weighted scalarization cannot lose
        to its own duality gap there; for longer blocks it is one more
        profile worth trying.  Only weighted solves enter the lambda
        trace."""
        self.solves += 1
        pts = np.empty((self.terms.block_size, len(self.axes)))
        for chunk in self.chunks:
            idx = []
            for block in chunk:
                first = self.coarse_first[block]
                second = self.coarse_second[block]
                scratch = [buf[:len(first)] for buf in self.scratch]
                idx.append(np.argmax(_score(lam, first, second, scratch),
                                     axis=1))  # first max = smallest grid point
            idx = np.concatenate(idx)
            best = [ax[i] for ax, i in
                    zip(self.axes, np.unravel_index(idx, self.shape))]
            tones = slice(chunk[0].start, chunk[-1].stop)
            rows = np.arange(idx.size)
            for offsets in self.offsets:
                cand = [np.clip(p[:, None] + off, 0.0, 1.0)
                        for p, off in zip(best, offsets)]
                j = np.argmax(_score(lam, *self.terms.at(cand, tones)), axis=1)
                j = np.unravel_index(j, tuple(off.size for off in offsets))
                best = [c[rows, i] for c, i in zip(cand, j)]
            pts[tones] = np.stack(best, axis=-1)
        cand = self._evaluate(pts)
        if lam is not None:
            self.trace.append((lam, cand.first, cand.second))
        return cand

    def _evaluate(self, pts: np.ndarray) -> _Candidate:
        c1, c2 = self.terms.at([pts[:, i:i + 1] for i in range(pts.shape[1])])
        return _Candidate(pts, float(c1.mean()), float(c2.mean()))

    def run(self, corner_points, extra_candidates=()):
        """corner_points: constant magnitude profiles always evaluated;
        extra_candidates: pre-solved _Candidate objects (sub-problems).
        Candidates are scanned in order, strict improvement wins, so the
        earliest entry takes any tie."""
        k = self.terms.block_size
        d = len(self.axes)
        candidates = [self._evaluate(np.tile(np.asarray(p, dtype=float), (k, 1)))
                      for p in corner_points]
        candidates.append(self._solve(None))
        candidates.extend(extra_candidates)

        low_sol = self._solve(0.0)
        high_sol = self._solve(1.0)
        converged = True
        if low_sol.first - low_sol.second >= 0.0:
            # even the pure second-term maximizer leaves the first term
            # slack, so it is optimal on its own
            candidates.extend([low_sol, high_sol])
        elif high_sol.first - high_sol.second <= 0.0:
            candidates.extend([high_sol, low_sol])
        else:
            candidates.extend([low_sol, high_sol])
            lo, hi = 0.0, 1.0
            iters = 0
            while hi - lo > self.settings.lambda_tolerance:
                if iters >= self.settings.max_lambda_iters:
                    converged = False
                    break
                mid = 0.5 * (lo + hi)
                sol = self._solve(mid)
                candidates.append(sol)
                if sol.first - sol.second > 0.0:
                    hi = mid
                else:
                    lo = mid
                iters += 1

        best = candidates[0]
        for cand in candidates[1:]:
            if cand.value > best.value:
                best = cand
        assert best.points.shape == (k, d)
        return best, converged


def _axis(settings: OptimizerSettings) -> np.ndarray:
    return np.linspace(0.0, 1.0, settings.tone_grid_points)


def optimize_pdf(instance: RelayChannelInstance, powers: PowerBudget,
                 settings: OptimizerSettings | None = None) -> OptimizationResult:
    """Maximize the partial decode-and-forward rate over per-tone split
    magnitudes with aligned phases.  The full-decode optimum
    (optimize_degraded) is one of the candidates and is kept as the
    result's full_decode."""
    settings = settings or OptimizerSettings()
    full = optimize_degraded(instance, powers, settings)
    engine = _Engine(_PdfTerms(instance, powers),
                     [_axis(settings), _axis(settings)], settings)
    # corner (0, 0) switches the relay path off entirely; the full-decode
    # optimum covers the opposite corner b = 1
    best, converged = engine.run(
        corner_points=[(0.0, 0.0)],
        extra_candidates=[_Candidate(full.magnitudes, *full.terms)])
    split = aligned_split(instance, best.points[:, 0], best.points[:, 1])
    return OptimizationResult(
        split=split, rate=rates.pdf_rate(instance, powers, split),
        magnitudes=best.points, terms=(best.first, best.second),
        iterations=engine.solves + full.iterations,
        converged=converged and full.converged, objective="pdf",
        lambda_trace=engine.trace, full_decode=full)


def optimize_cutset(instance: RelayChannelInstance, powers: PowerBudget,
                    settings: OptimizerSettings | None = None) -> OptimizationResult:
    """Maximize the cut-set upper bound over the per-tone correlation
    product, reported as a split with equal magnitudes sqrt(t)."""
    settings = settings or OptimizerSettings()
    terms = _CutsetTerms(instance, powers)
    engine = _Engine(terms, [_axis(settings)], settings)
    best, converged = engine.run(corner_points=[(0.0,), (1.0,)])
    root = np.sqrt(best.points[:, 0])
    split = aligned_split(instance, root, root)
    return OptimizationResult(
        split=split, rate=rates.cutset_rate(instance, powers, split),
        magnitudes=best.points, terms=(best.first, best.second),
        iterations=engine.solves, converged=converged, objective="cutset",
        lambda_trace=engine.trace)


def optimize_degraded(instance: RelayChannelInstance, powers: PowerBudget,
                      settings: OptimizerSettings | None = None) -> OptimizationResult:
    """Maximize the full-decode (decode-and-forward) rate: the auxiliary
    coefficient magnitude is fixed at 1 and only the cooperative
    coefficient is searched.  On a degraded channel this attains
    capacity."""
    settings = settings or OptimizerSettings()
    engine = _Engine(_PdfTerms(instance, powers),
                     [_axis(settings), np.array([1.0])], settings)
    best, converged = engine.run(corner_points=[(0.0, 1.0), (1.0, 1.0)])
    split = aligned_split(instance, best.points[:, 0], best.points[:, 1])
    return OptimizationResult(
        split=split, rate=rates.pdf_rate(instance, powers, split),
        magnitudes=best.points, terms=(best.first, best.second),
        iterations=engine.solves, converged=converged, objective="degraded",
        lambda_trace=engine.trace)


def brute_force_oracle(instance: RelayChannelInstance, powers: PowerBudget,
                       objective: str = "pdf", resolution: float = 1e-3) -> float:
    """Exhaustive max-min over the full per-tone magnitude grid at the
    given resolution; supports one or two tones only (the joint grid is
    exponential in the block size).

    For two tones the pairing is resolved exactly on the same grid by
    bisecting the achieved rate against a sorted-suffix feasibility test,
    which is algebraically identical to enumerating all grid pairs.
    """
    if instance.block_size > 2:
        raise ValueError("brute_force_oracle supports block sizes 1 and 2 only")
    if not (0 < resolution <= 0.5):
        raise ValueError(f"resolution must be in (0, 0.5], got {resolution!r}")
    steps = round(1.0 / resolution)
    axis = np.linspace(0.0, 1.0, steps + 1)

    if objective == "pdf":
        terms: _TermsBase = _PdfTerms(instance, powers)
        axes = [axis[None], axis[None]]
    elif objective == "cutset":
        terms = _CutsetTerms(instance, powers)
        axes = [axis[None]]
    else:
        raise ValueError(f"unknown objective {objective!r}")

    first, second = terms.at(axes)
    if instance.block_size == 1:
        return float(np.max(np.minimum(first[0], second[0])))

    u1, u2 = first[0], second[0]
    v1, v2 = first[1], second[1]
    if objective == "cutset":
        # small enough to enumerate all pairs directly
        pair_first = 0.5 * (u1[:, None] + v1[None, :])
        pair_second = 0.5 * (u2[:, None] + v2[None, :])
        return float(np.max(np.minimum(pair_first, pair_second)))

    order = np.argsort(v1, kind="stable")
    v1_sorted = v1[order]
    suffix_best = np.maximum.accumulate(v2[order][::-1])[::-1]
    suffix_best = np.append(suffix_best, -np.inf)

    def feasible(rate: float) -> bool:
        need_first = 2.0 * rate - u1
        need_second = 2.0 * rate - u2
        pos = np.searchsorted(v1_sorted, need_first, side="left")
        return bool(np.any(suffix_best[pos] >= need_second))

    lo = 0.0  # always feasible: every term is nonnegative
    hi = min(0.5 * (u1.max() + v1.max()), 0.5 * (u2.max() + v2.max())) + 1e-9
    iters = 0
    while hi - lo > 1e-9 and iters < 80:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    return lo


def random_instance(block_size: int, rng: np.random.Generator):
    """Random well-conditioned instance for oracle comparisons: unit-power
    complex normal gains, noise powers and per-node powers spread over a
    few dB, complex noise correlation magnitudes up to 0.9.  Returns
    (instance, powers)."""
    gains = (rng.standard_normal((3, block_size))
             + 1j * rng.standard_normal((3, block_size))) / math.sqrt(2.0)
    n_dest, n_relay = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
    corr_mag = rng.uniform(0.0, 0.9, size=block_size)
    corr_phase = rng.uniform(0.0, 2.0 * math.pi, size=block_size)
    p_src, p_rel = 10.0 ** rng.uniform(-0.5, 1.0, size=2)
    instance = RelayChannelInstance(
        g_sd=gains[0], g_sr=gains[1], g_rd=gains[2],
        n_dest=float(n_dest), n_relay=float(n_relay),
        noise_corr=corr_mag * np.exp(1j * corr_phase))
    return instance, PowerBudget(p_src=float(p_src), p_rel=float(p_rel))


@dataclass(frozen=True)
class OracleComparison:
    """One optimizer-versus-exhaustive-search data point."""

    block_size: int
    index: int
    objective: str
    optimizer_rate: float
    oracle_rate: float

    @property
    def deviation(self) -> float:
        return abs(self.optimizer_rate - self.oracle_rate)


def oracle_suite(k1_instances: int, k2_instances: int, resolution: float,
                 seed: int,
                 settings: OptimizerSettings | None = None) -> list[OracleComparison]:
    """Compare both optimizers against brute_force_oracle on seeded random
    instances: k1_instances single-tone and k2_instances two-tone draws,
    each checked for both objectives."""
    settings = settings or OptimizerSettings()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = []
    for block_size, count in ((1, k1_instances), (2, k2_instances)):
        for index in range(count):
            instance, powers = random_instance(block_size, rng)
            for objective in ("pdf", "cutset"):
                if objective == "pdf":
                    approx = optimize_pdf(instance, powers, settings).rate
                else:
                    approx = optimize_cutset(instance, powers, settings).rate
                exact = brute_force_oracle(instance, powers, objective, resolution)
                rows.append(OracleComparison(block_size, index, objective,
                                             approx, exact))
    return rows
