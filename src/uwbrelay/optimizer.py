"""Split-parameter optimization for the relay-channel rate bounds.

Every bound is a max-min problem over per-tone split magnitudes: maximize
the worse of two tone-averaged terms.  Phases are handled analytically
(align_phases), so only magnitudes in [0, 1] remain, and with
s_i = sqrt(a_i * b_i) all three bounds are one problem

    max over s in [0, 1]^K of min(F1(s), F2(s)),
    F1 = mean log2(1 + B + C*s),   F2 = mean log2(1 + M*(1 - s^2)),

with the per-tone multiple-access scalars B, C and decode gains sr, sd
of _tones and a per-tone gain M:

* decode-and-forward (full decode, b = 1): M = sr, split (a, b) = (s^2, 1);
* partial decode-and-forward: M = max(sr, sd).  At a fixed t = a*b the
  decode term is log(1 + sr*(1 - t)) plus a bracket in b that is monotone
  and 0 at b = 1, so the best b is 1 when sr >= sd and t when sd > sr:
  split (t, 1) or (1, t), and (0, 0) at t = 0 when sd > sr.  Where
  sr >= sd on every tone, M is sr and the split is (t, 1): the pdf and df
  problems are one, and _degraded_from_pdf turns the pdf result into the
  df one, bit for bit;
* cut-set: M is the broadcast-cut gain bc of _broadcast_gain, split (s, s).

B, C, sr and sd do not read the noise correlation, so a caller that solves
several bounds of one draw computes _tones once and passes it to each
optimizer as tones=, every correlation value's cut-set included.

Both terms are concave in s.  For a weight lam the weighted sum
lam*F1 + (1 - lam)*F2 separates across tones, and its per-tone maximizer
is the nonnegative root of a quadratic, clipped to [0, 1].  A root
search on lam (_bracket_root: safeguarded inverse-quadratic and secant
steps) brackets the weight where the terms cross; a second one
equalizes the terms on the segment between the two bracketing
solutions, and the best point evaluated wins.  Both stop at a bracket
width of 1e-9 or after 60 probes, a fixed rule that no setting changes.
Concavity closes the duality gap (minimax theorem), so every weighted
value is an upper bound on the optimum and OptimizationResult.dual_gap
certifies the answer.
brute_force_oracle is an independent check: the exact max-min over the
original (a, b) grid, with the plain real closed forms of both terms and
none of the reduction above.  It rests only on the monotonicity of those
closed forms.  Down a column of fixed b the multiple-access term rises
with a and the decode term falls, so a column's best point sits at the
row where they cross, and one bisection per column finds it.  For one tone
that crossing is also the root of a quadratic in sqrt(a) (_crossing_guess),
so each column first probes the two rows around the guessed root and
bisects only where they do not close its bracket; the guess changes which
rows are evaluated, never the value.  Two tones pair into a grid with
the same column order, searched by the same bisection; for pdf each tone
contributes only its frontier of points that no other point of the tone
beats in both terms.  Every search returns exactly the value of
evaluating every grid point or pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rates
from .rates import PowerBudget, RelayChannelInstance, SplitParams, LN2


@dataclass(frozen=True)
class OptimizerSettings:
    """The optimizer section of a configuration.  No solve reads either
    field: the solve is exact, searches no grid, and its stopping rule is
    fixed (_BRACKET_TOLERANCE, _MAX_PROBES).  Both stay, validated, only
    because the benchmark still names them: its workload configs set
    tone_grid_points and its tracer imports this class."""

    tone_grid_points: int = 101
    refine_steps: int = 3

    def __post_init__(self) -> None:
        if self.tone_grid_points < 2:
            raise ValueError("tone_grid_points must be >= 2")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")


@dataclass
class OptimizationResult:
    """Solution of one bound optimization.  terms are the solver's
    tone-averaged optimum (first = multiple-access, second = decode or
    broadcast); rate is the rates-module score of split, which holds the
    exact magnitudes, so it equals min(terms) to rounding; lambda_trace
    holds (lam, first, second) of every weighted solve; converged is False
    only when the weight search hit its probe cap."""

    split: SplitParams
    rate: float
    terms: tuple
    converged: bool
    objective: str
    lambda_trace: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of weighted solves."""
        return len(self.lambda_trace)

    @property
    def binding_term(self) -> str:
        """The smaller term: 'first', 'second', or 'both' when equalized."""
        first, second = self.terms
        if abs(first - second) <= 1e-9:
            return "both"
        return "first" if first < second else "second"

    @property
    def dual_gap(self) -> float:
        """Certified distance to the optimum, in bits: every weighted value
        lam*first + (1 - lam)*second of lambda_trace bounds the max-min
        value from above, so the smallest one minus min(terms) does.  The
        exact difference is never negative; rounding both sides can make
        it read a few ulps below 0, which is reported as 0."""
        upper = min(lam * first + (1.0 - lam) * second
                    for lam, first, second in self.lambda_trace)
        return max(0.0, upper - min(self.terms))


def align_phases(instance: RelayChannelInstance) -> np.ndarray:
    """Per-tone phase that makes the coherent cross term real and maximal.

    As a SplitParams phase it makes SplitParams.coefficient
    sqrt(relay_mag * aux_mag) * exp(j*theta), so
    Re{coefficient * g_sd * conj(g_rd)} hits its upper envelope
    |coefficient| |g_sd| |g_rd| on every tone.
    """
    return -np.angle(instance.g_sd * np.conj(instance.g_rd))


def aligned_split(instance: RelayChannelInstance, relay_mag, aux_mag) -> SplitParams:
    """Build a SplitParams from magnitudes in [0, 1], broadcast to the
    block, with the phase aligned to the instance."""
    return SplitParams(*np.broadcast_arrays(relay_mag, aux_mag,
                                            align_phases(instance)))


class _Tones(NamedTuple):
    """Per-tone scalars of the one-dimensional problem: the multiple-access
    base B and coherent cross gain C, and the decode gains at the relay
    (sr) and at the destination (sd)."""

    base: np.ndarray
    cross: np.ndarray
    sr: np.ndarray
    sd: np.ndarray


def _tones(instance: RelayChannelInstance, powers: PowerBudget) -> _Tones:
    sd_pow = np.abs(instance.g_sd) ** 2 * powers.p_src
    rd_pow = np.abs(instance.g_rd) ** 2 * powers.p_rel
    return _Tones(
        base=(sd_pow + rd_pow) / instance.n_dest,
        cross=(2.0 * math.sqrt(powers.p_src * powers.p_rel)
               * np.abs(instance.g_sd) * np.abs(instance.g_rd) / instance.n_dest),
        sr=np.abs(instance.g_sr) ** 2 * powers.p_src / instance.n_relay,
        sd=sd_pow / instance.n_dest)


def _broadcast_gain(instance: RelayChannelInstance, powers: PowerBudget):
    """The cut-set gain bc: the broadcast-cut SNR with no correlation spent
    (t = 0).  Only the cut-set computes it, because it needs |rho| below
    rates.NOISE_CORR_LIMIT, the one check the validated instance lacks."""
    rates._check_noise_corr(instance.noise_corr)
    return rates._broadcast_snr(
        instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
        instance.n_relay, 0.0, instance.noise_corr)


# spacing of float64 numbers just above 1, the coarsest rounding of an s
_ULP_OF_ONE = float(np.finfo(float).eps)
# the stopping rule of both root searches of _max_min
_BRACKET_TOLERANCE = 1e-9
_MAX_PROBES = 60


def _bracket_root(gap, lo, hi, gap_lo, gap_hi, tolerance, max_probes):
    """Shrink [lo, hi] toward the sign change of gap, which is
    nondecreasing with the known end values gap_lo <= 0 < gap_hi, until
    the bracket is at most tolerance wide, a probe hits an exact zero, or
    max_probes probes were made.  A probe with gap <= 0 replaces lo and
    any other replaces hi, so (lo, hi) always keeps gap(lo) <= 0 < gap(hi).

    Each probe is an inverse-quadratic step through both ends and the end
    the last probe dropped, where Chandrupatla's test (1997) trusts it;
    otherwise a secant step, before any end was dropped and while the far
    end is still lo or hi and the probes keep landing on the near side.
    Those secants scale the far end's gap down by each probe's progress
    (Anderson and Bjorck), which pulls them toward a root close to a
    starting end, where halving would gain one bit per probe.  A probe
    falls back to the midpoint where neither step applies or the bracket
    did not halve over the last two probes, and stays tolerance/2 inside
    the ends, so an accurate step closes the bracket with the next probe.
    Returns (lo, hi, converged); converged is False when the probe cap was
    hit."""
    # a is the end the last probe moved, b the other end, c the dropped one;
    # scale shrinks gap(b) while the probes stay on a's side
    a, fa, b, fb = lo, gap_lo, hi, gap_hi
    c = fc = None
    scale = 1.0
    widths = [hi - lo]
    for _ in range(max_probes):
        width = abs(b - a)
        if width <= tolerance or fa == 0.0:
            break
        t = 0.5
        if len(widths) < 3 or width <= 0.5 * widths[-3]:
            if c is None:
                t = fa / (fa - fb)
            else:
                xi = (a - b) / (c - b)
                phi = (fa - fb) / (fc - fb)
                if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
                    t = (fa / (fb - fa) * fc / (fb - fc)
                         + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
                elif scale < 1.0 and b in (lo, hi):
                    t = fa / (fa - scale * fb)
            if not 0.0 < t < 1.0:  # also catches a nan
                t = 0.5
        margin = 0.5 * tolerance / width
        t = min(max(t, margin), 1.0 - margin)
        x = a + t * (b - a)
        fx = gap(x)
        if (fx > 0.0) == (fa > 0.0):
            progress = 1.0 - fx / fa
            if 0.0 < progress < 1.0:
                scale *= progress
            c, fc = a, fa
        else:
            scale = 1.0
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        widths.append(abs(b - a))
    converged = abs(b - a) <= tolerance or fa == 0.0
    return (a, b, converged) if fa <= 0.0 else (b, a, converged)


def _weighted_maximizer(lam, base_1, cross, gain, gain_1):
    """Per-tone maximizer over [0, 1] of lam*F1 + (1 - lam)*F2, given
    base_1 = 1 + B and gain_1 = 1 + M.  Both terms are concave in s, so it
    is the nonnegative root of the stationarity quadratic
    (2 - lam)*C*M*s^2 + 2*(1 - lam)*M*(1 + B)*s = lam*C*(1 + M), in
    cancellation-free form, clipped to 1.  A zero denominator leaves only
    the linear pull of F1: s = 1 where it is positive, else 0."""
    lin = 2.0 * (1.0 - lam) * gain * base_1
    quad = (2.0 - lam) * cross * gain
    const = lam * cross * gain_1
    den = lin + np.sqrt(lin * lin + 4.0 * quad * const)
    s = np.divide(2.0 * const, den, out=(const > 0.0).astype(float),
                  where=den > 0.0)
    return np.minimum(s, 1.0)


def _max_min(tones: _Tones, gain: np.ndarray):
    """Exact max over s in [0, 1]^K of min(F1, F2) (see module docstring)
    for the multiple-access scalars of `tones` and the per-tone gain M.
    Both root searches stop at a bracket width of _BRACKET_TOLERANCE or
    after _MAX_PROBES probes.  Returns (s, (F1, F2), lambda_trace,
    converged) for the best point evaluated; converged is False when the
    weight search hit its probe cap."""
    base, cross = tones.base, tones.cross
    base_1, gain_1 = 1.0 + base, 1.0 + gain  # shared by every weighted solve
    trace = []
    best = []
    ends = {}  # (s, F1 - F2) of the last weighted solve on each side of 0

    def evaluate(s):
        # np.add.reduce(x) / x.size is what np.mean computes, minus its
        # per-call overhead; the sum divides as a Python float, the same
        # IEEE operation without numpy scalar arithmetic
        first = np.log1p(base + cross * s)
        second = np.log1p(gain * (1.0 - s * s))
        value = (float(np.add.reduce(first)) / first.size / LN2,
                 float(np.add.reduce(second)) / second.size / LN2)
        if not best or min(value) > min(best[1]):  # earliest point takes ties
            best[:] = s, value
        return value

    def weighted(lam):
        s = _weighted_maximizer(lam, base_1, cross, gain, gain_1)
        first, second = evaluate(s)
        trace.append((lam, first, second))
        ends[first - second > 0.0] = s, first - second
        return first - second

    low_gap, high_gap = weighted(0.0), weighted(1.0)
    converged = True
    # otherwise the pure F2 maximizer leaves F1 slack, or the pure F1
    # maximizer leaves F2 slack, and is optimal on its own
    if low_gap < 0.0 < high_gap:
        _, _, converged = _bracket_root(weighted, 0.0, 1.0, low_gap, high_gap,
                                        _BRACKET_TOLERANCE, _MAX_PROBES)
        # the weighted search leaves its bracket's solutions in ends; s rises
        # with lam on every tone, so F1 - F2 rises along the segment between
        # them: equalize the terms on it, down to the width where a step in
        # theta no longer moves any s by a float64 ulp of 1
        (low, low_gap), (high, high_gap) = ends[False], ends[True]
        step = high - low
        largest = float(np.max(step))
        if largest > 0.0:
            def along(theta):
                first, second = evaluate(low + theta * step)
                return first - second

            _bracket_root(along, 0.0, 1.0, low_gap, high_gap,
                          max(_BRACKET_TOLERANCE, _ULP_OF_ONE / largest),
                          _MAX_PROBES)
    return best[0], best[1], trace, converged


def _result(rate, instance, powers, objective, solved, relay_mag,
            aux_mag) -> OptimizationResult:
    """The result of a _max_min solve mapped back to the split with the
    given magnitudes, float64 arrays of the block length that the solve
    kept in [0, 1]; rate is the rates-module function that scores it."""
    _, terms, trace, converged = solved
    split = rates._unchecked(SplitParams, relay_mag=relay_mag, aux_mag=aux_mag,
                             phase=align_phases(instance))
    return OptimizationResult(
        split=split, rate=rate(instance, powers, split), terms=terms,
        converged=converged, objective=objective, lambda_trace=trace)


def optimize_pdf(instance: RelayChannelInstance, powers: PowerBudget, *,
                 tones: _Tones | None = None) -> OptimizationResult:
    """Maximize the partial decode-and-forward rate over per-tone split
    magnitudes with aligned phases.  Per tone the split is
    (a, b) = (t, 1) where the source-relay gain is at least the direct
    one, and (1, t), or (0, 0) at t = 0, where it is weaker (see the
    module docstring).  tones, when given, is _tones(instance, powers) of
    these arguments."""
    if tones is None:
        tones = _tones(instance, powers)
    solved = _max_min(tones, np.maximum(tones.sr, tones.sd))
    t = solved[0] ** 2
    relay_first = tones.sr >= tones.sd
    return _result(rates.pdf_rate, instance, powers, "pdf", solved,
                   np.where(relay_first, t, t > 0.0),
                   np.where(relay_first, 1.0, t))


def optimize_cutset(instance: RelayChannelInstance, powers: PowerBudget, *,
                    tones: _Tones | None = None) -> OptimizationResult:
    """Maximize the cut-set upper bound over the per-tone correlation
    product t, reported as a split with equal magnitudes s = sqrt(t).
    tones, when given, is _tones(instance, powers) of these arguments; it
    does not read the noise correlation."""
    if tones is None:
        tones = _tones(instance, powers)
    solved = _max_min(tones, _broadcast_gain(instance, powers))
    return _result(rates.cutset_rate, instance, powers, "cutset", solved,
                   solved[0], solved[0].copy())  # a split's fields never alias


def optimize_degraded(instance: RelayChannelInstance, powers: PowerBudget, *,
                      tones: _Tones | None = None) -> OptimizationResult:
    """Maximize the full-decode (decode-and-forward) rate: the auxiliary
    coefficient magnitude is fixed at 1 and only the cooperative
    coefficient is solved for.  On a degraded channel this attains
    capacity.  tones, when given, is _tones(instance, powers) of these
    arguments."""
    if tones is None:
        tones = _tones(instance, powers)
    solved = _max_min(tones, tones.sr)
    return _result(rates.pdf_rate, instance, powers, "degraded", solved,
                   solved[0] ** 2, np.ones(instance.block_size))


def _degraded_from_pdf(result: OptimizationResult) -> OptimizationResult:
    """optimize_degraded's result, bit for bit, from the optimize_pdf
    result of the same arguments when sr >= sd on every tone: pdf's gain
    max(sr, sd) is then sr, and its split (t, 1) is df's (t, ones), scored
    by the same rates.pdf_rate.  No field aliases the pdf result's."""
    split = result.split
    return OptimizationResult(
        split=rates._unchecked(SplitParams, relay_mag=split.relay_mag.copy(),
                               aux_mag=split.aux_mag.copy(),
                               phase=split.phase.copy()),
        rate=result.rate, terms=result.terms, converged=result.converged,
        objective="degraded", lambda_trace=list(result.lambda_trace))


def _grid_steps(resolution: float, name: str = "resolution") -> int:
    """Number of steps of an oracle grid with the given step, which must
    divide [0, 1] into a whole number of steps (to rel 1e-9) of at most
    0.5; name is the quantity the error message names."""
    if not (0 < resolution <= 0.5):
        raise ValueError(f"{name} must be in (0, 0.5], got {resolution!r}")
    steps = round(1.0 / resolution)
    if abs(1.0 / resolution - steps) > 1e-9 / resolution:
        raise ValueError(f"{name} must divide [0, 1] into whole steps, "
                         f"got {resolution!r}")
    return steps


def _column_crossings(terms, rows: int, cols: int, guess=None) -> float:
    """max of min(first, second) over a rows x cols grid whose
    terms(row_indices, col_indices) are nondecreasing (first) and
    nonincreasing (second) down every column.  A column's maximum is then
    first at the row before the crossing (the first row where
    first >= second) or second at the crossing.

    guess, when given, holds each column's guessed crossing row; rows
    guess - 1 and guess (clipped to the grid) are probed first, in one
    terms call.  Every probe narrows its column's bracket whatever it
    shows, so any guess gives the same value; one that holds closes the
    bracket.  The open brackets are then bisected, only as many rounds as
    the widest needs.  The values that decide a column are kept from the
    probes that set its bracket ends: first at the row above the bracket,
    second at its bottom row."""
    # the crossing row is in [lo, hi]; hi == rows means no row crosses
    lo, hi = np.zeros(cols, dtype=np.intp), np.full(cols, rows)
    below, at = np.full(cols, -np.inf), np.full(cols, -np.inf)

    def narrow(col, row, first, second):
        """Narrow the brackets of the distinct columns col by probe rows
        row and their terms."""
        above = first >= second
        up = above & (row < hi[col])
        hi[col[up]], at[col[up]] = row[up], second[up]
        down = ~above & (row >= lo[col])
        lo[col[down]], below[col[down]] = row[down] + 1, first[down]

    if guess is not None:
        col = np.arange(cols)
        probes = np.clip(np.concatenate((guess - 1, guess)), 0, rows - 1)
        first, second = terms(probes, np.concatenate((col, col)))
        narrow(col, probes[:cols], first[:cols], second[:cols])
        narrow(col, probes[cols:], first[cols:], second[cols:])
    for _ in range(int(np.max(hi - lo)).bit_length()):
        col = np.flatnonzero(lo < hi)
        mid = (lo[col] + hi[col]) // 2
        narrow(col, mid, *terms(mid, col))
    return float(np.max(np.maximum(below, at)))


def _frontier(first, second):
    """The points of a (first, second) cloud that no other point beats in
    both terms: by first descending, each point whose second exceeds that
    of every point before it."""
    order = np.argsort(first, kind="stable")[::-1]
    first, second = first[order], second[order]
    keep = np.empty(first.size, dtype=bool)
    keep[0] = True
    keep[1:] = second[1:] > np.maximum.accumulate(second)[:-1]
    return first[keep], second[keep]


def _grid_frontier(first, second, stride: int = 8):
    """_frontier of the points of 2-D term grids, bit for bit, without
    sorting the whole cloud.  The frontier of a stride-subgrid is a
    staircase of cloud points; a point that one of them beats in both
    terms strictly sorts after it and has a smaller second, so it is
    neither kept nor decides another point's keep, and is dropped first."""
    stair_first, stair_second = _frontier(first[::stride, ::stride].ravel(),
                                          second[::stride, ::stride].ravel())
    first, second = first.ravel(), second.ravel()
    # by first ascending the staircase's second falls, so of the staircase
    # points whose first exceeds a point's, the first has the largest second
    best = np.append(stair_second[::-1], -np.inf)[
        np.searchsorted(stair_first[::-1], first, side="right")]
    keep = best <= second
    return _frontier(first[keep], second[keep])


def _crossing_guess(tones: _Tones, axis: np.ndarray) -> np.ndarray:
    """Each pdf column's crossing row on the one-tone grid axis, from the
    closed forms.  At b = axis the terms cross where
    1 + B + C*sqrt(b)*u = D*(1 + k*(1 - u^2)) with u = sqrt(a),
    D = 1 + sd*(1 - b) and k = sr*b/(sr*(1 - b) + 1): the positive root of
    D*k*u^2 + C*sqrt(b)*u - c with c = D + D*k - 1 - B, in
    cancellation-free form.  The first row at or past u^2 is the guess:
    0 where c <= 0 (the first term already leads at a = 0) and axis.size,
    no crossing, where u > 1 or is not finite.  Only a hint for
    _column_crossings, so rounding may put it a row off."""
    base, cross, sr, sd = (float(x[0]) for x in tones)
    steps = axis.size - 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lead = sd * (1.0 - axis)
        dk = (1.0 + lead) * (sr * axis / (sr * (1.0 - axis) + 1.0))
        c = lead + dk - base
        linear = cross * np.sqrt(axis)
        u = 2.0 * c / (linear + np.sqrt(linear * linear + 4.0 * dk * c))
        row = np.ceil(u * u * steps)
    row = np.where(u <= 1.0, row, axis.size)
    return np.where(c > 0.0, row, 0).astype(np.intp)


def brute_force_oracle(instance: RelayChannelInstance, powers: PowerBudget,
                       objective: str = "pdf", resolution: float = 1e-3) -> float:
    """Exact max-min over the full per-tone magnitude grid at the given
    resolution, which must divide [0, 1] into whole steps; supports one or
    two tones only (the joint grid is exponential in the block size).

    The terms are the plain real closed forms: over (a, b) for pdf, over
    t = a*b for the cut-set.  Down a pdf column (fixed b) the first term
    rises with a and the second falls, so _column_crossings finds the
    one-tone maximum from each column's crossing row.  It first probes the
    two rows around each column's crossing guessed from the closed forms
    (_crossing_guess), which close nearly every column, and bisects only
    the columns they leave open.  Two tones pair into
    a grid of the same kind: columns are the first tone's points, rows the
    second tone's, ordered so the first term rises and the second falls.
    For the cut-set those are the t axis; for pdf, each tone's points that
    no other point of the tone beats in both terms.  Every step of a
    pair's terms is monotone under rounding, so each search returns the
    value of evaluating every grid point, or every pair, bit for bit.
    """
    if instance.block_size > 2:
        raise ValueError("brute_force_oracle supports block sizes 1 and 2 only")
    steps = _grid_steps(resolution)
    axis = np.linspace(0.0, 1.0, steps + 1)
    tones = _tones(instance, powers)
    if objective == "cutset":
        bc = _broadcast_gain(instance, powers)
    elif objective != "pdf":
        raise ValueError(f"unknown objective {objective!r}")

    def cutset_terms(k):
        """Both cut-set terms of tone k in bits on the t axis."""
        base, cross = float(tones.base[k]), float(tones.cross[k])
        return (np.log1p(base + cross * np.sqrt(axis)) / LN2,
                np.log1p(float(bc[k]) * (1.0 - axis)) / LN2)

    def pdf_terms(k):
        """terms(rows, cols): both pdf terms of tone k in bits at
        (a, b) = (axis[rows], axis[cols]), broadcast.  The per-tone scalars
        are Python floats, so numpy reuses each temporary of a chain in
        place."""
        base, cross, sr, sd = (float(x[k]) for x in tones)
        direct = np.log1p(sd * (1.0 - axis))

        def terms(rows, cols):
            a, b = axis[rows], axis[cols]
            first = np.log1p(base + cross * np.sqrt(a * b)) / LN2
            second = (np.log1p(sr * (1.0 - a) * b / (sr * (1.0 - b) + 1.0))
                      + direct[cols]) / LN2
            return first, second
        return terms

    if instance.block_size == 1:
        if objective == "cutset":
            return float(np.max(np.minimum(*cutset_terms(0))))
        return _column_crossings(pdf_terms(0), steps + 1, steps + 1,
                                 _crossing_guess(tones, axis))
    if objective == "cutset":
        (u1, u2), (v1, v2) = cutset_terms(0), cutset_terms(1)
    else:
        index = np.arange(steps + 1)
        (u1, u2), (v1, v2) = (
            _grid_frontier(*pdf_terms(k)(index[:, None], index[None, :]))
            for k in (0, 1))
        v1, v2 = v1[::-1], v2[::-1]  # a frontier lists first descending

    def pair_terms(rows, cols):
        """Both terms of pairing the first tone's points cols with the
        second tone's points rows."""
        return 0.5 * (u1[cols] + v1[rows]), 0.5 * (u2[cols] + v2[rows])
    return _column_crossings(pair_terms, v1.size, u1.size)


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
                 seed: int) -> list[OracleComparison]:
    """Compare both optimizers against brute_force_oracle on seeded random
    instances: k1_instances single-tone and k2_instances two-tone draws,
    each checked for both objectives.  Both optimizers of an instance share
    one _tones; the oracle computes its own."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = []
    for block_size, count in ((1, k1_instances), (2, k2_instances)):
        for index in range(count):
            instance, powers = random_instance(block_size, rng)
            tones = _tones(instance, powers)
            for objective, optimize in (("pdf", optimize_pdf),
                                        ("cutset", optimize_cutset)):
                approx = optimize(instance, powers, tones=tones).rate
                exact = brute_force_oracle(instance, powers, objective, resolution)
                rows.append(OracleComparison(block_size, index, objective,
                                             approx, exact))
    return rows
