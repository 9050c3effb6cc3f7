"""Machine-checkable certificates for reduced-order controllers.

Every certificate has the same shape.  Its prologue checks that the
reduced controller ``K_r`` fits the loop (a strictly proper controller of
the nominal one's dimensions; :class:`DimensionError` otherwise) and that
the nominal ``K`` internally stabilizes ``G`` (:class:`NotStabilizingError`
otherwise), and builds the four-block map of the nominal loop.  The
closed-loop blocks ``X``, ``Y``, ``KX`` and ``KY`` then feed the
certificate's sufficient condition on the error ``delta = K_r - K`` and,
for the bound certificates, an upper bound on the closed-loop quadratic
cost of ``K_r``.  The epilogue records an independent eigenvalue-based
stability verdict of the reduced loop and its spectral abscissa, so the
conservatism of a sufficient condition stays visible, and returns a
:class:`ReductionCertificate` holding every norm evaluated.

Undefined norms (e.g. the peak gain of an unstable error system) are
recorded as ``inf`` and fail the condition instead of raising, so batch
sweeps can proceed.

The unstable poles of a transfer function are those
:func:`~ctred.reduce.split_cancelled_unstable` leaves in its antistable
part: ``lemma3`` counts them for ``K`` and ``K_r``, and ``thm3`` matches
the structural zeros of ``1 - X*delta`` to those of the error.

The small-gain conditions of ``lemma3`` and ``thm1`` are decided bound
first.  By submultiplicativity ``b = ||X||_inf * d`` bounds both
``||X*delta||`` and ``||delta*X||`` on the axis, where ``d`` is the
Hankel-sum bound ``2 sum sigma`` of the stable part of ``delta`` plus
that of its mirrored antistable part
(:func:`~ctred.reduce.hankel_norm_bound`) and ``||X||_inf`` carries a
margin for the error of the computed peak gain
(:func:`_small_gain_bound`).  When ``b < 1`` the gain part of the
condition holds: ``b`` is recorded in place of the product norms and
their peak-gain searches are skipped (``thm1`` first adds the bound of
any rounding-level antistable part its stability test dropped).
Otherwise, and whenever ``delta`` does not split, the product norms are
computed, so a failing condition always rests on computed norms and the
verdicts are those of the norms themselves.  Every certificate names, in
``kinds``, each norm its condition reads as ``"upper_bound"`` or
``"computed"``.

The bound certificates ``thm2``, ``cor1`` and ``cor2`` read ``delta_hinf``
and ``delta_h2`` from one error analysis: both norms are measured once
per reduced controller, on the stable realization of ``K_r - K``.
``cor1`` takes only its Hankel tail from the truncation result.

Certificates on the same plant and controller share one loop analysis:
the stabilizing check, the four-block map and its norms, and, for the
last reduced controller seen, the error system and its norms, the error
products with ``X``, their peak gains and the reduced loop's eigenvalue
verdict.  The analysis sits in a single process-wide slot keyed on the
*identity* of ``g`` and ``k`` (and the ``CTRED_TOL_STAB`` override it was
computed under), never on their content: systems are immutable and own
their arrays, so the same objects always describe the same loop, while
equal content built anew -- each request of a batch, each repeated round
-- gets its own analysis.  A content key would make a repeated experiment
skip the work it is meant to repeat.  Each certificate gets its own copy
of the shared quantities.  The slot is read once into a local and
replaced only by a fully built analysis, so concurrent callers at worst
recompute.  Within an analysis every shared quantity is a
``functools.cached_property``, stored only once fully computed; where the
descriptor locks while it computes (Python 3.11 and older), no property
waits on another in a cycle, and a product replaced by a racing thread
only makes the losing caller compute its own peak gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    AxisPoleError,
    SeparationError,
    UnsupportedError,
    WrongCertificateError,
    ZeroModeError,
)
from .norms import _check_no_axis_poles, _h2_norms, h2_norm, hinf_norm, linf_norm
from .reduce import (
    TruncationResult,
    drop_negligible_antistable,
    hankel_norm_bound,
    split_cancelled_unstable,
)
from .statespace import (
    StateSpaceSystem,
    _check_loop_dims,
    _stabilizing_four_block,
    add,
    is_internally_stable,
    mirror,
    negate,
    series,
    zero_system,
)
from .tolerances import stab_override

THEOREMS = ("lemma3", "thm1", "thm2", "cor1", "cor2", "thm3")

BOUNDED_THEOREMS = ("thm2", "cor1", "cor2", "thm3")

_NORM_KINDS = ("upper_bound", "computed")


@dataclass(frozen=True)
class ReductionCertificate:
    theorem: str
    quantities: dict
    condition_satisfied: bool
    cost_bound: float | None
    verified_stable: bool
    notes: tuple[str, ...] = field(default=())
    kinds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown certificate kind {self.theorem!r}")
        if not set(self.kinds.values()) <= set(_NORM_KINDS):
            raise ValueError(f"norm kinds must be among {_NORM_KINDS}")
        if self.cost_bound is not None and (
            not self.condition_satisfied or self.theorem not in BOUNDED_THEOREMS
        ):
            raise ValueError("cost_bound is only recorded for passing bound certificates")

    def to_dict(self) -> dict:
        """JSON-ready form.  ``kinds`` maps every norm the condition reads
        to ``"upper_bound"`` (a proven bound recorded in place of the norm,
        see the module docstring) or ``"computed"`` (the norm itself, or
        ``inf`` where it is undefined)."""
        def enc(v):
            if v is None:
                return None
            f = float(v)
            if math.isfinite(f):
                return f
            return "inf" if f > 0 else "-inf"

        return {
            "theorem": self.theorem,
            "quantities": {k: enc(v) for k, v in sorted(self.quantities.items())},
            "condition_satisfied": bool(self.condition_satisfied),
            "cost_bound": enc(self.cost_bound),
            "verified_stable": bool(self.verified_stable),
            "notes": list(self.notes),
            "kinds": dict(sorted(self.kinds.items())),
        }


def lqg_cost(g: StateSpaceSystem, k: StateSpaceSystem) -> float:
    """Quadratic regulation cost of the loop under unit-intensity white noise.

    Equals the squared H2 norm of the joint closed-loop map from the two
    noise channels to the performance output and the control input.
    """
    return h2_norm(_stabilizing_four_block(g, k).system) ** 2


def lqg_cost_blocks(g: StateSpaceSystem, k: StateSpaceSystem):
    """Total cost and the four per-block squared-H2 contributions."""
    cols, whole = _four_block_h2(_stabilizing_four_block(g, k))
    parts = [cols[j][i] ** 2 for i in (0, 1) for j in (0, 1)]
    return whole ** 2, parts


def _four_block_h2(fb):
    """H2 norms of the four blocks of ``fb``, as ``[[x, kx], [xk, ky]]`` by
    input block, and of the whole map: three Gramians (input block 0,
    input block 1, all inputs) on one Schur form of the closed-loop
    matrix."""
    every = slice(None)
    *cols, (whole,) = _h2_norms(
        fb.system, [(c, fb.row_blocks) for c in fb.col_blocks] + [(every, (every,))]
    )
    return cols, whole


class _ErrorAnalysis:
    """The error ``delta = k_r - k`` of one reduced controller on a loop.

    Holds ``delta``, its Hankel-sum bound, the norms of its stable
    realization, the products ``X*delta`` and ``delta*X``, their peak
    gains once computed, and the eigenvalue verdict on ``(g, k_r)``.  All
    but ``delta`` are computed on first use and stored only when fully
    built.
    """

    def __init__(self, loop: _LoopAnalysis, k_r: StateSpaceSystem):
        self.g, self.fb = loop.g, loop.fb  # not the loop: no reference cycle
        self.k_r = k_r
        self.delta = add(k_r, negate(loop.k))
        self._gains: dict = {}

    @cached_property
    def delta_bound(self) -> float:
        """Upper bound on ``||delta||`` over the axis
        (:func:`~ctred.reduce.hankel_norm_bound`); ``inf`` when the error's
        poles do not split into stable and antistable parts."""
        try:
            return hankel_norm_bound(self.delta)
        except (AxisPoleError, SeparationError):
            return math.inf

    @cached_property
    def _delta_norms(self) -> tuple[dict, tuple]:
        notes: list[str] = []
        form, _ = _stable_form(self.delta, notes, "error system")
        if form is None:
            notes.append("error system is not stable; its H norms are undefined")
            return dict.fromkeys(("delta_hinf", "delta_h2"), math.inf), tuple(notes)
        return {"delta_hinf": hinf_norm(form), "delta_h2": h2_norm(form)}, tuple(notes)

    def delta_norms(self) -> tuple[dict, list]:
        """``delta_hinf`` and ``delta_h2`` of the stable realization of
        ``delta`` (:func:`_stable_form`; ``inf`` when ``delta`` is not
        stable), with the notes of that test; fresh copies of both."""
        norms, notes = self._delta_norms
        return dict(norms), list(notes)

    @cached_property
    def x_delta(self) -> StateSpaceSystem:
        """``X*delta``."""
        return series(self.fb.x, self.delta)

    @cached_property
    def delta_x(self) -> StateSpaceSystem:
        """``delta*X``."""
        return series(self.delta, self.fb.x)

    def peak_gain(self, name: str, form: StateSpaceSystem, norm) -> float:
        """``norm(form)``, shared when ``form`` is the raw product ``name``
        (``"x_delta"`` or ``"delta_x"``).

        On a raw product ``linf_norm`` and ``hinf_norm`` agree wherever both
        are defined: the latter is only asked for when the product is
        stable, so both evaluate the same peak-gain search.
        """
        if form is not getattr(self, name):
            return norm(form)
        gain = self._gains.get(name)
        if gain is None:
            gain = self._gains[name] = norm(form)
        return gain

    @cached_property
    def verdict(self) -> tuple:
        """``is_internally_stable(g, k_r)``."""
        return is_internally_stable(self.g, self.k_r)


class _LoopAnalysis:
    """The nominal loop ``(g, k)`` as every certificate starts from it.

    Construction checks that ``k`` stabilizes ``g`` and builds the
    four-block map; ``||X||_inf`` and the other loop norms are computed on
    first use.  The error analysis of the last reduced controller is kept.
    """

    last: _LoopAnalysis | None = None  # the slot :func:`_loop` reuses

    def __init__(self, g: StateSpaceSystem, k: StateSpaceSystem):
        self.g, self.k = g, k
        self.tol_override = stab_override()
        self.fb = _stabilizing_four_block(g, k)
        self._error = None

    @cached_property
    def x_hinf(self) -> float:
        """``||X||_inf``, the loop norm every small-gain condition reads."""
        return hinf_norm(self.fb.x)

    @cached_property
    def _quantities(self) -> dict:
        return _loop_quantities(self)

    def quantities(self) -> dict:
        """A fresh copy of :func:`_loop_quantities` of the loop."""
        return dict(self._quantities)

    def error(self, k_r: StateSpaceSystem) -> _ErrorAnalysis:
        err = self._error
        if err is None or err.k_r is not k_r:
            err = self._error = _ErrorAnalysis(self, k_r)
        return err


def _loop(g: StateSpaceSystem, k: StateSpaceSystem,
          k_r: StateSpaceSystem) -> _LoopAnalysis:
    """Shared certificate prologue: ``k_r`` must fit the loop and ``k`` must
    stabilize ``g``; returns the analysis of the nominal loop, reusing the
    last one when it was built for these very objects."""
    _check_loop_dims(g, k_r)
    loop = _LoopAnalysis.last
    if (loop is None or loop.g is not g or loop.k is not k
            or loop.tol_override != stab_override()):
        loop = _LoopAnalysis(g, k)
        _LoopAnalysis.last = loop
    return loop


def _epilogue(theorem: str, err: _ErrorAnalysis, quantities: dict,
              condition: bool, cost_bound, notes: list, kinds: dict):
    """Shared certificate epilogue: the eigenvalue verdict on ``(g, k_r)``."""
    stable, alpha = err.verdict
    quantities["closed_loop_abscissa"] = alpha
    return ReductionCertificate(theorem, quantities, condition, cost_bound,
                                stable, tuple(notes), kinds)


def _computed(*names: str) -> dict:
    """Norm kinds for a condition that reads only computed norms."""
    return dict.fromkeys(names, "computed")


def _small_gain_bound(loop: _LoopAnalysis, err: _ErrorAnalysis) -> float:
    """Upper bound on ``||X*delta||`` and ``||delta*X||`` over the axis.

    Submultiplicativity gives ``(1 + 1e-4) ||X||_inf d`` with ``d`` from
    :attr:`_ErrorAnalysis.delta_bound`.  ``d`` is proven; the computed
    ``||X||_inf`` is not: ``hinf_norm`` was measured low by up to 3.4e-9
    relative on loop blocks ``X`` and by up to 1.7e-5 on 15-state error
    products, more than its ``HINF_REL``.  The factor 1e-4 covers the
    worst of these with a 5x margin and costs nothing in practice: a
    bound within 1e-4 of one falls through to the computed norm.
    """
    return (1.0 + 1e-4) * loop.x_hinf * err.delta_bound


def _stable_form(s: StateSpaceSystem, notes: list, label: str):
    """Stability of a transfer function with a usable realization.

    A raw-stable realization is used as is; otherwise the unstable part is
    inspected: when its transfer contribution sits at the rounding floor
    (exactly cancelling modes in a difference of systems) the stable part
    stands in, so hidden cancellations never fail the test spuriously.
    Returns ``(realization, dropped)``, with ``realization`` ``None`` when
    ``s`` is not stable and ``dropped`` an upper bound on the peak gain
    of what was dropped (0 for a raw-stable ``s``).
    """
    if linalg.is_stable(s.A):
        return s, 0.0
    try:
        cleaned = drop_negligible_antistable(s)
    except (AxisPoleError, SeparationError) as exc:
        notes.append(f"{label}: stability undecidable ({exc})")
        return None, math.inf
    if cleaned is None:
        notes.append(f"{label} is not stable")
        return None, math.inf
    return cleaned


def _loop_quantities(loop: _LoopAnalysis) -> dict:
    """Norms of the stable closed-loop blocks of the loop's four-block map.

    The entries for Y use its identity feedthrough for the peak gain and
    its strictly proper part for the H2 entry (the raw H2 integral of a
    biproper function diverges).  The two H2 entries of each input block
    share one Gramian, the cost keeps its own, and the three share one
    Schur form of the closed-loop matrix (:func:`_four_block_h2`).
    """
    fb = loop.fb
    ((x_h2, kx_h2), (xk_h2, ky_h2)), whole = _four_block_h2(fb)
    return {
        "x_h2": x_h2,
        "x_hinf": loop.x_hinf,
        "xk_h2": xk_h2,
        "kx_h2": kx_h2,
        "kx_hinf": hinf_norm(fb.kx),
        "ky_h2": ky_h2,
        "y_hinf": hinf_norm(fb.y),
        "y_h2": xk_h2,  # strictly proper part of Y = I + XK
        "cost_original": whole ** 2,
    }


def check_lemma3(g: StateSpaceSystem, k: StateSpaceSystem,
                 k_r: StateSpaceSystem) -> ReductionCertificate:
    """Classical reduced-controller test: matched unstable pole counts plus
    a small-gain condition on the truncation error, in the peak gain over
    the axis (poles of the error system need not be stable).

    Each count is the order of the antistable part of
    :func:`~ctred.reduce.split_cancelled_unstable`; a controller whose
    poles do not split has none, a note says why and the condition fails.
    """
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    notes: list[str] = []
    quantities: dict = {}

    counts = {}
    for name, s in (("original", k), ("reduced", k_r)):
        try:
            counts[f"unstable_poles_{name}"] = float(split_cancelled_unstable(s)[1].n)
        except (AxisPoleError, SeparationError) as exc:
            notes.append(f"unstable pole count of the {name} controller undefined: {exc}")
    if len(counts) == 2:
        quantities.update(counts)
    counts_ok = len(counts) == 2 and len(set(counts.values())) == 1

    bound = _small_gain_bound(loop, err)
    gains, kinds = {}, _computed("x_delta_linf", "delta_x_linf")
    for product in ("x_delta", "delta_x"):
        name = f"{product}_linf"
        form = getattr(err, product)
        try:
            if bound < 1.0:
                _check_no_axis_poles(form)  # an undefined norm stays undefined
                gains[name], kinds[name] = bound, "upper_bound"
            else:
                gains[name] = err.peak_gain(product, form, linf_norm)
        except AxisPoleError as exc:
            gains[name], kinds[name] = math.inf, "computed"
            notes.append(f"{name} undefined: {exc}")
    quantities.update(gains)

    condition = counts_ok and min(gains.values()) < 1.0
    return _epilogue("lemma3", err, quantities, condition, None, notes, kinds)


def check_thm1(g: StateSpaceSystem, k: StateSpaceSystem,
               k_r: StateSpaceSystem) -> ReductionCertificate:
    """Small-gain stability test without matching unstable pole counts.

    Requires the error system times the output sensitivity to be stable
    and both sensitivity-weighted error gains to be below one.  Stability
    verdicts are taken on cancellation-cleaned realizations so exactly
    cancelling hidden modes cannot fail the test spuriously.
    """
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    notes: list[str] = []
    quantities: dict = {}

    dy_form, _ = _stable_form(series(err.delta, loop.fb.y), notes, "delta*Y")
    bound = _small_gain_bound(loop, err)
    kinds = _computed("x_delta_hinf", "delta_x_hinf")
    for product, label in (("x_delta", "X*delta"), ("delta_x", "delta*X")):
        name = f"{product}_hinf"
        form, dropped = _stable_form(getattr(err, product), notes, label)
        if form is None:
            quantities[name] = math.inf
        elif bound + dropped < 1.0:
            # the cleaned form is the product minus the dropped part
            quantities[name], kinds[name] = bound + dropped, "upper_bound"
        else:
            quantities[name] = err.peak_gain(product, form, hinf_norm)
    if dy_form is None:
        notes.append("delta*(I-GK)^{-1} is not stable")
    condition = (
        dy_form is not None
        and max(quantities["x_delta_hinf"], quantities["delta_x_hinf"]) < 1.0
    )
    return _epilogue("thm1", err, quantities, condition, None, notes, kinds)


def _bound_terms(q: dict, s1_coeff_h2: float):
    """S1/S2 penalty terms entering the cost bound.

    ``s1_coeff_h2`` scales the H2-error chunk of S1 (the two bound
    variants in use differ exactly there).
    """
    d_hinf, d_h2 = q["delta_hinf"], q["delta_h2"]
    s1 = (
        2.0 * d_hinf * q["x_h2"] * q["xk_h2"]
        + s1_coeff_h2
        * d_h2
        * (q["ky_h2"] * q["y_hinf"] + q["kx_h2"] * q["x_hinf"])
        * (1.0 + q["kx_hinf"])
    )
    s2 = d_hinf**2 * q["x_h2"] ** 2 + d_h2**2 * (
        q["y_hinf"] ** 2 + q["x_hinf"] ** 2
    ) * (1.0 + q["kx_hinf"]) ** 2
    return s1, s2


def _record_bound(q: dict, notes: list) -> float:
    """Record ``s1``/``s2`` and return the small-gain cost bound."""
    q["s1"], q["s2"] = _bound_terms(q, 2.0)
    denom = 1.0 - q["x_hinf"] * q["delta_hinf"]
    if denom <= 0.0:
        notes.append("small-gain margin is non-positive; bound is infinite")
        return math.inf
    return (q["cost_original"] + q["s1"] + q["s2"]) / denom**2


def check_thm2_bound(g: StateSpaceSystem, k: StateSpaceSystem,
                     k_r: StateSpaceSystem) -> ReductionCertificate:
    """Small-gain certificate with a closed-loop cost bound, for stable errors."""
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    quantities = loop.quantities()
    delta_norms, notes = err.delta_norms()
    quantities.update(delta_norms)
    d_hinf = delta_norms["delta_hinf"]
    condition = math.isfinite(d_hinf) and d_hinf * quantities["x_hinf"] < 1.0
    cost_bound = _record_bound(quantities, notes) if condition else None
    return _epilogue("thm2", err, quantities, condition, cost_bound, notes,
                     _computed("delta_hinf", "x_hinf"))


def check_cor1(g: StateSpaceSystem, k: StateSpaceSystem,
               reduction: TruncationResult) -> ReductionCertificate:
    """Certificate for balanced truncation: the discarded Hankel tail must
    be below half the reciprocal peak gain of the input sensitivity."""
    if reduction.method != "balanced":
        raise WrongCertificateError("this certificate applies to balanced truncation")
    loop = _loop(g, k, reduction.reduced)
    err = loop.error(reduction.reduced)
    quantities = loop.quantities()
    tail = float(sum(reduction.truncated_tail))
    quantities["sigma_tail_sum"] = tail
    condition = tail < 1.0 / (2.0 * quantities["x_hinf"])
    delta_norms, notes = err.delta_norms()
    quantities.update(delta_norms)
    cost_bound = None
    if condition and math.isfinite(delta_norms["delta_hinf"]):
        cost_bound = _record_bound(quantities, notes)
    elif condition:
        condition = False
        notes.append("tail condition held but the error system is not stable")
    return _epilogue("cor1", err, quantities, condition, cost_bound, notes,
                     _computed("delta_hinf", "x_hinf"))


def check_cor2(g: StateSpaceSystem, k: StateSpaceSystem,
               k_r: StateSpaceSystem) -> ReductionCertificate:
    """Small-gain certificate for modal truncation of the stable part.

    Two variants of the first penalty term are in circulation, with
    coefficients one and two on the H2-error chunk.  Only the
    coefficient-two variant is provably an upper bound (the
    coefficient-one variant is violated on roughly a quarter of random
    instances), so the bound uses it; the single-coefficient variant is
    recorded alongside for comparison.
    """
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    delta_norms, notes = err.delta_norms()
    if math.isinf(delta_norms["delta_hinf"]):
        raise WrongCertificateError(
            "error system is unstable; use the unstable-truncation certificate (thm3)"
        )
    quantities = loop.quantities()
    quantities.update(delta_norms)
    condition = quantities["delta_hinf"] * quantities["x_hinf"] < 1.0
    cost_bound = None
    if condition:
        cost_bound = _record_bound(quantities, notes)
        quantities["s1_single_h2_term"], _ = _bound_terms(quantities, 1.0)
    return _epilogue("cor2", err, quantities, condition, cost_bound, notes,
                     _computed("delta_hinf", "x_hinf"))


def check_thm3(g: StateSpaceSystem, k: StateSpaceSystem,
               k_r: StateSpaceSystem) -> ReductionCertificate:
    """Certificate for SISO truncation that may drop unstable modes.

    Verifies that the error system has no pole at the origin and that
    ``1 - X*delta`` has no right-half-plane zeros beyond the structural
    ones pinned at the unstable poles of the error system (those always
    cancel inside the closed-loop expressions, never in the scalar
    function itself).  The cost bound multiplies the printed penalty
    terms by the squared peak gain of ``(1 - X*delta)^{-1}`` over the
    imaginary axis, which is finite although that inverse keeps the
    structural unstable poles.
    """
    if not (g.is_siso and k.is_siso and k_r.is_siso):
        raise UnsupportedError("this certificate is defined for SISO systems only")
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    notes: list[str] = []
    quantities = loop.quantities()

    delta_raw = err.delta
    raw_ev = linalg.eigenvalues(delta_raw.A)
    if raw_ev.size and np.min(np.abs(raw_ev)) <= linalg.half_plane_tol(delta_raw.A):
        raise ZeroModeError("error system has a pole at the origin")
    if linalg._stability(delta_raw.A, raw_ev)[0]:
        stable, anti = delta_raw, zero_system(delta_raw.p, delta_raw.m)
    else:
        # keep genuine unstable modes, drop the exactly cancelled copies
        try:
            stable, anti = split_cancelled_unstable(delta_raw)
        except (AxisPoleError, SeparationError) as exc:
            raise AxisPoleError(f"error system has imaginary-axis poles: {exc}")
    delta_min = add(stable, anti)
    unstable_delta_poles = linalg.eigenvalues(anti.A)

    # norms of the (possibly unstable) error system over the axis; the L2
    # norm combines the H2 norms of the split's parts in quadrature
    try:
        quantities["delta_linf"] = linf_norm(delta_min)
    except AxisPoleError as exc:
        raise AxisPoleError(f"error system norms undefined: {exc}") from exc
    quantities["delta_l2"] = math.hypot(h2_norm(stable), h2_norm(mirror(anti)))

    # 1 - X*delta; unstable modes of the raw product must cancel through
    # the structural zeros of X, leaving only rounding-level content
    # (hidden stable modes are harmless to the zero test below)
    prod_min, _ = _stable_form(series(loop.fb.x, delta_min), notes, "X*delta")
    condition = prod_min is not None
    prefactor = math.inf
    if condition:
        a_inv = prod_min.A + prod_min.B @ prod_min.C
        inverse = StateSpaceSystem(a_inv, prod_min.B, prod_min.C, np.eye(1))
        inv_poles = list(linalg.eigenvalues(a_inv))
        tol = linalg.half_plane_tol(a_inv)
        for p in unstable_delta_poles:
            match = min(
                range(len(inv_poles)),
                key=lambda i: abs(inv_poles[i] - p),
                default=None,
            )
            if match is None or abs(inv_poles[match] - p) > 1e-6 * (1.0 + abs(p)):
                condition = False
                notes.append(
                    f"no structural zero found at the unstable error pole {p:.6g}"
                )
                break
            inv_poles.pop(match)
        if condition and any(z.real >= -tol for z in inv_poles):
            condition = False
            notes.append("1 - X*delta has right-half-plane zeros beyond the structural set")
        if condition:
            try:
                prefactor = linf_norm(inverse)
            except AxisPoleError as exc:
                condition = False
                notes.append(f"inverse peak gain undefined: {exc}")
    quantities["inv_one_minus_xdelta_linf"] = prefactor

    cost_bound = None
    if condition:
        q = quantities
        d_linf = q["delta_linf"]
        d_l2 = q["delta_l2"]
        s1 = (
            2.0 * d_linf * q["x_h2"] * q["xk_h2"]
            + 2.0 * q["ky_h2"] * d_l2 * q["y_hinf"]
            + 2.0 * q["ky_h2"] * d_linf
            * (q["y_h2"] + q["kx_h2"] * q["y_hinf"] + q["kx_hinf"] * q["x_h2"])
        )
        s2 = (
            d_linf**2 * q["x_h2"] ** 2
            + (q["y_hinf"] * (d_linf * q["kx_h2"] + d_l2)) ** 2
            + q["x_h2"] ** 2 * (d_linf * q["kx_hinf"] + d_linf) ** 2
        )
        q["s1"] = s1
        q["s2"] = s2
        cost_bound = prefactor**2 * (q["cost_original"] + s1 + s2)
    return _epilogue("thm3", err, quantities, condition, cost_bound, notes,
                     _computed("inv_one_minus_xdelta_linf"))
