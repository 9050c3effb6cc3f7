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

Every quantity of ``delta`` is read from one stable/antistable split of
each controller (:class:`~ctred.reduce._Split`): the loop analysis holds
the split ``K = K_s + K_u`` and each error analysis that of ``K_r``.
``delta``'s parts are their differences, ``delta_s = K_rs - K_s`` and
``delta_u = K_ru - K_u``; both are block-diagonal sums of Schur forms, so
their Hankel passes need no Schur reduction, and ``delta`` itself is never
split.  The unstable poles of a controller are those its
split keeps after dropping the directions at its rounding floor
(:meth:`~ctred.reduce._Split.cancelled_anti`, the rule of
:func:`~ctred.reduce.split_cancelled_unstable`): ``lemma3`` counts them
for ``K`` and ``K_r``, and ``thm3`` matches the structural zeros of
``1 - X*delta`` to those ``delta_u`` keeps.  ``delta`` is stable as
realized when ``delta_u`` has order 0; when ``delta_u`` is rounding noise
(:attr:`~ctred.reduce._Split.anti_negligible`, the rule of
:func:`~ctred.reduce.drop_negligible_antistable`), ``delta_s`` is its
stable realization; otherwise ``delta`` has genuine unstable poles.

The small-gain conditions of ``lemma3`` and ``thm1`` are decided bound
first.  By submultiplicativity ``b = ||X||_inf * d`` bounds both
``||X*delta||`` and ``||delta*X||`` on the axis, where ``d = ||D|| +
2 sum sigma(delta_s) + 2 sum sigma(mirror(delta_u))`` is the Hankel-sum
bound of the two parts (:attr:`~ctred.reduce._Split.upper_bound`, Glover
1984) and ``||X||_inf`` carries a margin for the error of the computed
peak gain (:func:`_small_gain_bound`).  When ``b < 1`` the gain part of
the condition holds: ``b`` is recorded in place of the product norms and
their peak-gain searches are skipped.  ``lemma3`` still refuses a product
with a pole on the axis, read from the spectra of the loop and of the two
splits.  ``thm1`` measures the stable realization of ``delta`` times
``X`` (stable because both factors are) and first adds the proven bound
on the product it dropped, ``(1 + SMALL_GAIN_MARGIN) ||X||_inf 2 sum
sigma(mirror(delta_u))`` with the margin of :func:`_small_gain_bound`
(0 when ``delta_u`` has order 0); only a genuine ``delta_u``, or a
controller that does not split, sends ``thm1`` to the stability test of
each whole product (:func:`_stable_form`).  When ``b >= 1``, and whenever
a controller does not split, the product norms are computed, so a
failing condition always rests on computed norms and the verdicts are
those of the norms themselves.  In a SISO loop ``X*delta`` and
``delta*X`` are one transfer function, and one peak-gain search serves
both names (:meth:`_ErrorAnalysis.products`).  Every certificate names,
in ``kinds``, each norm its condition reads as ``"upper_bound"`` or
``"computed"``.

The bound certificates ``thm2``, ``cor1`` and ``cor2`` read ``delta_hinf``
and ``delta_h2`` from one error analysis: both norms are measured once
per reduced controller, on the stable realization of ``K_r - K``
(``delta`` itself or ``delta_s``).  ``cor1`` takes only its Hankel tail
from the truncation result.

Certificates on the same plant and controller share one loop analysis:
the stabilizing check, the four-block map, its spectrum and its norms
(the peak gains of ``X``, ``KX`` and ``Y`` read that spectrum), the
split of ``K``, and, for the last reduced controller seen, the split of
``K_r``, the error system and its norms, the error products with ``X``,
their peak gains and the reduced loop's eigenvalue verdict.  The
analysis sits in a single process-wide slot keyed on the *identity* of
``g`` and ``k`` (and the ``CTRED_TOL_STAB`` override it was computed
under), never on their content: systems are immutable and own their
arrays, so the same objects always describe the same loop, while equal
content built anew -- each request of a batch, each repeated round --
gets its own analysis.  A content key would make a repeated experiment
skip the work it is meant to repeat.  Each certificate gets its own copy
of the shared quantities.  The slot is read once into a local and
replaced only by a fully built analysis, so concurrent callers at worst
recompute.  Within an analysis every shared quantity is a
``functools.cached_property``, stored only once fully computed; where
the descriptor locks while it computes (Python 3.11 and older), no
property waits on another in a cycle, and a product replaced by a racing
thread only makes the losing caller compute its own peak gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, norms
from .errors import (
    AxisPoleError,
    SeparationError,
    UnsupportedError,
    WrongCertificateError,
    ZeroModeError,
)
from .norms import _check_no_axis_poles, _h2_norms, h2_norm, hinf_norm, linf_norm
from .reduce import TruncationResult, _Split, drop_negligible_antistable
from .statespace import (
    StateSpaceSystem,
    _check_loop_dims,
    _stabilizing_four_block,
    add,
    is_internally_stable,
    negate,
    series,
)
from .tolerances import CLUSTER_TOL, SMALL_GAIN_MARGIN, stab_override

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
    return h2_norm(_stabilizing_four_block(g, k)[0].system) ** 2


def lqg_cost_blocks(g: StateSpaceSystem, k: StateSpaceSystem):
    """Total cost and the four per-block squared-H2 contributions."""
    cols, whole = _four_block_h2(_stabilizing_four_block(g, k)[0])
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


def _split(s: StateSpaceSystem):
    """The split of a controller (:meth:`~ctred.reduce._Split.of`), or the
    :class:`AxisPoleError` or :class:`SeparationError` that refused it
    (without its traceback, which would keep the failed call's frames)."""
    try:
        return _Split.of(s)
    except (AxisPoleError, SeparationError) as exc:
        return exc.with_traceback(None)


class _ErrorAnalysis:
    """The error ``delta = k_r - k`` of one reduced controller on a loop.

    Holds the splits of ``k`` and ``k_r``, and computes on first use (each
    stored only when fully built) ``delta``, its split made from them, its
    Hankel-sum bound, the norms of its stable realization, the products
    ``X*delta`` and ``delta*X``, their peak gains, and the eigenvalue
    verdict on ``(g, k_r)``.
    """

    def __init__(self, loop: _LoopAnalysis, k_r: StateSpaceSystem):
        # not the loop: no reference cycle
        self.g, self.k, self.fb, self.k_split = loop.g, loop.k, loop.fb, loop.k_split
        self.k_r, self.k_r_split = k_r, _split(k_r)
        self._gains: dict = {}

    @cached_property
    def delta(self) -> StateSpaceSystem:
        """``k_r - k`` as realized, with a block-diagonal state matrix."""
        return add(self.k_r, negate(self.k))

    @cached_property
    def parts(self):
        """The split of ``delta``: ``delta_s = K_rs - K_s`` and ``delta_u =
        K_ru - K_u`` from the parts of the held splits, both block-diagonal
        sums of Schur forms; the exception of a controller that does not
        split."""
        if not isinstance(self.k_r_split, _Split):
            return self.k_r_split
        if not isinstance(self.k_split, _Split):
            return self.k_split
        return _Split(add(self.k_r_split.stable, negate(self.k_split.stable)),
                      add(self.k_r_split.anti, negate(self.k_split.anti)))

    @cached_property
    def delta_bound(self) -> float:
        """Upper bound on ``||delta||`` over the axis
        (:attr:`~ctred.reduce._Split.upper_bound` of :attr:`parts`); ``inf``
        when a controller's poles do not split into stable and antistable
        parts."""
        return self.parts.upper_bound if isinstance(self.parts, _Split) else math.inf

    @cached_property
    def delta_stable(self) -> StateSpaceSystem | None:
        """A stable realization of ``delta``: ``delta`` itself when
        ``delta_u`` has order 0, ``delta_s`` when ``delta_u`` is rounding
        noise (:attr:`~ctred.reduce._Split.anti_negligible`); ``None`` when
        it is genuine or :attr:`parts` is an exception."""
        splits = (self.k_split, self.k_r_split)
        if all(isinstance(s, _Split) and s.anti.n == 0 for s in splits):
            return self.delta  # delta_u has order 0; its parts are not needed
        parts = self.parts
        if not isinstance(parts, _Split):
            return None
        return parts.stable if parts.anti_negligible else None

    @cached_property
    def _delta_norms(self) -> tuple[dict, tuple]:
        form = self.delta_stable
        if form is not None:
            return {"delta_hinf": hinf_norm(form), "delta_h2": h2_norm(form)}, ()
        parts = self.parts
        why = ("error system is not stable" if isinstance(parts, _Split)
               else f"error system: stability undecidable ({parts})")
        return dict.fromkeys(("delta_hinf", "delta_h2"), math.inf), (
            why, "error system is not stable; its H norms are undefined")

    def delta_norms(self) -> tuple[dict, list]:
        """``delta_hinf`` and ``delta_h2`` of :attr:`delta_stable` (``inf``
        when ``delta`` is not stable, with notes that say why); fresh
        copies of both."""
        values, notes = self._delta_norms
        return dict(values), list(notes)

    @cached_property
    def x_delta(self) -> StateSpaceSystem:
        """``X*delta``."""
        return series(self.fb.x, self.delta)

    @cached_property
    def delta_x(self) -> StateSpaceSystem:
        """``delta*X``."""
        return series(self.delta, self.fb.x)

    def products(self, d: StateSpaceSystem) -> dict:
        """``X*d`` and ``d*X`` by product name (``"x_delta"``, ``"delta_x"``);
        the products of ``delta`` itself are the held ones.  In a SISO loop
        the two are one transfer function: ``X*d`` stands for both, so one
        peak-gain search serves the pair."""
        raw = d is self.delta
        x_d = self.x_delta if raw else series(self.fb.x, d)
        if self.g.is_siso:
            return {"x_delta": x_d, "delta_x": x_d}
        return {"x_delta": x_d, "delta_x": self.delta_x if raw else series(d, self.fb.x)}

    def peak_gain(self, form: StateSpaceSystem) -> float:
        """``linf_norm(form)``, computed once per form object (the raw
        products are held, so lemma3 and thm1 share their gains).  On a
        stable ``form`` it is the H-infinity norm."""
        held = self._gains.get(id(form))
        if held is None:  # the entry keeps ``form``, so its id stays taken
            held = self._gains[id(form)] = (form, linf_norm(form))
        return held[1]

    @cached_property
    def verdict(self) -> tuple:
        """``is_internally_stable(g, k_r)``."""
        return is_internally_stable(self.g, self.k_r)


class _LoopAnalysis:
    """The nominal loop ``(g, k)`` as every certificate starts from it.

    Construction checks that ``k`` stabilizes ``g``, builds the four-block
    map, keeps the spectrum of its state matrix and splits ``k``;
    ``||X||_inf`` and the other loop norms are computed on first use, on
    that spectrum.  The error analysis of the last reduced controller is
    kept.
    """

    last: _LoopAnalysis | None = None  # the slot :func:`_loop` reuses

    def __init__(self, g: StateSpaceSystem, k: StateSpaceSystem):
        self.g, self.k = g, k
        self.tol_override = stab_override()
        self.fb, self.spectrum = _stabilizing_four_block(g, k)
        self.k_split = _split(k)
        self._error = None

    def block_hinf(self, block: StateSpaceSystem) -> float:
        """``hinf_norm`` of a block of the four-block map, on the kept
        spectrum: every block has the closed-loop state matrix, which the
        construction found stable."""
        return norms._peak_gain(block, self.spectrum)

    @cached_property
    def x_hinf(self) -> float:
        """``||X||_inf``, the loop norm every small-gain condition reads."""
        return self.block_hinf(self.fb.x)

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


def _small_gain_bound(loop: _LoopAnalysis, d: float) -> float:
    """Upper bound on ``||X*e||`` and ``||e*X||`` over the axis for an
    ``e`` with ``||e|| <= d``.

    Submultiplicativity gives ``(1 + SMALL_GAIN_MARGIN) ||X||_inf d``.
    ``d`` is proven; the computed ``||X||_inf`` is not: it is within
    ``HINF_REL`` of a gain the kernel evaluated, which lies at or below the
    peak.  Over the 1984 peak gains of the stability_batch and bound_batch
    pools at seeds 11 and 401 the worst lay 8.5e-11 below a dense direct-LU
    reference; before the search trusted only evaluated gains,
    ``hinf_norm`` was measured low by up to 1.4e-5 on closed-loop blocks and
    1.7e-5 on error products.  ``SMALL_GAIN_MARGIN`` covers those five
    times over and costs nothing in practice: a bound within that margin of
    one falls through to the computed norm.
    """
    return (1.0 + SMALL_GAIN_MARGIN) * loop.x_hinf * d


def _stable_form(s: StateSpaceSystem, notes: list, label: str):
    """Stability of a transfer function with a usable realization.

    The unstable part is inspected: when its transfer contribution sits at
    the rounding floor (exactly cancelling modes in a difference of
    systems) the stable part stands in, so hidden cancellations never fail
    the test spuriously.  Returns ``(realization, dropped)``, with
    ``realization`` ``None`` when ``s`` is not stable and ``dropped`` an
    upper bound on the peak gain of what was dropped.
    """
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
        "kx_hinf": loop.block_hinf(fb.kx),
        "ky_h2": ky_h2,
        "y_hinf": loop.block_hinf(fb.y),
        "y_h2": xk_h2,  # strictly proper part of Y = I + XK
        "cost_original": whole ** 2,
    }


def check_lemma3(g: StateSpaceSystem, k: StateSpaceSystem,
                 k_r: StateSpaceSystem) -> ReductionCertificate:
    """Classical reduced-controller test: matched unstable pole counts plus
    a small-gain condition on the truncation error, in the peak gain over
    the axis (poles of the error system need not be stable).

    Each count is :attr:`~ctred.reduce._Split.unstable_count` of the held
    split of the controller, the order of the antistable part of
    :func:`~ctred.reduce.split_cancelled_unstable`; a controller whose
    poles do not split has none, a note says why and the condition fails.
    """
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    notes: list[str] = []
    quantities: dict = {}

    counts = {}
    for name, split in (("original", err.k_split), ("reduced", err.k_r_split)):
        if isinstance(split, _Split):
            counts[f"unstable_poles_{name}"] = float(split.unstable_count)
        else:
            notes.append(f"unstable pole count of the {name} controller undefined: {split}")
    if len(counts) == 2:
        quantities.update(counts)
    counts_ok = len(counts) == 2 and len(set(counts.values())) == 1

    bound = _small_gain_bound(loop, err.delta_bound)
    gains, kinds = {}, _computed("x_delta_linf", "delta_x_linf")
    for product, form in err.products(err.delta).items():
        name = f"{product}_linf"
        try:
            if bound < 1.0:
                # an undefined norm stays undefined; a finite bound means
                # both controllers split, and the product's poles are those
                # of the loop and of the two splits
                _check_no_axis_poles(form, np.concatenate([loop.spectrum,
                                                           err.parts.spectrum]))
                gains[name], kinds[name] = bound, "upper_bound"
            else:
                gains[name] = err.peak_gain(form)
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

    When ``delta`` has a stable realization ``d``
    (:attr:`_ErrorAnalysis.delta_stable`), the products of ``d`` with the
    stable ``Y`` and ``X`` are stable as realized; what they drop is
    ``X*delta_u`` or ``delta_u*X``, bounded by :func:`_small_gain_bound`
    of the Hankel bound of ``delta_u`` (0 when ``d`` is ``delta``).
    Otherwise each whole product is tested by :func:`_stable_form`.
    """
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    notes: list[str] = []
    quantities: dict = {}

    d = err.delta_stable
    if d is None:
        dy_form, _ = _stable_form(series(err.delta, loop.fb.y), notes, "delta*Y")
        dy_stable = dy_form is not None
        forms = {product: _stable_form(form, notes, label) for (product, form), label
                 in zip(err.products(err.delta).items(), ("X*delta", "delta*X"))}
    else:
        dy_stable = True
        dropped = _small_gain_bound(loop, err.parts.anti_pass.upper_bound)
        forms = {product: (form, dropped) for product, form in err.products(d).items()}
    bound = _small_gain_bound(loop, err.delta_bound)
    kinds = _computed("x_delta_hinf", "delta_x_hinf")
    for product, (form, dropped) in forms.items():
        name = f"{product}_hinf"
        if form is None:
            quantities[name] = math.inf
        elif bound + dropped < 1.0:
            # the stable form is the product minus the dropped part
            quantities[name], kinds[name] = bound + dropped, "upper_bound"
        else:
            try:
                quantities[name] = err.peak_gain(form)
            except AxisPoleError as exc:
                quantities[name] = math.inf
                notes.append(f"{name} undefined: {exc}")
    if not dy_stable:
        notes.append("delta*(I-GK)^{-1} is not stable")
    condition = (
        dy_stable and max(quantities["x_delta_hinf"], quantities["delta_x_hinf"]) < 1.0
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
    function itself; each pole is paired with the nearest zero that
    coincides with it within ``CLUSTER_TOL``,
    :func:`~ctred.linalg._match_roots`).  The cost bound multiplies the
    printed penalty terms by the squared peak gain of ``(1 - X*delta)^{-1}``
    over the imaginary axis, which is finite although that inverse keeps
    the structural unstable poles.
    """
    if not (g.is_siso and k.is_siso and k_r.is_siso):
        raise UnsupportedError("this certificate is defined for SISO systems only")
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    notes: list[str] = []
    quantities = loop.quantities()

    # the poles of delta are those of both controllers
    parts = err.parts
    if isinstance(parts, _Split):
        ev = parts.spectrum
    else:
        ev = np.concatenate([linalg.eigenvalues(s.A) for s in (k, k_r)])
    if ev.size and np.min(np.abs(ev)) <= linalg.half_plane_tol(err.delta.A):
        raise ZeroModeError("error system has a pole at the origin")
    if not isinstance(parts, _Split):
        raise AxisPoleError(f"error system has imaginary-axis poles: {parts}")
    # keep genuine unstable modes, drop the exactly cancelled copies
    stable, anti = parts.stable, parts.cancelled_anti()
    delta_min = add(stable, anti)
    unstable_delta_poles = linalg.eigenvalues(anti.A)

    # norms of the (possibly unstable) error system over the axis; the L2
    # norm combines the H2 norms of the split's parts in quadrature
    try:
        ev = np.concatenate([linalg._block_eigenvalues(stable.A), unstable_delta_poles])
        quantities["delta_linf"] = norms._peak_gain(delta_min,
                                                    _check_no_axis_poles(delta_min, ev))
    except AxisPoleError as exc:
        raise AxisPoleError(f"error system norms undefined: {exc}") from exc
    quantities["delta_l2"] = norms._split_l2(stable, anti)

    # 1 - X*delta; unstable modes of the product must cancel through the
    # structural zeros of X, leaving only rounding-level content (hidden
    # stable modes are harmless to the zero test below)
    prod_min = series(loop.fb.x, delta_min)
    if anti.n:
        prod_min, _ = _stable_form(prod_min, notes, "X*delta")
    condition = prod_min is not None
    prefactor = math.inf
    if condition:
        a_inv = prod_min.A + prod_min.B @ prod_min.C
        inverse = StateSpaceSystem(a_inv, prod_min.B, prod_min.C, np.eye(1))
        inv_poles = linalg.eigenvalues(a_inv)
        missing, rest = linalg._match_roots(unstable_delta_poles, inv_poles, CLUSTER_TOL)
        notes += [f"no structural zero found at the unstable error pole {p:.6g}"
                  for p in unstable_delta_poles[missing]]
        condition = not missing.size
        if condition and np.any(inv_poles[rest].real >= -linalg.half_plane_tol(a_inv)):
            condition = False
            notes.append("1 - X*delta has right-half-plane zeros beyond the structural set")
        if condition:
            try:
                prefactor = norms._peak_gain(inverse,
                                             _check_no_axis_poles(inverse, inv_poles))
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
