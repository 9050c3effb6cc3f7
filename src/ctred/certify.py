"""Machine-checkable certificates for reduced-order controllers.

Every certificate has the same shape.  Its prologue checks that the
reduced controller ``K_r`` fits the loop (a strictly proper controller of
the nominal one's dimensions; :class:`DimensionError` otherwise) and that
the nominal ``K`` internally stabilizes ``G`` (:class:`NotStabilizingError`
otherwise), and builds the four-block map of the nominal loop.  The
closed-loop blocks ``X``, ``Y``, ``KX`` and ``KY`` then feed the
certificate's sufficient condition on the error ``delta = K_r - K`` and,
for the bound certificates, an upper bound on the closed-loop quadratic
cost of ``K_r``.  The epilogue (:meth:`_Record.certificate`) records an
independent eigenvalue-based stability verdict of the reduced loop and
its spectral abscissa, so the conservatism of a sufficient condition
stays visible, and returns a :class:`ReductionCertificate` holding every
norm evaluated.

Undefined norms (e.g. the peak gain of an unstable error system) are
recorded as ``inf`` and fail the condition instead of raising, so batch
sweeps can proceed.

Every quantity of ``delta`` is read from one stable/antistable split of
each controller (:class:`~ctred.reduce._Split`): the loop analysis holds
the split ``K = K_s + K_u`` and each error analysis that of ``K_r``.
``delta``'s parts are their differences, ``delta_s = K_rs - K_s`` and
``delta_u = K_ru - K_u``; both are block-diagonal sums of Schur forms, so
their Hankel passes need no Schur reduction, and ``delta`` itself is never
split.  The unstable poles of a controller are those its split keeps
after dropping the directions at its rounding floor
(:meth:`~ctred.reduce._Split.cancelled_anti`, the rule of
:func:`~ctred.reduce.split_cancelled_unstable`): ``lemma3`` counts them
for ``K`` and ``K_r``, and ``thm3`` matches the structural zeros of
``1 - X*delta`` to those ``delta_u`` keeps.  ``delta`` is stable as
realized when ``delta_u`` has order 0; when ``delta_u`` is rounding noise
(:attr:`~ctred.reduce._Split.anti_negligible`, the rule of
:func:`~ctred.reduce.drop_negligible_antistable`), ``delta_s`` is its
stable realization; otherwise ``delta`` has genuine unstable poles.

Each certificate fills one :class:`_Record` with its quantities, the
kinds of the norms its condition reads and its notes, and every error
product gain is decided bound first by :meth:`_Record.gain`, so a
failing condition always rests on computed norms.  ``lemma3`` and
``thm1`` hand it ``b = ||X||_inf * d``, which by submultiplicativity
bounds both ``||X*delta||`` and ``||delta*X||`` on the axis, where ``d =
||D|| + 2 sum sigma(delta_s) + 2 sum sigma(mirror(delta_u))`` is the
Hankel-sum bound of the two parts (:attr:`~ctred.reduce._Split.upper_bound`,
Glover 1984; ``inf`` when a controller does not split).  ``||X||_inf``
enters ``lemma3`` and ``thm1`` only as its own Hankel-sum bound
(:attr:`_LoopAnalysis.x_bound`), so ``b`` is a product of two proven
bounds; when it is not below one the product's own peak gain is computed,
and no peak gain of ``X`` is searched.  ``lemma3`` also hands it the
products' poles, those of the loop and of the parts of ``delta``, so a
product with a pole on the axis is refused.  ``thm1`` measures the stable
realization of ``delta`` times ``X`` (stable because both factors are)
and adds to ``b`` the proven bound on the product it dropped, ``X``'s
Hankel-sum bound times ``2 sum sigma(mirror(delta_u))`` (0 when
``delta_u`` has order 0); only a genuine ``delta_u``, or a controller that
does not split, sends ``thm1`` to the stability test of each whole product
(:func:`_stable_form`).  In a SISO loop ``X*delta`` and ``delta*X`` are
one transfer function, and one peak-gain search serves both names
(:meth:`_ErrorAnalysis.products`).

The bound certificates ``thm2``, ``cor1`` and ``cor2`` share one body
(:func:`_small_gain_record`): they read ``delta_hinf`` and ``delta_h2``
from one error analysis, both measured once per reduced controller on
the stable realization of ``K_r - K`` (``delta`` itself or ``delta_s``),
and the computed ``||X||_inf`` among the loop norms
(:func:`_loop_quantities`).  ``cor1`` takes only its Hankel tail from the
truncation result.

Every pole a certificate reads is a system's own (``_poles``: the Schur
diagonal's spectrum when ``A`` is in real Schur form, else one
eigen-solve; :mod:`ctred.statespace`).  Certificates on the same plant
and controller share one loop analysis: the stabilizing check, the
four-block map on one real Schur form of its state matrix, which the map
and its blocks hold with their poles, the loop norms, the split of ``K``
and, for the last reduced controller seen, the split of ``K_r``, the
error system and its norms, the error products with ``X``, their peak
gains and the reduced loop's eigenvalue verdict.  The last analysis is
kept (``functools.lru_cache``) under ``g``, ``k`` and the
``CTRED_TOL_STAB`` override.  Systems compare by *identity*, never by
content: they are immutable and own their arrays, so the same objects
always describe the same loop, while equal content built anew -- each
request of a batch, each repeated round -- gets its own analysis.  A
content key would make a repeated experiment skip the work it is meant
to repeat.  Each certificate's record copies the shared quantities it
starts from, and a racing caller at worst recomputes.  Within an
analysis every shared quantity is a ``functools.cached_property``,
stored only once fully computed; where the descriptor locks while it
computes (Python 3.11 and older), no property waits on another in a
cycle, and a product replaced by a racing thread only makes the losing
caller compute its own peak gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import linalg, norms
from .errors import (
    AxisPoleError,
    ConvergenceError,
    SeparationError,
    UnsupportedError,
    WrongCertificateError,
    ZeroModeError,
)
from .norms import _AXIS_POLES, _h2_norms, h2_norm, hinf_norm, linf_norm
from .reduce import TruncationResult, _hankel_pass, _Split, drop_negligible_antistable
from .statespace import (
    StateSpaceSystem,
    _check_loop_dims,
    _stabilizing_four_block,
    add,
    is_internally_stable,
    negate,
    series,
)
from .tolerances import CLUSTER_TOL, stab_override

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
        self._gains: dict[StateSpaceSystem, float] = {}

    @cached_property
    def delta(self) -> StateSpaceSystem:
        """``k_r - k`` as realized, with a block-diagonal state matrix."""
        return add(self.k_r, negate(self.k))

    @cached_property
    def parts(self):
        """The split of ``delta``: ``delta_s = K_rs - K_s`` and ``delta_u =
        K_ru - K_u``, sums of Schur forms holding their poles; the exception
        of a controller that does not split."""
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
        when a controller does not split."""
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
    def delta_norms(self) -> tuple[dict, tuple]:
        """``delta_hinf`` and ``delta_h2`` of :attr:`delta_stable` (``inf``
        when ``delta`` is not stable), and notes that say why."""
        form = self.delta_stable
        if form is not None:
            return {"delta_hinf": hinf_norm(form), "delta_h2": h2_norm(form)}, ()
        parts = self.parts
        why = ("error system is not stable" if isinstance(parts, _Split)
               else f"error system: stability undecidable ({parts})")
        return dict.fromkeys(("delta_hinf", "delta_h2"), math.inf), (
            why, "error system is not stable; its H norms are undefined")

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
        gain = self._gains.get(form)
        if gain is None:
            gain = self._gains[form] = linf_norm(form)
        return gain

    @cached_property
    def verdict(self) -> tuple:
        """``is_internally_stable(g, k_r)``."""
        return is_internally_stable(self.g, self.k_r)


class _LoopAnalysis:
    """The nominal loop ``(g, k)`` as every certificate starts from it: the
    stabilizing check, the four-block map on one real Schur form
    (:func:`~ctred.statespace._stabilizing_four_block`), the split of ``k``
    and the loop norms, each computed on first use.  :meth:`error` keeps
    the error analysis of the last reduced controller seen on any loop.
    """

    def __init__(self, g: StateSpaceSystem, k: StateSpaceSystem):
        self.g, self.k = g, k
        self.fb = _stabilizing_four_block(g, k)
        self.k_split = _split(k)

    @cached_property
    def x_bound(self) -> float:
        """``||X||_inf`` as ``lemma3`` and ``thm1`` read it: the Hankel-sum
        bound of ``X`` (:attr:`~ctred.reduce._HankelPass.upper_bound`), from
        triangular Gramian solves; ``inf`` when a Gramian misses its residual
        check (:class:`ConvergenceError`), so that every bound it enters
        fails to decide (``inf * 0`` is NaN) and the error products' own
        peak gains are computed."""
        try:
            return _hankel_pass(self.fb.x).upper_bound
        except ConvergenceError:
            return math.inf

    @cached_property
    def quantities(self) -> dict:
        """:func:`_loop_quantities` of the loop."""
        return _loop_quantities(self)

    @lru_cache(maxsize=1)
    def error(self, k_r: StateSpaceSystem) -> _ErrorAnalysis:
        return _ErrorAnalysis(self, k_r)


@lru_cache(maxsize=1)
def _loop_analysis(g: StateSpaceSystem, k: StateSpaceSystem,
                   override: str | None) -> _LoopAnalysis:
    """The analysis of ``(g, k)`` under the ``CTRED_TOL_STAB`` ``override``."""
    return _LoopAnalysis(g, k)


def _loop(g: StateSpaceSystem, k: StateSpaceSystem,
          k_r: StateSpaceSystem) -> _LoopAnalysis:
    """Shared certificate prologue: ``k_r`` must fit the loop and ``k`` must
    stabilize ``g``; returns the analysis of the nominal loop."""
    _check_loop_dims(g, k_r)
    return _loop_analysis(g, k, stab_override())


class _Record:
    """The ``quantities``, norm ``kinds`` and ``notes`` of one certificate
    on the error analysis ``err``.

    It starts from its own copies of the ``shared`` quantities and of
    ``notes``, with the norms named in ``computed`` of kind ``"computed"``;
    :meth:`gain` records each norm that is decided bound first.
    """

    def __init__(self, err: _ErrorAnalysis, *shared: dict, notes=(), computed=()):
        self.err = err
        self.quantities = {}
        for q in shared:
            self.quantities.update(q)
        self.notes = list(notes)
        self.kinds = dict.fromkeys(computed, "computed")

    def gain(self, name: str, bound: float, form: StateSpaceSystem | None,
             poles=None) -> float:
        """Record and return the peak gain ``name`` of ``form``, bound first:
        the proven upper bound ``bound`` as ``"upper_bound"`` when it is below
        one, skipping the search, unless a pole in ``poles()`` (``form``'s,
        from its factors) lies within :func:`~ctred.linalg.half_plane_tol` of
        the axis; otherwise the gain is computed
        (:meth:`_ErrorAnalysis.peak_gain`), or ``inf`` when ``form`` is
        ``None``, so a failing condition rests on computed norms.  A gain
        undefined for a pole on the axis is ``inf``, with a note."""
        kind = "computed"
        try:
            if bound < 1.0:
                if poles is not None and np.any(
                        np.abs(poles().real) <= linalg.half_plane_tol(form.A)):
                    raise AxisPoleError(_AXIS_POLES)
                value, kind = bound, "upper_bound"
            else:
                value = math.inf if form is None else self.err.peak_gain(form)
        except AxisPoleError as exc:
            value = math.inf
            self.notes.append(f"{name} undefined: {exc}")
        self.quantities[name], self.kinds[name] = value, kind
        return value

    def certificate(self, theorem: str, condition: bool,
                    cost_bound=None) -> ReductionCertificate:
        """The certificate, with the eigenvalue verdict on ``(g, k_r)`` and
        the reduced loop's spectral abscissa."""
        stable, alpha = self.err.verdict
        self.quantities["closed_loop_abscissa"] = alpha
        return ReductionCertificate(theorem, self.quantities, condition, cost_bound,
                                    stable, tuple(self.notes), self.kinds)


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
    biproper function diverges); the peak gains read the loop's poles, found
    stable, without a new test.  The two H2 entries of each input block
    share one Gramian, the cost keeps its own, and the three share the
    loop's Schur form (:func:`_four_block_h2`).  Only the bound certificates
    read the computed ``x_hinf``; ``lemma3`` and ``thm1`` read ``x_bound``.
    """
    fb = loop.fb
    ((x_h2, kx_h2), (xk_h2, ky_h2)), whole = _four_block_h2(fb)
    return {
        "x_h2": x_h2,
        "x_hinf": norms._peak_gain(fb.x),
        "xk_h2": xk_h2,
        "kx_h2": kx_h2,
        "kx_hinf": norms._peak_gain(fb.kx),
        "ky_h2": ky_h2,
        "y_hinf": norms._peak_gain(fb.y),
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
    rec = _Record(err)

    counts = {}
    for name, split in (("original", err.k_split), ("reduced", err.k_r_split)):
        if isinstance(split, _Split):
            counts[f"unstable_poles_{name}"] = float(split.unstable_count)
        else:
            rec.notes.append(f"unstable pole count of the {name} controller undefined: {split}")
    if len(counts) == 2:
        rec.quantities.update(counts)
    counts_ok = len(counts) == 2 and len(set(counts.values())) == 1

    # a bound below one means both controllers split, and the products'
    # poles are those of the loop and of the parts of delta
    bound = loop.x_bound * err.delta_bound
    gains = [rec.gain(f"{product}_linf", bound, form, lambda: np.concatenate(
                 [loop.fb.system._poles, err.parts.stable._poles, err.parts.anti._poles]))
             for product, form in err.products(err.delta).items()]
    return rec.certificate("lemma3", counts_ok and min(gains) < 1.0)


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
    ``X*delta_u`` or ``delta_u*X``, bounded by the Hankel bound of ``X``
    times that of ``delta_u`` (0 when ``d`` is ``delta``).
    Otherwise each whole product is tested by :func:`_stable_form`.
    """
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    rec = _Record(err)

    d = err.delta_stable
    if d is None:
        dy_form, _ = _stable_form(series(err.delta, loop.fb.y), rec.notes, "delta*Y")
        dy_stable = dy_form is not None
        forms = {product: _stable_form(form, rec.notes, label) for (product, form), label
                 in zip(err.products(err.delta).items(), ("X*delta", "delta*X"))}
    else:
        dy_stable = True
        dropped = loop.x_bound * err.parts.anti_pass.upper_bound
        forms = {product: (form, dropped) for product, form in err.products(d).items()}
    # the stable form is the product minus the dropped part
    bound = loop.x_bound * err.delta_bound
    gains = [rec.gain(f"{product}_hinf", bound + dropped, form)
             for product, (form, dropped) in forms.items()]
    if not dy_stable:
        rec.notes.append("delta*(I-GK)^{-1} is not stable")
    return rec.certificate("thm1", dy_stable and max(gains) < 1.0)


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


def _record_bound(q: dict) -> float:
    """Record ``s1``/``s2`` and return the cost bound (``x_hinf * delta_hinf < 1``)."""
    q["s1"], q["s2"] = _bound_terms(q, 2.0)
    denom = 1.0 - q["x_hinf"] * q["delta_hinf"]
    return (q["cost_original"] + q["s1"] + q["s2"]) / denom**2


def _small_gain_record(g: StateSpaceSystem, k: StateSpaceSystem,
                       k_r: StateSpaceSystem) -> tuple[_Record, bool]:
    """The body of ``thm2``, ``cor1`` and ``cor2``: a record of the loop
    norms and of the computed ``delta_hinf`` and ``delta_h2`` with their
    notes, and whether ``x_hinf * delta_hinf < 1`` (never on an unstable
    error, whose ``delta_hinf`` is ``inf``)."""
    loop = _loop(g, k, k_r)
    err = loop.error(k_r)
    values, notes = err.delta_norms
    rec = _Record(err, loop.quantities, values, notes=notes,
                  computed=("delta_hinf", "x_hinf"))
    return rec, rec.quantities["x_hinf"] * values["delta_hinf"] < 1.0


def check_thm2_bound(g: StateSpaceSystem, k: StateSpaceSystem,
                     k_r: StateSpaceSystem) -> ReductionCertificate:
    """Small-gain certificate with a closed-loop cost bound, for stable errors."""
    rec, condition = _small_gain_record(g, k, k_r)
    return rec.certificate("thm2", condition,
                           _record_bound(rec.quantities) if condition else None)


def check_cor1(g: StateSpaceSystem, k: StateSpaceSystem,
               reduction: TruncationResult) -> ReductionCertificate:
    """Certificate for balanced truncation: the discarded Hankel tail must
    be below half the reciprocal peak gain of the input sensitivity (any
    tail when that gain is 0), and the measured error must agree
    (``delta`` stable, ``x_hinf * delta_hinf < 1``)."""
    if reduction.method != "balanced":
        raise WrongCertificateError("this certificate applies to balanced truncation")
    rec, small_gain = _small_gain_record(g, k, reduction.reduced)
    q = rec.quantities
    tail = q["sigma_tail_sum"] = float(sum(reduction.truncated_tail))
    condition = q["x_hinf"] == 0.0 or tail < 1.0 / (2.0 * q["x_hinf"])
    if condition and not small_gain:  # contradicts the tail
        condition = False
        why = ("x_hinf * delta_hinf >= 1" if math.isfinite(q["delta_hinf"])
               else "the error system is not stable")
        rec.notes.append(f"tail condition held but {why}")
    return rec.certificate("cor1", condition, _record_bound(q) if condition else None)


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
    rec, condition = _small_gain_record(g, k, k_r)
    q = rec.quantities
    if math.isinf(q["delta_hinf"]):
        raise WrongCertificateError(
            "error system is unstable; use the unstable-truncation certificate (thm3)"
        )
    cost_bound = None
    if condition:
        cost_bound = _record_bound(q)
        q["s1_single_h2_term"], _ = _bound_terms(q, 1.0)
    return rec.certificate("cor2", condition, cost_bound)


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
    rec = _Record(err, loop.quantities, computed=("inv_one_minus_xdelta_linf",))
    quantities, notes = rec.quantities, rec.notes

    parts = err.parts
    split = isinstance(parts, _Split)
    poles = np.concatenate([parts.stable._poles, parts.anti._poles]) if split else err.delta._poles
    if poles.size and np.min(np.abs(poles)) <= linalg.half_plane_tol(err.delta.A):
        raise ZeroModeError("error system has a pole at the origin")
    if not split:
        raise AxisPoleError(f"error system has imaginary-axis poles: {parts}")
    # keep genuine unstable modes, drop the exactly cancelled copies
    stable, anti = parts.stable, parts.cancelled_anti()
    delta_min = add(stable, anti)

    # norms of the (possibly unstable) error system over the axis; the L2
    # norm combines the H2 norms of the split's parts in quadrature
    try:
        quantities["delta_linf"] = linf_norm(delta_min)
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
        inv_poles = inverse._poles
        missing, rest = linalg._match_roots(anti._poles, inv_poles, CLUSTER_TOL)
        notes += [f"no structural zero found at the unstable error pole {p:.6g}"
                  for p in anti._poles[missing]]
        condition = not missing.size
        if condition and np.any(inv_poles[rest].real >= -linalg.half_plane_tol(a_inv)):
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
    return rec.certificate("thm3", condition, cost_bound)
