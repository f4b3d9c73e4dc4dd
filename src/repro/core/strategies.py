"""Pluggable λ/Λ search strategies behind a registry (the solver layer).

Every built-in strategy is an **ask/tell plan generator**
(:mod:`repro.core.planner`): instead of owning a fit/evaluate/history
loop, a strategy *asks* for candidate λ batches by yielding
:class:`~repro.core.planner.CandidateBatch` objects and is *told* the
outcomes as :class:`~repro.core.planner.EvalResult` lists.  The
:class:`~repro.core.executor.ExecutionBackend` consumes the batches and
drives the compiled kernels, batched fits, the fit caches, and chunked
evaluation uniformly — so those capabilities compose once, in one
place, for every strategy.

Third parties can still ship solvers without touching the engine::

    from repro.core.strategies import SearchStrategy, register_strategy

    @register_strategy
    class MySolver(SearchStrategy):
        name = "my_solver"
        config_cls = MyConfig

        def plan(self, ctx, config):          # ask/tell generator
            (r0,) = yield CandidateBatch([[0.0]])
            ...
            return TuneResult(r0.model, r0.lam, feasible=True,
                              history=ctx.history)

:func:`~repro.core.planner.run_plan` is the one driver of every plan,
and :func:`register_strategy` refuses a class without ``plan()``.

Built-ins:

``binary_search``
    Algorithm 1 (§5.3): exponential/linear bounding + binary search.
    Single-constraint only — the paper's monotonicity argument (Lemma 2)
    is one-dimensional.  The doubling ladder is asked as one batch with
    a stop predicate.
``hill_climb``
    Algorithm 2 (§6) marginal hill climbing for k constraints; for k = 1
    it reduces to Algorithm 1 and delegates to it.  Per-axis bracket
    expansions are ladder asks, bisection steps single-candidate asks.
``grid``
    The Table 8 exhaustive-grid baseline, single- or multi-constraint.
``linear``
    Symmetric δ-sweep outward from λ = 0 until the first feasible λ —
    the naive ablation that needs no monotonicity assumption at all.
``cmaes``
    Penalty-method CMA-ES over Λ (:mod:`repro.optim.cmaes`), useful when
    marginal monotonicity is too badly violated for hill climbing.
    Each generation is one population ask.

Each strategy declares a config dataclass that holds its solver knobs.
``Config.build(options)`` constructs one from a flat dict and rejects
unknown keys.  Every built-in plan reads its knobs from that validated
config, so each default exists once, in the dataclass.  An earlier
solve's warm seed is no knob: it reaches a plan as
:attr:`~repro.core.planner.PlanContext.warm`, and only the strategies
whose ``reads_warm`` is True (``binary_search``, ``hill_climb``) read
it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from ..optim.cmaes import cmaes_generations
from .exceptions import InfeasibleConstraintError, SpecificationError
from .planner import CandidateBatch, TuneResult, run_plan

__all__ = [
    "SearchStrategy",
    "StrategyConfig",
    "BinarySearchConfig",
    "HillClimbConfig",
    "GridConfig",
    "LinearConfig",
    "CMAESConfig",
    "register_strategy",
    "unregister_strategy",
    "get_strategy",
    "available_strategies",
    "resolve_strategy_name",
    # the one plan driver, re-exported: Engine.solve calls it through
    # this module attribute
    "run_plan",
]


@dataclass
class StrategyConfig:
    """Base class for per-strategy solver knobs."""

    @classmethod
    def build(cls, options):
        """Construct a config from a flat ``{name: value}`` dict.

        Unknown keys raise :class:`SpecificationError`.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(options) - known)
        if unknown:
            raise SpecificationError(
                f"unknown option(s) {unknown} for {cls.__name__}; "
                f"known: {sorted(known)}"
            )
        return cls(**options)


def _check_positive(config, *names, allow_zero=False):
    """Refuse a knob that is not a finite number > 0 (>= 0 with
    ``allow_zero``).

    A zero width never ends a bisection (its bracket stalls on adjacent
    floats), a NaN one compares false everywhere, and an infinite grid
    or step puts inf or NaN into the weights, so the search would hang,
    skip its refinement, or select a wrong model.
    """
    for name in names:
        value = getattr(config, name)
        try:
            ok = math.isfinite(value) and (
                value > 0 or (allow_zero and value == 0)
            )
        except TypeError:
            ok = False
        if not ok:
            raise SpecificationError(
                f"{type(config).__name__}.{name} must be a finite number "
                f"{'>=' if allow_zero else '>'} 0, got {value!r}"
            )


def _check_count(config, *names, minimum=1):
    """Refuse a count knob that is not an int >= ``minimum``."""
    for name in names:
        value = getattr(config, name)
        if (not isinstance(value, numbers.Integral)
                or isinstance(value, bool) or value < minimum):
            raise SpecificationError(
                f"{type(config).__name__}.{name} must be an int >= "
                f"{minimum}, got {value!r}"
            )


@dataclass
class BinarySearchConfig(StrategyConfig):
    """Algorithm 1 knobs (paper defaults: δ=0.001, τ=1e-4)."""

    delta: float = 0.01
    tau: float = 1e-3
    lambda_max: float = 1e5
    max_linear_steps: int = 2000

    def __post_init__(self):
        _check_positive(self, "delta", "tau", "lambda_max")
        _check_count(self, "max_linear_steps")


@dataclass
class HillClimbConfig(StrategyConfig):
    """Algorithm 2 knobs, plus Algorithm 1 knobs for the k=1 reduction
    (whose linear-ladder budget is :class:`BinarySearchConfig`'s)."""

    max_rounds: int = None
    initial_step: float = 0.1
    tau: float = 1e-3
    delta: float = 0.01
    lambda_max: float = 1e5

    def __post_init__(self):
        _check_positive(self, "delta", "tau", "initial_step", "lambda_max")
        if self.max_rounds is not None:
            _check_count(self, "max_rounds")


@dataclass
class GridConfig(StrategyConfig):
    """Grid extent/resolution for the Table 8 baseline."""

    grid_max: float = 1.0
    grid_steps: int = 5

    def __post_init__(self):
        _check_positive(self, "grid_max")
        _check_count(self, "grid_steps")


@dataclass
class LinearConfig(StrategyConfig):
    """Sweep step and budget for the naive linear strategy."""

    step: float = 0.05
    max_steps: int = 400

    def __post_init__(self):
        _check_positive(self, "step")
        _check_count(self, "max_steps")


@dataclass
class CMAESConfig(StrategyConfig):
    """CMA-ES budget and the feasibility penalty weight."""

    sigma0: float = 0.3
    max_evals: int = 64
    popsize: int = None
    seed: int = 0
    penalty: float = 10.0

    def __post_init__(self):
        _check_positive(self, "sigma0")
        _check_positive(self, "penalty", allow_zero=True)
        _check_count(self, "max_evals")
        if self.popsize is not None:
            _check_count(self, "popsize", minimum=2)


class SearchStrategy:
    """Protocol every registered solver implements.

    Attributes
    ----------
    name : str
        Registry key (also the CLI ``--search`` value).
    config_cls : type[StrategyConfig]
        The dataclass holding this solver's knobs.
    reads_warm : bool
        Whether :meth:`plan` reads the warm seed
        (:attr:`~repro.core.planner.PlanContext.warm`); only then does
        a store solve look one up in the solution cache's warm index.

    A strategy implements :meth:`plan` — an ask/tell generator
    yielding :class:`~repro.core.planner.CandidateBatch` objects and
    receiving ``list[EvalResult]``, whose return value is a
    :class:`~repro.core.planner.TuneResult` (or it raises
    :class:`InfeasibleConstraintError`).  :func:`run_plan` drives it.
    """

    name = None
    config_cls = StrategyConfig
    reads_warm = False

    def plan(self, ctx, config):
        """Ask/tell generator (see :mod:`repro.core.planner`)."""
        raise NotImplementedError

    def make_config(self, options):
        return self.config_cls.build(options)


_REGISTRY = {}


def register_strategy(cls):
    """Class decorator: add a :class:`SearchStrategy` to the registry.

    Re-registering a name overwrites the previous entry (latest wins),
    so tests and plugins can shadow built-ins deliberately.  A class
    that does not implement :meth:`SearchStrategy.plan` is refused: a
    ``solve()`` override is never called.
    """
    if not (isinstance(cls, type) and issubclass(cls, SearchStrategy)):
        raise SpecificationError(
            "register_strategy expects a SearchStrategy subclass"
        )
    if not cls.name or not isinstance(cls.name, str):
        raise SpecificationError(
            f"{cls.__name__} must define a non-empty string 'name'"
        )
    if cls.name == "auto":
        raise SpecificationError("'auto' is reserved for engine dispatch")
    if cls.plan is SearchStrategy.plan:
        raise SpecificationError(
            f"{cls.__name__} must implement plan(), the ask/tell "
            f"generator run_plan drives"
        )
    _REGISTRY[cls.name] = cls
    return cls


def get_strategy(name):
    """Instantiate the registered strategy called ``name``."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise SpecificationError(
            f"unknown search strategy {name!r}; registered: "
            f"{available_strategies()} (plus 'auto')"
        ) from None


def unregister_strategy(name):
    """Remove a strategy from the registry (mainly for tests/plugins)."""
    _REGISTRY.pop(name, None)


def available_strategies():
    """Sorted names of every registered strategy."""
    return sorted(_REGISTRY)


def known_option_names():
    """Union of config field names across all registered strategies.

    A key unknown to *every* strategy is a typo; the engine refuses it
    at construction, even under ``"auto"``, whose config is built only
    once the constraint count is known.
    """
    names = set()
    for cls in _REGISTRY.values():
        names.update(f.name for f in fields(cls.config_cls))
    return names


def check_option_names(options):
    """Refuse option keys that no registered strategy accepts.

    Callers that unpack untrusted ``options`` into ``Engine(**options)``
    (the CLI ``--strategy-opt`` flag, the serving ``/retune`` body) run
    this first, so a key can only ever reach a strategy config and never
    an engine constructor parameter such as ``store_dir``.
    """
    unknown = sorted(set(options) - known_option_names())
    if unknown:
        raise SpecificationError(
            f"unknown option(s) {unknown}; no registered strategy "
            f"accepts them"
        )


def resolve_strategy_name(name, n_constraints):
    """Map ``"auto"`` to the paper's default solver for the problem size."""
    if name == "auto":
        return "binary_search" if n_constraints == 1 else "hill_climb"
    return name


# -- plan generators (the ported solver loops) --------------------------------


def _doubling(t, lambda_max):
    """Algorithm 1's exponential rungs above ``t``: t·2, t·4, … while
    they stay within ``lambda_max``, each the previous one doubled."""
    rungs = []
    while True:
        t = t * 2.0
        if t > lambda_max:
            return rungs
        rungs.append(t)


def _plan_single_lambda(ctx, config):
    """Algorithm 1 as an ask/tell generator over a
    :class:`BinarySearchConfig` — λ-trajectory identical to the
    pre-planner single-λ loop (goldens in
    ``tests/goldens/trajectories.json``) unless ``ctx.warm`` seeds the
    bracket from an earlier solve: its signed λ becomes a one-fit
    bracket probe that replaces the direction probe and most of the
    bounding ladder."""
    ctx.record_style = "scalar"
    fitter = ctx.fitter
    if len(fitter.constraints) != 1:
        raise ValueError("Algorithm 1 expects exactly one constraint")
    delta, tau, lambda_max = config.delta, config.tau, config.lambda_max
    label = ctx.val_constraints[0].label
    epsilon = fitter.constraints[0].epsilon

    # -- stage 1: λ = 0 ------------------------------------------------------
    (r0,) = yield CandidateBatch([[0.0]])
    model0 = r0.model
    fp0 = r0.fp
    if abs(fp0) <= epsilon:
        return TuneResult(model0, [0.0], feasible=True, history=ctx.history)

    # orientation (Algorithm 1 lines 4-5): ensure FP(θ0) < −ε so the
    # search runs over positive λ.  The swap is a sign in the context,
    # which it applies to the λ of every fit and to every disparity it
    # reports
    swapped = fp0 > 0
    if swapped:
        ctx.swap_constraint(0)
        fp0 = -fp0

    parameterized = fitter.parameterized
    best = (model0, 0.0, -np.inf)  # (model, λ, acc) among feasible

    exceeded = (
        f"exponential search exceeded lambda_max={lambda_max} "
        f"without satisfying {label}"
    )

    def climb(rungs, message, fallback=None):
        """Climb the bracket up ``rungs`` (stage 2's ladder): one chained
        batch from the upper bracket's model that stops at the first
        rung past the band, each reported rung becoming the new upper
        bracket and the one below it the lower.  A ladder that ends
        below the band raises ``message`` with ``fallback`` (the last
        rung's model when ``None``)."""
        nonlocal t_l, model_l, t_u, fp_u, acc_u, model_u
        if rungs:
            reported = yield CandidateBatch(
                direction * np.asarray(rungs)[:, None],
                prev_model=model_u, chain=True,
                stop=lambda res: res.fp >= -epsilon,
            )
            for i, r in enumerate(reported):
                t_l, model_l = t_u, model_u
                t_u, fp_u, acc_u, model_u = (
                    rungs[i], r.fp, r.accuracy, r.model,
                )
        if fp_u < -epsilon:
            raise InfeasibleConstraintError(
                message, best_model=model_u if fallback is None else fallback,
            )

    # warm-start eligibility: the previous λ is only a sound bracket
    # seed when nothing that shaped it differs — same orientation, no
    # continuation chaining (parameterized), and a magnitude the search
    # could itself have visited
    warm_lambda = None if ctx.warm is None else float(ctx.warm[0][0])
    warm = (
        warm_lambda is not None
        and not parameterized
        and ctx.warm[1] == swapped
        and tau < abs(warm_lambda) <= lambda_max
    )

    if warm:
        # -- warm stages 1-2: one probe at the previous λ --------------------
        # the previous solve's signed λ carries the direction, so the
        # two-sided escalating direction probe is skipped outright
        direction = 1.0 if warm_lambda > 0 else -1.0
        t_w = abs(warm_lambda)
        (rw,) = yield CandidateBatch([[direction * t_w]], prev_model=model0)
        t_u, fp_u, acc_u, model_u = t_w, rw.fp, rw.accuracy, rw.model
        t_l, model_l = 0.0, model0
        if fp_u < -epsilon:
            # the tightened band sits above the previous λ: resume the
            # doubling ladder from t_w instead of from the unit probe
            yield from climb(_doubling(t_u, lambda_max), exceeded, model0)
        else:
            # the previous λ already clears the tightened band: halve
            # down toward it, tightening the upper bound each rung and
            # stopping at the first rung back below the band — that
            # rung is a far closer lower bracket than 0
            rungs = []
            t = t_u / 2.0
            while t >= tau:
                rungs.append(t)
                t /= 2.0
            if rungs:
                reported = yield CandidateBatch(
                    direction * np.asarray(rungs)[:, None],
                    prev_model=model0, chain=True,
                    stop=lambda res: res.fp < -epsilon,
                )
                for i, r in enumerate(reported):
                    if r.fp < -epsilon:
                        t_l, model_l = rungs[i], r.model
                    else:
                        if abs(fp_u) <= epsilon and acc_u > best[2]:
                            best = (model_u, direction * t_u, acc_u)
                        t_u, fp_u, acc_u, model_u = (
                            rungs[i], r.fp, r.accuracy, r.model,
                        )
    else:
        # Direction probe.  Lemma 2 guarantees FP(θ*(λ)) non-decreasing
        # in λ for exact optima of the surrogate; with approximate
        # weights the observed disparity can move the other way or sit
        # flat near λ=0, so both signs are probed with escalating steps
        # (see the pre-planner loop's derivation note).
        probe_step = delta if parameterized else min(1.0, lambda_max)
        direction = 1.0
        probe = None
        for _ in range(6):
            pos, neg = yield CandidateBatch(
                [[probe_step], [-probe_step]], prev_model=model0,
            )
            moved = max(pos.fp, neg.fp) > fp0 + 1e-12
            if moved:
                direction, probe = (
                    (1.0, pos) if pos.fp >= neg.fp else (-1.0, neg)
                )
                break
            if probe_step * 4 > lambda_max:
                break
            probe_step *= 4.0
        if probe is None:
            raise InfeasibleConstraintError(
                f"disparity does not respond to λ for {label}",
                best_model=model0,
            )

        # -- stage 2: bounding t (λ = direction · t) -------------------------
        t_u, fp_u, acc_u, model_u = (
            probe_step, probe.fp, probe.accuracy, probe.model,
        )
        t_l, model_l = 0.0, model0

        if fp_u < -epsilon and not parameterized:
            # exponential ladder (lines 21-27): rungs t·2^j up to
            # lambda_max
            yield from climb(_doubling(t_u, lambda_max), exceeded, model0)
        elif fp_u < -epsilon:
            # linear ladder (lines 29-37): the continuation
            # approximation needs adjacent λ so each rung chains the
            # previous rung's model
            step = max(delta, probe_step)
            rungs = []
            t = t_u
            for _ in range(config.max_linear_steps):
                t = t + step
                rungs.append(t)
            yield from climb(
                rungs,
                f"linear search exhausted {config.max_linear_steps} steps "
                f"without satisfying {label}",
            )

    if abs(fp_u) <= epsilon and acc_u > best[2]:
        best = (model_u, direction * t_u, acc_u)

    # -- stage 3: binary search (lines 11-19) --------------------------------
    while t_u - t_l >= tau:
        t_m = 0.5 * (t_l + t_u)
        prev = model_l if parameterized else model0
        (rm,) = yield CandidateBatch([[direction * t_m]], prev_model=prev)
        model_m, fp_m, acc_m = rm.model, rm.fp, rm.accuracy
        if abs(fp_m) <= epsilon and acc_m > best[2]:
            best = (model_m, direction * t_m, acc_m)
        if fp_m < -epsilon:
            t_l, model_l = t_m, model_m
        else:
            t_u = t_m

    if not np.isfinite(best[2]):
        raise InfeasibleConstraintError(
            f"binary search found no feasible λ for {label}",
            best_model=model_u,
        )
    model_best, lam_best, _ = best
    return TuneResult(
        model_best, [lam_best], feasible=True, swapped=swapped,
        history=ctx.history,
    )


#: Algorithm 2's per-axis bracket budget: the doubling steps an axis
#: may take before it settles for its least-violating attempt
MAX_EXPANSIONS = 40


def _plan_tune_dimension(ctx, config, lambdas, j, model, disparities):
    """Algorithm 2's per-axis tuner as a sub-generator.

    Moves ``Λ[j]`` until constraint ``j`` holds (marginal monotonicity,
    Lemma 4): a doubling bracket expansion from ``config.initial_step``
    asked as ladder batches with a stop predicate, then a 1-D bisection
    down to ``config.tau``.  Every decision replays the
    pre-planner ``_tune_dimension`` loop body, so the fitted λ sequence
    is identical.

    Returns ``(lambdas, model, disparities, result)`` for the new
    setting, where ``result`` is the chosen :class:`EvalResult`.
    """
    eps_j = ctx.val_constraints[j].epsilon
    fp_j = disparities[j]
    direction = 1.0 if fp_j < -eps_j else -1.0
    start_side = 1.0 if fp_j > eps_j else -1.0  # which side of the band
    prev_model = model

    def side(fp):
        if fp > eps_j:
            return 1.0
        if fp < -eps_j:
            return -1.0
        return 0.0

    def globally_feasible(res):
        return float(ctx.violations(res.disparities).max()) <= 1e-12

    def chosen(res):
        return res.lam.copy(), res.model, res.disparities, res

    def row(lam_j):
        lams = lambdas.copy()
        lams[j] = lam_j
        return lams

    # bracket: expand from the current value until FP_j crosses the band
    t_start = lambdas[j]
    t_near = t_start  # last point still on the starting side
    t_far = t_start
    step = config.initial_step
    budget = MAX_EXPANSIONS
    flipped = False
    best_outside = None  # least-violating candidate seen, as fallback
    crossed = None
    while budget > 0 and crossed is None:
        # this direction's remaining ladder: t += dir·step, step *= 2
        rungs = []
        t, s = t_far, step
        for _ in range(budget):
            t = t + direction * s
            s *= 2.0
            rungs.append(t)
        ladder_flipped = flipped

        def expansion_stop(res):
            fp_new = float(res.disparities[j])
            return (
                globally_feasible(res)
                or side(fp_new) == 0.0
                or side(fp_new) != start_side
                or (not ladder_flipped
                    and abs(fp_new) > abs(fp_j) + 1e-12)
            )

        reported = yield CandidateBatch(
            np.stack([row(t) for t in rungs]), prev_model=prev_model,
            chain=True, record=False, stop=expansion_stop,
        )
        do_flip = False
        for i, res in enumerate(reported):
            budget -= 1
            prev_model = res.model
            fp_new = float(res.disparities[j])
            if globally_feasible(res):
                return chosen(res)
            if best_outside is None or abs(fp_new) < abs(
                float(best_outside.disparities[j])
            ):
                best_outside = res
            if side(fp_new) == 0.0:
                return chosen(res)  # constraint j holds; outer loop goes on
            if side(fp_new) != start_side:
                crossed = res
                t_far = rungs[i]
                break
            if not flipped and abs(fp_new) > abs(fp_j) + 1e-12:
                # first worsening step: search the other way
                do_flip = True
                break
            t_near = rungs[i]
            t_far = rungs[i]
            step = step * 2.0
        if do_flip:
            flipped = True
            direction = -direction
            step = config.initial_step
            t_far = t_start
    if crossed is None:
        # FP_j never crossed: the satisfactory region is unreachable
        # along this axis from here — return the least-violating attempt
        return chosen(best_outside)

    # binary search between t_near (starting side) and t_far (far side);
    # side(fp) is monotone along the segment by marginal monotonicity.
    # Track the candidate with the smallest *global* max violation so a
    # near-feasible interior point beats the crossing endpoint.
    best = crossed
    best_viol = float(ctx.violations(crossed.disparities).max())
    while abs(t_far - t_near) >= config.tau:
        mid = 0.5 * (t_near + t_far)
        (res,) = yield CandidateBatch(
            [row(mid)], prev_model=prev_model, record=False,
        )
        prev_model = res.model
        fp_mid = float(res.disparities[j])
        if globally_feasible(res):
            return chosen(res)
        viol = float(ctx.violations(res.disparities).max())
        if viol < best_viol:
            best, best_viol = res, viol
        if side(fp_mid) == 0.0:
            return chosen(res) if viol <= best_viol else chosen(best)
        if side(fp_mid) == start_side:
            t_near = mid
        else:
            t_far = mid
    return chosen(best)


def _plan_hill_climb(ctx, config, dimension_order="most_violated"):
    """Algorithm 2 over a :class:`HillClimbConfig` as an ask/tell
    generator (trajectory-identical to the pre-planner Algorithm 2 loop
    unless ``ctx.warm`` seeds the starting Λ from an earlier solve, so a
    solve on slightly drifted data starts next to the previous optimum).
    """
    ctx.record_style = "vector"
    k = ctx.k
    if len(ctx.val_constraints) != k:
        raise ValueError("train/val constraint lists differ in length")
    max_rounds = 5 * k if config.max_rounds is None else config.max_rounds

    # a FOR/FDR fit at a nonzero Λ chains through a model's predictions,
    # and the first fit has none to chain from: such a climb starts
    # cold, as Algorithm 1's warm start does
    lambdas = np.zeros(k)
    if ctx.warm is not None and not ctx.fitter.parameterized:
        lambdas = ctx.warm[0].copy()
    (r0,) = yield CandidateBatch([lambdas.copy()])
    model, disparities = r0.model, r0.disparities

    best_model, best_lams, best_viol = model, lambdas.copy(), np.inf
    for round_idx in range(max_rounds):
        violations = ctx.violations(disparities)
        worst = float(violations.max())
        if worst < best_viol:
            best_model, best_lams, best_viol = model, lambdas.copy(), worst
        if worst <= 1e-12:
            return TuneResult(
                model, lambdas, feasible=True, n_rounds=round_idx,
                history=ctx.history,
            )
        if dimension_order == "round_robin":
            violated = np.nonzero(violations > 1e-12)[0]
            j = int(violated[round_idx % len(violated)])
        else:
            j = int(np.argmax(violations))  # most violated first (line 4)
        lambdas, model, disparities, res = yield from _plan_tune_dimension(
            ctx, config, lambdas, j, model, disparities,
        )
        ctx.record(res)

    violations = ctx.violations(disparities)
    if float(violations.max()) <= 1e-12:
        return TuneResult(
            model, lambdas, feasible=True, n_rounds=max_rounds,
            history=ctx.history,
        )
    raise InfeasibleConstraintError(
        f"hill climbing did not satisfy all constraints after "
        f"{max_rounds} rounds (max violation {violations.max():.4f})",
        best_model=best_model,
        best_disparities=disparities,
    )


def _plan_grid_single(ctx, config):
    """Single-λ grid sweep over ``2·grid_steps + 1`` points of
    ``[-grid_max, grid_max]``."""
    ctx.record_style = "scalar"
    if ctx.k != 1:
        raise ValueError("a single-λ grid expects exactly one constraint")
    epsilon = ctx.val_constraints[0].epsilon
    label = ctx.val_constraints[0].label
    grid = np.linspace(
        -config.grid_max, config.grid_max, config.grid_steps * 2 + 1,
    )
    (r0,) = yield CandidateBatch([[0.0]], record=False)
    model0 = r0.model
    best = (None, np.nan, -np.inf)

    reported = yield CandidateBatch(
        grid[:, None], kind="population", prev_model=model0, chain=True,
    )
    for res in reported:
        if abs(res.fp) <= epsilon and res.accuracy > best[2]:
            best = (res.model, float(res.lam[0]), res.accuracy)

    if best[0] is None:
        raise InfeasibleConstraintError(
            f"no grid point satisfies {label}",
            best_model=model0,
        )
    return TuneResult(best[0], [best[1]], feasible=True, history=ctx.history)


def _plan_grid_multi(ctx, config):
    """Λ-grid sweep over ``grid_steps ** k`` points of
    ``[-grid_max, grid_max]^k``."""
    ctx.record_style = "vector"
    k = ctx.k
    grid_max, grid_steps = config.grid_max, config.grid_steps
    axis = np.linspace(-grid_max, grid_max, grid_steps)
    best = (None, None, -np.inf)
    # the Λ=0 fit seeds a FOR/FDR population's chain and serves as the
    # best-effort model on infeasible grids
    (r0,) = yield CandidateBatch([np.zeros(k)], record=False)
    model0 = r0.model
    combos = np.array(list(itertools.product(axis, repeat=k)))
    reported = yield CandidateBatch(
        combos, kind="population", prev_model=model0, chain=True,
    )
    for res in reported:
        if (np.all(ctx.violations(res.disparities) <= 1e-12)
                and res.accuracy > best[2]):
            best = (res.model, res.lam, res.accuracy)
    if best[0] is None:
        raise InfeasibleConstraintError(
            f"no grid point in [-{grid_max}, {grid_max}]^{k} "
            f"({grid_steps} steps/axis) satisfies all constraints",
            best_model=model0,
        )
    return TuneResult(
        best[0], best[1], feasible=True, n_rounds=len(ctx.history),
        history=ctx.history,
    )


def _plan_linear(ctx, config):
    """Symmetric outward δ-sweep from λ = 0; first feasible |λ| wins."""
    ctx.record_style = "scalar"
    fitter = ctx.fitter
    step, max_steps = config.step, config.max_steps
    constraint = ctx.val_constraints[0]
    epsilon = constraint.epsilon

    (r0,) = yield CandidateBatch([[0.0]])
    if abs(r0.fp) <= epsilon:
        return TuneResult(r0.model, [0.0], feasible=True, history=ctx.history)

    prev_pos = prev_neg = r0.model
    for i in range(1, max_steps + 1):
        t = i * step
        if fitter.parameterized:
            # each sign chains its own continuation models
            (rp,) = yield CandidateBatch([[t]], prev_model=prev_pos)
            (rn,) = yield CandidateBatch([[-t]], prev_model=prev_neg)
        else:
            rp, rn = yield CandidateBatch([[t], [-t]])
        prev_pos, prev_neg = rp.model, rn.model
        feasible = [
            (res.accuracy, float(res.lam[0]), res.model)
            for res in (rp, rn)
            if abs(res.fp) <= epsilon
        ]
        if feasible:
            acc, lam, model = max(feasible, key=lambda t: t[0])
            return TuneResult(model, [lam], feasible=True, history=ctx.history)
    raise InfeasibleConstraintError(
        f"linear sweep found no feasible lambda within "
        f"±{max_steps * step:g} for {constraint.label}",
        best_model=r0.model,
    )


def _plan_cmaes(ctx, config):
    """Penalty-method CMA-ES: one population ask per generation."""
    ctx.record_style = "vector"
    k = ctx.k

    (r0,) = yield CandidateBatch([np.zeros(k)])
    if float(ctx.violations(r0.disparities).max()) <= 1e-12:
        return TuneResult(
            r0.model, np.zeros(k), feasible=True, history=ctx.history,
        )

    prev = r0.model
    best = [None]

    def fitness(res):
        viol = float(ctx.violations(res.disparities).max())
        if viol <= 1e-12:
            if best[0] is None or res.accuracy > best[0][0]:
                best[0] = (res.accuracy, res.lam.copy(), res.model)
        return config.penalty * max(viol, 0.0) + (1.0 - res.accuracy)

    gen = cmaes_generations(
        np.zeros(k), sigma0=config.sigma0, max_evals=config.max_evals,
        popsize=config.popsize, seed=config.seed,
    )
    fs = None
    while True:
        try:
            xs = gen.send(fs) if fs is not None else next(gen)
        except StopIteration:
            break
        # FOR/FDR weights chain each generation from the last one's
        # final model
        reported = yield CandidateBatch(
            xs, kind="population", prev_model=prev, chain=True,
        )
        prev = reported[-1].model
        fs = np.array([fitness(res) for res in reported])

    if best[0] is None:
        raise InfeasibleConstraintError(
            f"CMA-ES found no feasible Lambda in {config.max_evals} "
            f"evaluations",
            best_model=r0.model,
        )
    acc, lams, model = best[0]
    return TuneResult(
        model, lams, feasible=True, n_rounds=len(ctx.history) - 1,
        history=ctx.history,
    )


# -- built-in strategies ------------------------------------------------------


@register_strategy
class BinarySearchStrategy(SearchStrategy):
    """Algorithm 1: bound λ, then binary-search the feasibility boundary."""

    name = "binary_search"
    config_cls = BinarySearchConfig
    reads_warm = True

    def plan(self, ctx, config):
        if ctx.k != 1:
            raise SpecificationError(
                "binary_search handles exactly one constraint; use "
                "'hill_climb', 'grid', or 'cmaes' for multi-constraint "
                "problems (or 'auto' to dispatch)"
            )
        return _plan_single_lambda(ctx, config)


@register_strategy
class HillClimbStrategy(SearchStrategy):
    """Algorithm 2: marginal hill climbing over the Λ vector."""

    name = "hill_climb"
    config_cls = HillClimbConfig
    reads_warm = True

    def plan(self, ctx, config):
        if ctx.k == 1:
            # one dimension: marginal bracketing + binary search *is*
            # Algorithm 1, so run the specialized single-λ plan
            return _plan_single_lambda(ctx, BinarySearchConfig(
                delta=config.delta, tau=config.tau,
                lambda_max=config.lambda_max,
            ))
        return _plan_hill_climb(ctx, config)


@register_strategy
class GridStrategy(SearchStrategy):
    """Exhaustive grid over λ (or Λ) — the Table 8 ablation baseline.

    Dispatched on the constraint count: a single λ sweeps
    ``2·grid_steps + 1`` points, a Λ vector ``grid_steps ** k``.
    """

    name = "grid"
    config_cls = GridConfig

    def plan(self, ctx, config):
        if ctx.k == 1:
            return _plan_grid_single(ctx, config)
        return _plan_grid_multi(ctx, config)


@register_strategy
class LinearStrategy(SearchStrategy):
    """Symmetric outward δ-sweep from λ = 0; first feasible |λ| wins.

    Needs no monotonicity or direction probe: both signs are tried at
    every magnitude, and by the accuracy argument of Eq. (16) the
    smallest feasible |λ| has the best accuracy among feasible points,
    so the sweep stops at the first hit (ties broken by accuracy).
    Costs two fits per step — this is the honesty baseline, not the fast
    path.
    """

    name = "linear"
    config_cls = LinearConfig

    def plan(self, ctx, config):
        if ctx.k != 1:
            raise SpecificationError(
                "linear handles exactly one constraint; use 'hill_climb', "
                "'grid', or 'cmaes' for multi-constraint problems"
            )
        return _plan_linear(ctx, config)


@register_strategy
class CMAESStrategy(SearchStrategy):
    """Penalty-method CMA-ES over the Λ vector (any number of constraints).

    Minimizes ``penalty · max(0, max_violation) + (1 − accuracy)`` on the
    validation split.  Derivative-free and assumption-free: it does not
    rely on Lemma 2/4 monotonicity, at the cost of ``max_evals`` model
    fits.  Each CMA-ES generation is one population ask: the executor
    fits and scores it in one vectorized pass with constant-coefficient
    metrics, and as a chain otherwise (each fit's weights use the
    previous candidate's predictions, the same continuation
    approximation Algorithm 1's linear search uses).  An infeasible
    run reports the Λ = 0 model as its best effort, as ``grid`` and
    ``linear`` do.
    """

    name = "cmaes"
    config_cls = CMAESConfig

    def plan(self, ctx, config):
        return _plan_cmaes(ctx, config)
