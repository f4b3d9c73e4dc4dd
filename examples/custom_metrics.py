"""Custom and model-parameterized fairness metrics.

Shows the customization axes of §4.3:

* a *model-parameterized* metric — false discovery rate parity (on
  COMPAS, whose balanced labels make FDR statistically stable), which
  only OmniFair (and, partially, Celis et al.) can enforce;
* a fully *custom* metric — average error cost with asymmetric FP/FN
  costs (Example 4 / Appendix A), which no baseline supports;
* a custom *grouping* — arbitrary predicate-defined groups.

Run:  python examples/custom_metrics.py
"""

from repro import FairnessSpec, fit_fair
from repro.core.fairness_metrics import average_error_cost_parity
from repro.core.grouping import by_predicate
from repro.datasets import load_adult, load_compas, two_group_view
from repro.ml import LogisticRegression
from repro.ml.model_selection import train_val_test_split


def _split(data, seed=0):
    strat = data.sensitive * 2 + data.y
    tr, va, te = train_val_test_split(len(data), seed=seed, stratify=strat)
    return data.subset(tr), data.subset(va), data.subset(te)


def main():
    # --- 1. FDR parity (weights parameterized by the model, §5.2) --------
    compas = two_group_view(load_compas(n=3000, seed=1))
    train, val, test = _split(compas)
    fdr_spec = FairnessSpec("FDR", 0.02)
    fm = fit_fair(LogisticRegression(), fdr_spec, train, val, delta=0.01)
    report = fm.audit(test)
    print("FDR parity on COMPAS (eps=0.02):")
    print(f"  lambda={fm.lambdas[0]:+.4f}  fits={fm.report.n_fits}")
    print(f"  test accuracy {report['accuracy']:.3f}, "
          f"disparities {report['disparities']}")

    data = load_adult(n=4000, seed=0)
    train, val, test = _split(data)

    # --- 2. custom average-error-cost metric (Example 4) -----------------
    # a false negative (missing a >50k earner) costs 2x a false positive
    aec = average_error_cost_parity(cost_fp=1.0, cost_fn=2.0)
    fm = fit_fair(LogisticRegression(), FairnessSpec(aec, 0.05), train, val)
    report = fm.audit(test)
    print("\nCustom AEC parity (C_fp=1, C_fn=2, eps=0.05):")
    print(f"  test accuracy {report['accuracy']:.3f}, "
          f"disparities {report['disparities']}")

    # --- 3. custom (overlapping-capable) grouping ------------------------
    # groups defined by arbitrary predicates, not the sensitive attribute
    grouping = by_predicate(
        low_feature0=lambda d: d.X[:, 0] < 0,
        high_feature0=lambda d: d.X[:, 0] >= 0,
    )
    fm = fit_fair(
        LogisticRegression(), FairnessSpec("SP", 0.05, grouping=grouping),
        train, val,
    )
    print("\nPredicate-defined groups (SP eps=0.05):")
    print(f"  validation disparities "
          f"{fm.report.validation['disparities']}")


if __name__ == "__main__":
    main()
