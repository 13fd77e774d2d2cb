"""Small-scale Monte Carlo: asymptotic normality of scale estimators
on EGARCH(1,1) data with AR(1) innovations.

A scaled-down version of the full study (fewer replications, smaller
subsample budget) so it runs in a few seconds.  For each estimator and
sample size it reports the normal QQ correlation of the replicated
estimates -- closer to 1 means closer to Gaussian.
"""

import os
import tempfile

from glstat import (
    EstimatorConfig,
    ExperimentConfig,
    egarch_scenario,
    run_experiment,
    write_report,
)

config = ExperimentConfig(
    process=egarch_scenario(1),
    estimators=(
        EstimatorConfig(name="gini"),
        EstimatorConfig(name="lms"),
        EstimatorConfig(name="q", m=3, alpha=0.5, subsample=200_000),
    ),
    sample_sizes=(100, 1000),
    replications=100,
    seed=42,
)

report = run_experiment(config)

print(f"{'estimator':<10}{'n':>6}{'mean':>10}{'sd':>10}"
      f"{'skew':>8}{'qq corr':>9}")
for (label, n), cell in sorted(report.cells.items()):
    s = cell.summary
    print(f"{label:<10}{n:>6}{s.mean:>10.4f}{s.sd:>10.4f}"
          f"{s.skewness:>8.3f}{s.qq_correlation:>9.4f}")

out = os.path.join(tempfile.gettempdir(), "egarch_demo_report")
manifest = write_report(report, out)
print(f"\nwrote {len(manifest)} files to {out}")
print("rerunning with the same seed reproduces identical hashes")
