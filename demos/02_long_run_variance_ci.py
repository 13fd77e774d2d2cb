"""Long-run variance and confidence intervals under dependence.

Estimates the long-run variance of the sample mean (identity kernel)
for iid and AR(1) data, then builds a CLT confidence interval for
Gini's mean difference on an AR(1) path.  For AR(1) with coefficient
rho and unit marginal variance the true long-run variance of the mean
is (1 + rho) / (1 - rho).
"""

import numpy as np

from glstat import (
    BandwidthPolicy,
    LrvConfig,
    ProcessConfig,
    builtin_kernel,
    estimator_gini,
    gini_gl_spec,
    gl_confidence_interval,
    lrv_gl,
    lrv_ustat,
    make_rng,
    simulate_path,
)

ident = builtin_kernel("identity")
n = 4000

print("long-run variance of the mean (Bartlett window, b = n^(1/3)):")
for rho in (0.0, 0.3, 0.6):
    x = simulate_path(ProcessConfig(kind="ar1", rho=rho), n, make_rng(11))
    truth = (1 + rho) / (1 - rho)
    print(f"  rho = {rho:.1f}: estimate {lrv_ustat(x, ident):.3f},"
          f"  truth {truth:.3f}")

# a wider window picks up more of the dependence
x = simulate_path(ProcessConfig(kind="ar1", rho=0.6), n, make_rng(11))
for b in (5, 16, 40):
    cfg = LrvConfig(bandwidth=BandwidthPolicy(kind="fixed", b=b))
    print(f"  rho = 0.6, b = {b:>2}: estimate {lrv_ustat(x, ident, cfg):.3f}")

print("\nGini's mean difference on an AR(1) path:")
x = simulate_path(ProcessConfig(kind="ar1", rho=0.5), 2000, make_rng(13))
spec = gini_gl_spec()
report = lrv_gl(x, spec)
lo, hi = gl_confidence_interval(x, spec, level=0.95)
print(f"  point estimate   {estimator_gini(x):.4f}")
print(f"  sigma^2 (m^2-scaled) {report.m2_sigma2_gl:.4f}, "
      f"bandwidth {report.bandwidth_used:.0f}")
print(f"  95% interval     [{lo:.4f}, {hi:.4f}]")
