"""Empirical runtime scaling of the exact solver.

For fixed K the solver's work grows like N^(K+1).  This runs a small
scaling sweep at K=2, fits a line to log(time) vs log(n), and prints the
slope, which should land near 3.  Takes under a minute; the sizes used by
the acceptance gate (up to n=1600, plus a K=3 sweep) push it to a few
minutes and tighten the fit.
"""

from ekmedoids import fit_slope, run_scaling, scaling_summary, scaling_csv_text
from ekmedoids.bench import ns_per_distance_min

sizes = (100, 200, 400, 800)
print(f"K=2 sweep over n in {sizes}, 3 reps each (synthetic Gaussian mixtures)")
records = run_scaling(2, sizes, reps=3, seed=11)

print("\nper-run records:")
for r in records:
    print(f"  n={r.n:4d} rep={r.rep}  {r.wall_time_seconds:8.3f}s  "
          f"{r.evaluated_configurations} configurations")

slope = fit_slope(records)
print(f"\nfitted log-log slope: {slope:.3f}  (predicted exponent: 3)")

# A solve at size n makes C(n, 2) * n distance-mins; the slope reaches the
# predicted exponent only when each costs the same at every size.
costs = ns_per_distance_min(records)
print("median ns per distance-min:", "  ".join(f"n={n}: {ns:.2f}" for n, ns in costs.items()))

# The harness also emits CSV records and a JSON-ready summary; these are
# the artifacts the benchmark CLI writes.
summary = scaling_summary(records)
print("summary:", {k: summary[k] for k in ("k", "slope", "runs")})
print("\nfirst CSV lines:")
print("\n".join(scaling_csv_text(records).splitlines()[:3]))
