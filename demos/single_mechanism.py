"""
One private counting round, end to end
======================================

Each user holds a zone id. The client-side perturb step randomizes it into
a report that satisfies the likelihood-ratio privacy bound; the server-side
aggregate step debiases the pile of reports back into per-zone counts.
"""

import numpy as np

from zoneldp.metrics import metric_report
from zoneldp.oracles import make_mechanism

rng = np.random.default_rng(7)

# A small building: four zones with a lopsided population.
true_counts = np.array([120, 30, 200, 50])
zones = np.repeat(np.arange(4), true_counts)
n = zones.size

# A unary-encoding mechanism at privacy level eps = 1. The probability pair
# says how each bit of the one-hot encoding is kept or flipped.
mechanism = make_mechanism("OUE", l_zones=4, epsilon=1.0)
probs = mechanism.probabilities()
print(f"n = {n} users, eps = 1: keep p = {probs.p:.3f}, flip q = {probs.q:.3f}")

# What one user actually sends: a single randomized bit vector, row 0 of a
# batch of one. Nothing about the report pins down the true zone.
report = mechanism.perturb_batch([zones[0]], rng)
print("zone", zones[0], "reported as bits", report.bits[0])

# The server never sees zones, only reports. Aggregating debiases the bit
# frequencies into estimated counts; negatives get clamped for display.
batch = mechanism.perturb_batch(zones, rng)
estimate = mechanism.aggregate(batch)
print("true counts      :", true_counts.tolist())
print("debiased estimate:", np.round(estimate.raw, 1).tolist())
print("reported counts  :", estimate.rounded().tolist())

# Error metrics against the truth: root-mean-square error, its range-
# normalized form, and how far the zone ranking moved (discordant pairs).
metrics = metric_report(true_counts, estimate.raw)
print(f"rmse = {metrics.rmse:.2f}  nrmse = {metrics.nrmse:.3f}  "
      f"ranking distance = {metrics.kendall_tau}")

# More budget, less noise: the same round at eps = 4 tracks truth closely.
loose = make_mechanism("OUE", l_zones=4, epsilon=4.0)
estimate = loose.aggregate(loose.perturb_batch(zones, rng))
print("at eps = 4       :", estimate.rounded().tolist())
