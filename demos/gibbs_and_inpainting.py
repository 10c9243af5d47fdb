"""Gibbs sampling from the combined model, then inpainting with clamps.

The combined model pstar is proportional to sqrt(p * q), so neither stack
alone can sample it by ancestral passes.  The chain instead resamples one
layer at a time by importance resampling: propose from a half/half
mixture of the two stacks' conditionals, reweight toward the pstar
conditional, and pick one proposal.  On a tiny model the chain's visible
marginal can be checked against exhaustive enumeration; inpainting is the
same sweep with the observed pixels clamped.
"""

import numpy as np

from bihm.model import random_model
from bihm.oracle import exact_conditional_pstar, exact_log_ptilde_by_x, exact_log_z2
from bihm.sampling import GibbsConfig, gibbs_sample_chains, inpaint_chains

rng = np.random.default_rng(5)
model = random_model([3, 2], np.random.default_rng(61))

# Exact visible marginal of pstar by enumeration.
exact = np.exp(exact_log_ptilde_by_x(model) - exact_log_z2(model))

config = GibbsConfig(num_sweeps=10, proposals_per_step=10)
chains = gibbs_sample_chains(model, 20_000, config, rng)
codes = (chains[0] @ (2.0 ** np.arange(2, -1, -1))).astype(int)
empirical = np.bincount(codes, minlength=8) / codes.shape[0]

print("visible marginal after 10 sweeps of 20000 chains")
print("  config   exact    chain")
for i in range(8):
    bits = format(i, "03b")
    print(f"  {bits}    {exact[i]:.4f}   {empirical[i]:.4f}")
tv = 0.5 * np.abs(empirical - exact).sum()
print(f"  total variation distance {tv:.4f}")

# Inpainting: clamp the first pixel to 1 and let the chain fill the rest.
# The conditional completion distribution is again exactly enumerable.
x_corrupt = np.array([1.0, 0.0, 0.0])
mask = np.array([1.0, 0.0, 0.0])
completions = inpaint_chains(
    model, x_corrupt, mask, 20_000, GibbsConfig(num_sweeps=5, proposals_per_step=20), rng
)
assert np.all(completions[:, 0] == 1.0), "observed pixels must never change"

# exact_conditional_pstar enumerates the free bits (here pixels 2 and 3
# plus all latents) and returns the marginal over free visible configs.
cond = exact_conditional_pstar(model, [np.array([1.0, -1.0, -1.0]), None])
free_marginal = cond.reshape(4, -1).sum(axis=1)
emp_codes = (completions[:, 1:] @ np.array([2.0, 1.0])).astype(int)
emp_marginal = np.bincount(emp_codes, minlength=4) / emp_codes.shape[0]

print("\ncompletions of x = [1, ?, ?] (20000 chains, 5 sweeps)")
print("  free bits   exact    chain")
for i in range(4):
    print(f"  {format(i, '02b')}          {free_marginal[i]:.4f}   {emp_marginal[i]:.4f}")
tv = 0.5 * np.abs(emp_marginal - free_marginal).sum()
print(f"  total variation distance {tv:.4f}")
