"""Walk through the two-stack model: layers, joints, and ancestral samples.

The model pairs a top-down generative stack p (prior over the deepest
layer, then layer-by-layer conditionals down to the visibles) with a
bottom-up recognition stack q (visibles up to the deepest layer).  Both
stacks are products of factorized Bernoulli conditionals, so every joint
probability is a sum of log sigmoid terms and can be printed exactly.
"""

import numpy as np

from bihm.model import (
    log_joint_p,
    log_q_given_x,
    random_model,
    sample_p_batch,
    zero_model,
)

rng = np.random.default_rng(0)

# A zero model has every weight and bias at zero, so each conditional is a
# fair coin and every configuration of a [2, 1] model has probability 1/8
# under p and 1/2 under q(h | x).
model = zero_model([2, 1])
x = np.array([1.0, 0.0])
h = [np.array([1.0])]  # one array per latent layer, bottom-up
print("zero model [2, 1]")
print(f"  log p(x, h)   = {log_joint_p(model, x, h):.6f}  (ln 1/8 = {np.log(0.125):.6f})")
print(f"  log q(h | x)  = {log_q_given_x(model, x, h):.6f}  (ln 1/2 = {np.log(0.5):.6f})")

# Random models draw Gaussian weights scaled by 1/sqrt(fan-in); the p and q
# stacks are drawn independently, so the two joints genuinely disagree.
model = random_model([4, 3, 2], rng, weight_scale=1.2)
print("\nrandom model [4, 3, 2]")
print(f"  visible dim      {model.visible_dim}")
print(f"  latent layers    {model.num_latent_layers}")
print(f"  latent bits      {model.num_latent_bits}")
print(f"  parameter blocks {[name for name, _ in model.param_items()]}")

# Ancestral sampling runs the p stack from the prior downward, one row per
# sample.  The visible marginal under p is whatever the stack induces; here
# we just check that samples are binary and have sane per-pixel rates.
draws, _ = sample_p_batch(model, 2000, rng)
print("\n2000 ancestral samples")
print(f"  unique values    {sorted(int(v) for v in np.unique(draws))}")
print(f"  per-pixel means  {np.round(draws.mean(axis=0), 3)}")

# The same latent configuration scores differently under the two joints;
# their disagreement is exactly what training shrinks.  One sample is a
# batch of one row.
xs, layers = sample_p_batch(model, 1, rng)
x, arrays = xs[0], [a[0] for a in layers]
lp = log_joint_p(model, x, arrays)
lq = log_q_given_x(model, x, arrays)
print("\none sampled configuration")
print(f"  log p(x, h)  = {lp:.6f}")
print(f"  log q(h | x) = {lq:.6f}")
print(f"  half gap     = {0.5 * (lp - lq):.6f}  (its softmax over K draws weights the gradient)")
