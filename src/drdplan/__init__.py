"""Active edge evaluation for feasible-path identification.

Identify a collision-free path from a candidate library with as little
edge-evaluation cost as possible: an offline-compiled greedy policy over a
sampled world database narrows the posterior, and a closed-form
independent-Bernoulli policy completes episodes the database cannot
resolve.
"""
