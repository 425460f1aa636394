"""Top-down order reduction on data from a 6-dimensional system.

Starts at the largest candidate order and walks down, refitting at each
step, until the description length starts rising again.  The chosen order
is the minimizer over the evaluated orders.
"""
import ldsmdl as m

gen = m.random_stable_lds(m.RandomLdsConfig(d=6, d_out=1, seed=3))
data = m.simulate(gen, T=100, burn_in=20, seed=3)

cfg = m.EmConfig(eps=1e-2, max_iters=30, n_restarts=10, seed=0)
trace = m.annihilation_search(data, m.ModelOrderBounds(2, 12), cfg)

print("order  description length")
for r in trace.per_order:
    print("%5d  %10.3f" % (r.order, r.dl))
print("stopped early:", trace.stopped_early)
print("chosen order:", trace.chosen_order)

# a sweep of every order, with the same DL on the orders the walk visited
full = m.grid_search(data, m.ModelOrderBounds(2, 12), cfg)
print("full sweep chooses:", full.chosen_order)
