"""
Two convex functions attached to a monotone graph
=================================================

A finite monotone graph in the plane (x, x*) carries two canonical convex
functions: the affine sup phi and the coupling envelope psi. On the graph
both pin to the coupling <x, x*>; off the graph they spread apart. This
script evaluates both on a small staircase and shows why the staircase is
not representable through its own envelope.
"""

from monokit import (
    DEFAULT_TOL,
    FiniteGraph,
    GridSpec,
    coupling,
    coupling_band,
    is_representative,
    pdp,
    penot_envelope,
    phi_eval,
    psi_eval,
    scan_grid,
    whole_space,
)

# ---- the staircase: flat step, then a jump onto the diagonal ----
points = [pdp([0.0], [0.0]), pdp([0.5], [1.0]), pdp([1.0], [1.0])]
T = FiniteGraph(points)
V = whole_space(1)
g = GridSpec(resolution=21, dual_bound=2.0, dual_resolution=21,
             ambient_bound=2.0)

print("graph points and the values both functions take there")
for w in points:
    print(f"  z = ({w.x[0]:+.2f}, {w.xstar[0]:+.2f})"
          f"  coupling = {coupling(w):+.3f}"
          f"  phi = {phi_eval(T, V, w):+.3f}"
          f"  psi = {psi_eval(T, V, w):+.3f}")

# ---- off the graph the two functions separate ----
probes = [pdp([0.25], [0.5]), pdp([0.75], [1.0]), pdp([1.0], [0.0])]
print("\noff-graph probes (phi <= psi always; both may leave the coupling)")
for z in probes:
    print(f"  z = ({z.x[0]:+.2f}, {z.xstar[0]:+.2f})"
          f"  coupling = {coupling(z):+.3f}"
          f"  phi = {phi_eval(T, V, z):+.3f}"
          f"  psi = {psi_eval(T, V, z):+.3f}")

# ---- where does the envelope touch the coupling? ----
env, exact = penot_envelope(T, V, g)
band = coupling_band(env, scan_grid(whole_space(1), g), DEFAULT_TOL)
print(f"\nenvelope touches the coupling at {len(band)} grid points")
segment = [z for z in band if 0.5 < z.x[0] < 1.0]
print(f"  {len(segment)} of them sit strictly between the last two primals")
if segment:
    z = segment[0]
    print(f"  example: ({z.x[0]:+.2f}, {z.xstar[0]:+.2f}),"
          " which is not a graph point")

# the band leaking past the graph is exactly what representability forbids
report = is_representative(env, T, whole_space(1), g, DEFAULT_TOL)
print(f"\nenvelope represents the graph: {report.value}")
if report.witnesses:
    w = report.witnesses[0]
    print(f"  first mismatch witness: ({w.x[0]:+.2f}, {w.xstar[0]:+.2f})")

# ---- a two-point diagonal piece, for contrast, is representable ----
D = FiniteGraph([pdp([0.0], [0.0]), pdp([1.0], [1.0])])
env_d, _ = penot_envelope(D, V, g)
report_d = is_representative(env_d, D, whole_space(1), g, DEFAULT_TOL)
print(f"\ndiagonal pair for comparison: {report_d.value}")
