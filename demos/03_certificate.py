"""Stretch certificates: scheduling constants and detecting stretched pairs.

For a bilipschitz bound L and amplitude c the scheduler picks a constant
tuple (N, M, k, l, m, mu, eps) satisfying three inequalities at once; the
feasibility report shows each inequality with its safety margin.  The same
constants drive evaluate_stretch, which scans every horizontal marked pair
of a map for a stretch ratio at or above (1+k) times the base stretch.
"""

from bknet import (
    evaluate_stretch,
    feasibility_report,
    marked_grid,
    required_depth,
    schedule_constants,
    toy_constants,
)

for L, c in ((1.1, 0.01), (2.0, 0.1), (5.0, 1.0)):
    consts = schedule_constants(L, c)
    rep = feasibility_report(consts)
    print(f"L={L}, c={c}:  N={consts.N:.3e}  M={consts.M}  "
          f"k={consts.k:.3e}  l={consts.l:.3e}")
    for key in ("claim1", "claim2", "claim3"):
        r = rep[key]
        print(f"  {key:13s} lhs {r['lhs']:.3e}  rhs {r['rhs']:.3e}  "
              f"margin {r['margin']:.2%}  pass={r['pass']}")
    r = rep["epsilon_caps"]
    print(f"  epsilon_caps  eps {r['eps']:.3e}  "
          f"caps {r['mu_over_N2']:.3e}/{r['c_over_8N2L2']:.3e}  "
          f"margin {r['margin']:.2%}  pass={r['pass']}")
    print("  hierarchy depth needed to exhaust L:", required_depth(L, consts.k))

# desk-scale detection: perturb one marked vertex by half a grid step
N, M = 4, 2
consts = toy_constants(2.0, 1.0, N=N, M=M)
grid = marked_grid(N, M)
NM = N * M
target = (3 / NM, 1 / NM)


def f(p):
    if p == target:
        return (p[0] + 1.0 / (2 * NM), p[1])
    return p


report = evaluate_stretch(f, grid, consts)
print("\nplanted perturbation at", target)
print("flagged:", report.any_flagged,
      " pair:", report.flagged_pair,
      " ratio:", report.flagged_ratio)
