"""
State space and branching ratios
================================

Walks through the 43 hyperfine Zeeman sublevels of the cesium D2 line and
the spontaneous-emission branching ratios that drive all of the pumping
kinetics: the dark-state condition (the vanishing pi coupling of the
F=4, m=0 sublevel to F'=4, m'=0) and the closed stretched-state channel.
"""

import numpy as np

from pumpsim.structure import (
    EXCITED_INDICES,
    GROUND_INDICES,
    STATES,
    Sublevel,
    branching_ratio,
    branching_table,
    write_branching_csv,
)

# %% the canonical enumeration
states = STATES
print(f"{len(states)} sublevels "
      f"({len(GROUND_INDICES)} ground + {len(EXCITED_INDICES)} excited):")
print("  ", " ".join(lv.label() for lv in states[:16]))
print("  ", " ".join(lv.label() for lv in states[16:]))

# %% the two structural anchors of the pumping scheme
dark = branching_ratio(Sublevel("e", 4, 0), Sublevel("g", 4, 0))
stretched = branching_ratio(Sublevel("e", 5, 5), Sublevel("g", 4, 4))
print(f"\npi coupling g4_m0 <-> e4_m0 (dark state):   {dark}")
print(f"decay e5_m5 -> g4_m4 (single open channel): {stretched}")

# %% every excited sublevel decays with unit total probability
table = branching_table()
row_sums = table[EXCITED_INDICES].sum(axis=1)
print(f"\nbranching row sums: min={row_sums.min():.15f} max={row_sums.max():.15f}")

# %% decay shares of each excited hyperfine level
for f, m in ((3, 0), (4, 0), (5, 0)):
    ei = [i for i in EXCITED_INDICES if states[i].f == f and states[i].m == m][0]
    to_g3 = sum(table[ei, gi] for gi in GROUND_INDICES if states[gi].f == 3)
    to_g4 = sum(table[ei, gi] for gi in GROUND_INDICES if states[gi].f == 4)
    print(f"F'={f}, m'={m}: {to_g3:.4f} to F=3, {to_g4:.4f} to F=4")

# %% dump the full table for inspection
write_branching_csv("branching_table.csv")
print("\nwrote branching_table.csv (27 rows x 16 ground columns)")

# %% optional picture of the table
try:
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 9))
    img = ax.imshow(table[np.ix_(EXCITED_INDICES, GROUND_INDICES)], aspect="auto")
    ax.set_xticks(range(16), [states[i].label() for i in GROUND_INDICES], rotation=90)
    ax.set_yticks(range(27), [states[i].label() for i in EXCITED_INDICES], fontsize=7)
    ax.set_xlabel("ground sublevel")
    ax.set_ylabel("excited sublevel")
    fig.colorbar(img, label="branching ratio")
    fig.tight_layout()
    fig.savefig("branching_table.png", dpi=150)
    print("wrote branching_table.png")
except ImportError:
    pass
