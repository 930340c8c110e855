"""Record the certify references: the certified minimum of every certify
search (germ, program seed) as the current code computes it.

A later change may lower a minimum but not raise it by more than 1e-6
relative; the certify jobs check this. Regenerate only when a change is
meant to move the minima, and say why in its description.

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads  # noqa: E402

NAMES = ("brieskorn", "brieskorn3", "mixed", "mixed_linear")


def main() -> int:
    germs = {name: workloads.germ.parse_germ(*workloads.GERMS[name])
             for name in NAMES}
    table = {}
    for name in NAMES:
        g = germs[name]
        table[name] = {}
        for s in range(workloads.REFERENCE_SEEDS):
            rep = workloads.certify_search(g, s, g.is_holomorphic)
            table[name][str(s)] = rep.min_defect
            print(f"{name} seed {s}: {rep.min_defect!r}", flush=True)
    doc = {"radius": workloads.RADIUS, "budget": workloads.CERTIFY_BUDGET,
           "polish_runs": workloads.CERTIFY_POLISH, "min_defect": table}
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
