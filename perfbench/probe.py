"""Set-up probe: import the CLI and build one workload's manufactured case.

    python3 perfbench/probe.py CONFIG.json [--ndof]

Prints one JSON line: ``ready``, the system-wide monotonic time at which
``platevem.cli`` is imported and the config's case (sympy derivation and
lambdify) is built, so the caller measures set-up from its own launch
time; the library versions; and with ``--ndof`` the number of unknowns
of the config's first mesh, computed after ``ready`` is taken.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    cfg = json.loads(open(argv[0]).read())
    import platevem.cli  # noqa: F401  (the import cost is part of set-up)
    from platevem.manufactured import get_case
    case = get_case(cfg["case"], k=cfg["k"], l=cfg["l"])
    ready = time.monotonic()

    import numpy
    import platevem
    import scipy
    import sympy
    doc = {"ready": ready,
           "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "sympy": sympy.__version__,
                        "platevem": platevem.__version__}}
    if "--ndof" in argv[1:]:
        from platevem.mesh import generate_voronoi
        from platevem.runner import spaces_for
        from platevem.spaces import Family, build_dof_map
        mesh_cfg = cfg["mesh"]
        mesh = generate_voronoi(mesh_cfg["n0"], lloyd_iters=mesh_cfg["lloyd"],
                                seed=cfg["seed"], labeler=case.labeler)
        spaces = spaces_for(Family[cfg["family"].upper()], cfg["k"], cfg["l"])
        doc["ndof"] = sum(build_dof_map(mesh, s).ndof for s in spaces)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
