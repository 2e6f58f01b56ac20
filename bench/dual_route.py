"""The density_dual_route workload: Eisenstein coefficients two ways.

Calls only the public API of ``eistheta``:

* for k in (4, 6, 44), every rank-2 index of ``eisenstein_qexp(k, 2, 6)``
  is recomputed by ``local_density_coeff`` (acceptance criterion 7);
* ``direct_limit_coefficient`` ladders A2+A2 and A2+B7 along
  ``default_sequence(WeightTarget(7, 2, 0), 2)`` (acceptance criterion 4).

The seed picks the order in which indices are visited and a unimodular
change of basis for every form handed to the density route.  Both
functions reduce their input to the canonical representative first, so
the report does not depend on the seed.

    PYTHONPATH=src python bench/dual_route.py --seed 1 --out report.json

Functions are looked up on the ``eistheta`` package at call time, so a
tracer that rebinds them after import sees every call.
"""

from __future__ import annotations

import argparse
import json
import random

import eistheta
import eistheta.lattice

WEIGHTS = (4, 6, 44)
DEGREE, TRACE_BOUND = 2, 6
P, K, J, M_MAX = 7, 2, 0, 2
FORMS = {
    "A2+A2": [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
    "A2+B7": [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 4]],
}


def _frac(x):
    return {"num": str(x.numerator), "den": str(x.denominator)}


def random_unimodular(n, rng, steps=3):
    """A product of elementary matrices with small multipliers."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in U:
            row[j] += c * row[i]
    return U


def run(seed):
    rng = random.Random(seed)
    jobs = []
    for k in WEIGHTS:
        F = eistheta.eisenstein_qexp(k, DEGREE, TRACE_BOUND)
        for T, a in F.coeffs.items():
            if eistheta.lattice.form_rank(T) == DEGREE:
                jobs.append((k, T, a))
    rng.shuffle(jobs)
    binary = []
    for k, T, a in jobs:
        T_in = eistheta.lattice.transform(T, random_unimodular(len(T), rng))
        b = eistheta.local_density_coeff(T_in, k)
        binary.append({"k": k, "twoT": [list(r) for r in T],
                       "closed": _frac(a), "density": _frac(b)})
    binary.sort(key=lambda e: (e["k"], e["twoT"]))

    target = eistheta.WeightTarget(P, K, J)
    seq = eistheta.default_sequence(target, M_MAX)
    names = sorted(FORMS)
    rng.shuffle(names)
    direct = {}
    for name in names:
        S = eistheta.lattice.transform(FORMS[name], random_unimodular(4, rng))
        direct[name] = eistheta.direct_limit_coefficient(S, target, seq).to_doc()
    return {
        "workload": "density_dual_route",
        "binary": binary,
        "direct": {name: direct[name] for name in sorted(direct)},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    doc = run(args.seed)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
