#!/usr/bin/env python3
"""Digest the seeded outputs of mixlr, to show that a change keeps their bits.

    PYTHONPATH=src python3 tools/output_digest.py > digest.txt

prints one line per output family: its name, the count of outputs, and
the SHA-256 of their reprs, once as they are and once with every
`function_evals` set to None. The source tree on PYTHONPATH is the one
digested, while the inputs come from this file's own checkout: run this
one file twice, with PYTHONPATH at the `src` of each of two checkouts, and
diff the two outputs to compare them. The families:

- `study_3p`: the records of the first 40 cases of the benchmark's
  `study_3p` pool at benchmark seed 1, each a `run_study` call;
- `int_2p`: the Hp and Hd `marginal_quadrature` results of the first 40
  `int_2p` rounds at benchmark seed 1;
- `quadrature`: Hp and Hd `marginal_quadrature` results, two levels from
  the default resolution, on the first 10 criterion-3 profiles under two
  model configs the benchmark does not reach: free c2 with back stutter,
  and free c2 with degradation, each peak given a fragment size;
- `monte_carlo`: Hp and Hd `marginal_monte_carlo` results at 10,000
  samples with free c2 on the same 10 profiles, each case seeded by its
  index, which reach the kernel's large calls without cells;
- `criterion_3`: the 100 `fit_both` reports of acceptance criterion 3;
- `criterion_4`: the 100 pairs of nested fits of acceptance criterion 4;
- `criteria_5_6`: the records of the two studies of criteria 5 and 6.

The inputs come from the builders of `tests/test_acceptance.py` and
`bench/workloads.py`. It runs in well under a minute on one core.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import fields, is_dataclass, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]

import test_acceptance as acceptance  # noqa: E402
import workloads  # noqa: E402
from mixlr.mle import SearchSpec, fit_both, maximize  # noqa: E402
from mixlr.integrate import PriorSpec, marginal_monte_carlo, marginal_quadrature  # noqa: E402
from mixlr.model import MassParams, ModelConfig, Peak, Profile, Proposition  # noqa: E402
from mixlr.study import run_study  # noqa: E402

BENCH_SEED = 1
ROUNDS = 40


def without_evals(value):
    """value with every dataclass field function_evals set to None, nested
    dataclasses and tuples included."""
    if isinstance(value, (tuple, list)):
        return type(value)(without_evals(v) for v in value)
    if not is_dataclass(value):
        return value
    changes = {
        f.name: None if f.name == "function_evals" else without_evals(getattr(value, f.name))
        for f in fields(value)
        if f.init
    }
    return replace(value, **changes)


def study_3p():
    bench = workloads.Study3p(BENCH_SEED)
    for study_seed, _ in bench.cases[:ROUNDS]:
        yield from run_study(bench.cfg, seed=study_seed)


def int_2p():
    bench = workloads.Int2p(BENCH_SEED)
    for k in range(ROUNDS):
        bench.run_round(k)
    for _, res_p, res_d in bench.results:
        yield res_p
        yield res_d


def quadrature():
    table, policy, cases = acceptance._synthetic_cases(10, seed=31)
    prior = PriorSpec(template_hi=3000.0)
    configs = (ModelConfig(back_stutter=True), ModelConfig(degradation=True))
    for prof, donors in cases:
        # fragment sizes 20 bp apart per repeat and 150 bp apart per locus
        sized = Profile(
            {
                locus: [
                    Peak(p.allele, p.height, size=100.0 + 150.0 * i + 20.0 * int(p.allele))
                    for p in prof.peaks(locus)
                ]
                for i, locus in enumerate(prof.loci)
            },
            prof.analytical_threshold,
        )
        hp = Proposition(noc=2, fixed_contributors={0: donors[0]}, label="Hp")
        for config in configs:
            for prop in (hp, Proposition(noc=2, label="Hd")):
                yield marginal_quadrature(
                    sized, prop, table, policy, config, prior, max_levels=2
                )


def monte_carlo():
    table, policy, cases = acceptance._synthetic_cases(10, seed=31)
    prior = PriorSpec(template_hi=3000.0)
    for i, (prof, donors) in enumerate(cases):
        hp = Proposition(noc=2, fixed_contributors={0: donors[0]}, label="Hp")
        for prop in (hp, Proposition(noc=2, label="Hd")):
            yield marginal_monte_carlo(prof, prop, table, policy, prior=prior, seed=i)


def criterion_3():
    table, policy, cases = acceptance._synthetic_cases(100, seed=31)
    for i, (prof, donors) in enumerate(cases):
        hp = Proposition(noc=2, fixed_contributors={0: donors[0]}, label="Hp")
        hd = Proposition(noc=2, label="Hd")
        spec = SearchSpec(n_starts=2, seed=i, xtol=1e-3, max_iter=150, boundary_passes=False)
        yield fit_both(prof, hp, hd, table, policy, search=spec)


def criterion_4():
    table, policy, cases = acceptance._synthetic_cases(100, seed=41)
    for i, (prof, _) in enumerate(cases):
        spec1 = SearchSpec(n_starts=2, seed=i, xtol=1e-3, max_iter=150)
        r1 = maximize(prof, Proposition(noc=1), table, policy, search=spec1)
        padded = MassParams(
            r1.params.templates + (0.0,),
            r1.params.variance_c2,
            degradation_slope=r1.params.degradation_slope,
        )
        spec2 = SearchSpec(n_starts=2, seed=i, xtol=1e-3, max_iter=150, extra_starts=(padded,))
        yield r1, maximize(prof, Proposition(noc=2), table, policy, search=spec2)


def criteria_5_6():
    for cfg, seed in acceptance.divergence_configs().values():
        yield from run_study(cfg, seed=seed)


FAMILIES = (
    study_3p, int_2p, quadrature, monte_carlo, criterion_3, criterion_4, criteria_5_6
)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    print("family count sha256 sha256_without_function_evals")
    for family in FAMILIES:
        outputs = list(family())
        stripped = [without_evals(out) for out in outputs]
        print(family.__name__, len(outputs), digest(outputs), digest(stripped), flush=True)


if __name__ == "__main__":
    main()
