"""Command-line entry point: toy benchmark, LR computation, simulation
studies, and calibration audits.

Every subcommand is reproducible from its flags, input files, and the
explicit seed; outputs carry a metadata stamp (format, version, seed,
config hash). Exit codes: 0 success, 2 I/O error, 3 golden-check
failure, 4 validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

from . import io as mio
from . import toy
from .calibration import calibrate, logit
from .genotypes import RareAllelePolicy
from .integrate import PriorSpec, lr_int, marginal_quadrature
from .likelihood import log10_ratio
from .mle import SearchSpec, fit_both, table3_report
from .model import HD, HP, ModelConfig, Proposition
from .study import StudyConfig, divergence_summary, run_study

EXIT_OK = 0
EXIT_IO = 2
EXIT_GOLDEN = 3
EXIT_VALIDATION = 4


class GoldenFailure(Exception):
    pass


def _parse_policy(text: str) -> RareAllelePolicy:
    t = text.lower()
    if t == "5over2n":
        return RareAllelePolicy.five_over_2n()
    if t == "betamean":
        return RareAllelePolicy.beta_mean()
    if t.startswith("fixed:"):
        return RareAllelePolicy.fixed(float(t.split(":", 1)[1]))
    raise ValueError(f"unknown policy {text!r} (want 5over2n, betamean, or fixed:<v>)")


def _from_json(cls, raw, what: str, **given):
    """cls built from a JSON object, with JSON arrays as tuples and the
    keyword arguments in `given` added. An unknown key, or a value of a
    type the class cannot check, is a ValueError that says so."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls) if f.name not in given})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    try:
        return cls(**values, **given)
    except TypeError as e:
        raise ValueError(f"{what}: {e}") from e


def _flags(args) -> dict:
    """The flags a run's config hash covers: all but the subcommand's handler
    and --out, which name no setting of the run."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out")}


def _load_model_config(path) -> ModelConfig:
    if path is None:
        return ModelConfig()
    with open(path) as fh:
        return _from_json(ModelConfig, json.load(fh), "model config")


def _load_proposition(path: str, default_label: str) -> Proposition:
    """Proposition from JSON: {"noc": int, "fixed": {"0": genotype-csv}, "label": ...}."""
    with open(path) as fh:
        spec = json.load(fh)
    fixed = {
        int(slot): mio.read_genotype_csv(os.path.join(os.path.dirname(path), rel))
        for slot, rel in spec.get("fixed", {}).items()
    }
    return Proposition(
        noc=int(spec["noc"]), fixed_contributors=fixed, label=spec.get("label", default_label)
    )


def _cmd_toy(args) -> int:
    reports = toy.toy_report(args.mode)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        grid = toy.toy_grid()
        stamp = mio.output_metadata(config={"mode": args.mode})
        mio.write_csv(
            os.path.join(args.out, "toy_grid.csv"),
            ["t1"] + [f"t2={t:g}" for t in toy.T2_LATTICE],
            ([f"{t1:g}", *grid[i]] for i, t1 in enumerate(toy.T1_LATTICE)),
            stamp,
        )
        payload = {name: asdict(rep) for name, rep in reports.items()}
        payload["metadata"] = stamp
        mio.write_json(os.path.join(args.out, "toy_report.json"), payload)
    for name, rep in reports.items():
        print(
            f"{name}: mle_h1={rep.mle_h1:.4f} mle_h2={rep.mle_h2:.4f} "
            f"lr_ml={rep.lr_ml:.4f} int_h1={rep.int_h1:.6g} "
            f"int_h2={rep.int_h2:.6g} lr_int={rep.lr_int:.6g}"
        )
    if args.check:
        failures = toy.check_golden()
        for f in failures:
            print(f"golden check FAIL: {f}", file=sys.stderr)
        if failures:
            raise GoldenFailure(f"{len(failures)} golden values out of tolerance")
        print("golden check passed")
    return EXIT_OK


def _cmd_lr(args) -> int:
    profile = mio.read_profile_csv(args.profile, args.at)
    table = mio.read_frequency_table(args.freq)
    policy = _parse_policy(args.policy)
    config = _load_model_config(args.config)
    hp = _load_proposition(args.hp, HP)
    hd = _load_proposition(args.hd, HD)
    out = {"metadata": mio.output_metadata(seed=args.seed, config=_flags(args))}
    if args.engine in ("mle", "both"):
        report = fit_both(
            profile, hp, hd, table, policy, config, SearchSpec(seed=args.seed)
        )
        out["mle"] = table3_report(report)
        for res in (report.numerator, report.denominator):
            for face, bound in (("c2_lo", "lower"), ("c2_hi", "upper")):
                if face in res.faces:
                    print(
                        f"warning: the {res.hypothesis} fit's c2 "
                        f"({res.params.variance_c2:g}) is on the {bound} bound of "
                        "c2_bounds; the MLE LR is limited by the box",
                        file=sys.stderr,
                    )
        shown = "EXCLUSION" if report.lr_ml == 0 else f"{report.log10_lr_ml:.4f}"
        print(f"MLE log10 LR: {shown}")
    if args.engine in ("int", "both"):
        prior = PriorSpec()
        num = marginal_quadrature(profile, hp, table, policy, config, prior)
        den = marginal_quadrature(profile, hd, table, policy, config, prior)
        ratio = lr_int(num, den)
        out["int"] = {
            "lr_int": ratio,
            "log10_lr_int": log10_ratio(num.log10_marginal, den.log10_marginal),
        }
        for tag, res in (("hp", num), ("hd", den)):
            out["int"].update(
                {
                    f"marginal_{tag}": res.marginal,
                    f"log10_marginal_{tag}": res.log10_marginal,
                    f"converged_{tag}": res.converged,
                    f"levels_{tag}": res.levels,
                    f"resolution_{tag}": res.resolution,
                }
            )
            if not res.converged:
                print(
                    f"warning: the {res.hypothesis} marginal did not converge after "
                    f"{res.levels} levels ({res.resolution} points per axis); "
                    "the integrated LR is unconverged",
                    file=sys.stderr,
                )
        shown = "EXCLUSION" if ratio == 0 else f"{ratio:.6g}"
        print(f"Integrated LR: {shown}")
    if args.out:
        mio.write_json(args.out, out)
    return EXIT_OK


def _cmd_study(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    table = mio.read_frequency_table(
        os.path.join(os.path.dirname(args.config), raw.pop("freq"))
    )
    policy = _parse_policy(raw.pop("policy", "5over2n"))
    raw.pop("seed", None)
    nested = {
        key: _from_json(cls, raw[key], f"study {key}")
        for key, cls in (("config", ModelConfig), ("prior", PriorSpec))
        if key in raw
    }
    cfg = _from_json(
        StudyConfig, {k: v for k, v in raw.items() if k not in nested}, "study config",
        table=table, policy=policy, **nested,
    )
    records = run_study(cfg, seed=args.seed)
    summary = divergence_summary(records)
    for k in sorted(summary["groups"]):
        g = summary["groups"][k]
        fits = "".join(
            f" {name}={g['n_' + name]}"
            for name in ("nonconverged", "c2_on_face") if "n_" + name in g
        )
        print(f"{k}: n={g['n']} frac_lr>1={g['fraction_lr_gt_1']:.3f}{fits}")
    os.makedirs(args.out, exist_ok=True)
    summary["metadata"] = mio.output_metadata(seed=args.seed, config=raw)
    mio.write_records_csv(
        os.path.join(args.out, "records.csv"), records, summary["metadata"]
    )
    mio.write_json(os.path.join(args.out, "summary.json"), summary)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    grouped = mio.read_calibration_csv(args.records)
    if not grouped:
        raise ValueError("no calibration records")
    os.makedirs(args.out, exist_ok=True)
    verdicts = {"metadata": mio.output_metadata(config=_flags(args)), "systems": {}}
    for system, records in grouped.items():
        result = calibrate(records, bin_width=args.binwidth)
        tag = system or "all"
        mio.write_calibration_csv(
            os.path.join(args.out, f"calibration_{tag}.csv"), result, verdicts["metadata"]
        )
        # the band's logit is log10 posterior odds: log10 LR plus log10 prior odds
        log10_prior = math.log10(result["prior_odds"])
        mio.write_csv(
            os.path.join(args.out, f"plotdata_{tag}.csv"),
            ["bin_center", "logit_observed", "logit_p_lo", "logit_p_hi"],
            (
                [(b.lo + b.hi) / 2, logit(b.observed), b.lo + log10_prior, b.hi + log10_prior]
                for b in result["bins"]
                if b.observed is not None and 0 < b.observed < 1
            ),
            verdicts["metadata"],
        )
        verdicts["systems"][tag] = {
            "n_hp": result["n_hp"],
            "n_ha": result["n_ha"],
            "n_miss": result["n_miss"],
            "excluded_counts": result["excluded_counts"],
            "misses": [
                [b.lo, b.hi] for b in result["bins"] if b.verdict == "MISS"
            ],
        }
        print(f"{tag}: {result['n_miss']} MISS bins of {len(result['bins'])}")
    mio.write_json(os.path.join(args.out, "verdicts.json"), verdicts)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mixlr", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("toy", help="run the two-peak benchmark")
    t.add_argument("--mode", choices=["lattice", "refined", "both"], default="both")
    t.add_argument("--out", help="output directory for grid CSV + report JSON")
    t.add_argument("--check", action="store_true", help="verify golden values (exit 3 on miss)")
    t.set_defaults(func=_cmd_toy)

    l = sub.add_parser("lr", help="compute an LR for one profile")
    l.add_argument("--profile", required=True)
    l.add_argument("--freq", required=True)
    l.add_argument("--hp", required=True, help="proposition JSON")
    l.add_argument("--hd", required=True, help="proposition JSON")
    l.add_argument("--engine", choices=["mle", "int", "both"], default="both")
    l.add_argument("--policy", default="5over2n", help="5over2n | betamean | fixed:<v>")
    l.add_argument("--config", help="model-config JSON")
    l.add_argument("--at", type=float, help="analytical threshold override")
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--out", help="JSON report path")
    l.set_defaults(func=_cmd_lr)

    s = sub.add_parser("study", help="run a seeded divergence study")
    s.add_argument("--config", required=True, help="study-config JSON")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_study)

    c = sub.add_parser("calibrate", help="calibration audit of labelled LRs")
    c.add_argument("--records", required=True)
    c.add_argument("--binwidth", type=float, default=1.0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_calibrate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GoldenFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GOLDEN
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
