"""CSV/JSON ingestion and emission for profiles, frequency tables,
genotypes, study records, and calibration inputs.

Formats are deliberately plain: comma-separated with a header row, an
"EXCLUSION" sentinel wherever an LR of zero must survive a round trip,
and a sidecar JSON carrying the frequency database's N and per-locus k.
Every JSON artifact carries a format/version stamp so downstream readers
can detect drift.
"""

from __future__ import annotations

import csv
import hashlib
import json
from importlib.metadata import PackageNotFoundError, version as pkg_version
from typing import Mapping, Optional, Sequence

from .calibration import HA_LABEL, HP_LABEL
from .genotypes import FrequencyTable
from .model import Genotype, Peak, Profile
from .study import LrRecord

EXCLUSION = "EXCLUSION"
FORMAT_VERSION = 1
_AT_COMMENT = "# analytical_threshold="


def package_version() -> str:
    try:
        return pkg_version("mixlr")
    except PackageNotFoundError:
        return "unknown"


def output_metadata(seed: Optional[int] = None, config: object = None) -> dict:
    """Reproducibility stamp attached to every JSON artifact."""
    meta = {"format": FORMAT_VERSION, "version": package_version()}
    if seed is not None:
        meta["seed"] = seed
    if config is not None:
        blob = json.dumps(config, sort_keys=True, default=str).encode()
        meta["config_hash"] = hashlib.sha256(blob).hexdigest()[:16]
    return meta


def read_profile_csv(path: str, analytical_threshold: Optional[float] = None) -> Profile:
    """Profile from CSV columns locus, allele, height[, size].

    The analytical threshold comes from a leading comment line
    '# analytical_threshold=<v>' or the argument (argument wins).
    """
    loci: dict[str, list[Peak]] = {}
    at = analytical_threshold
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.startswith(_AT_COMMENT):
            file_at = float(first[len(_AT_COMMENT):].strip())
            if at is None:
                at = file_at
        else:
            fh.seek(0)
        reader = csv.DictReader(fh)
        for row in reader:
            size = row.get("size")
            loci.setdefault(row["locus"], []).append(
                Peak(
                    allele=row["allele"].strip(),
                    height=float(row["height"]),
                    size=float(size) if size not in (None, "") else None,
                )
            )
    if at is None:
        raise ValueError(f"{path}: no analytical threshold in file or argument")
    return Profile(loci, at)


def write_profile_csv(path: str, profile: Profile) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"{_AT_COMMENT}{profile.analytical_threshold}\n")
        w = csv.writer(fh)
        w.writerow(["locus", "allele", "height", "size"])
        for locus, peaks in profile.loci.items():
            for p in peaks:
                w.writerow([locus, p.allele, repr(p.height), "" if p.size is None else p.size])


def read_frequency_table(path: str, meta_path: Optional[str] = None) -> FrequencyTable:
    """Frequency table from CSV (locus, allele, frequency) plus sidecar JSON.

    The sidecar (default: <path>.meta.json) holds n_individuals and
    optionally per-locus n_allele_classes.
    """
    freqs: dict[str, dict[str, float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            freqs.setdefault(row["locus"], {})[row["allele"].strip()] = float(row["frequency"])
    meta_path = meta_path or f"{path}.meta.json"
    with open(meta_path) as fh:
        meta = json.load(fh)
    return FrequencyTable(
        freqs,
        n_individuals=int(meta["n_individuals"]),
        n_allele_classes=meta.get("n_allele_classes"),
    )


def write_frequency_table(path: str, table: FrequencyTable, meta_path: Optional[str] = None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["locus", "allele", "frequency"])
        for locus, freqs in table.frequencies.items():
            for allele, f in freqs.items():
                w.writerow([locus, allele, repr(f)])
    with open(meta_path or f"{path}.meta.json", "w") as fh:
        json.dump(
            {
                "n_individuals": table.n_individuals,
                "n_allele_classes": table.n_allele_classes,
                **output_metadata(),
            },
            fh,
            indent=2,
        )


def read_genotype_csv(path: str) -> dict[str, Genotype]:
    """One multi-locus genotype from CSV columns locus, allele1, allele2."""
    out: dict[str, Genotype] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            locus = row["locus"]
            if locus in out:
                raise ValueError(f"{path}: duplicate locus {locus}")
            out[locus] = Genotype(row["allele1"].strip(), row["allele2"].strip())
    return out


def write_genotype_csv(path: str, genotype: Mapping[str, Genotype]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["locus", "allele1", "allele2"])
        for locus, g in genotype.items():
            w.writerow([locus, g.alleles[0], g.alleles[1]])


_RECORD_COLUMNS = [
    "case_id", "donor_label", "engine", "log10_lr", "c2_hp", "c2_hd", "mixprop_divergence",
    "converged", "function_evals", "c2_on_face",
]


def write_records_csv(path: str, records: Sequence[LrRecord]) -> None:
    """Study records; an exclusion is the literal sentinel, never a number."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_RECORD_COLUMNS)
        for r in records:
            w.writerow(
                [
                    r.case_id,
                    r.donor_label,
                    r.engine,
                    EXCLUSION if r.log10_lr is None else repr(r.log10_lr),
                    "" if r.c2_hp is None else repr(r.c2_hp),
                    "" if r.c2_hd is None else repr(r.c2_hd),
                    "" if r.mixprop_divergence is None else repr(r.mixprop_divergence),
                    "" if r.converged is None else str(r.converged).lower(),
                    "" if r.function_evals is None else r.function_evals,
                    "" if r.c2_on_face is None else str(r.c2_on_face).lower(),
                ]
            )


def read_records_csv(path: str) -> list[LrRecord]:
    out: list[LrRecord] = []

    def opt(v, kind=float):
        return None if v in (None, "") else kind(v)

    def flag(v):
        return {"true": True, "false": False}.get(v)

    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            lr = row["log10_lr"]
            out.append(
                LrRecord(
                    case_id=int(row["case_id"]),
                    donor_label=row["donor_label"],
                    engine=row["engine"],
                    log10_lr=None if lr == EXCLUSION else float(lr),
                    c2_hp=opt(row.get("c2_hp")),
                    c2_hd=opt(row.get("c2_hd")),
                    mixprop_divergence=opt(row.get("mixprop_divergence")),
                    converged=flag(row.get("converged")),
                    function_evals=opt(row.get("function_evals"), int),
                    c2_on_face=flag(row.get("c2_on_face")),
                )
            )
    return out


def read_calibration_csv(path: str) -> dict[str, list[tuple[Optional[float], str]]]:
    """Labelled LRs for calibration, optionally grouped by a system tag.

    Columns: log10_lr (number or EXCLUSION), label (HP|HA), optional
    system. Ungrouped files come back under the single key ''.
    """
    out: dict[str, list[tuple[Optional[float], str]]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            label = row["label"].strip().upper()
            if label not in (HP_LABEL, HA_LABEL):
                raise ValueError(f"{path}: unknown label {label!r}")
            lr = row["log10_lr"].strip()
            value = None if lr == EXCLUSION else float(lr)
            out.setdefault(row.get("system", "") or "", []).append((value, label))
    return out


def write_calibration_csv(path: str, result: dict) -> None:
    """The bin table of one calibration run."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["lo", "hi", "count_hp", "count_ha", "p_lo", "p_hi",
             "observed", "ci_lo", "ci_hi", "verdict"]
        )
        for b in result["bins"]:
            w.writerow(
                [b.lo, b.hi, b.count_hp, b.count_ha, repr(b.p_lo), repr(b.p_hi),
                 "" if b.observed is None else repr(b.observed),
                 "" if b.ci_lo is None else repr(b.ci_lo),
                 "" if b.ci_hi is None else repr(b.ci_hi),
                 b.verdict]
            )


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
