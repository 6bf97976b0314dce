"""CSV/JSON ingestion and emission for profiles, frequency tables,
genotypes, study records, and calibration inputs.

Formats are deliberately plain: comma-separated with a header row, an
"EXCLUSION" sentinel wherever an LR of zero must survive a round trip,
and a sidecar JSON carrying the frequency database's N and per-locus k.
Every JSON artifact carries a format/version stamp so downstream readers
can detect drift, and every CSV artifact carries it in a <file>.meta.json
sidecar.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import astuple, fields
from importlib.metadata import PackageNotFoundError, version as pkg_version
from typing import Iterable, Mapping, Optional, Sequence, get_args, get_type_hints

import numpy as np

from .calibration import HA_LABEL, HP_LABEL, CalibrationBin
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
    """Reproducibility stamp attached to every artifact; a config that is
    not JSON raises TypeError."""
    meta = {"format": FORMAT_VERSION, "version": package_version()}
    if seed is not None:
        meta["seed"] = seed
    if config is not None:
        blob = json.dumps(config, sort_keys=True).encode()
        meta["config_hash"] = hashlib.sha256(blob).hexdigest()[:16]
    return meta


def write_stamp(path: str, metadata: Optional[dict] = None) -> None:
    """Write the reproducibility stamp of a CSV artifact beside it, as
    <path>.meta.json; the default stamp carries no seed or config hash."""
    write_json(f"{path}.meta.json", metadata or output_metadata())


def _cell(v: object) -> object:
    """The one rule for a CSV cell: None is empty, a bool true/false, a float
    (numpy scalars included) its repr, anything else itself."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def write_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence], metadata: Optional[dict] = None
) -> None:
    """A stamped CSV artifact: header, then rows cell by cell through _cell,
    then the stamp (metadata, by default output_metadata()) in the sidecar."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)
    write_stamp(path, metadata)


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


def read_frequency_table(path: str) -> FrequencyTable:
    """Frequency table from CSV (locus, allele, frequency) plus sidecar JSON.

    The sidecar <path>.meta.json holds n_individuals and optionally
    per-locus n_allele_classes.
    """
    freqs: dict[str, dict[str, float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            freqs.setdefault(row["locus"], {})[row["allele"].strip()] = float(row["frequency"])
    with open(f"{path}.meta.json") as fh:
        meta = json.load(fh)
    return FrequencyTable(
        freqs,
        n_individuals=int(meta["n_individuals"]),
        n_allele_classes=meta.get("n_allele_classes"),
    )


def write_frequency_table(path: str, table: FrequencyTable):
    rows = ([l, a, f] for l, freqs in table.frequencies.items() for a, f in freqs.items())
    sidecar = {"n_individuals": table.n_individuals, "n_allele_classes": table.n_allele_classes}
    write_csv(path, ["locus", "allele", "frequency"], rows, {**sidecar, **output_metadata()})


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


def write_records_csv(
    path: str, records: Sequence[LrRecord], metadata: Optional[dict] = None
) -> None:
    """Study records, one column per LrRecord field in declaration order; an
    exclusion is the literal sentinel, never a number."""
    names = [f.name for f in fields(LrRecord)]
    rows = (
        [EXCLUSION if n == "log10_lr" and r.excluded else getattr(r, n) for n in names]
        for r in records
    )
    write_csv(path, names, rows, metadata)


_BOOLS = {"true": True, "false": False}


def _decode(name: str, text: Optional[str], hint) -> object:
    """One records cell read back by its field's annotation; the inverse of
    write_records_csv."""
    optional = type(None) in get_args(hint)
    if optional and text in (None, EXCLUSION if name == "log10_lr" else ""):
        return None
    kind = get_args(hint)[0] if optional else hint
    return _BOOLS[text] if kind is bool else kind(text)


def read_records_csv(path: str) -> list[LrRecord]:
    """Records written by write_records_csv; a column missing from the file
    gives its field's default."""
    hints = get_type_hints(LrRecord)
    with open(path, newline="") as fh:
        return [
            LrRecord(**{k: _decode(k, v, hints[k]) for k, v in row.items() if k in hints})
            for row in csv.DictReader(fh)
        ]


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


def write_calibration_csv(path: str, result: dict, metadata: dict) -> None:
    """The bin table of one calibration run, one column per CalibrationBin
    field in declaration order, with its stamp in the sidecar."""
    names = [f.name for f in fields(CalibrationBin)]
    write_csv(path, names, map(astuple, result["bins"]), metadata)


def write_json(path: str, payload: dict) -> None:
    """payload as indented JSON. A value JSON cannot hold raises TypeError
    before the file is opened, so no file is left."""
    text = json.dumps(payload, indent=2)
    with open(path, "w") as fh:
        fh.write(text)
