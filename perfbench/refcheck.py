"""Compare a workload's output CSV with the reference recorded at the seed commit.

A reference holds every cell of the output with an absolute tolerance:
0 for labels and exact inputs; 1e-9 relative for quantum-side values; 1e-6
relative for resolvent values; and 4 standard errors for anything the
transport Monte Carlo feeds into.  Bitwise equality (same file hash) is
reported next to the verdict but never gates it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

QUANTUM_RTOL = 1e-9
RESOLVENT_RTOL = 1e-6
TRANSPORT_SIGMAS = 4.0


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _num(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def tolerances(workload: str, header, rows, transport) -> list:
    """Per-cell absolute tolerances; `transport` is [(value, stderr, stderr_of_stderr)].

    ensemble: one transport value (the solution at T), repeated per coupling.
    timegrid: one transport value per tau, shared by every coupling; each
    deviation |w - mu| carries the quantum and transport errors of its tau.
    """
    col = {name: i for i, name in enumerate(header)}
    if workload == "timegrid":
        taus = sorted({float(r[col["tau"]]) for r in rows})
    tols = []
    for row in rows:
        x = [_num(c) for c in row]
        t = [0.0] * len(row)
        if workload == "resolvent":
            t[col["value"]] = RESOLVENT_RTOL * abs(x[col["value"]])
        elif workload == "ensemble":
            _, se, se_se = transport[0]
            q = abs(x[col["quantum_mean"]])
            t[col["quantum_mean"]] = QUANTUM_RTOL * q
            t[col["quantum_stderr"]] = QUANTUM_RTOL * abs(x[col["quantum_stderr"]])
            t[col["boltzmann"]] = TRANSPORT_SIGMAS * se
            t[col["boltzmann_stderr"]] = TRANSPORT_SIGMAS * se_se
            t[col["difference"]] = TRANSPORT_SIGMAS * se + QUANTUM_RTOL * q
            t[col["combined_error"]] = (
                TRANSPORT_SIGMAS * se_se + QUANTUM_RTOL * abs(x[col["combined_error"]])
            )
        else:
            mu, se, _ = transport[taus.index(x[col["tau"]])]
            t[col["deviation"]] = TRANSPORT_SIGMAS * se + QUANTUM_RTOL * (
                abs(x[col["deviation"]]) + abs(mu)
            )
        tols.append(t)
    if workload == "timegrid":
        # sup_deviation is the largest deviation of its coupling: take the
        # widest tolerance among that coupling's rows
        lam_i, dev_i, sup_i = col["lam"], col["deviation"], col["sup_deviation"]
        for r, t in zip(rows, tols):
            t[sup_i] = max(tt[dev_i] for rr, tt in zip(rows, tols) if rr[lam_i] == r[lam_i])
    return tols


def make_reference(workload: str, output_path, transport) -> dict:
    header, rows = read_rows(output_path)
    return {
        "workload": workload,
        "output": Path(output_path).name,
        "sha256": file_sha256(output_path),
        "header": header,
        "rows": rows,
        "tolerances": tolerances(workload, header, rows, transport),
    }


def check(reference: dict, output_path) -> dict:
    """Verdict for one output file: ok, bitwise, worst |diff|/tolerance, first mismatch."""
    verdict = {"ok": False, "bitwise": False, "tolerance_used": 0.0, "mismatch": None}
    path = Path(output_path)
    if not path.is_file():
        verdict["mismatch"] = f"missing output {path.name}"
        return verdict
    verdict["bitwise"] = file_sha256(path) == reference["sha256"]
    header, rows = read_rows(path)
    if header != reference["header"] or len(rows) != len(reference["rows"]):
        verdict["mismatch"] = "header or row count differs from the reference"
        return verdict
    worst = 0.0
    for i, (row, ref_row, tol_row) in enumerate(zip(rows, reference["rows"], reference["tolerances"])):
        for name, cell, ref, tol in zip(header, row, ref_row, tol_row):
            got, want = _num(cell), _num(ref)
            if want is None or got is None:
                bad = cell != ref
            elif math.isnan(want):
                bad = not math.isnan(got)
            else:
                diff = abs(got - want)
                bad = not diff <= tol
                if tol > 0:
                    worst = max(worst, diff / tol)
            if bad:
                verdict["mismatch"] = f"row {i} {name}: {cell} vs reference {ref} (tolerance {tol:.3g})"
                return verdict
    verdict["ok"] = True
    verdict["tolerance_used"] = worst
    return verdict
