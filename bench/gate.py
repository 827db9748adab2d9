"""Correctness gate applied to every pass.

An equilibrium counts as failed when the pass raised, when its returned
certificate does not hold, when re-certifying its allocation with
``check_nash`` at the default tolerances fails, when a perfect-mode
potential trace drops by more than 1e-9 * |Phi|, or when its welfare
misses the stored reference.  A sweep row also fails when it reports
``error=``.  Passes of one run solve the same input, so their answers and
the sweep's CSV, .dat and row-JSON bytes must be identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import cme
from cme.scenario import allocation_from_dict, allocation_to_dict, config_from_dict

# Reference welfare is matched to this relative tolerance.  Float noise moves
# Phi by about 1e-14 (reordered sums, a differently written allocator); a
# different equilibrium moves it by far more than 1e-9.
PHI_RTOL = 1e-9
TRACE_RTOL = 1e-9

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_reference(workload: str, seed: int) -> dict | None:
    refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return refs.get(workload, {}).get(str(seed))


def trace_drops(trace) -> list[int]:
    """Indices where a perfect-mode potential trace decreases beyond noise."""
    return [k for k in range(1, len(trace))
            if trace[k] - trace[k - 1] < -TRACE_RTOL * abs(trace[k - 1])]


def check_equilibrium(label, mode, eq, cfg, search, certify: bool) -> list[tuple]:
    """(label, message) failures of one returned equilibrium."""
    fails = []
    if not eq.certificate.holds:
        fails.append((label, f"returned certificate fails, worst {eq.certificate.worst()}"))
    if certify:
        cert = cme.check_nash(eq.omega, cfg, mode, search=search)
        if not cert.holds:
            fails.append((label, f"allocation does not certify, worst {cert.worst()}"))
    drops = trace_drops(eq.potential_trace) if mode is cme.GameMode.PERFECT else []
    if drops:
        fails.append((label, f"perfect potential trace decreases at rounds {drops}"))
    return fails


def check_sweep_row(row: dict, search, certify: bool) -> tuple[list[str], list[tuple]]:
    """(equilibrium labels, failures) for one sweep row."""
    row_label = f"N{row['n']}_r{row['replicate']}"
    labels = [f"{row_label}.{m.value}" for m in (cme.GameMode.PERFECT, cme.GameMode.IMPERFECT)]
    if row["converged_flags"].startswith("error") or row["detail"] is None:
        return labels, [(lab, f"sweep row failed: {row['converged_flags']}") for lab in labels]
    detail = row["detail"]
    cfg = config_from_dict(detail["config"])
    fails = []
    for label, mode in zip(labels, (cme.GameMode.PERFECT, cme.GameMode.IMPERFECT)):
        part = detail[mode.value]
        if not part["certificate"]["holds"]:
            fails.append((label, "returned certificate fails"))
        if certify:
            omega = allocation_from_dict(part["allocation"])
            cert = cme.check_nash(omega, cfg, mode, search=search)
            if not cert.holds:
                fails.append((label, f"allocation does not certify, worst {cert.worst()}"))
    return labels, fails


def check_reference(phi: dict, ref: dict | None, rtol: float = PHI_RTOL) -> list[tuple]:
    """(label, message) for every welfare that misses its stored reference."""
    if ref is None:
        return []
    fails = []
    for label, want in ref.items():
        got = phi.get(label)
        if got is None or not math.isclose(got, want, rel_tol=rtol, abs_tol=0.0):
            fails.append((label, f"welfare {got!r} misses reference {want!r} (rtol {rtol:g})"))
    return fails


def check_pass(result, search, certify: bool, ref: dict | None
               ) -> tuple[list[str], list[tuple]]:
    """(labels of the equilibria attempted, (label, message) failures) for one pass."""
    labels, fails = [], []
    for label, mode, eq, cfg in result.equilibria:
        labels.append(label)
        fails += check_equilibrium(label, mode, eq, cfg, search, certify)
    for row in result.sweep_rows:
        row_labels, row_fails = check_sweep_row(row, search, certify)
        labels += row_labels
        fails += row_fails
    fails += check_reference(result.phi, ref)
    return labels, fails


def answer_digest(result) -> str:
    """Hash of everything a pass returned; equal inputs must give equal digests."""
    h = hashlib.sha256()
    for label, mode, eq, _ in result.equilibria:
        h.update(json.dumps([label, mode.value, repr(eq.welfare),
                             [repr(v) for v in eq.potential_trace],
                             allocation_to_dict(eq.omega)],
                            sort_keys=True).encode())
    h.update(json.dumps(result.digests, sort_keys=True).encode())
    return h.hexdigest()
