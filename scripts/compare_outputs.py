#!/usr/bin/env python3
"""Compare two scripts/dump_outputs.py directories entry by entry.

    python3 scripts/compare_outputs.py A B

For each CSV it prints, per column group (``t``, ``social_cost``,
``total_excess``, ``w_omega_*``, ``n_*``, ``flow_*``, ``cost_*`` and the
signal's ``ulo_*``/``uhi_*``), how many entries differ and the largest
relative difference.  Every ``.bin`` file is compared as float64
entries; for a run with a CSV this also covers what the CSV leaves out
(an abstract run's costs).  A file with the same bytes on both sides is
reported as identical.

Exits 1 when a file is missing on either side, when a file's shape
differs, or when any entry differs by more than 1e-12 relative (the
bound for floating-point reorderings); exits 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

REL_BOUND = 1e-12


def _group(column: str) -> str:
    if column.startswith(("ulo_", "uhi_")):
        return "ulo_*/uhi_*"
    for prefix in ("w_omega_", "n_", "flow_", "cost_"):
        if column.startswith(prefix):
            return prefix + "*"
    return column


def _rel_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|) per entry: 0 where equal (NaN included),
    inf where only one side is NaN or infinite."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where(same, 0.0, rel)
    return np.where(np.isnan(rel), np.inf, rel)


def _line(label: str, differ: np.ndarray, rel: np.ndarray) -> str:
    worst = float(rel.max()) if rel.size else 0.0
    return (f"  {label:<13} {int(differ.sum())} of {differ.size} differ, "
            f"max rel {worst:.3g}")


def _compare_csv(a: Path, b: Path) -> tuple[list[str], float]:
    rows_a = list(csv.reader(a.open()))
    rows_b = list(csv.reader(b.open()))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b) \
            or any(len(r) != len(rows_a[0]) for r in rows_a + rows_b):
        return ["  header or shape differs"], np.inf
    text_a = np.array(rows_a[1:], dtype=object).reshape(-1, len(rows_a[0]))
    text_b = np.array(rows_b[1:], dtype=object).reshape(text_a.shape)
    differ = text_a != text_b
    rel = _rel_diff(text_a.astype(float), text_b.astype(float))
    groups: dict[str, list[int]] = {}
    for i, column in enumerate(rows_a[0]):
        groups.setdefault(_group(column), []).append(i)
    lines = [_line(name, differ[:, cols], rel[:, cols])
             for name, cols in groups.items()]
    return lines, float(rel.max()) if rel.size else 0.0


def _compare_bin(a: Path, b: Path) -> tuple[list[str], float]:
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if len(raw_a) != len(raw_b) or len(raw_a) % 8:
        return ["  size differs or is not whole float64 entries"], np.inf
    bits_a = np.frombuffer(raw_a, dtype=np.uint64)
    bits_b = np.frombuffer(raw_b, dtype=np.uint64)
    rel = _rel_diff(bits_a.view(np.float64), bits_b.view(np.float64))
    return ([_line("float64", bits_a != bits_b, rel)],
            float(rel.max()) if rel.size else 0.0)


def compare(dir_a: Path, dir_b: Path) -> tuple[list[str], bool]:
    """Report lines and whether the two dumps agree within the bound."""
    names_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    lines, ok = [], True
    for name in sorted(names_a ^ names_b):
        side = "A" if name in names_a else "B"
        lines.append(f"{name}: only in {side}")
        ok = False
    for name in sorted(names_a & names_b):
        a, b = dir_a / name, dir_b / name
        if a.read_bytes() == b.read_bytes():
            lines.append(f"{name}: identical")
            continue
        report, worst = (_compare_csv if name.endswith(".csv")
                         else _compare_bin)(a, b)
        lines.append(f"{name}:")
        lines.extend(report)
        if not worst <= REL_BOUND:
            ok = False
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    lines, ok = compare(args.a, args.b)
    print("\n".join(lines))
    print("within" if ok else "NOT within",
          f"rel {REL_BOUND:g} on every entry")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
