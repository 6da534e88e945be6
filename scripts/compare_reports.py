#!/usr/bin/env python3
"""Compare two directories of lfgeom reports leaf by leaf.

Usage:
    python3 scripts/compare_reports.py DIR_A DIR_B

Pairs the same-named ``*.json`` and ``*.csv`` files of the two
directories and walks every JSON leaf and every CSV cell.  For each file
it prints ``identical`` when the two files are byte-identical, and
otherwise the worst relative float difference |a - b| / max(|a|, |b|)
and where it occurs (relative at every size, so a leaf below 1 is not
compared in absolute terms; a leaf that moves off or onto 0 reads 1),
then the worst difference of each leaf class that moved: the leaf path
with list indices and CSV row numbers as ``*``.
Every other leaf -- a verdict, a count, a string, a key set or a list
length -- must match exactly; each mismatch is printed.  A CSV whose row
count differs is one ``rows: A != B`` mismatch, and its cells are not
paired.  So the ``runs.json`` that ``scripts/snapshot_reports.py`` writes
pins each run's exit code and stderr text exactly.  Last, over all files,
the worst difference of each leaf class and the file it occurs in.  Exit
code 1 if the file sets differ or any such leaf differs, 2 if a directory
is missing, 0 otherwise.
"""

import csv
import json
import math
import re
import sys
from pathlib import Path


def _cell(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _leaves(obj, path=""):
    """(path, value) for every leaf; an empty container is a leaf too."""
    if isinstance(obj, dict) and obj:
        for key, val in obj.items():
            yield from _leaves(val, f"{path}.{key}" if path else key)
    elif isinstance(obj, list) and obj:
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _load(path):
    if path.suffix == ".json":
        return dict(_leaves(json.loads(path.read_text())))
    rows = list(csv.reader(path.open(newline="")))
    header = rows[0] if rows else []
    out = {"header": header, "rows": len(rows) - 1}
    for r, row in enumerate(rows[1:], start=1):
        for c, text in enumerate(row):
            out[f"row {r}.{header[c] if c < len(header) else c}"] = _cell(text)
    return out


def _leaf_class(key):
    """The leaf path with list indices and CSV row numbers replaced by ``*``."""
    return re.sub(r"^row \d+\.", "row *.", re.sub(r"\[\d+\]", "[*]", key))


def _rel_diff(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_file(path_a, path_b):
    """Return (worst float diff, its path, list of non-float mismatches,
    {leaf class: worst float diff} of the classes that moved)."""
    la, lb = _load(path_a), _load(path_b)
    if path_a.suffix == ".csv" and la["rows"] != lb["rows"]:   # the cells do not pair
        la, lb = ({k: v for k, v in d.items() if not k.startswith("row ")} for d in (la, lb))
    worst, where, bad, classes = 0.0, "-", [], {}
    for key in sorted(set(la) | set(lb)):
        if key not in la or key not in lb:
            bad.append(f"{key}: only in {'B' if key not in la else 'A'}")
            continue
        a, b = la[key], lb[key]
        floats = (isinstance(a, float) or isinstance(b, float)) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
        if floats:
            diff = _rel_diff(float(a), float(b))
            if diff > worst:
                worst, where = diff, key
            cls = _leaf_class(key)
            if diff > classes.get(cls, 0.0):
                classes[cls] = diff
        elif a != b or type(a) is not type(b):
            bad.append(f"{key}: {a!r} != {b!r}")
    return worst, where, bad, classes


def _report_names(directory):
    return {p.name for p in directory.iterdir() if p.suffix in (".json", ".csv")}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_reports.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = Path(argv[0]), Path(argv[1])
    for directory in (dir_a, dir_b):
        if not directory.is_dir():
            print(f"compare_reports.py: {directory} is not a directory", file=sys.stderr)
            return 2
    names_a, names_b = _report_names(dir_a), _report_names(dir_b)
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {'A' if name in names_a else 'B'}")
    failed = names_a != names_b
    overall = {}
    for name in sorted(names_a & names_b):
        if (dir_a / name).read_bytes() == (dir_b / name).read_bytes():
            print(f"{name}: identical")
            continue
        worst, where, bad, classes = compare_file(dir_a / name, dir_b / name)
        print(f"{name}: worst rel diff {worst:.3g} at {where}")
        for cls, diff in sorted(classes.items()):
            print(f"  class {cls}: worst rel diff {diff:.3g}")
            if diff > overall.get(cls, (0.0,))[0]:
                overall[cls] = diff, name
        for line in bad:
            print(f"  MISMATCH {line}")
        failed = failed or bool(bad)
    for cls, (diff, name) in sorted(overall.items()):
        print(f"all files: class {cls}: worst rel diff {diff:.3g} in {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
