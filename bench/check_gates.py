#!/usr/bin/env python3
"""Checks bench results against bench/gates.json, the one table of CI bounds.

    python3 bench/check_gates.py bench-out/BENCH_*.json [perfbench_result.json]

Prints each run beside the checked-in reference of the same name, then both
operands of every gate whose file was given, and exits 1 listing every
failed gate. A missing file or op fails; nothing is skipped.
"""
import json
import operator
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADLINE_FIELDS = ("ns_per_op", "decisions_per_sec")
# Bound key -> (printed relation, test). An exact boolean must be a boolean.
BOUNDS = {"min": (">=", operator.ge), "max": ("<=", operator.le),
          "equals": ("==", lambda x, want: x is want
                     if isinstance(want, bool) else x == want)}


class Missing(Exception):
    pass


def load(path):
    """Op name -> record for a bench array; {None: object} for one object."""
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict):
        return {None: data}
    return {r["op"]: r for r in data}


def print_reference(name, fresh):
    ref_path = os.path.join(ROOT, name)
    if None in fresh or not os.path.exists(ref_path):
        return
    ref = load(ref_path)
    print(f"{name} vs checked-in reference:")
    for op, rec in fresh.items():
        field = next((f for f in HEADLINE_FIELDS if f in rec), None)
        old = ref.get(op, {})
        if field in old:
            print(f"  {op:<52} {rec[field]:>12.6g} vs ref {old[field]:>12.6g}"
                  f" {field} (cpus {rec.get('cpus', '?')} vs "
                  f"{old.get('cpus', '?')})")
        else:
            print(f"  {op:<52} no reference")


def value(records, op, field):
    if op not in records:
        raise Missing(f"op {op!r} absent")
    if field not in records[op]:
        raise Missing(f"field {field!r} absent from op {op!r}")
    return records[op][field]


def evaluate(gate, records):
    """Prints the gate's operands; returns the list of failure details."""
    field = gate["field"]
    key = next(k for k in BOUNDS if k in gate)
    relation, test = BOUNDS[key]
    bound = f"{relation} {json.dumps(gate[key])}"
    if "num" in gate:
        num = value(records, gate["num"], field)
        den = value(records, gate["den"], field)
        if den == 0:
            raise Missing(f"{gate['den']} {field} is 0")
        observed = [(f"{gate['num']} {num:.6g} / {gate['den']} {den:.6g} "
                     f"{field} ->", num / den)]
    else:
        ops = [gate.get("op")]
        if ops == ["*"]:
            prefix = gate.get("except_prefix")
            ops = [op for op in records
                   if not (prefix and op.startswith(prefix))]
            if not ops:
                raise Missing("no ops")
        observed = [(f"{op or ''} {field}".strip(), value(records, op, field))
                    for op in ops]
    failures = []
    for label, x in observed:
        ok = test(x, gate[key])
        shown = f"{x:.2f}x" if "num" in gate else json.dumps(x)
        print(f"  {label} {shown} (bound {bound}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{label} {shown} not {bound}")
    return failures


def main(paths):
    if not paths or any(p.startswith("-") for p in paths):
        print("usage: check_gates.py FILE.json...", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "bench", "gates.json")) as f:
        gates = json.load(f)["gates"]
    files, failures = {}, []
    for path in paths:
        name = os.path.basename(path)
        try:
            files[name] = load(path)
        except (OSError, ValueError, KeyError, TypeError) as error:
            files[name] = None
            failures.append(f"{path}: unreadable ({error})")
            continue
        print_reference(name, files[name])
    checked = [g for g in gates if g["file"] in files]
    for gate in checked:
        print(f"{gate['name']} [{gate['file']}]:")
        try:
            if files[gate["file"]] is None:
                raise Missing("file unreadable")
            details = evaluate(gate, files[gate["file"]])
        except Missing as error:
            details = [str(error)]
            print(f"  FAIL: {error}")
        failures += [f"{gate['name']}: {d}" for d in details]
    if failures:
        print(f"\n{len(failures)} failed:", *failures, sep="\n  ")
        return 1
    print(f"\nall {len(checked)} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
