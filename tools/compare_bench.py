#!/usr/bin/env python3
"""Diff two feio bench documents cell by cell.

usage:
  compare_bench.py BASE NEW      print every numeric field that differs
                                 between the cases present in both
                                 documents, with NEW/BASE
  compare_bench.py --self-test   check the comparison on built-in documents

BASE and NEW are feio.report/1 documents of kind `bench` with a `cases`
array (BENCH_pipeline.json, BENCH_solver.json). Cases are matched by
`name`; cases present in only one document are listed, not compared.

Timings taken on different core counts do not compare, so the tool refuses
(exit 2) when the documents' `hardware_threads` differ or either lacks it,
and when their `payload_schema` differ. Otherwise it exits 0 whatever the
numbers say: it is a report, not a gate. Stdlib only.
"""
import json
import sys


class Refused(Exception):
    pass


def numeric_fields(case):
    return {k: v for k, v in case.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def compare(base, new):
    """Returns the report lines for two parsed documents; raises Refused."""
    for doc, label in ((base, "BASE"), (new, "NEW")):
        if "hardware_threads" not in doc:
            raise Refused(f"{label} does not record hardware_threads")
        if not isinstance(doc.get("cases"), list):
            raise Refused(f"{label} has no cases array")
    if base["hardware_threads"] != new["hardware_threads"]:
        raise Refused("hardware_threads differ: BASE "
                      f"{base['hardware_threads']}, NEW "
                      f"{new['hardware_threads']}")
    if base.get("payload_schema") != new.get("payload_schema"):
        raise Refused("payload_schema differ: BASE "
                      f"{base.get('payload_schema')}, NEW "
                      f"{new.get('payload_schema')}")

    lines = [f"{new.get('payload_schema')}: hardware_threads "
             f"{new['hardware_threads']}, threads BASE {base.get('threads')} "
             f"NEW {new.get('threads')}"]
    base_cases = {c["name"]: c for c in base["cases"]}
    new_cases = {c["name"]: c for c in new["cases"]}
    lines.append(f"{'case':<40} {'field':<16} {'base':>12} {'new':>12} "
                 f"{'new/base':>9}")
    for name, nc in new_cases.items():
        bc = base_cases.get(name)
        if bc is None:
            continue
        bf = numeric_fields(bc)
        for field, nv in numeric_fields(nc).items():
            if field not in bf or bf[field] == nv:
                continue
            bv = bf[field]
            ratio = f"{nv / bv:9.3f}" if bv else f"{'-':>9}"
            lines.append(f"{name:<40} {field:<16} {bv:>12.6g} {nv:>12.6g} "
                         f"{ratio}")
    for name in base_cases:
        if name not in new_cases:
            lines.append(f"only in BASE: {name}")
    for name in new_cases:
        if name not in base_cases:
            lines.append(f"only in NEW: {name}")
    return lines


def self_test():
    def doc(threads, cases, schema="feio.bench.pipeline/1"):
        return {"payload_schema": schema, "hardware_threads": threads,
                "threads": threads, "cases": cases}

    base = doc(4, [{"name": "batch/4decks", "serial_ms": 16.0,
                    "parallel_ms": 8.0, "nodes": 7, "identical": True},
                   {"name": "shape/strip40x60", "serial_ms": 8.0}])
    new = doc(4, [{"name": "batch/4decks", "serial_ms": 8.0,
                   "parallel_ms": 4.0, "nodes": 7, "identical": True},
                  {"name": "contours/strip40x60", "serial_ms": 3.0}])
    lines = compare(base, new)
    rows = [ln.split() for ln in lines[2:]]
    assert ["batch/4decks", "serial_ms", "16", "8", "0.500"] in rows, lines
    assert ["batch/4decks", "parallel_ms", "8", "4", "0.500"] in rows, lines
    # Equal counts and non-numeric fields are not listed.
    assert not any(r[1] in ("identical", "nodes") for r in rows), lines
    assert "only in BASE: shape/strip40x60" in lines, lines
    assert "only in NEW: contours/strip40x60" in lines, lines

    refusals = [
        (doc(4, []), doc(2, [])),
        ({"payload_schema": "feio.bench.pipeline/1", "cases": []}, doc(4, [])),
        (doc(4, []), doc(4, [], schema="feio.bench.solver/3")),
    ]
    for b, n in refusals:
        try:
            compare(b, n)
        except Refused:
            continue
        raise AssertionError(f"expected a refusal for {b} vs {n}")
    print("compare_bench self-test: ok")
    return 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            base = json.load(f)
        with open(argv[2]) as f:
            new = json.load(f)
        lines = compare(base, new)
    except (OSError, ValueError) as e:
        print(f"compare_bench: {e}", file=sys.stderr)
        return 2
    except Refused as e:
        print(f"compare_bench: refusing to compare: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
