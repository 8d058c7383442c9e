#!/usr/bin/env python3
"""Validates BENCH_<name>.json metrics artifacts against a schema.

Usage: check_bench_json.py --schema tools/bench_schema.json FILE [FILE...]

Implements the subset of JSON Schema that tools/bench_schema.json uses
(type, required, properties, additionalProperties, const, minimum), so
it runs on a bare python3 with no third-party packages. Beyond the
schema it enforces the semantic invariants of the metrics sink: every
span row satisfies max_micros <= total_micros, every argument's max is
at most its sum, and no two rows share (cat, op, site, site_loc).
"""

import argparse
import json
import sys

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(value, schema, path, errors):
    expected = schema.get("type")
    if expected is not None and not TYPE_CHECKS[expected](value):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected constant {schema['const']!r}, got {value!r}")
    if "minimum" in schema and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required member {key!r}")
        props = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, member in value.items():
            if key in props:
                validate(member, props[key], f"{path}.{key}", errors)
            elif isinstance(additional, dict):
                validate(member, additional, f"{path}.{key}", errors)
            elif additional is False:
                errors.append(f"{path}: unexpected member {key!r}")
    if isinstance(value, list) and isinstance(schema.get("items"), dict):
        for index, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{index}]", errors)


def check_semantics(doc, errors):
    seen = set()
    for index, row in enumerate(doc.get("spans", [])):
        if not isinstance(row, dict):
            continue
        path = f"$.spans[{index}]"
        total, largest = row.get("total_micros"), row.get("max_micros")
        if isinstance(total, int) and isinstance(largest, int) and largest > total:
            errors.append(f"{path}: max_micros {largest} exceeds "
                          f"total_micros {total}")
        args = row.get("args")
        for key, agg in (args.items() if isinstance(args, dict) else []):
            if not isinstance(agg, dict):
                continue
            arg_sum, arg_max = agg.get("sum"), agg.get("max")
            if isinstance(arg_sum, int) and isinstance(arg_max, int) and arg_max > arg_sum:
                errors.append(f"{path}.args.{key}: max {arg_max} exceeds "
                              f"sum {arg_sum}")
        key = json.dumps([row.get(member)
                          for member in ("cat", "op", "site", "site_loc")])
        if key in seen:
            errors.append(f"{path}: duplicate row {key}")
        seen.add(key)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schema", required=True)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    with open(args.schema, encoding="utf-8") as handle:
        schema = json.load(handle)

    failed = False
    for path in args.files:
        errors = []
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: FAIL: {err}")
            failed = True
            continue
        validate(doc, schema, "$", errors)
        check_semantics(doc, errors)
        if errors:
            failed = True
            print(f"{path}: FAIL")
            for error in errors:
                print(f"  {error}")
        else:
            print(f"{path}: OK ({len(doc.get('spans', []))} span rows)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
