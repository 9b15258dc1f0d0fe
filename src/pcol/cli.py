"""Command-line surface: construct colorings, verify files, report as JSON.

Exit codes: 0 verified-pass, 1 verified-fail (witness or expectation
mismatch), 2 operational error.  All fractions in reports are exact strings.
``--threads`` is accepted and must be at least 1, but has no effect:
verification runs in one thread.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import (RecursionSpec, construct_bc,
                            construct_unbalanced_boolean, hamming_cosets,
                            hamming_union_collection, iterate_construction,
                            reduce_by_periods, rm_coloring, rm_quotient,
                            translations_collection)
from .errors import OutOfRangeError, PcolError
from .pcolfile import BINARY_MAGIC, read_pcol, write_pcol
from .spectral import coloring_degree
from .verify import (VerificationReport, densities_by_count,
                     verification_report)

REPORT_VERSION = 1


def _spectrum_json(rep: VerificationReport):
    if rep.spectrum is None:
        return None
    out = []
    for lam, mult in rep.spectrum.items():
        index = (rep.n * (rep.q - 1) - lam) // rep.q
        out.append({"index": index, "eigenvalue": lam, "multiplicity": mult})
    return sorted(out, key=lambda e: e["index"])


def report_json(rep: VerificationReport) -> dict:
    witness = None
    if rep.witness is not None:
        witness = {
            "color": rep.witness.color,
            "vertex_a": rep.witness.vertex_a,
            "vertex_b": rep.witness.vertex_b,
            "profile_a": list(rep.witness.profile_a),
            "profile_b": list(rep.witness.profile_b),
        }
    return {
        "report_version": REPORT_VERSION,
        "q": rep.q,
        "n": rep.n,
        "k": rep.k,
        "perfect": rep.perfect,
        "quotient": rep.quotient.as_lists() if rep.quotient else None,
        "densities": [str(d) for d in rep.densities],
        "spectrum": _spectrum_json(rep),
        "essential": list(rep.essential) if rep.essential is not None else None,
        "degrees": list(rep.degrees) if rep.degrees is not None else None,
        "witness": witness,
        "provenance": None,  # schema v1 keeps the key; manifests record provenance
    }


def _print_report(rep: VerificationReport) -> None:
    print(f"H({rep.n},{rep.q}), {rep.k} colors")
    print(f"perfect: {'yes' if rep.perfect else 'no'}")
    if rep.quotient is not None:
        print(f"quotient: {rep.quotient}")
    if rep.witness is not None:
        w = rep.witness
        print(f"witness: vertices {w.vertex_a} and {w.vertex_b} share color "
              f"{w.color} but see {w.profile_a} vs {w.profile_b}")
    print("densities: " + " ".join(str(d) for d in rep.densities))
    if rep.spectrum is not None:
        parts = [f"{lam} (lambda_{(rep.n * (rep.q - 1) - lam) // rep.q}, x{m})"
                 for lam, m in rep.spectrum.items()]
        print("spectrum: " + ", ".join(parts))
    if rep.essential is not None:
        print(f"essential: {sum(rep.essential)}/{len(rep.essential)}")
    if rep.degrees is not None:
        print("degrees: " + " ".join(map(str, rep.degrees)))


def _write_collection(dirpath: str, collection, *, binary: bool) -> None:
    os.makedirs(dirpath, exist_ok=True)
    ext = ".pcolb" if binary else ".pcol"
    names = []
    for i, member in enumerate(collection.colorings):
        name = f"member_{i:03d}{ext}"
        write_pcol(os.path.join(dirpath, name), member, binary=binary)
        names.append(name)
    first = collection.colorings[0]
    manifest = {
        "format": "pcol-collection",
        "version": 1,
        "q": first.q,
        "n": first.n,
        "k": first.k,
        "size": len(collection.colorings),
        "provenance": collection.provenance,
        "quotient": collection.quotient.as_lists() if collection.quotient else None,
        "members": names,
    }
    with open(os.path.join(dirpath, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_rho(text: str) -> tuple[int, int]:
    try:
        num, den = text.split("/")
        return int(num), int(den)
    except ValueError:
        raise OutOfRangeError(f"--rho expects R/S, got {text!r}")


def _cmd_construct(args) -> int:
    collection = None
    if args.kind == "rm":
        coloring = rm_coloring(args.q, args.s)
        predicted = rm_quotient(args.q**args.s, args.q)
    elif args.kind == "hamming-union":
        collection = hamming_union_collection(hamming_cosets(args.m), args.cprime)
        coloring, predicted = collection.colorings[0], collection.quotient
    elif args.kind == "bc":
        built = construct_bc(args.b, args.c)
        coloring, collection, predicted = built.coloring, built.collection, built.predicted_quotient
    elif args.kind == "boolean":
        r, s = _parse_rho(args.rho)
        res = construct_unbalanced_boolean(r, s, args.e)
        coloring, predicted = res.coloring, res.predicted_quotient
    elif args.kind == "recursive":
        base = read_pcol(args.base)
        col = reduce_by_periods(translations_collection(base))
        M = col.size
        if args.collection_size is not None and args.collection_size != M:
            raise OutOfRangeError(
                f"period-reduced collection has {M} members, not {args.collection_size}")
        s = 0
        while base.q**s < M:
            s += 1
        if base.q**s != M:
            raise OutOfRangeError(
                f"collection size {M} is not a power of q={base.q}; "
                "no outer coloring available")
        trace = iterate_construction(RecursionSpec(col, rm_coloring(base.q, s), args.steps))
        collection = trace.collection
        coloring = collection.colorings[0]
        predicted = trace.quotients[-1]
    else:  # pragma: no cover
        raise AssertionError(args.kind)

    if args.output:
        write_pcol(args.output, coloring, binary=args.binary)
        print(f"wrote {args.output}")
    if args.collection_out:
        if collection is None:
            raise OutOfRangeError("this construction has no collection to write")
        _write_collection(args.collection_out, collection, binary=args.binary)
        print(f"wrote {len(collection.colorings)} members to {args.collection_out}")
    if predicted is not None:
        print(f"predicted quotient: {predicted}")
    return 0


def _cmd_verify(args) -> int:
    C = read_pcol(args.path)
    rep = verification_report(C, essential=args.essential, threads=args.threads)
    if args.degree:
        rep.degrees = coloring_degree(C).per_color
    matches = True
    if args.expect_quotient is not None:
        expected = json.loads(args.expect_quotient)
        got = rep.quotient.as_lists() if rep.quotient else None
        matches = got == expected
    if args.json:
        print(json.dumps(report_json(rep), indent=2, sort_keys=True))
    else:
        _print_report(rep)
        if not matches:
            print("expected quotient does not match")
    return 0 if rep.perfect and matches else 1


def _cmd_info(args) -> int:
    C = read_pcol(args.path)
    size = os.path.getsize(args.path)
    with open(args.path, "rb") as fh:
        binary = fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
    dens = densities_by_count(C)
    print(f"H({C.n},{C.q}), {C.k} colors, {C.q**C.n} vertices")
    print(f"format: {'binary' if binary else 'text'}, {size} bytes")
    print("densities: " + " ".join(str(d) for d in dens))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcol",
        description="Construct and exhaustively verify perfect colorings of "
                    "Hamming graphs H(n, q).")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a coloring and write it to a file")
    kinds = con.add_subparsers(dest="kind", required=True)

    def common(p):
        p.add_argument("-o", "--output", help="output coloring file")
        p.add_argument("--binary", action="store_true", help="write the binary format")
        p.add_argument("--collection-out", help="directory for the whole collection")
        p.set_defaults(func=_cmd_construct)

    p = kinds.add_parser("rm", help="RM-like Mq-coloring of H(q**s, q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    common(p)

    p = kinds.add_parser("hamming-union", help="union of c' Hamming cosets on H(2**m - 1, 2)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cprime", type=int, required=True)
    common(p)

    p = kinds.add_parser("bc", help="2-coloring with off-diagonal pair (b, c)")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    common(p)

    p = kinds.add_parser("boolean", help="Boolean function of density R/S, degree e*S/2")
    p.add_argument("--rho", required=True, metavar="R/S")
    p.add_argument("--e", type=int, required=True)
    common(p)

    p = kinds.add_parser("recursive", help="iterate the lengthening step on a base coloring")
    p.add_argument("--base", required=True, help="PCOL file with the base coloring")
    p.add_argument("--collection-size", type=int, default=None,
                   help="expected size of the period-reduced translation collection")
    p.add_argument("--steps", type=int, required=True)
    common(p)

    ver = sub.add_parser("verify", help="exhaustively verify a coloring file")
    ver.add_argument("path")
    ver.add_argument("--essential", action="store_true", help="report the essential-argument mask")
    ver.add_argument("--degree", action="store_true", help="report per-color degrees")
    ver.add_argument("--expect-quotient", metavar="JSON",
                     help="fail unless the quotient equals this matrix")
    ver.add_argument("--json", action="store_true", help="print the JSON report")
    ver.add_argument("--threads", type=int, default=1,
                     help="accepted and checked to be at least 1; has no effect")
    ver.set_defaults(func=_cmd_verify)

    inf = sub.add_parser("info", help="summarize a coloring file")
    inf.add_argument("path")
    inf.set_defaults(func=_cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PcolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
