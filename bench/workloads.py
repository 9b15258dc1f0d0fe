"""The benchmark's workloads: instances, their closed-form expectations, checks.

An instance is one coloring certificate.  Its ``run`` does the pcol work
under two phase clocks (construct, verify) and returns the observed values;
``expect`` gives the value each observed key must have, from the paper's
closed forms where one exists and pinned from the seed run otherwise.  Keys
starting with ``_`` are artifacts handed to ``expect`` (for example the
perturbed table), never compared.

pcol is called through module attributes (``verify.compute_quotient``), never
through names bound at import time, so the span tracer sees every call.
"""
from __future__ import annotations

import io
import json
import random
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

import numpy as np

from pcol import cli, constructions, core, pcolfile, spectral, verify

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


class Phases:
    """Accumulates wall time spent in the construct and verify phases."""

    def __init__(self):
        self.seconds = {"construct": 0.0, "verify": 0.0}

    @contextmanager
    def _clock(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0

    @property
    def construct(self):
        return self._clock("construct")

    @property
    def verify(self):
        return self._clock("verify")


@dataclass
class Instance:
    name: str
    run: Callable[[Phases, Path], dict]
    expect: Callable[[dict], dict]


# -- closed forms ------------------------------------------------------------


def _fractions(values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def bc_params(b: int, c: int) -> dict:
    """Length, quotient, densities, spectrum and degree of construct_bc(b, c)."""
    e = gcd(b, c)
    M = (b + c) // e
    N = (2 * M - 1) * 2 ** (e - 1) - M
    return {
        "n": N,
        "quotient": [[N - b, b], [c, N - c]],
        "densities": _fractions([Fraction(c, b + c), Fraction(b, b + c)]),
        "spectrum": {N: 1, N - b - c: 1},
        "essential": [True] * N,
        "degrees": [e * M // 2] * 2,
        "multiplicities": [c // e, b // e],
    }


def rm_params(q: int, s: int) -> dict:
    """rm_coloring(q, s): quotient J_M (x) (J_q - I_q), uniform densities, degree M."""
    M = q**s
    k = M * q
    spectrum = {M * (q - 1): 1, -M: q - 1}
    if M > 1:
        spectrum[0] = (M - 1) * q
    return {
        "quotient": [[0 if (i - j) % q == 0 else 1 for j in range(k)] for i in range(k)],
        "densities": _fractions([Fraction(1, k)] * k),
        "spectrum": spectrum,
        "essential": [True] * M,
        "degrees": [M] * k,
    }


def bc_report_json(b: int, c: int) -> str:
    """The exact bytes `pcol verify --essential --degree --json` prints for bc(b, c)."""
    p = bc_params(b, c)
    spectrum = sorted(({"index": (p["n"] - lam) // 2, "eigenvalue": lam, "multiplicity": m}
                       for lam, m in p["spectrum"].items()), key=lambda e: e["index"])
    report = {
        "report_version": 1, "q": 2, "n": p["n"], "k": 2, "perfect": True,
        "quotient": p["quotient"], "densities": p["densities"], "spectrum": spectrum,
        "essential": p["essential"], "degrees": p["degrees"], "witness": None,
        "provenance": None,
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _report_values(rep) -> dict:
    return {
        "perfect": rep.perfect,
        "quotient": rep.quotient.as_lists() if rep.quotient is not None else None,
        "densities": _fractions(rep.densities),
        "spectrum": rep.spectrum,
        "essential": list(rep.essential),
    }


# -- bc instances --------------------------------------------------------------


def bc_library(b: int, c: int) -> Instance:
    """construct_bc(b, c) through the library API, text format, single thread,
    with degree, eigenspace and uniformity checks on its collection."""

    def run(phases: Phases, workdir: Path) -> dict:
        path = workdir / f"bc_{b}_{c}.pcol"
        with phases.construct:
            built = constructions.construct_bc(b, c)
            pcolfile.write_pcol(path, built.coloring)
        with phases.verify:
            C = pcolfile.read_pcol(path)
            rep = verify.verification_report(C, essential=True, threads=1)
            deg = spectral.coloring_degree(C)
            eig = spectral.eigen_decomposition_check(C, rep.quotient)
            uni = verify.check_uniform(built.collection)
        return {**_report_values(rep), "n": C.n, "degrees": list(deg.per_color),
                "eigen": eig, "uniform": uni.uniform, "exhaustive": uni.exhaustive,
                "multiplicities": list(uni.multiplicities),
                "matches_density": uni.matches_density}

    def expect(observed: dict) -> dict:
        p = bc_params(b, c)
        return {"perfect": True, "quotient": p["quotient"], "densities": p["densities"],
                "spectrum": p["spectrum"], "essential": p["essential"], "n": p["n"],
                "degrees": p["degrees"], "eigen": True, "uniform": True,
                "exhaustive": True, "multiplicities": p["multiplicities"],
                "matches_density": True}

    return Instance(f"bc({b},{c})/library/text", run, expect)


def bc_cli(b: int, c: int, threads: int, pinned_report: str | None = None) -> Instance:
    """`pcol construct bc --binary` then `pcol verify --essential --degree --json`,
    driven through pcol.cli.main in-process; the report bytes are compared."""
    quotient = bc_params(b, c)["quotient"]

    def run(phases: Phases, workdir: Path) -> dict:
        path = workdir / f"bc_{b}_{c}.pcolb"
        built_out, report_out = io.StringIO(), io.StringIO()
        with phases.construct:
            with redirect_stdout(built_out):
                construct_exit = cli.main(["construct", "bc", "--b", str(b), "--c", str(c),
                                           "-o", str(path), "--binary"])
        with phases.verify:
            with redirect_stdout(report_out):
                verify_exit = cli.main(["verify", str(path), "--essential", "--degree",
                                        "--json", "--threads", str(threads),
                                        "--expect-quotient", json.dumps(quotient)])
        return {"construct_exit": construct_exit, "verify_exit": verify_exit,
                "predicted": built_out.getvalue().splitlines()[-1],
                "report": report_out.getvalue()}

    def expect(observed: dict) -> dict:
        rows = ", ".join("[" + ", ".join(map(str, r)) + "]" for r in quotient)
        return {"construct_exit": 0, "verify_exit": 0,
                "predicted": f"predicted quotient: [{rows}]",
                "report": pinned_report if pinned_report is not None else bc_report_json(b, c)}

    return Instance(f"bc({b},{c})/cli/binary/threads={threads}", run, expect)


# -- q > 2 instances -----------------------------------------------------------


def rm_instance(q: int, s: int) -> Instance:
    """rm_coloring(q, s) written and read as text, with an essential-mask
    report, degree and eigenspace checks."""

    def run(phases: Phases, workdir: Path) -> dict:
        path = workdir / f"rm_{q}_{s}.pcol"
        with phases.construct:
            pcolfile.write_pcol(path, constructions.rm_coloring(q, s))
        with phases.verify:
            C = pcolfile.read_pcol(path)
            rep = verify.verification_report(C, essential=True)
            deg = spectral.coloring_degree(C)
            eig = spectral.eigen_decomposition_check(C, rep.quotient)
        return {**_report_values(rep), "degrees": list(deg.per_color), "eigen": eig}

    def expect(observed: dict) -> dict:
        p = rm_params(q, s)
        return {"perfect": True, "quotient": p["quotient"], "densities": p["densities"],
                "spectrum": p["spectrum"], "essential": p["essential"],
                "degrees": p["degrees"], "eigen": True}

    return Instance(f"rm({q},{s})/text", run, expect)


def _digit_sum_coloring(n: int, q: int) -> core.Coloring:
    idx = np.arange(q**n)
    total = np.zeros(q**n, dtype=np.int64)
    for _ in range(n):
        total += idx % q
        idx //= q
    return core.Coloring.from_table(total % q, q)


def _recursive_step_collection(n: int, q: int):
    """One lengthening step from the digit-sum-mod-q coloring of H(n, q), its
    period-reduced translations and the outer rm_coloring(q, 1)."""
    base = _digit_sum_coloring(n, q)
    col = constructions.reduce_by_periods(constructions.translations_collection(base))
    spec = constructions.RecursionSpec(col, constructions.rm_coloring(q, 1), 1)
    return constructions.iterate_construction(spec)


def _digit_sum_quotient(n: int, q: int) -> core.QuotientMatrix:
    # Changing one digit moves the digit sum by every nonzero residue once.
    return core.QuotientMatrix.of(
        [[0 if i == j else n for j in range(q)] for i in range(q)], n, q)


# Per-color degrees of the step's member 0, pinned from the seed run: the
# paper gives no closed form for the degree of a q > 2 step.
RECURSIVE_DEGREES = {(1, 3): [3, 3, 3], (3, 3): [5, 5, 5]}


def recursive_instance(n: int, q: int) -> Instance:
    """One q-ary recursive step (M = q translations after period reduction),
    verified against predicted_step_quotient, with essential mask, degree and
    uniformity of the new collection."""

    def run(phases: Phases, workdir: Path) -> dict:
        path = workdir / f"step_{n}_{q}.pcol"
        with phases.construct:
            trace = _recursive_step_collection(n, q)
            pcolfile.write_pcol(path, trace.collection.colorings[0])
        with phases.verify:
            C = pcolfile.read_pcol(path)
            rep = verify.verification_report(C, essential=True)
            deg = spectral.coloring_degree(C)
            uni = verify.check_uniform(trace.collection)
        return {"M": trace.collection.size, "n": C.n,
                "predicted": trace.quotients[-1].as_lists(),
                "perfect": rep.perfect,
                "quotient": rep.quotient.as_lists() if rep.quotient is not None else None,
                "densities": _fractions(rep.densities), "essential": list(rep.essential),
                "degrees": list(deg.per_color), "uniform": uni.uniform,
                "multiplicities": list(uni.multiplicities),
                "matches_density": uni.matches_density}

    def expect(observed: dict) -> dict:
        step = constructions.predicted_step_quotient(_digit_sum_quotient(n, q), q).as_lists()
        return {"M": q, "n": q * n + q, "predicted": step, "perfect": True, "quotient": step,
                "densities": _fractions([Fraction(1, q)] * q),
                "essential": [True] * (q * n + q), "degrees": RECURSIVE_DEGREES[(n, q)],
                "uniform": True, "multiplicities": [1] * q, "matches_density": True}

    return Instance(f"step(H({n},{q}))/text", run, expect)


def scalar_first_witness(table: list[int], n: int, q: int, k: int, rows, perturbed: int):
    """First non-perfect witness in vertex order after one vertex changed color.

    Only the perturbed vertex and its neighbors can deviate from the quotient
    rows of the unperturbed perfect coloring, so the profiles of those come
    from the scalar core.neighbors and every other profile is rows[color].
    """
    def scalar_profile(v):
        prof = [0] * k
        for u in core.neighbors(v, n, q):
            prof[table[u]] += 1
        return tuple(prof)

    affected = {perturbed, *core.neighbors(perturbed, n, q)}
    first: dict[int, tuple[int, tuple]] = {}
    for v, color in enumerate(table):
        prof = scalar_profile(v) if v in affected else tuple(rows[color])
        if color not in first:
            first[color] = (v, prof)
        elif prof != first[color][1]:
            a = first[color][0]
            return {"color": color, "vertex_a": a, "vertex_b": v,
                    "profile_a": list(scalar_profile(a)), "profile_b": list(scalar_profile(v))}
    return None


def perturbed_instance(n: int, q: int, seed: int) -> Instance:
    """The recursive step's member 0 with one seeded vertex recolored: the
    report must carry the first witness that the scalar oracle finds."""

    def run(phases: Phases, workdir: Path) -> dict:
        path = workdir / f"perturbed_{n}_{q}.pcol"
        with phases.construct:
            C = _recursive_step_collection(n, q).collection.colorings[0].materialize()
            table = C.table.copy()
            rng = random.Random(seed)
            vertex = rng.randrange(table.size)
            table[vertex] = (int(table[vertex]) + 1 + rng.randrange(C.k - 1)) % C.k
            pcolfile.write_pcol(path, core.Coloring.from_table(table, q, C.k))
        with phases.verify:
            rep = verify.verification_report(pcolfile.read_pcol(path), essential=True)
        w = rep.witness
        witness = None if w is None else {
            "color": w.color, "vertex_a": w.vertex_a, "vertex_b": w.vertex_b,
            "profile_a": list(w.profile_a), "profile_b": list(w.profile_b)}
        return {**_report_values(rep), "witness": witness,
                "_table": table, "_vertex": vertex}

    def expect(observed: dict) -> dict:
        m = q * n + q
        table = observed["_table"].tolist()
        counts = np.bincount(table, minlength=q)
        step = constructions.predicted_step_quotient(_digit_sum_quotient(n, q), q).entries
        return {"perfect": False, "quotient": None, "spectrum": None,
                "densities": _fractions([Fraction(int(c), len(table)) for c in counts]),
                "essential": [True] * m,
                "witness": scalar_first_witness(table, m, q, q, step, observed["_vertex"])}

    return Instance(f"step(H({n},{q}))+perturbation/text", run, expect)


# -- workloads -----------------------------------------------------------------


WORKLOADS = {
    "flagship_h22": lambda seed: [bc_library(10, 6)],
    "guard_edge_h24": lambda seed: [bc_cli(9, 3, threads=2, pinned_report=(
        EXPECTED_DIR / "guard_edge_h24.report.json").read_text(encoding="ascii"))],
    "qary_many_colors": lambda seed: _shuffled(seed, [
        rm_instance(3, 1), rm_instance(3, 2), rm_instance(4, 1), rm_instance(5, 1),
        recursive_instance(3, 3), perturbed_instance(3, 3, seed)]),
}


def _shuffled(seed: int, instances: list[Instance]) -> list[Instance]:
    random.Random(seed).shuffle(instances)
    return instances


# -- running and checking ------------------------------------------------------


@dataclass
class Outcome:
    name: str
    construct_s: float
    verify_s: float
    observed: dict | None
    error: str | None


def run_instances(instances: list[Instance], workdir: Path) -> list[Outcome]:
    """Run every instance; an exception fails that instance only."""
    outcomes = []
    for inst in instances:
        phases = Phases()
        try:
            observed, error = inst.run(phases, workdir), None
        except Exception:
            observed, error = None, traceback.format_exc()
        outcomes.append(Outcome(inst.name, phases.seconds["construct"],
                                phases.seconds["verify"], observed, error))
    return outcomes


def mismatches(inst: Instance, outcome: Outcome) -> list[str]:
    """Every way the outcome differs from the instance's expectation."""
    if outcome.error is not None:
        return [outcome.error.strip().splitlines()[-1]]
    try:
        expected = inst.expect(outcome.observed)
    except Exception:
        return ["expectation failed: " + traceback.format_exc().strip().splitlines()[-1]]
    seen = {k: v for k, v in outcome.observed.items() if not k.startswith("_")}
    problems = [f"{key}: got {seen.get(key)!r}, expected {want!r}"
                for key, want in expected.items() if seen.get(key) != want]
    problems += [f"{key}: observed but never checked" for key in seen if key not in expected]
    return problems
