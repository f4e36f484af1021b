"""Workload ``exact``: a seeded stream of real flag points through the exact
layers only, checked against the closed forms of the orbit classes.

Each case is one operation: the real polytope under negation and under the
identity involution, the orbit polytope, membership at three weights, and on
every tenth case of a block the catalog at the case's weights.  Cases come in
blocks of 64 that share one mix: each block runs through all 8 x 8 weight
pairs in a seeded order and holds 45 dense points (70 %) and 19 of the other
four classes in turn; a run measures whole blocks only.  The catalog cases
take their weights from a seeded cycle through the grid, so a run's catalogs
cover it evenly: a catalog's cost depends on its weights, and catalogs set
the 95th percentile.  Points are distinct.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from harness import Checker, Workload, median, percentile

NUM_MAX = 50
DEN_MAX = 20
WEIGHT_MAX = 8
BLOCK = WEIGHT_MAX * WEIGHT_MAX
DENSE_PER_BLOCK = 45
CATALOG_EVERY = 10
CATALOG_SLOTS = range(CATALOG_EVERY - 1, BLOCK, CATALOG_EVERY)  # cases 9, 19, ..., 59
OTHER_CLASSES = ("diagonal", "first_factor", "second_factor", "point")
WARMUP_SEED = 20_071_010  # the same warm-up work in every run
WARMUP_CASES = 16


class CaseStream:
    """Deterministic case generator: the same seed gives the same cases."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen: set = set()
        self.index = 0
        self._block: list = []
        self._others = 0
        self._catalog_cycle: list = []

    def _rational(self, nonzero: bool = False) -> Fraction:
        while True:
            num = self.rng.randint(-NUM_MAX, NUM_MAX)
            if num or not nonzero:
                return Fraction(num, self.rng.randint(1, DEN_MAX))

    def _coords(self, cls: str) -> tuple:
        r = self._rational
        if cls == "dense":
            while True:
                a1, c1, a2, c2 = r(), r(True), r(), r(True)
                if a1 * c2 != a2 * c1:
                    return a1, c1, a2, c2
        if cls == "diagonal":  # second pair a rescaled copy of the first
            a1, c1 = r(), r(True)
            t = Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 9), self.rng.randint(1, 9))
            return a1, c1, t * a1, t * c1
        if cls == "first_factor":
            return r(), r(True), r(True), Fraction(0)
        if cls == "second_factor":
            return r(True), Fraction(0), r(), r(True)
        return r(True), Fraction(0), r(True), Fraction(0)

    def _catalog_weights(self, grid: list) -> list:
        """The next weight pairs of the catalog cycle, distinct in a block."""
        chosen = []
        while len(chosen) < len(CATALOG_SLOTS):
            if not self._catalog_cycle:
                self._catalog_cycle = self.rng.sample(grid, len(grid))
            pair = self._catalog_cycle.pop()
            if pair in chosen:  # only where a new cycle starts: defer it
                self._catalog_cycle.insert(0, pair)
            else:
                chosen.append(pair)
        return chosen

    def _new_block(self) -> list:
        grid = [(a, b) for a in range(1, WEIGHT_MAX + 1) for b in range(1, WEIGHT_MAX + 1)]
        catalog = self._catalog_weights(grid)
        rest = [pair for pair in grid if pair not in catalog]
        self.rng.shuffle(rest)
        weights = [catalog.pop(0) if j in CATALOG_SLOTS else rest.pop() for j in range(BLOCK)]
        classes = ["dense"] * DENSE_PER_BLOCK
        for j in range(BLOCK - DENSE_PER_BLOCK):
            classes.append(OTHER_CLASSES[(self._others + j) % len(OTHER_CLASSES)])
        self._others += BLOCK - DENSE_PER_BLOCK
        self.rng.shuffle(classes)
        return list(reversed(list(zip(classes, weights))))

    def next(self) -> dict:
        if not self._block:
            self._block = self._new_block()
        cls, (lam1, lam2) = self._block.pop()
        while True:
            coords = self._coords(cls)
            if coords not in self.seen:
                self.seen.add(coords)
                break
        top = lam1 + lam2 + 1
        lams = []
        for _ in range(3):
            den = self.rng.randint(1, 3)
            lams.append(Fraction(self.rng.randint(-den, top * den), den))
        case = {"index": self.index, "cls": cls, "coords": coords, "lam1": lam1,
                "lam2": lam2, "lams": lams,
                "catalog": self.index % BLOCK in CATALOG_SLOTS}
        self.index += 1
        return case


# -- closed forms, written from the orbit-class case analysis ---------------

def expected_vertices(cls: str, lam1: int, lam2: int) -> tuple[Fraction, ...]:
    """Vertices of the orbit polytope in alpha-units, in ascending order."""
    if cls == "dense":
        return (Fraction(abs(lam1 - lam2)), Fraction(lam1 + lam2))
    if cls == "diagonal":
        return (Fraction(lam1 + lam2),)
    if cls == "first_factor":
        return (Fraction(lam1 - lam2),) if lam1 >= lam2 else ()
    if cls == "second_factor":
        return (Fraction(lam2 - lam1),) if lam2 >= lam1 else ()
    return ()


def cut_at_origin(verts: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """A segment or point cut by the zero subspace (the identity involution)."""
    return (Fraction(0),) if verts and verts[0] <= 0 <= verts[-1] else ()


def expected_membership(verts, lam1: int, lam2: int, lam: Fraction) -> tuple:
    """(member, witness): lam lies in the polytope; the witness is the least
    multiple r of den(lam) with r * (lam1 + lam2 - lam) even."""
    if not verts or not verts[0] <= lam <= verts[-1]:
        return (False, None)
    q = lam.denominator
    return (True, q if (q * (lam1 + lam2 - lam)) % 2 == 0 else 2 * q)


def polytope_json(verts) -> dict:
    return {"dim": 1, "vertices": [[str(v.numerator), str(v.denominator)] for v in verts]}


def expected_catalog(lam1: int, lam2: int) -> list[dict]:
    """Distinct negation-involution real polytopes over the five classes."""
    distinct = {expected_vertices(c, lam1, lam2)
                for c in ("dense",) + OTHER_CLASSES}
    return [polytope_json(v) for v in sorted(distinct, key=lambda v: (len(v), v))]


# -- the workload -----------------------------------------------------------

class ExactWorkload(Workload):
    name = "exact"
    block = BLOCK

    def setup(self, seed: int, traced_run: bool = False) -> None:
        from mplab import orbits, weights, wire
        self.orbits = orbits
        self.to_json = wire.polytope_to_json  # the unwrapped serializer checks results
        self.negation = weights.negation_involution()
        self.identity = weights.identity_involution()
        self.stream = CaseStream(seed)
        warm = CaseStream(WARMUP_SEED)
        for _ in range(WARMUP_CASES):
            self._run(self._prepare(warm.next()))
        self.spans: list[tuple[float, float]] = []
        self.class_counts: dict[str, int] = {}
        self.height = (0, 0)

    def _prepare(self, case: dict) -> dict:
        case["x"] = self.orbits.FlagPoint.real(*case["coords"])
        return case

    def _run(self, case: dict) -> dict:
        o = self.orbits
        x, lam1, lam2 = case["x"], case["lam1"], case["lam2"]
        out = {
            "real_neg": o.real_moment_polytope(o.RealFormCase(x, self.negation), lam1, lam2),
            "real_id": o.real_moment_polytope(o.RealFormCase(x, self.identity), lam1, lam2),
            "moment": o.moment_polytope(x, lam1, lam2),
            "member": [o.membership_in_C(x, lam1, lam2, lam) for lam in case["lams"]],
        }
        if case["catalog"]:
            out["catalog"] = o.enumerate_polytope_catalog(lam1, lam2, self.negation)
        return out

    def _check(self, check: Checker, case: dict, out: dict) -> None:
        lam1, lam2 = case["lam1"], case["lam2"]
        verts = expected_vertices(case["cls"], lam1, lam2)
        where = f"case {case['index']} {case['cls']} ({lam1},{lam2})"
        check.expect(self.to_json(out["moment"]), polytope_json(verts), f"{where} moment")
        check.expect(self.to_json(out["real_neg"]), polytope_json(verts), f"{where} negation")
        check.expect(self.to_json(out["real_id"]), polytope_json(cut_at_origin(verts)),
                     f"{where} identity")
        for lam, got in zip(case["lams"], out["member"]):
            check.expect(tuple(got), expected_membership(verts, lam1, lam2, lam),
                         f"{where} membership at {lam}")
        if case["catalog"]:
            check.expect([self.to_json(p) for p in out["catalog"]],
                         expected_catalog(lam1, lam2), f"{where} catalog")

    def op(self, check: Checker, trace: bool = False) -> list[float]:
        case = self._prepare(self.stream.next())
        self.class_counts[case["cls"]] = self.class_counts.get(case["cls"], 0) + 1
        self.height = (max([self.height[0]] + [abs(v.numerator) for v in case["coords"]]),
                       max([self.height[1]] + [v.denominator for v in case["coords"]]))
        self.speed.probe()
        check.begin()
        start = time.perf_counter()
        try:
            out = self._run(case)
        except Exception as exc:  # counted as a failed operation; the run goes on
            end = time.perf_counter()
            check.raised(exc, f"case {case['index']}")
        else:
            end = time.perf_counter()
            self._check(check, case, out)
        check.end()
        self.spans.append((start, end))
        return [(start, end)]

    def metrics(self) -> dict[str, float]:
        times = [self.speed.scaled(*span) for span in self.spans]
        return {
            "exact_cases_per_s": len(times) / sum(times),
            "exact_case_p50_ms": median(times) * 1e3,
            "exact_case_p95_ms": percentile(times, 95) * 1e3,
        }

    def properties(self) -> dict:
        n = sum(self.class_counts.values())
        return {
            "cases": n,
            "cases_for_p95_at_least_200": n >= 200,
            "class_share": {k: v / n for k, v in sorted(self.class_counts.items())},
            "coordinate_height": {"max_abs_numerator": self.height[0],
                                  "max_denominator": self.height[1]},
            "weights": f"1..{WEIGHT_MAX} each, cycling through the grid",
            "distinct_points_literal": len(self.stream.seen) == self.stream.index,
            "catalog_every": f"{CATALOG_EVERY}th case of each {BLOCK}-case block",
        }
