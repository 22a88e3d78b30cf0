"""The benchmark's three workloads: search, sweep and cli.

Each workload draws its inputs from the seed alone, builds them through
lieop in setup(), runs one closed-loop pass at a time in run_pass() (one
caller; the next verdict starts only after the previous one returned), and
checks the answers of each pass in check(), outside the timed section.

Why these three:
  search  the oracle's inner loop, grid_search over single-operator and
          multi-operator kinds; staged enumeration and an integer verdict
          kernel act here.
  sweep   the reporting predicates with full witness lists, called
          directly, so grid_search's mechanisms are bypassed; p95 is set
          by the deformation checks of the passing candidates.
  cli     composite checks, hierarchies and document reads/writes through
          lieop.cli.main, the only place the kind registry and the
          hierarchy reruns show.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import lieop
from lieop import catalog, cli, deformation, documents, operators, reps
from lieop.linalg import Matrix

from tracer import search_slots

DEFAULT_SEED = 0
SIZES = ("full", "tiny")

GRID3 = ("-1", "0", "1")
GRID01 = ("0", "1")
# The seed draws the fractional grid's two nonzero values from these; the
# default seed keeps (-1/2, 1/3). Denominators stay small so that the
# arithmetic cost does not swing with the seed.
NEGATIVE_VALUES = ("-1/2", "-1/3", "-2/3", "-3/2", "-1/4", "-3/4")
POSITIVE_VALUES = ("1/3", "1/2", "2/3", "3/2", "1/4", "3/4")

PINS_PATH = Path(__file__).with_name("pins.json")


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def fractional_grid(seed: int) -> tuple[str, str, str]:
    if seed == DEFAULT_SEED:
        return ("-1/2", "0", "1/3")
    rng = random.Random(f"fractional-grid/{seed}")
    return (rng.choice(NEGATIVE_VALUES), "0", rng.choice(POSITIVE_VALUES))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result_json(item):
    if isinstance(item, Matrix):
        return item.to_json()
    return [mat.to_json() for mat in item]


def results_digest(results) -> str:
    return sha256(json.dumps([_result_json(item) for item in results]))


class PassResult:
    """What one pass did: verdicts issued, per-verdict seconds, and records."""

    def __init__(self):
        self.seconds = 0.0
        self.verdicts = 0
        self.samples: list[float] = []
        self.records: list = []


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


class SearchWorkload:
    """Exhaustive grid_search calls; a verdict is one candidate enumerated.

    About half the time is the single-operator kind (rota_baxter on sl2),
    half the four multi-operator calls. The latency samples are whole
    grid_search calls, the unit a user waits on.
    """

    name = "search"
    # Two passes, so that every run has the same ten latency samples.
    min_passes = 2

    def __init__(self, seed: int, size: str, pins: dict):
        frac = fractional_grid(seed)
        if size == "full":
            self.plan = (
                ("sl2", None, "rota_baxter", GRID3),
                ("aff1", "adjoint", "kn_structure", GRID01),
                ("aff1", "coadjoint", "kn_structure", GRID01),
                ("aff1", "coadjoint", "compatible_pair", GRID3),
                ("aff1", "adjoint", "nijenhuis_pair", frac),
            )
        else:
            self.plan = (
                ("sl2", None, "rota_baxter", GRID01),
                ("abelian_1", "adjoint", "kn_structure", GRID3),
                ("abelian_1", "coadjoint", "kn_structure", GRID3),
                ("aff1", "coadjoint", "compatible_pair", GRID01),
                ("abelian_1", "adjoint", "nijenhuis_pair", frac),
            )
        self.pins = pins["search"]
        self.calls = []
        self.candidates = {}
        self.expected = {}

    @staticmethod
    def label(algebra, rep, kind, grid) -> str:
        return f"{kind}/{algebra}/{rep or '-'}/{','.join(grid)}"

    def setup(self, workdir: Path) -> None:
        self.calls = []
        for algebra, rep, kind, grid in self.plan:
            entry = catalog.get_entry(algebra)
            rho = entry.representations[rep] if rep else None
            values = [lieop.rational(v) for v in grid]
            m = rho.module_dim if rho is not None else 0
            candidates = len(values) ** search_slots(kind, entry.algebra.dim, m)
            label = self.label(algebra, rep, kind, grid)
            self.calls.append((label, entry.algebra, rho, kind, values, candidates))
            self.candidates[label] = candidates

    def run_pass(self, clock, begin) -> PassResult:
        out = PassResult()
        for label, g, rho, kind, values, candidates in self.calls:
            begin()
            t0 = clock()
            try:
                found = catalog.grid_search(g, rho, kind, values)
            except Exception as exc:  # counted as failed verdicts in check()
                found = exc
            out.samples.append(clock() - t0)
            out.verdicts += candidates
            out.records.append((label, found))
        return out

    def answers(self, p: PassResult):
        """Comparable answers of one pass: (label, count, digest) per call."""
        return [
            (label, None, repr(found))
            if isinstance(found, Exception)
            else (label, len(found), results_digest(found))
            for label, found in p.records
        ]

    def check(self, p: PassResult) -> tuple[int, list[str]]:
        """Failed verdicts of one pass, with a note per wrong call."""
        failed, notes = 0, []
        for label, count, digest in self.answers(p):
            if label not in self.expected:
                self.expected[label] = self._expected(label)
            want = self.expected[label]
            if (count, digest) != want:
                failed += self.candidates[label]
                notes.append(f"{label}: got {count} results ({digest}), expected {want[0]} ({want[1]})")
        return failed, notes

    def _expected(self, label: str) -> tuple[int, str]:
        if label in self.pins:
            pin = self.pins[label]
            return pin["count"], pin["sha256"]
        return self._independent_route(label)

    def _independent_route(self, label: str) -> tuple[int, str]:
        """Unpinned fractional nijenhuis_pair grids, decided instead by the
        semidirect-product test over every candidate in enumeration order."""
        _, g, rho, kind, values, _ = next(c for c in self.calls if c[0] == label)
        if kind != "nijenhuis_pair":
            raise KeyError(f"no pinned answer and no independent route for {label}")
        n, m = g.dim, rho.module_dim
        found = []
        for combo in itertools.product(sorted(values), repeat=n * n + m * m):
            n_op = Matrix([combo[r * n:(r + 1) * n] for r in range(n)])
            rest = combo[n * n:]
            s_op = Matrix([rest[r * m:(r + 1) * m] for r in range(m)])
            if operators.nijenhuis_pair_semidirect_test(g, rho, n_op, s_op).ok:
                found.append((n_op, s_op))
        return len(found), results_digest(found)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _summary(report) -> tuple[bool, int]:
    return (bool(report.ok), len(report.witnesses))


class SweepWorkload:
    """The deformation sweep of acceptance criterion 2 through the public
    reporting predicates; a verdict is one (N, S) candidate."""

    name = "sweep"
    min_passes = 1

    def __init__(self, seed: int, size: str, pins: dict):
        self.seed = seed
        self.grid = GRID3 if size == "full" else GRID01
        self.expected_passes = pins["sweep"]["passes"]
        self.candidates = []

    def setup(self, workdir: Path) -> None:
        values = [lieop.rational(v) for v in self.grid]
        aff1, heis3 = catalog.get_entry("aff1"), catalog.get_entry("heis3")
        families = (
            (
                "aff1",
                aff1,
                [
                    (Matrix([c[0:2], c[2:4]]), Matrix([c[4:6], c[6:8]]))
                    for c in itertools.product(values, repeat=8)
                ],
            ),
            (
                "heis3",
                heis3,
                [
                    (Matrix.diagonal(c[:3]), Matrix.diagonal(c[3:]))
                    for c in itertools.product(values, repeat=6)
                ],
            ),
        )
        self.candidates = []
        for family, entry, pairs in families:
            rho = entry.representations["adjoint"]
            dual = reps.dual_representation(rho)
            for index, (n_op, s_op) in enumerate(pairs):
                self.candidates.append((family, index, entry.algebra, rho, dual, n_op, s_op))
        random.Random(f"sweep/{self.seed}").shuffle(self.candidates)

    def run_pass(self, clock, begin) -> PassResult:
        out = PassResult()
        for family, index, g, rho, dual, n_op, s_op in self.candidates:
            begin()
            t0 = clock()
            try:
                record = (family, index) + self._evaluate(g, rho, dual, n_op, s_op)
            except Exception as exc:  # counted as a failed verdict in check()
                record = (family, index, "error", repr(exc))
            out.samples.append(clock() - t0)
            out.records.append(record)
        out.verdicts = len(self.candidates)
        return out

    @staticmethod
    def _evaluate(g, rho, dual, n_op, s_op) -> tuple:
        direct = operators.is_nijenhuis_pair(g, rho, n_op, s_op)
        transposed = operators.is_nijenhuis_pair(g, dual, n_op, s_op.transpose())
        dual_pair = operators.is_dual_nijenhuis_pair(g, rho, n_op, s_op)
        semidirect = operators.nijenhuis_pair_semidirect_test(g, rho, n_op, s_op)
        deformation_ok = trivial_ok = None
        if direct.ok:
            d = deformation.trivial_deformation_from_pair(g, rho, n_op, s_op)
            deformation_ok = _summary(deformation.check_deformation_pair(g, rho, d))
            trivial_ok = _summary(deformation.check_trivial_equivalence(g, rho, n_op, s_op, d))
        return (
            _summary(direct),
            _summary(transposed),
            _summary(dual_pair),
            _summary(semidirect),
            deformation_ok,
            trivial_ok,
        )

    def answers(self, p: PassResult):
        return sorted(p.records, key=lambda r: (r[0], r[1]))

    def check(self, p: PassResult) -> tuple[int, list[str]]:
        failed, notes = 0, []
        passing = dict.fromkeys(self.expected_passes, 0)
        for record in p.records:
            problem = self._cross_check(record)
            if problem:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"{record[0]}#{record[1]}: {problem}")
            elif record[2][0]:
                passing[record[0]] += 1
        for family, want in self.expected_passes.items():
            if passing[family] != want:
                failed += abs(passing[family] - want)
                notes.append(f"{family}: {passing[family]} passing pairs, expected {want}")
        return failed, notes

    @staticmethod
    def _cross_check(record) -> str:
        if record[2] == "error":
            return f"raised {record[3]}"
        _, _, direct, transposed, dual_pair, semidirect, deform, trivial = record
        if direct[0] != semidirect[0]:
            return "direct and semidirect pair tests disagree"
        if dual_pair[0] != transposed[0]:
            return "dual pair test and transposed pair test disagree"
        if direct[0] and not (deform[0] and trivial[0]):
            return "trivial deformation of a passing pair fails its checks"
        return ""


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class CliWorkload:
    """Rounds of in-process lieop.cli.main(argv) calls with output captured;
    a verdict is one invocation. The seed permutes the order of each round."""

    name = "cli"

    def __init__(self, seed: int, size: str, pins: dict):
        self.rng = random.Random(f"cli/{seed}")
        self.kmax = "10" if size == "full" else "2"
        self.search_grid = "-1,0,1" if size == "full" else "0,1"
        # At least 10 samples beyond the nearest-rank p95 of 20 per round.
        self.min_passes = 10 if size == "full" else 2
        self.json_pins = pins["cli"]["json_sha256"]
        self.units = []
        self.paths = {}
        self.first_output = {}

    def setup(self, workdir: Path) -> None:
        p = {name: str(workdir / f"{name}.json") for name in (
            "aff1_kn", "aff1_kdn", "heis3_kn", "abelian_kn", "aff1_nij",
            "aff1_rmatrix", "sl2_rbn", "aff1_deformation", "aff1_bad_pair",
            "malformed", "rmn_out", "rbn_back", "sl2_export",
        )}
        exports = (
            ("aff1_kn", "aff1", "kn_diag"),
            ("aff1_kdn", "aff1", "kdn_coadjoint"),
            ("heis3_kn", "heis3", "kn_diag"),
            ("abelian_kn", "abelian_2", "kn_invertible"),
            ("aff1_nij", "aff1", "nij_diag"),
            ("aff1_rmatrix", "aff1", "rmatrix_symplectic"),
            ("sl2_rbn", "sl2", "rbn_identity"),
        )
        for name, entry, bundle in exports:
            code = cli.main(["catalog", "export", entry, "--bundle", bundle,
                             "--output", p[name], "--quiet"])
            if code != 0:
                raise RuntimeError(f"export of {entry}/{bundle} failed with {code}")
        aff1 = catalog.get_entry("aff1")
        adjoint = aff1.representations["adjoint"]
        proj = Matrix.diagonal([1, 0])
        pair = deformation.trivial_deformation_from_pair(aff1.algebra, adjoint, proj, proj)
        writes = {
            "aff1_deformation": documents.serialize(documents.document_dict(
                algebra=aff1.algebra, representation=adjoint,
                operators={"N": proj, "S": proj}, deformation=pair,
            )),
            "aff1_bad_pair": documents.serialize(documents.document_dict(
                algebra=aff1.algebra, representation=adjoint,
                operators={"N": Matrix.identity(2), "S": Matrix([[0, 1], [0, 0]])},
            )),
            "malformed": json.dumps({"algebra": {
                "dim": 2, "basis": ["e1", "e2"],
                "brackets": [{"i": 0, "j": 1, "value": {"1": "1/0"}}],
            }}),
        }
        for name, text in writes.items():
            Path(p[name]).write_text(text, encoding="utf-8")
        kmax = self.kmax
        # (id, argv, expected exit code); a unit runs its commands in order.
        self.units = [
            [("validate", ["validate", p["aff1_kn"]], 0)],
            [("check_kn_aff1", ["check", "kn", p["aff1_kn"]], 0)],
            [("check_kdn_aff1", ["check", "kdn", p["aff1_kdn"]], 0)],
            [("check_kn_heis3", ["check", "kn", p["heis3_kn"]], 0)],
            [("check_kn_abelian", ["check", "kn", p["abelian_kn"]], 0)],
            [("check_nijenhuis", ["check", "nijenhuis", p["aff1_nij"]], 0)],
            [("check_r_matrix", ["check", "r_matrix", p["aff1_rmatrix"]], 0)],
            [("check_rbn", ["check", "rbn", p["sl2_rbn"]], 0)],
            [("check_deformation_pair", ["check", "deformation_pair", p["aff1_deformation"]], 0)],
            [("check_trivial_equivalence", ["check", "trivial_equivalence", p["aff1_deformation"]], 0)],
            [("check_bad_pair", ["check", "nijenhuis_pair", p["aff1_bad_pair"]], 1)],
            [("validate_malformed", ["validate", p["malformed"]], 2)],
            [("hierarchy_aff1_kn", ["hierarchy", p["aff1_kn"], "--kmax", kmax, "--json"], 0)],
            [("hierarchy_heis3_kn", ["hierarchy", p["heis3_kn"], "--kmax", kmax, "--json"], 0)],
            [("hierarchy_aff1_kdn", ["hierarchy", p["aff1_kdn"], "--kmax", kmax, "--json"], 0)],
            # The slowest command runs in both output modes, so that it makes
            # up a tenth of each round and p95 falls inside its cluster of
            # samples rather than on the edge between two clusters.
            [("hierarchy_heis3_kn_text", ["hierarchy", p["heis3_kn"], "--kmax", kmax], 0)],
            [
                ("convert_rbn_to_rmn", ["convert", "rbn-to-rmn", p["sl2_rbn"], "--output", p["rmn_out"]], 0),
                ("convert_rmn_to_rbn", ["convert", "rmn-to-rbn", p["rmn_out"], "--output", p["rbn_back"]], 0),
            ],
            [("catalog_export", ["catalog", "export", "sl2", "--bundle", "rbn_identity",
                                 "--output", p["sl2_export"]], 0)],
            [("search_rota_baxter", ["search", "rota_baxter", "--algebra", "aff1",
                                     "--grid", self.search_grid, "--json"], 0)],
        ]
        self.paths = p

    def run_pass(self, clock, begin) -> PassResult:
        out = PassResult()
        for unit in self.rng.sample(self.units, len(self.units)):
            for cmd_id, argv, _ in unit:
                stdout, stderr = io.StringIO(), io.StringIO()
                begin()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    t0 = clock()
                    try:
                        code = cli.main(argv)
                    except Exception as exc:  # counted as a failed verdict in check()
                        code = repr(exc)
                    out.samples.append(clock() - t0)
                out.records.append((cmd_id, code, stdout.getvalue(), stderr.getvalue()))
                out.verdicts += 1
        return out

    def answers(self, p: PassResult):
        return sorted(p.records, key=lambda r: r[0])

    def check(self, p: PassResult) -> tuple[int, list[str]]:
        expected_code = {cmd[0]: cmd[2] for unit in self.units for cmd in unit}
        failed, notes = 0, []
        for cmd_id, code, stdout, stderr in p.records:
            problem = ""
            if code != expected_code[cmd_id]:
                problem = f"exit {code}, expected {expected_code[cmd_id]}"
            elif self.first_output.setdefault(cmd_id, (stdout, stderr)) != (stdout, stderr):
                problem = "output differs from the first round"
            elif cmd_id in self.json_pins and sha256(stdout) != self.json_pins[cmd_id]:
                problem = "--json output differs from the pinned digest"
            if problem:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"{cmd_id}: {problem}")
        # Written documents: the RBN -> RMN -> RBN round trip and the export
        # are byte-identical to the catalog export made in setup.
        original = Path(self.paths["sl2_rbn"]).read_bytes()
        for name in ("rbn_back", "sl2_export"):
            if Path(self.paths[name]).read_bytes() != original:
                failed += 1
                notes.append(f"{name} differs from the catalog export of sl2/rbn_identity")
        return failed, notes


WORKLOADS = {w.name: w for w in (SearchWorkload, SweepWorkload, CliWorkload)}


def make(name: str, seed: int, size: str, pins: dict | None = None):
    pins = load_pins() if pins is None else pins
    return WORKLOADS[name](seed, size, pins[size])
