"""The benchmark's workloads: one op each, its inputs, and its output check.

Every op is a call into epwcalc's public API. `prepare` builds the inputs
from the op seed (untimed), `run` is the timed call, and `verify` returns a
list of problems (empty when the output is right).
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from epwcalc import cli, epw, incidence
from epwcalc.exterior import DIM3, ExteriorVector, SymplecticSpace
from epwcalc.linalg import Subspace
from epwcalc.scalars import GF, QQ

# pinned by the ROADMAP: the stated constant 57888 disagrees with both routes
PINNED_FAIL = "schubert.sym6_top_chern_stated_constant"
LARGE_PRIME = 100003
CHECK_PRIME = 10007


def op_seed(seed, k):
    """Seed of the k-th op of a run; op 0 runs the benchmark seed itself."""
    return seed + 1000 * k


class CliOp:
    """One `epwcalc run` in-process; the JSON report goes to a file."""

    def __init__(self, report_path, extra):
        self.report_path = report_path
        self.extra = extra

    def prepare(self, seed):
        return ["run", *self.extra, "--seed", str(seed), "--json", str(self.report_path)]

    def run(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        data = self.report_path.read_bytes()
        return {"rc": rc, "report": data, "sha256": hashlib.sha256(data).hexdigest()}


def _statuses(out):
    report = json.loads(out["report"])
    return report, [(c["id"], c["status"]) for c in report["checks"]]


class Battery(CliOp):
    """`run all` at CLI defaults: every suite, every layer."""

    name = "battery"
    op_seconds = 25.0

    def __init__(self, report_path):
        super().__init__(report_path, ["all"])

    def verify(self, argv, out):
        report, statuses = _statuses(out)
        problems = []
        if report["seed"] != int(argv[argv.index("--seed") + 1]):
            problems.append(f"report seed {report['seed']} differs from the op seed")
        suites_seen = {cid.split(".", 1)[0] for cid, _ in statuses}
        missing = set(cli.SUITE_ORDER) - suites_seen
        if missing:
            problems.append(f"suites missing from the report: {sorted(missing)}")
        if (PINNED_FAIL, "fail") not in statuses:
            problems.append(f"{PINNED_FAIL} must fail (pinned at 57888)")
        problems += [f"{cid}: {st}" for cid, st in statuses if cid != PINNED_FAIL and st != "pass"]
        if out["rc"] != 1:
            problems.append(f"exit code {out['rc']}, expected 1 for the one pinned failure")
        return problems


class LargePrime(CliOp):
    """`run epw` at p = 100003: the O(p) root scan of find_point_stats."""

    name = "large_prime"
    op_seconds = 6.0

    def __init__(self, report_path):
        super().__init__(report_path, ["epw", "--prime", str(LARGE_PRIME), "--trials", "10"])

    def verify(self, argv, out):
        report, statuses = _statuses(out)
        problems = [f"{cid}: {st}" for cid, st in statuses if st != "pass"]
        if not statuses:
            problems.append("empty report")
        if report["prime"] != LARGE_PRIME:
            problems.append(f"report prime {report['prime']}")
        if out["rc"] != 0:
            problems.append(f"exit code {out['rc']}")
        return problems


def _int_det_nonzero(rows):
    """Exact nonsingularity of a square integer matrix (Fraction elimination)."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return True


class RationalQQ:
    """Exact rational work through library calls, no F_p elimination:
    10 QQ fibers with isotropy, a QQ Lagrangian datum with 10 chart-0
    pairing determinants (Bareiss), and one QQ injective-differential kernel."""

    name = "rational_qq"
    op_seconds = 0.7

    def prepare(self, seed):
        rng = random.Random(int.from_bytes(hashlib.sha256(f"rational_qq|{seed}".encode()).digest()[:8], "big"))
        fibers = []
        while len(fibers) < 10:
            v = [rng.randint(-9, 9) for _ in range(6)]
            if any(v):
                fibers.append(v)
        points = [[1] + [rng.randint(-9, 9) for _ in range(5)] for _ in range(10)]
        # alpha_i = sum_j coeffs[i][j] * basis_j of the datum; a nonzero last
        # coefficient keeps alpha_i off the hyperplane spanned by basis_0..8
        while True:
            coeffs = [[rng.randint(-9, 9) for _ in range(9)] + [rng.choice((-2, -1, 1, 2))] for _ in range(10)]
            if _int_det_nonzero(coeffs):
                break
        return {"seed": seed, "fibers": fibers, "points": points, "coeffs": coeffs, "lagrangian_rng": rng.getrandbits(64)}

    def run(self, inputs):
        sq = SymplecticSpace(QQ)
        fibers = []
        for v in inputs["fibers"]:
            fib = sq.fiber(ExteriorVector(QQ, 1, v))
            fibers.append((fib.dim, sq.is_lagrangian(fib)))
        A = epw.EpwLagrangian(sq, sq.random_lagrangian(random.Random(inputs["lagrangian_rng"])))
        dets = [epw.pairing_det(A, v, 0) for v in inputs["points"]]
        basis = A.subspace.basis()
        u = Subspace.from_spanning(QQ, DIM3, basis[:9])
        alphas = [[sum((c * b[k] for c, b in zip(row, basis)), Fraction(0)) for k in range(DIM3)] for row in inputs["coeffs"]]
        kernel = incidence.injective_differential_kernel(sq, A.subspace, u, alphas)
        report = json.dumps({"fibers": fibers, "dets": [str(d) for d in dets], "kernel": kernel}).encode()
        return {"fibers": fibers, "datum": A, "dets": dets, "kernel": kernel, "sha256": hashlib.sha256(report).hexdigest()}

    def verify(self, inputs, out):
        problems = [f"fiber {i}: dim {d}, lagrangian {lag}" for i, (d, lag) in enumerate(out["fibers"]) if d != 10 or not lag]
        if len(out["fibers"]) != 10:
            problems.append(f"{len(out['fibers'])} fibers, expected 10")
        A = out["datum"]
        Fp = GF(CHECK_PRIME)
        try:
            reduced = Subspace.from_spanning(Fp, DIM3, [[Fp.of(x) for x in r] for r in A.subspace.basis()])
            Ap = epw.EpwLagrangian(SymplecticSpace(Fp), reduced)
        except (ZeroDivisionError, ValueError) as exc:
            return problems + [f"datum does not reduce mod {CHECK_PRIME}: {exc}"]
        if len(out["dets"]) != len(inputs["points"]):
            problems.append(f"{len(out['dets'])} determinants for {len(inputs['points'])} points")
        for v, d in zip(inputs["points"], out["dets"]):
            try:
                dp = Fp.of(d)
            except ZeroDivisionError:
                problems.append(f"det {d} at {v} has a denominator divisible by {CHECK_PRIME}")
                continue
            if dp != epw.pairing_det(Ap, v, 0):
                problems.append(f"det at {v}: QQ value mod {CHECK_PRIME} differs from the GF({CHECK_PRIME}) value")
            if (epw.fiber_intersection_dim(A, v) == 0) != (d != 0):
                problems.append(f"det at {v} disagrees with the fiber intersection dimension")
        if out["kernel"] != 0:
            problems.append(f"injective differential kernel {out['kernel']}, expected 0")
        return problems


def make(name, report_path):
    if name == "battery":
        return Battery(report_path)
    if name == "large_prime":
        return LargePrime(report_path)
    if name == "rational_qq":
        return RationalQQ()
    raise KeyError(name)


NAMES = ("battery", "large_prime", "rational_qq")
