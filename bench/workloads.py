"""The benchmark's three workloads: their configs, operations and output checks.

Each workload is a fixed list of `weaklind` command lines. A round runs every
one of them once, in order, in one process. The seed picks only what does not
change the amount of work: the spot-check points, the estimator scenarios'
`--seed` and the shift rows handed to `invert`. Grid sizes are constructor
arguments so that the tests can run the same checks on small grids.

Every check compares the program's output files with `reference.py`, never
with stored output, and returns a list of failure messages (empty = pass).
"""

from __future__ import annotations

import csv
import json
import math
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

PAPER_WV_AT_ZERO = 0.0954
PAPER_WV_AT_ZERO_TOL = 5e-4
PAPER_WV_LIMIT = complex(-0.346, 0.151)
PAPER_WV_LIMIT_TOL = 2e-3
# the estimator scenarios add Gaussian noise of this relative size per quadrature
SCENARIO_NOISE = 1e-4
NOISE_SIGMAS = 8.0
SPOT_CHECKS = 6


@dataclass
class Op:
    """One `weaklind` command line; `points` is the tau-grid points it completes."""

    label: str
    argv: list[str]
    points: int
    out: Path


@dataclass
class Context:
    """Where a workload writes, and what its seed chose.

    Each seeded choice draws from its own stream, keyed by what it is for, so
    that asking twice gives the same answer.
    """

    work: Path
    seed: int

    def __post_init__(self) -> None:
        (self.work / "configs").mkdir(parents=True, exist_ok=True)

    def rng(self, what: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(what.encode())])

    def draw(self, what: str) -> int:
        return int(self.rng(what).integers(2**32))

    def config(self, name: str, doc: dict) -> str:
        path = self.work / "configs" / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return str(path)

    def out(self, label: str) -> Path:
        return self.work / "out" / label.replace(" ", "_")

    def spots(self, what: str, n: int, k: int = SPOT_CHECKS) -> list[int]:
        picked = self.rng(what).choice(n, size=min(k, n), replace=False)
        return sorted(int(i) for i in picked)


# ------------------------------------------------------------- output parsing

def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


_BARE_NAN = re.compile(r"(?<=[\s\[,:])nan(?=\s*[,\]\}])")


def read_json(path: Path) -> dict:
    """The program writes a gap value as a bare `nan`, which strict JSON has no
    token for; read it as NaN so the rest of the document can be checked."""
    return json.loads(_BARE_NAN.sub("NaN", Path(path).read_text()))


def _close(a: complex, b: complex, tol: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= tol * max(scale, abs(b))


def check_probabilities(what: str, probs: np.ndarray) -> list[str]:
    bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)))
    return [f"{what}: probability outside [0, 1] at rows {bad[:5].tolist()}"] if len(bad) else []


def check_trace_points(what: str, taus, wv, probs, reference, indices,
                       tol: float = 1e-9) -> list[str]:
    """Compare (weak value, probability) rows with reference(tau) at indices."""
    bad = []
    for k in indices:
        tau, got, p = float(taus[k]), complex(wv[k]), float(probs[k])
        want_wv, want_p = reference(tau)
        if not (_close(got, want_wv, tol) and _close(p, want_p, tol)):
            bad.append(f"{what}: row {k} tau={tau!r} gives {got!r}, p={p!r}; "
                       f"reference {want_wv!r}, p={want_p!r}")
    return bad[:5]


def check_noisy_trace(what: str, taus, wv, reference) -> list[str]:
    """Seeded relative noise per quadrature: stay within NOISE_SIGMAS of it."""
    bad = []
    width = NOISE_SIGMAS * SCENARIO_NOISE
    for k, tau in enumerate(taus):
        want, _ = reference(float(tau))
        if (abs(wv[k].real - want.real) > width * abs(want.real) + 1e-12
                or abs(wv[k].imag - want.imag) > width * abs(want.imag) + 1e-12):
            bad.append(f"{what}: row {k} gives {wv[k]!r}, reference {want!r}")
    return bad[:5]


def read_trace_csv(path: Path, rate: float):
    header, rows = read_csv(path)
    if header != ["gamma_tau", "re_wv", "im_wv", "postselect_prob"]:
        raise ValueError(f"{path.name}: unexpected header {header}")
    gt, re_, im_, p = rows.T
    return gt / rate, re_ + 1j * im_, p


def check_grid(what: str, taus, stop: float, count: int) -> list[str]:
    want = np.linspace(0.0, stop, count)
    if len(taus) != count or np.abs(taus - want).max() > 1e-12 * stop:
        return [f"{what}: tau grid is not linspace(0, {stop}, {count})"]
    return []


def _pairs(amplitudes) -> list[list[float]]:
    return [[complex(a).real, complex(a).imag] for a in amplitudes]


# --------------------------------------------------------------- workloads

class Workload:
    """`name` as in BENCHMARK.json; `headline` labels the operation that also
    runs as a fresh `python -m weaklind` process."""

    name = ""
    headline = ""

    def operations(self, ctx: Context) -> list[Op]:
        raise NotImplementedError

    def prepare(self, ctx: Context, ops: list[Op], run_op) -> None:
        """Inputs derived from the program's own outputs (runs before round 1)."""

    def setup_configs(self, ctx: Context) -> list[str]:
        """The sweep configs a user validates before any sweep."""
        return [str(p) for p in sorted((ctx.work / "configs").glob("*.json"))
                if not p.name.startswith("invert")]

    def check(self, ctx: Context) -> list[str]:
        raise NotImplementedError


def _scenario(ctx: Context, name: str, points: int, *extra: str) -> Op:
    label = f"scenario {name}"
    out = ctx.out(label)
    return Op(label, ["scenario", name, *extra, "--out", str(out)], points, out)


def _command(ctx: Context, command: str, tag: str, config: str, points: int) -> Op:
    label = f"{command} {tag}"
    out = ctx.out(label)
    return Op(label, [command, "--config", config, "--out", str(out)], points, out)


class SodiumSweep(Workload):
    """Six-level alkali atom (J_g = 1/2 <-> J_e = 3/2) pumped at a constant rate."""

    name = "sodium-sweep"
    headline = "weak-value anomalous"

    PRE = [0.5, 0.5j, 0.5, 0.5, 0.0, 0.0]
    ALPHA = 0.0498
    POST = {
        "anomalous": [ALPHA, -0.995, 0.0, -ALPHA * (1.0 + 1.0j), ALPHA, -0.00734 + 0.00114j],
        "constant": [0.0, 0.0, 0.0, 0.0, 0.989, -0.146 + 0.0226j],
    }
    RATE = 1.0
    STOP = 40.0
    # the packaged scenarios' own grids (scenarios.sodium_anomalous / _constant)
    SCENARIO_POINTS = {"sodium-anomalous": 201, "sodium-constant": 401}

    def __init__(self, anomalous_points: int = 500, constant_points: int = 200):
        self.points = {"anomalous": anomalous_points, "constant": constant_points}

    def _doc(self, pair: str) -> dict:
        doc = {
            "version": 1,
            "system": {"dimension": 6, "pre": {"amplitudes": _pairs(self.PRE)},
                       "post": {"amplitudes": _pairs(self.POST[pair])}},
            "observable": {"named": "jy6"},
            "channel": {"named": "sodium", "rate": self.RATE},
            "sweep": {"start": 0.0, "stop": self.STOP, "count": self.points[pair],
                      "spacing": "linear"},
        }
        if pair == "constant":
            doc["output"] = {"format": "json"}
        return doc

    def operations(self, ctx: Context) -> list[Op]:
        return [
            _command(ctx, "weak-value", pair, ctx.config(pair, self._doc(pair)),
                     self.points[pair])
            for pair in ("anomalous", "constant")
        ] + [_scenario(ctx, name, n) for name, n in self.SCENARIO_POINTS.items()]

    def _reference(self):
        prop = ref.RowPropagator(ref.six_level_jumps(), [self.RATE] * 3, 6)
        A = ref.six_level_jy()
        rho_i = ref.ket_density(self.PRE)
        posts = {pair: ref.ket_density(amps) for pair, amps in self.POST.items()}
        return prop, A, rho_i, posts

    def check(self, ctx: Context) -> list[str]:
        prop, A, rho_i, posts = self._reference()
        limits = {pair: prop.limit(rho_i, posts[pair], A) for pair in posts}
        bad = []

        def point_ref(pair):
            return lambda tau: prop.weak_value(rho_i, posts[pair], A, tau)

        # weak-value, anomalous pair, CSV
        taus, wv, p = read_trace_csv(ctx.out("weak-value anomalous") / "weak_value.csv", self.RATE)
        bad += check_grid("weak-value anomalous", taus, self.STOP, self.points["anomalous"])
        bad += check_probabilities("weak-value anomalous", p)
        bad += check_trace_points("weak-value anomalous", taus, wv, p, point_ref("anomalous"),
                                  ctx.spots("anomalous", len(taus)))
        if not (abs(wv[0].real - PAPER_WV_AT_ZERO) <= PAPER_WV_AT_ZERO_TOL
                and abs(wv[0].imag) <= PAPER_WV_AT_ZERO_TOL):
            bad.append(f"weak-value anomalous: wv(0) = {wv[0]!r}, paper {PAPER_WV_AT_ZERO}")
        if not _close(wv[-1], limits["anomalous"], 1e-6):
            bad.append(f"weak-value anomalous: wv(tau={taus[-1]}) = {wv[-1]!r} is not the "
                       f"limit {limits['anomalous']!r}")

        # weak-value, constant pair, JSON with a gap at tau = 0
        doc = read_json(ctx.out("weak-value constant") / "weak_value.json")
        taus = np.array(doc["gamma_tau"]) / self.RATE
        wv = np.array(doc["re_wv"]) + 1j * np.array(doc["im_wv"])
        p = np.array(doc["postselect_prob"])
        bad += check_grid("weak-value constant", taus, self.STOP, self.points["constant"])
        bad += self._constant_pair("weak-value constant", wv, p, limits["constant"], doc["gaps"])
        bad += check_trace_points("weak-value constant", taus, wv, p, point_ref("constant"),
                                  [k + 1 for k in ctx.spots("constant", len(taus) - 1)])

        # the packaged scenarios
        out = ctx.out("scenario sodium-anomalous")
        taus, wv, p = read_trace_csv(out / "sodium-anomalous.csv", 1.0)
        bad += check_probabilities("scenario sodium-anomalous", p)
        bad += check_trace_points("scenario sodium-anomalous", taus, wv, p,
                                  point_ref("anomalous"),
                                  ctx.spots("sodium-anomalous", len(taus)))
        verdict = read_json(out / "sodium-anomalous.json")["verdict"]
        wv_inf = complex(*verdict["wv_at_infinity"])
        if abs(wv_inf - PAPER_WV_LIMIT) > PAPER_WV_LIMIT_TOL or not _close(
                wv_inf, limits["anomalous"], 1e-8):
            bad.append(f"scenario sodium-anomalous: limit {wv_inf!r}, paper {PAPER_WV_LIMIT}, "
                       f"reference {limits['anomalous']!r}")
        out = ctx.out("scenario sodium-constant")
        taus, wv, p = read_trace_csv(out / "sodium-constant.csv", 1.0)
        gaps = [k for k in range(len(wv)) if math.isnan(wv[k].real)]
        bad += self._constant_pair("scenario sodium-constant", wv, p, limits["constant"], gaps)
        bad += check_trace_points("scenario sodium-constant", taus, wv, p, point_ref("constant"),
                                  [k + 1 for k in ctx.spots("sodium-constant", len(taus) - 1)])
        return bad

    @staticmethod
    def _constant_pair(what: str, wv, p, limit: complex, gaps) -> list[str]:
        """Orthogonal at tau = 0 (the only gap), the limit value everywhere else."""
        bad = check_probabilities(what, p)
        if list(gaps) != [0] or not (math.isnan(wv[0].real) and p[0] == 0.0):
            bad.append(f"{what}: gaps {list(gaps)}, wv(0) = {wv[0]!r}, p(0) = {p[0]!r}; "
                       "expected one gap at index 0")
        drift = np.abs(wv[1:] - limit)
        if not drift.max() <= 1e-6:
            bad.append(f"{what}: weak value leaves its limit {limit!r} by {drift.max():.3e} "
                       f"at row {int(drift.argmax()) + 1}")
        return bad


EPSILON = 0.01
EPS_PRE = [EPSILON / 2.0, -1.0]
EPS_POST = [(1.0 - 1.0j) / math.sqrt(2.0), EPSILON / math.sqrt(2.0)]


def _bloch(amplitudes) -> list[float]:
    rho = ref.ket_density(amplitudes)
    return [float(np.trace(rho @ s).real) for s in ref.PAULI]


def _epsilon_reference(envelope):
    """Scenario data: sigma_x weak value on the amplification pair (eps = 0.01)."""
    i_vec, f_vec = _bloch(EPS_PRE), _bloch(EPS_POST)
    return lambda tau: ref.two_level_weak_value(i_vec, f_vec, ref.PAULI[0], envelope(tau))


def _check_scenario_trace(what: str, path: Path, rate: float, reference, noisy: bool,
                          want_taus) -> list[str]:
    taus, wv, p = read_trace_csv(path, rate)
    if len(taus) != len(want_taus) or np.abs(taus - want_taus).max() > 1e-12 * max(want_taus):
        return [f"{what}: unexpected tau grid {taus.tolist()}"]
    bad = check_probabilities(what, p)
    if noisy:
        return bad + check_noisy_trace(what, taus, wv, reference)
    return bad + check_trace_points(what, taus, wv, p, reference, range(len(taus)))


class MemoryKernelSweep(Workload):
    """Two-level atom in a lossy cavity: the time-dependent rate gamma(tau)."""

    name = "memory-kernel-sweep"
    headline = "weak-value strong"

    PRE = [0.6, 0.2, 0.5]
    POST = [0.3, -0.5, -0.7]
    # lam > 2 gamma0 (weak coupling) and lam < 2 gamma0 (strong coupling, poles
    # of gamma(tau) at the zeros of the envelope; the first at tau ~ 4.84)
    COUPLINGS = {"weak": (0.1, 1.0, 20.0), "strong": (1.0, 0.5, 8.0)}
    SCENARIO = (0.1, 1.0)           # gamma0, lam of estimate-lambda and classify
    SCENARIO_TAUS = np.linspace(1e-3, 1e-2, 10) / SCENARIO[1]

    def __init__(self, weak_points: int = 30, strong_points: int = 60):
        self.points = {"weak": weak_points, "strong": strong_points}

    def _doc(self, tag: str) -> dict:
        gamma0, lam, stop = self.COUPLINGS[tag]
        return {
            "version": 1,
            "system": {"dimension": 2, "pre": {"bloch": self.PRE}, "post": {"bloch": self.POST}},
            "observable": {"named": "sigma_x"},
            "channel": {"named": "nonmarkov_jc", "gamma0": gamma0, "lam": lam},
            "sweep": {"start": 0.0, "stop": stop, "count": self.points[tag], "spacing": "linear"},
        }

    def operations(self, ctx: Context) -> list[Op]:
        self.estimator_seed = ctx.draw("estimate-lambda")
        return [
            _command(ctx, "weak-value", tag, ctx.config(tag, self._doc(tag)), self.points[tag])
            for tag in ("weak", "strong")
        ] + [
            _scenario(ctx, "estimate-lambda", 10, "--seed", str(self.estimator_seed)),
            _scenario(ctx, "classify", 11),
        ]

    def check(self, ctx: Context) -> list[str]:
        bad = []
        for tag, (gamma0, lam, stop) in self.COUPLINGS.items():
            what = f"weak-value {tag}"
            taus, wv, p = read_trace_csv(ctx.out(what) / "weak_value.csv", gamma0)
            bad += check_grid(what, taus, stop, self.points[tag])
            envs = [ref.envelope(t, gamma0, lam) for t in taus]
            if tag == "strong" and min(envs) >= 0.0:
                bad.append(f"{what}: the grid crosses no pole of gamma(tau)")
            bad += check_probabilities(what, p)
            bad += check_trace_points(
                what, taus, wv, p,
                lambda tau, g0=gamma0, l=lam: ref.two_level_weak_value(
                    self.PRE, self.POST, ref.PAULI[0], ref.envelope(tau, g0, l)),
                range(len(taus)))
        gamma0, lam = self.SCENARIO
        scenario_ref = _epsilon_reference(lambda tau: ref.envelope(tau, gamma0, lam))
        out = ctx.out("scenario estimate-lambda")
        bad += _check_scenario_trace("scenario estimate-lambda", out / "estimate-lambda.csv",
                                     gamma0, scenario_ref, True, self.SCENARIO_TAUS)
        verdict = read_json(out / "estimate-lambda.json")["verdict"]
        if not abs(verdict["lambda_hat"] - lam) <= 0.02 * lam:
            bad.append(f"scenario estimate-lambda: lambda_hat {verdict['lambda_hat']!r}, "
                       f"true {lam}")
        out = ctx.out("scenario classify")
        bad += _check_scenario_trace("scenario classify", out / "classify.csv", gamma0,
                                     scenario_ref, False,
                                     np.concatenate([[0.0], self.SCENARIO_TAUS]))
        verdict = read_json(out / "classify.json")["verdict"]
        if verdict["verdict"] != "strongly-non-Markovian":
            bad.append(f"scenario classify: verdict {verdict['verdict']!r}")
        return bad


class MeterShifts(Workload):
    """Two-level amplitude damping read out through the meter's quadratures."""

    name = "meter-shifts"
    headline = "shifts jc"

    PRE = [0.55, 0.15, 0.6]
    POST = [-0.5, -0.2, -0.8]
    GAMMA = 0.5
    STOP = 10.0
    METERS = {
        "jc": {"omega_f": 1.3, "n_max": 20, "state": "number", "n": 2, "g": 1e-3, "t": 1.0,
               "Delta": 0.02, "model": "jc"},
        "rabi": {"omega_f": 1.3, "n_max": 20, "state": "thermal", "n": 0.5, "g": 1e-3,
                 "t": 1.0, "model": "rabi"},
    }
    INVERTS = 4
    COLUMNS = {
        "jc": "gamma_tau,q_shift,p_shift,re_wv_plus,im_wv_plus,re_wv_minus,im_wv_minus",
        "rabi": "gamma_tau,q_shift,p_shift,re_wv,im_wv",
    }
    ESTIMATE_TAUS = np.linspace(1e-3, 1e-2, 10) / 0.1

    def __init__(self, jc_points: int = 1000, rabi_points: int = 1000):
        self.points = {"jc": jc_points, "rabi": rabi_points}

    def _doc(self, model: str) -> dict:
        return {
            "version": 1,
            "system": {"dimension": 2, "pre": {"bloch": self.PRE}, "post": {"bloch": self.POST}},
            "observable": {"named": "sigma_x"},
            "channel": {"named": "amplitude_damping", "gamma": self.GAMMA},
            "sweep": {"start": 0.0, "stop": self.STOP, "count": self.points[model],
                      "spacing": "linear"},
            "meter": self.METERS[model],
        }

    def operations(self, ctx: Context) -> list[Op]:
        self.estimator_seed = ctx.draw("estimate-gamma")
        self.invert_rows = ctx.spots("invert", self.points["rabi"], self.INVERTS)
        ops = [_command(ctx, "shifts", m, ctx.config(m, self._doc(m)), self.points[m])
               for m in ("jc", "rabi")]
        ops += [_command(ctx, "invert", f"row{k}", str(ctx.work / "configs" / f"invert{k}.json"),
                         0)
                for k in self.invert_rows]
        ops += [_scenario(ctx, "estimate-gamma", 10, "--seed", str(self.estimator_seed)),
                _scenario(ctx, "classify", 11, "--channel", "amplitude_damping")]
        return ops

    def prepare(self, ctx: Context, ops: list[Op], run_op) -> None:
        """`invert` reads the shifts at seeded rows of the rabi output."""
        rabi = next(op for op in ops if op.label == "shifts rabi")
        run_op(rabi)
        header, rows = read_csv(rabi.out / "shifts.csv")
        for k in self.invert_rows:
            gt, q, p = rows[k][:3]
            ctx.config(f"invert{k}", {
                "version": 1, "meter": self.METERS["rabi"],
                "invert": {"Q_f": q, "P_f": p, "tau": gt / self.GAMMA}})

    def _wv_ref(self, A):
        return lambda tau: ref.two_level_weak_value(
            self.PRE, self.POST, A, ref.markov_envelope(tau, self.GAMMA))

    def _read(self, ctx: Context, model: str) -> tuple[list[str], np.ndarray]:
        what = f"shifts {model}"
        header, rows = read_csv(ctx.out(what) / "shifts.csv")
        bad = [f"{what}: header {header}"] if ",".join(header) != self.COLUMNS[model] else []
        bad += check_grid(what, rows[:, 0] / self.GAMMA, self.STOP, self.points[model])
        return bad, rows

    def check(self, ctx: Context) -> list[str]:
        m = self.METERS["jc"]
        bad, rows = self._read(ctx, "jc")
        gt, q, p, rp, ip, rm, im = rows.T
        taus = gt / self.GAMMA
        wp, wm = rp + 1j * ip, rm + 1j * im
        plus, minus = self._wv_ref(ref.RAISE), self._wv_ref(ref.LOWER)
        scale = m["g"] * m["t"]
        for k, tau in enumerate(taus):
            want_p, want_m = plus(tau)[0], minus(tau)[0]
            want_q, want_pp = ref.jc_shifts(want_p, want_m, m["n"], m["g"], m["t"], tau,
                                            m["omega_f"], m["Delta"])
            if not (_close(wp[k], want_p, 1e-9) and _close(wm[k], want_m, 1e-9)):
                bad.append(f"shifts jc: row {k} ladder weak values {wp[k]!r}, {wm[k]!r}; "
                           f"reference {want_p!r}, {want_m!r}")
            if not (_close(q[k], want_q, 1e-9, scale) and _close(p[k], want_pp, 1e-9, scale)):
                bad.append(f"shifts jc: row {k} shifts ({q[k]!r}, {p[k]!r}); "
                           f"reference ({want_q!r}, {want_pp!r})")
        m = self.METERS["rabi"]
        more, rows = self._read(ctx, "rabi")
        bad += more
        scale = m["g"] * m["t"]
        gt, q, p, re_, im_ = rows.T
        wv = re_ + 1j * im_
        sx = self._wv_ref(ref.PAULI[0])
        for k, tau in enumerate(gt / self.GAMMA):
            want = sx(tau)[0]
            want_q, want_pp = ref.rabi_shifts(want, m["n"], m["g"], m["t"], tau, m["omega_f"])
            if not _close(wv[k], want, 1e-9):
                bad.append(f"shifts rabi: row {k} weak value {wv[k]!r}, reference {want!r}")
            if not (_close(q[k], want_q, 1e-9, scale) and _close(p[k], want_pp, 1e-9, scale)):
                bad.append(f"shifts rabi: row {k} shifts ({q[k]!r}, {p[k]!r}); "
                           f"reference ({want_q!r}, {want_pp!r})")
        for k in self.invert_rows:
            got = complex(*read_json(ctx.out(f"invert row{k}") / "invert.json")["weak_value"])
            if not _close(got, wv[k], 1e-6):
                bad.append(f"invert row{k}: recovered {got!r}, the shifts came from {wv[k]!r}")
        out = ctx.out("scenario estimate-gamma")
        eps_ref = _epsilon_reference(lambda tau: ref.markov_envelope(tau, 0.1))
        bad += _check_scenario_trace("scenario estimate-gamma", out / "estimate-gamma.csv", 0.1,
                                     eps_ref, True, self.ESTIMATE_TAUS)
        verdict = read_json(out / "estimate-gamma.json")["verdict"]
        if not abs(verdict["gamma_hat"] - 0.1) <= 0.01 * 0.1:
            bad.append(f"scenario estimate-gamma: gamma_hat {verdict['gamma_hat']!r}, true 0.1")
        out = ctx.out("scenario classify")
        bad += _check_scenario_trace("scenario classify", out / "classify.csv", 0.1, eps_ref,
                                     False, np.concatenate([[0.0], self.ESTIMATE_TAUS]))
        verdict = read_json(out / "classify.json")["verdict"]
        if verdict["verdict"] != "Markovian":
            bad.append(f"scenario classify: verdict {verdict['verdict']!r}")
        return bad[:20]


WORKLOADS = {w.name: w for w in (SodiumSweep, MemoryKernelSweep, MeterShifts)}
