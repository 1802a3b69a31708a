"""The four benchmark workloads.

Each workload generates its inputs from the seed with `ccpt.signals` when it
is constructed, before anything is timed. `setup()` returns the cold pass:
the operations that build what later operations reuse (dictionaries and
their Gram) followed by one full cycle, which fills the package's caches.
`cycle(i)` returns the operations of the i-th warm cycle. Every operation
calls only public functions, looked up on their modules at call time so that
a traced run can wrap them, and every output is checked against the
references in `oracles`.

Operations within a cycle differ in cost by orders of magnitude, so runs
always end on a cycle boundary: each kind then appears equally often and the
latency percentiles fall on the same kind from run to run.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O

T = importlib.import_module("ccpt.transform")
P = importlib.import_module("ccpt.period")
S = importlib.import_module("ccpt.signals")
CLI = importlib.import_module("ccpt.cli")

FAMILIES = ("dft-npm", "rpt", "ccpt1", "ccpt2", "occpt")


@dataclass
class Op:
    """One operation. `run` is the timed part; `collect` (untimed) turns its
    result into checkable data; `check` returns (problems, period hit), the
    hit being None for operations without a period answer."""

    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], tuple[list[str], bool | None]]
    collect: Callable[[dict], dict] | None = None


def _no_check(out) -> tuple[list[str], bool | None]:
    return [], None


class Workload:
    name = ""
    tag = 0
    # Latency percentile reported as the tail; see each workload.
    tail_pct = 90.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, self.tag])

    def _seeds(self, n: int) -> list[int]:
        return [int(s) for s in self.rng.integers(0, 2**31 - 1, size=n)]

    def state_ops(self) -> list[Op]:
        return []

    def setup(self) -> list[Op]:
        return self.state_ops() + self.cycle(0)

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def probe(self) -> dict | None:
        return None


class PaperTrials(Workload):
    """The paper's N = 54 reproductions over many noise seeds.

    Per-call overhead dominates: the transform kernels are a few percent of
    a trial. One trial is one operation; its period answer is a hit when the
    orthogonal divisor estimate of x1 is 18, the dictionary estimate of x2
    is 40, and the candidate solve ranks the planted period first.
    """

    name = "paper-trials"
    tag = 1
    # Trials last about a millisecond, so the top percent is scheduler and
    # collector pauses rather than the package; p90 still has hundreds of
    # samples beyond it.
    tail_pct = 90.0
    POOL = 256
    P_MAX = 50
    CANDIDATES = (5, 8)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        s1, s2, s3 = (self._seeds(self.POOL) for _ in range(3))
        self.x1 = [S.make_x1(noise_seed=s).samples for s in s1]
        self.x2 = [S.make_x2(noise_seed=s).samples for s in s2]
        self.planted = [self.CANDIDATES[i % 2] for i in range(self.POOL)]
        noise = self.rng.normal(0.0, 0.05, size=(self.POOL, 12))
        self.xc = [S.hidden_periodic_component(p, 12, s) + e
                   for p, s, e in zip(self.planted, s3, noise)]
        self.bases = {f: O.basis(f, O.divisors(54), 54) for f in FAMILIES if f != "occpt"}
        self.F = O.basis("occpt", range(1, self.P_MAX + 1), 54)
        self.cand_addr = [a for q in sorted({d for p in self.CANDIDATES for d in O.divisors(p)})
                          for a in O.block_addresses("occpt", q)]
        self.H = np.column_stack([O.column(*a, 12) for a in self.cand_addr])
        self.dictionary = None

    def sizes(self):
        return {"N": 54, "families": list(FAMILIES), "p_max": self.P_MAX,
                "candidates": list(self.CANDIDATES), "candidate_N": 12, "pool": self.POOL}

    def _build(self):
        self.dictionary = P.build_dictionary(54, self.P_MAX, "occpt", "p2")
        self.dictionary.gram()
        return {}

    def state_ops(self):
        return [Op("build-dictionary", self._build, _no_check)]

    def cycle(self, i):
        j = i % self.POOL
        return [Op("trial", lambda: self._trial(j), lambda out: self._check(j, out))]

    def _trial(self, j):
        x1 = self.x1[j]
        coeffs, reports, synth = {}, {}, {}
        for fam in FAMILIES:
            coeffs[fam] = T.analyze(x1, fam)
            reports[fam] = P.period_strengths(coeffs[fam])
            synth[fam] = T.synthesize(coeffs[fam])
        comps = P.frequency_components(coeffs["occpt"], fs=360.0)
        sol = P.dictionary_solve(self.x2[j], self.dictionary)
        cand = P.candidate_matrix_solve(self.xc[j], self.CANDIDATES)
        return {"coeffs": coeffs["occpt"], "period": reports["occpt"].estimated_period,
                "families": coeffs, "reports": reports, "synth": synth, "comps": comps,
                "solution": sol, "dict_period": sol.estimated_period(), "candidate": cand}

    def _check(self, j, out):
        x1, x2, xc = self.x1[j], self.x2[j], self.xc[j]
        want = O.packed_rfft(x1)
        problems = O.close("occpt coefficients", out["coeffs"].flat, want)
        for fam in FAMILIES:
            if fam != "occpt":
                problems += O.residual(f"{fam} coefficients", self.bases[fam],
                                       out["families"][fam].flat, x1, O.COEFF_RTOL)
            problems += O.close(f"{fam} synthesis", out["synth"][fam], x1)
        problems += O.strengths_match("occpt strengths", out["reports"]["occpt"].strengths,
                                      O.divisor_strengths(want))
        problems += O.components_match(out["comps"], x1, 360.0)
        problems += O.residual("dictionary", self.F, out["solution"].b_hat, x2, O.COEFF_RTOL)
        cand_want = O.block_strengths(self.cand_addr, np.linalg.solve(self.H, xc))
        problems += O.strengths_match("candidate strengths", out["candidate"].strengths,
                                      cand_want, 1e-8)
        cs = out["candidate"].candidate_strengths
        hit = (out["period"] == 18 and out["dict_period"] == 40
               and max(cs, key=cs.get) == self.planted[j])
        return problems, hit


class LongRecords(Workload):
    """The divisor-period method on long records.

    The length mix straddles the 1024-sample kernel cache and the dense
    matrices' 4096 cap, so transform analysis and synthesis, dense matrices
    and memory dominate. One record is one operation; its period answer is
    the divisor estimate against the hidden period. N = 5000 is beyond the
    dense-matrix cap and fails there, so it runs once per run as an
    untimed probe (see `probe`) instead of inside the timed mix.
    """

    name = "long-records"
    tag = 2
    # With seven lengths per cycle this lands mid-way into the N = 3600 group.
    tail_pct = 79.0
    # N = 2000 keeps the cycle at seven records with 5000 in the probe: with
    # an odd count the median falls inside the 2000/2048 cluster instead of
    # on the boundary between two lengths.
    LENGTHS = (625, 1000, 1024, 2000, 2048, 3600, 4096)
    PERIOD = {625: 25, 1000: 40, 1024: 32, 2000: 50, 2048: 64, 3600: 36, 4096: 64, 5000: 50}
    PROBE_N = 5000
    VARIANTS = 3
    NOISE = 0.1
    FS = 1.0
    # Band edges fall between bins at every length in the mix.
    BAND = (0.0503, 0.2497)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.records = {}
        for N in self.LENGTHS + (self.PROBE_N,):
            for v in range(self.VARIANTS):
                (cs,) = self._seeds(1)
                x = S.hidden_periodic_component(self.PERIOD[N], N, cs) \
                    + self.rng.normal(0.0, self.NOISE, N)
                self.records[N, v] = (x, int(self.rng.integers(1, N)))

    def sizes(self):
        return {"lengths": list(self.LENGTHS), "periods": self.PERIOD, "probe_N": self.PROBE_N,
                "variants": self.VARIANTS, "noise_sigma": self.NOISE, "band": list(self.BAND)}

    def cycle(self, i):
        v = i % self.VARIANTS
        return [Op(f"record-{N}", lambda N=N: self._record(N, v),
                   lambda out, N=N: self._check(N, v, out)) for N in self.LENGTHS]

    def _record(self, N, v):
        x, m = self.records[N, v]
        c = T.occpt_analysis(x)
        report = P.period_strengths(c)
        return {"coeffs": c, "period": report.estimated_period, "report": report,
                "comps": P.frequency_components(c, fs=self.FS),
                "dft": T.dft_from_occpt(c), "shifted": T.shift_coefficients(c, m),
                "energy": T.parseval_energy(c), "band": CLI.band_filter(c, self.FS, *self.BAND),
                "signal": T.occpt_synthesis(c)}

    def _check(self, N, v, out):
        x, m = self.records[N, v]
        want = O.packed_rfft(x)
        problems = O.close("coefficients", out["coeffs"].flat, want)
        problems += O.strengths_match("strengths", out["report"].strengths, O.divisor_strengths(want))
        problems += O.components_match(out["comps"], x, self.FS)
        problems += O.close("dft", out["dft"], np.fft.fft(x))
        problems += O.close("shift", out["shifted"].flat, O.packed_rfft(np.roll(x, m)))
        energy = float(np.dot(x, x))
        if abs(out["energy"] - energy) > O.COEFF_RTOL * energy:
            problems.append(f"parseval energy {out['energy']!r} != {energy!r}")
        problems += O.close("band filter", out["band"].flat,
                            want * O.band_mask(N, self.FS, *self.BAND))
        problems += O.close("synthesis", out["signal"], x)
        return problems, out["period"] == self.PERIOD[N]

    def probe(self):
        """Run the record pipeline once at N = 5000, call by call, and
        report which calls raise."""
        x, m = self.records[self.PROBE_N, 0]
        failed = {}
        try:
            c = T.occpt_analysis(x)
        except Exception as exc:  # the probe reports any failure
            return {"N": self.PROBE_N, "calls": 1, "failed": {"transform.occpt_analysis": repr(exc)}}
        problems = O.close("coefficients", c.flat, O.packed_rfft(x))
        calls = {
            "period.period_strengths": lambda: P.period_strengths(c),
            "period.frequency_components": lambda: P.frequency_components(c, fs=self.FS),
            "transform.dft_from_occpt": lambda: T.dft_from_occpt(c),
            "transform.shift_coefficients": lambda: T.shift_coefficients(c, m),
            "transform.parseval_energy": lambda: T.parseval_energy(c),
            "cli.band_filter": lambda: CLI.band_filter(c, self.FS, *self.BAND),
            "transform.occpt_synthesis": lambda: T.occpt_synthesis(c),
        }
        for name, call in calls.items():
            try:
                result = call()
            except Exception as exc:  # the probe reports any failure
                failed[name] = f"{type(exc).__name__}: {exc}"
                continue
            if name == "transform.occpt_synthesis":
                problems += O.close("synthesis", result, x)
        return {"N": self.PROBE_N, "calls": len(calls) + 1, "failed": failed, "problems": problems}


class DictionaryLarge(Workload):
    """Non-divisor period estimation against large dictionaries.

    Dictionary build, Gram and solve are the whole cost; both Grams are
    ill-conditioned, so solves take the least-squares fallback. One solve is
    one operation; its period answer is the dictionary estimate against the
    lcm of the hidden pair.
    """

    name = "dictionary-large"
    tag = 3
    # A cycle solves twice against the occpt dictionary and once against the
    # farey one, so the median and this tail land inside the occpt solves.
    tail_pct = 75.0
    DICTS = (("occpt", 512, 64), ("farey", 360, 48))
    PAIRS = ((5, 8), (7, 12), (9, 11))
    VARIANTS = 4
    AMPLITUDE = 0.6
    SNR_DB = 10.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.signals = {}
        for fam, N, _ in self.DICTS:
            sigma = S.line_noise_sigma(self.AMPLITUDE, self.SNR_DB)
            rows = []
            for p1, p2 in self.PAIRS:
                for _ in range(self.VARIANTS):
                    (cs,) = self._seeds(1)
                    x = S.hidden_periodic_component(p1, N, cs) \
                        + S.tone(self.AMPLITUDE, 1.0, p2, N, float(self.rng.uniform(0, 2 * np.pi))) \
                        + self.rng.normal(0.0, sigma, N)
                    rows.append((x, lcm(p1, p2)))
            self.signals[fam] = rows
        self.dicts = {}
        self._oracle = {}

    def sizes(self):
        return {"dictionaries": [{"family": f, "N": N, "p_max": p} for f, N, p in self.DICTS],
                "pairs": [list(p) for p in self.PAIRS], "variants": self.VARIANTS,
                "snr_db": self.SNR_DB, "penalty": "p2"}

    def _build(self, fam, N, p_max):
        d = P.build_dictionary(N, p_max, fam, "p2")
        d.gram()
        self.dicts[fam] = d
        return {}

    def state_ops(self):
        return [Op(f"build-{fam}", lambda a=(fam, N, p): self._build(*a), _no_check)
                for fam, N, p in self.DICTS]

    def cycle(self, i):
        n = len(self.PAIRS) * self.VARIANTS
        picks = [("occpt", 2 * i % n), ("occpt", (2 * i + 1) % n), ("farey", i % n)]
        return [Op(f"solve-{fam}", lambda fam=fam, j=j: self._solve(fam, j),
                   lambda out, fam=fam, j=j: self._check(fam, j, out)) for fam, j in picks]

    def _solve(self, fam, j):
        sol = P.dictionary_solve(self.signals[fam][j][0], self.dicts[fam])
        return {"coeffs": sol.b_hat, "period": sol.estimated_period(), "solution": sol}

    def _check(self, fam, j, out):
        x, truth = self.signals[fam][j]
        d = self.dicts[fam]
        if fam not in self._oracle:
            self._oracle[fam] = np.column_stack(
                [O.column(c.p, c.k, c.kind, c.shift, d.N) for c in d.columns])
        return O.residual("dictionary", self._oracle[fam], out["coeffs"], x), out["period"] == truth


class CliFixtures(Workload):
    """In-process `ccpt.cli.main` over the bundled fixtures.

    The only production path into `foccpt`, CSV parsing and
    `coefficients_to_dict`. One command is one operation; the `periods`
    commands on x1 and x2 carry period answers (18 and 40), the one on the
    ecg has no ground truth.
    """

    name = "cli-fixtures"
    tag = 4
    # Thirteen commands per cycle (an odd count keeps the median inside the
    # cluster of 625-sample commands); this lands inside the second-slowest
    # kind, the 4096-sample transform.
    tail_pct = 90.0
    VARIANTS = 4
    ECG_LONG = 4096
    FS = 62.5
    BAND = "8:20"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = {}
        s1, s2, (se,) = self._seeds(self.VARIANTS), self._seeds(self.VARIANTS), self._seeds(1)
        for v in range(self.VARIANTS):
            self._write(f"x1_{v}", S.make_x1(noise_seed=s1[v]).samples)
            self._write(f"x2_{v}", S.make_x2(noise_seed=s2[v]).samples)
        self._write("ecg", S.synthetic_ecg(seed=se).samples)
        self._write("ecg4096", S.synthetic_ecg(seed=se, length=self.ECG_LONG).samples)
        self._bases = {}

    def _write(self, name, samples):
        path = self.workdir / f"{name}.csv"
        CLI.write_signal_csv(path, samples)
        self.inputs[name] = (path, np.loadtxt(path, skiprows=1, ndmin=1))

    def sizes(self):
        return {"fixtures": {k: len(x) for k, (_, x) in sorted(self.inputs.items())},
                "variants": self.VARIANTS, "fs": self.FS, "band": self.BAND,
                "dictionary": {"p_max": 50, "penalty": "p2"}}

    def cycle(self, i):
        v = i % self.VARIANTS
        x1, x2 = f"x1_{v}", f"x2_{v}"
        ops = [self._transform(name, "occpt") for name in (x1, x2, "ecg", "ecg4096")]
        ops += [self._transform(name, fam) for fam in ("rpt", "ccpt2") for name in (x1, "ecg")]
        ops += [self._periods(x1, "matrix", 18), self._periods("ecg", "matrix", None),
                self._periods(x2, "dictionary", 40)]
        ops += [self._filter(name) for name in ("ecg", "ecg4096")]
        return ops

    def _main(self, argv, out_path):
        code = CLI.main(argv)
        return {"exit": code, "path": out_path}

    def _read_json(self, out):
        if out["exit"] != 0:
            return {**out, "data": None}
        with open(out["path"]) as fh:
            return {**out, "data": json.load(fh)}

    def _transform(self, name, fam):
        path, x = self.inputs[name]
        out_path = self.workdir / f"transform-{fam}-{name}.json"
        argv = ["transform", "--input", str(path), "--family", fam, "--out", str(out_path)]

        def collect(out):
            out = self._read_json(out)
            if out["data"] is not None:
                out["coeffs"] = np.array(out["data"]["flat"])
            return out

        def check(out):
            if out["data"] is None:
                return [f"exit code {out['exit']}"], None
            flat, data = out["coeffs"], out["data"]
            if fam == "occpt":
                problems = O.close("flat", flat, O.packed_rfft(x))
                N = len(x)
                slots = [(N * e["k"] // e["p"]) % N if e["kind"] == "cos" else N - N * e["k"] // e["p"]
                         for e in data["indexed"]]
                problems += O.close("indexed", [e["value"] for e in data["indexed"]], flat[slots])
            else:
                key = (fam, len(x))
                if key not in self._bases:
                    self._bases[key] = O.basis(fam, O.divisors(len(x)), len(x))
                problems = O.residual("flat", self._bases[key], flat, x, O.COEFF_RTOL)
                problems += O.close("indexed", [e["value"] for e in data["indexed"]], flat)
            if len(data["indexed"]) != len(x):
                problems.append(f"{len(data['indexed'])} indexed coefficients for N={len(x)}")
            return problems, None

        return Op(f"transform-{fam}-{name.split('_')[0]}", lambda: self._main(argv, out_path),
                  check, collect)

    def _periods(self, name, method, truth):
        path, x = self.inputs[name]
        out_path = self.workdir / f"periods-{method}-{name}.json"
        argv = ["periods", "--input", str(path), "--method", method, "--out", str(out_path)]
        if method == "dictionary":
            argv += ["--pmax", "50", "--penalty", "p2"]

        def collect(out):
            out = self._read_json(out)
            if out["data"] is not None:
                out["period"] = out["data"]["estimated_period"]
            return out

        def check(out):
            if out["data"] is None:
                return [f"exit code {out['exit']}"], None if truth is None else False
            got = {int(p): s for p, s in out["data"]["strengths"].items()}
            if method == "matrix":
                want = O.divisor_strengths(O.packed_rfft(x))
                problems = O.strengths_match("strengths", got, want)
            else:
                problems = O.strengths_match("strengths", got, self._dictionary_strengths(x), 1e-6)
            return problems, None if truth is None else out["period"] == truth

        return Op(f"periods-{method}-{name.split('_')[0]}", lambda: self._main(argv, out_path),
                  check, collect)

    def _dictionary_strengths(self, x):
        """Closed-form weighted minimum-norm solution, b = W F^T (F W F^T)^-1 x,
        with F built from its definition (well-conditioned at N = 54)."""
        N = len(x)
        addresses = [a for p in range(1, 51) for a in O.block_addresses("occpt", p)]
        F = np.column_stack([O.column(*a, N) for a in addresses])
        w = np.array([1.0 / a[0] ** 4 for a in addresses])
        return O.block_strengths(addresses, w * (F.T @ np.linalg.solve((F * w) @ F.T, x)))

    def _filter(self, name):
        path, x = self.inputs[name]
        out_path = self.workdir / f"filtered-{name}.csv"
        argv = ["filter-band", "--input", str(path), "--fs", str(self.FS), "--band", self.BAND,
                "--out", str(out_path)]
        lo, hi = (float(v) for v in self.BAND.split(":"))

        def collect(out):
            if out["exit"] == 0:
                out = {**out, "signal": np.loadtxt(out["path"], skiprows=1, ndmin=1)}
            return out

        def check(out):
            if "signal" not in out:
                return [f"exit code {out['exit']}"], None
            N = len(x)
            mask = O.band_mask(N, self.FS, lo, hi)[:N // 2 + 1]
            want = np.fft.irfft(np.fft.rfft(x) * mask, N)
            return O.close("filtered signal", out["signal"], want), None

        return Op(f"filter-band-{name}", lambda: self._main(argv, out_path), check, collect)


WORKLOADS = {w.name: w for w in (PaperTrials, LongRecords, DictionaryLarge, CliFixtures)}
