"""The benchmark's workloads: inputs made from the seed, one timed call into
the package's public API, and the check of that call's output.

Every workload passes the seed to the program only as ``master_seed``.
``call`` is what the benchmark times; ``check`` runs untimed and returns
the reasons the output is wrong (empty when it is right). ``items`` is the
number of trials, graphs or bounds one call produces; call ``k`` uses
input ``k % cycle``, so ``cycle`` calls make one round of distinct inputs. The traced run makes
the fixed calls ``trace_calls`` with the workload built from
``trace_options``, so its counts repeat for a fixed seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

from sectorgraphs import bounds, cli, harness, model, randomness, theory
from sectorgraphs.degree_sets import DegreeSet
from sectorgraphs.geometry import angle_in_arc

# The paper's central configuration.
ALPHA = math.pi
MU = 1.0
V = 0.1
Q = 0.2
# Trials of each mode that mc_focus replays serially against the pool.
REPLAY = 10


def master_seed(seed: int, *labels) -> int:
    """A 63-bit program seed derived from the workload seed and labels."""
    digest = hashlib.blake2b(repr((seed, *labels)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class McFocus:
    """``sectorgraphs verify --mode both`` at n = 10^4, one call at a time."""

    name = "mc_focus"
    # The traced run makes one smaller call and runs its trials serially in
    # this process, so spans need no transport between processes.
    trace_calls = [0]
    trace_options = {"trials": 100, "parallelism": 1}

    def __init__(self, seed: int, workdir: Path, trials: int = 200,
                 parallelism: int | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.trials = trials
        self.parallelism = parallelism or nproc()
        self.items = 2 * trials  # binomial and poisson mode
        self.cycle = 1
        self.mode_params: dict[str, model.ModelParams] = {}

    def call(self, k: int):
        out = self.workdir / f"verify-{k}"
        argv = [
            "verify", "--n", "10000", "--alpha", "pi", "--mu-target", str(MU),
            "--v", str(V), "--q", str(Q), "--mode", "both",
            "--trials", str(self.trials), "--parallelism", str(self.parallelism),
            "--seed", str(master_seed(self.seed, self.name, k)), "--out", str(out),
        ]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(argv)
        return code, text.getvalue(), out

    def check(self, k: int, output) -> list[str]:
        code, text, out = output
        fails = []
        if code != 0:
            fails.append(f"verify exit code {code}")
        if text.strip().splitlines()[-1:] != ["verdict: PASS"]:
            fails.append("verify verdict is not PASS")
        try:
            report = json.loads((out / "report.json").read_text())
            for mode, rep in report["reports"].items():
                params = model.ModelParams(**rep["params"])
                self.mode_params[mode] = params
                # Trial t depends only on (master_seed, t): a serial replay
                # of a prefix must give the same records as the pool.
                replay = harness.run_trials(params, REPLAY, parallelism=1)
                harness.write_trials_csv(replay, out / "replay.csv")
                pooled = (out / f"trials_{mode}.csv").read_text().splitlines()
                if len(pooled) != self.trials + 1:
                    fails.append(f"{mode}: trials csv has {len(pooled) - 1} rows")
                if (out / "replay.csv").read_text().splitlines() != pooled[: REPLAY + 1]:
                    fails.append(f"{mode}: serial replay differs from pooled records")
        except (OSError, KeyError, ValueError) as exc:
            fails.append(f"verify output unreadable: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        return fails

    def parallel_efficiency(self, workers: int) -> tuple[float, list[str]]:
        """Serial trial time / (workers x pool wall time) on the last
        checked call's parameters, and failures (pooled records must equal
        serial ones)."""
        serial = pooled = 0.0
        fails = []
        for mode, params in sorted(self.mode_params.items()):
            t0 = time.perf_counter()
            one = harness.run_trials(params, self.trials, parallelism=1)
            t1 = time.perf_counter()
            many = harness.run_trials(params, self.trials, parallelism=workers)
            t2 = time.perf_counter()
            serial += t1 - t0
            pooled += t2 - t1
            if one != many:
                fails.append(f"{mode}: pooled records differ from serial ones")
        return serial / (workers * pooled), fails


class Graph1e6:
    """``sample_graph`` + ``degree_summary`` on one Poisson graph, n = 10^6."""

    name = "graph_1e6"
    trace_calls = [0]
    trace_options: dict = {}

    def __init__(self, seed: int, workdir: Path, n: int = 10**6, spot: int = 16):
        r = theory.radius_for_mean_degree(n, ALPHA, V, Q, MU)
        self.params = model.ModelParams(
            n=n, alpha=ALPHA, r=r, v=V, q=Q, mode="poisson",
            master_seed=master_seed(seed, self.name),
        )
        self.spot = spot
        self.items = 1
        self.cycle = 1

    def call(self, k: int):
        stream = randomness.TrialStream(self.params.master_seed, k)
        g = model.sample_graph(self.params, stream)
        return g, model.degree_summary(g)

    def check(self, k: int, output) -> list[str]:
        g, summary = output
        fails = []
        try:
            model.check_structure(g)
        except AssertionError:
            fails.append("check_structure failed")
        arcs = g.arcs.shape[0]
        out_sum = int(summary.out_degrees.sum())
        in_sum = int(summary.in_degrees.sum())
        if not out_sum == in_sum == arcs:
            fails.append(f"degree sums out={out_sum} in={in_sum} vs arcs={arcs}")
        fails += self._spot_check(g, summary, k)
        return fails

    def _spot_check(self, g, summary, k: int) -> list[str]:
        """Brute-force out- and in-degree of a few alive vertices against
        all alive points, so a dropped or extra pair shows up."""
        p = self.params
        alive = summary.alive_indices
        if alive.size == 0:
            return []
        rng = np.random.default_rng(master_seed(p.master_seed, "spot", k))
        stream = randomness.TrialStream(p.master_seed, k)
        pos, theta = g.positions, g.orientations
        alive_pos = pos[alive]
        fails = []
        for slot in rng.choice(alive.size, size=min(self.spot, alive.size), replace=False):
            i = int(alive[slot])
            d = alive_pos - pos[i]
            d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
            near = (d2 > 0.0) & (d2 <= p.r * p.r)
            j, dx, dy = alive[near], d[near, 0], d[near, 1]
            ii = np.full(j.size, i)
            out_deg = np.count_nonzero(
                angle_in_arc(dx, dy, theta[i], p.alpha) & (stream.pair_uniforms(ii, j) >= p.q)
            )
            in_deg = np.count_nonzero(
                angle_in_arc(-dx, -dy, theta[j], p.alpha) & (stream.pair_uniforms(j, ii) >= p.q)
            )
            if (out_deg, in_deg) != (summary.out_degrees[slot], summary.in_degrees[slot]):
                fails.append(f"vertex {i}: degrees differ from brute force")
        return fails


TV_GRID = [(mu, v, q) for mu in (0.5, 1.0) for v in (0.0, 0.2) for q in (0.0, 0.2)]
TRUNC_CAP = 1e-8


class TvBoundC6:
    """``tv_bound`` over acceptance test c6's grid at n = 2000, both sides."""

    name = "tv_bound_c6"
    # Both sides of the grid's two extreme points, (0.5, 0, 0) and (1, 0.2, 0.2).
    trace_calls = [0, 1, 14, 15]
    trace_options: dict = {}

    def __init__(self, seed: int, workdir: Path, n: int = 2000, outer: int = 1500,
                 area: int = 3000, ew: int = 8000):
        self.samples = {"outer_samples": outer, "area_samples": area, "ew_samples": ew}
        self.cases = []
        for c, (mu, v, q) in enumerate(TV_GRID):
            r = theory.radius_for_mean_degree(n, ALPHA, v, q, mu)
            params = model.ModelParams(
                n=n, alpha=ALPHA, r=r, v=v, q=q, mode="poisson",
                master_seed=master_seed(seed, self.name, c),
            )
            ds = DegreeSet.upper_tail(theory.predict(params).k)
            self.cases += [(params, ds, "out"), (params, ds, "in")]
        self.items = 1
        self.cycle = len(self.cases)

    def call(self, k: int):
        params, ds, side = self.cases[k % self.cycle]
        return bounds.tv_bound(params, ds, side, trunc_cap=TRUNC_CAP, **self.samples)

    def check(self, k: int, rep) -> list[str]:
        fails = []
        if not rep.truncation_error <= TRUNC_CAP:
            fails.append(f"truncation error {rep.truncation_error} above cap")
        if not 0.0 <= rep.bound <= 1.0:
            fails.append(f"bound {rep.bound} outside [0, 1]")
        if not all(math.isfinite(x) for x in (rep.ew_se, rep.i1_se, rep.i2_se, rep.bound_se)):
            fails.append("non-finite standard error")
        return fails


WORKLOADS = {w.name: w for w in (McFocus, Graph1e6, TvBoundC6)}
