"""The benchmark's four workloads.

Each solve workload builds its inputs in :meth:`setup` (timed by the
runner before every untraced pass, fastest reported), runs a fixed
sequence of ``Engine.solve`` calls per :meth:`run_pass`, and checks
every solve in :meth:`check`, outside the timed region.  ``serve_mix``
drives a ``repro serve`` subprocess and measures itself (see
:class:`ServeMix`).

A solve fails if it raises, returns an infeasible model, or its report
disagrees with a fresh ``FairModel.audit`` of the returned model on the
validation split.  A selected-λ digest that differs from the frozen one
is reported as ``lambda_changed`` and is not a failure.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import nullcontext

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
HERE = pathlib.Path(__file__).resolve().parent

#: row-block size for the out-of-core evaluation and its audits
CHUNK = 65_536

#: what :func:`host_probe_s` takes on the host the figures are quoted for
REF_PROBE_S = 0.0006

_PROBE_A = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
_PROBE_B = np.ones(100_000)


def host_probe_s():
    """Seconds for a fixed loop that calls nothing of the program.

    It mixes interpreter, BLAS and array work, as the workloads do.  The
    host's speed swings by up to 2x over seconds and minutes, and every
    timing moves with it; a probe taken beside a timing measures that
    swing, so the timing can be scaled to a fixed host speed.  The
    fastest of three loops keeps one interrupt from skewing the probe.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        _PROBE_A @ _PROBE_A
        float((_PROBE_B * 1.5).sum())
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(fn):
    """``(fn(), seconds, scaled seconds)``, probing the host on both sides.

    The scaled time is what ``fn`` would take on a host where the probe
    takes :data:`REF_PROBE_S`.
    """
    before = host_probe_s()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    after = host_probe_s()
    return out, seconds, seconds * 2 * REF_PROBE_S / (before + after)


def lambda_digest(lambdas):
    """Short digest of a selected-λ vector (float64 bytes)."""
    raw = np.asarray(lambdas, dtype=np.float64).tobytes()
    return hashlib.sha1(raw).hexdigest()[:12]


def stratified_split(dataset, seed, val_fraction=0.3):
    """Seeded train/validation split, stratified on group × label."""
    from repro.ml.model_selection import train_test_split

    idx = np.arange(len(dataset))
    tr, va = train_test_split(
        idx, test_size=val_fraction, seed=seed,
        stratify=dataset.sensitive * 2 + dataset.y,
    )
    return dataset.subset(tr), dataset.subset(va)


def audit_disagrees(fair, val, chunk_size=None):
    """True when a fresh audit on ``val`` disagrees with the report.

    Algorithm 1 may have swapped a constraint's group pair, which flips
    the sign and label of its disparity, so disparities are compared as
    sorted absolute values.
    """
    fresh = fair.audit(val, chunk_size=chunk_size)
    report = fair.report.validation
    return not (
        fresh["accuracy"] == report["accuracy"]
        and fresh["feasible"] == report["feasible"]
        and sorted(abs(v) for v in fresh["disparities"].values())
        == sorted(abs(v) for v in report["disparities"].values())
    )


class SolveOutcome:
    """One timed solve: its label, result or error, and wall time."""

    def __init__(self, label, fair, error, seconds, scaled, val,
                 chunk_size):
        self.label = label
        self.fair = fair
        self.error = error
        self.seconds = seconds
        self.scaled = scaled   # seconds at the reference host speed
        self.val = val
        self.chunk_size = chunk_size


class SolveWorkload:
    """Shared pass/check machinery for the three solve workloads."""

    name = None

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.tiny = tiny
        self.workdir = pathlib.Path(workdir)

    def jobs(self):
        """``[(label, solve thunk, val dataset, audit chunk size)]``."""
        raise NotImplementedError

    def begin_pass(self):
        """Per-pass preparation inside the timed region."""

    def end_pass(self):
        """Per-pass cleanup outside the timed region; returns counters."""
        return {}

    def close(self):
        """Release what setup built."""

    def run_pass(self):
        from repro.core.exceptions import InfeasibleConstraintError

        self.begin_pass()
        outcomes = []
        for label, solve, val, chunk_size in self.jobs():
            def attempt(solve=solve):
                try:
                    return solve(), None
                except InfeasibleConstraintError as exc:
                    return None, exc

            (fair, error), seconds, scaled_s = scaled(attempt)
            outcomes.append(SolveOutcome(
                label, fair, error, seconds, scaled_s, val, chunk_size,
            ))
        return outcomes

    @staticmethod
    def check(outcomes):
        """``(failed labels, λ digests)`` of one pass."""
        failed, digests = [], []
        for out in outcomes:
            if out.error is not None or not out.fair.report.feasible:
                failed.append(out.label)
                digests.append(None)
                continue
            digests.append(lambda_digest(out.fair.report.lambdas))
            if audit_disagrees(out.fair, out.val, out.chunk_size):
                failed.append(out.label)
        return failed, digests


# -- paper_twins --------------------------------------------------------------

#: ε per twin and spec shape, picked so every solve is feasible on every
#: seed of the vetted pool.  adult × NB × FDR is left out: it is
#: infeasible on most seeds at any ε up to 0.3.
TWIN_EPS = {
    "adult": {"SP": 0.05, "FDR": 0.10, "SP+FPR": 0.08},
    "compas": {"SP": 0.05, "FDR": 0.08, "SP+FPR": 0.10},
    "lsac": {"SP": 0.05, "FDR": 0.05, "SP+FPR": 0.12},
}


def twin_spec(shape, eps):
    if shape == "SP+FPR":
        return f"SP <= {eps} and FPR <= {eps}"
    return f"{shape} <= {eps}"


class PaperTwins(SolveWorkload):
    """adult/compas/lsac twins × LR/NB × SP, FDR, SP+FPR (17 solves).

    ``seed`` is a list: one pass runs the 17 solves on the inputs of
    each input seed in turn, so a run's work is an average over several
    draws of the twins rather than one draw's particular fit counts.
    """

    name = "paper_twins"
    draws = 8

    def setup(self, tracer=None):
        from repro.datasets import load

        self.splits = []
        for seed in self.seed:
            for twin in TWIN_EPS:
                data = load(twin, seed=seed)
                self.splits.append((twin, stratified_split(data, seed)))
        # warm-up: every solve shape once, on the first draw's inputs
        jobs = self.jobs()
        for _, solve, _, _ in jobs[:len(jobs) // len(self.seed)]:
            solve()

    def jobs(self):
        from repro.api import Engine

        out = []
        for twin, (train, val) in self.splits:
            for model in ("LR", "NB"):
                for shape, eps in TWIN_EPS[twin].items():
                    if (twin, model, shape) == ("adult", "NB", "FDR"):
                        continue
                    spec = twin_spec(shape, eps)
                    out.append((
                        f"{twin}/{model}/{shape}",
                        lambda s=spec, m=model, t=train, v=val:
                            Engine().solve(s, m, t, v),
                        val, None,
                    ))
        return out


# -- fit_heavy ----------------------------------------------------------------

class FitHeavy(SolveWorkload):
    """million_row LR-irls binary search: cold solve, tightened re-solve."""

    name = "fit_heavy"
    rows = 200_000

    def setup(self, tracer=None):
        from repro.api import Engine
        from repro.datasets import load_scenario
        from repro.ml.logistic import LogisticRegression

        data = load_scenario(
            "million_row", n=20_000 if self.tiny else self.rows,
            seed=self.seed,
        )
        self.train, self.val = stratified_split(data, self.seed)
        Engine("binary_search").solve(      # warm-up, no store
            "SP <= 0.03", LogisticRegression(solver="irls"),
            self.train, self.val,
        )
        self.n_pass = 0
        self.store_dir = None

    def begin_pass(self):
        self.n_pass += 1
        self.store_dir = self.workdir / f"store-{self.n_pass}"

    def end_pass(self):
        written = sum(
            p.stat().st_size for p in self.store_dir.rglob("*") if p.is_file()
        )
        shutil.rmtree(self.store_dir, ignore_errors=True)
        return {"store_bytes": written}

    def jobs(self):
        from repro.api import Engine
        from repro.ml.logistic import LogisticRegression

        def solve(spec):
            engine = Engine("binary_search", store_dir=self.store_dir)
            return engine.solve(
                spec, LogisticRegression(solver="irls"), self.train,
                self.val,
            )

        return [
            ("cold SP<=0.03", lambda: solve("SP <= 0.03"), self.val, None),
            ("tight SP<=0.02", lambda: solve("SP <= 0.02"), self.val, None),
        ]


# -- eval_outofcore -----------------------------------------------------------

class EvalOutOfCore(SolveWorkload):
    """1M mapped million_row rows, NB grid, chunked validation-heavy eval."""

    name = "eval_outofcore"
    rows = 1_000_000

    def setup(self, tracer=None):
        from repro.datasets import encode_scenario, open_columnar

        n = 50_000 if self.tiny else self.rows
        self.close()
        self.root = self.workdir / "columnar"
        with tracer.span("datasets.encode") if tracer else nullcontext():
            encode_scenario("million_row", self.root, n=n, seed=self.seed,
                            chunk_rows=CHUNK)
        with tracer.span("datasets.open") if tracer else nullcontext():
            data = open_columnar(self.root)
        # contiguous slices keep the columns as views of the map
        cut = n // 5
        self.train = data.subset(slice(0, cut))
        self.val = data.subset(slice(cut, n))
        self.solve()   # warm-up

    def solve(self):
        from repro.api import Engine
        from repro.ml.naive_bayes import GaussianNaiveBayes

        engine = Engine("grid", chunk_size=CHUNK, grid_steps=8, grid_max=0.5)
        return engine.solve(
            "SP <= 0.05", GaussianNaiveBayes(), self.train, self.val,
        )

    def jobs(self):
        return [("grid SP<=0.05", self.solve, self.val, CHUNK)]

    def close(self):
        self.train = self.val = None
        root = getattr(self, "root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)


# -- serve_mix ----------------------------------------------------------------

class ServerProcess:
    """A ``repro serve`` subprocess, optionally under the traced launcher."""

    def __init__(self, spans_path=None):
        serve = ["--host", "127.0.0.1", "--port", "0"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   str(spans_path), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(ROOT),
        )
        line = self.proc.stdout.readline()
        # keep reading, so server logging can never fill the pipe
        self._drain = threading.Thread(
            target=self.proc.stdout.read, daemon=True,
        )
        self._drain.start()
        match = re.search(r"serving on [\d.]+:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"server failed to boot: {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self):
        """The server's peak resident set (VmHWM) so far, in MB."""
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kb / 1024

    def stop(self):
        """SIGINT (graceful, lets the launcher write spans), then kill."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._drain.join(timeout=10)
        self.proc.stdout.close()


class ServeMix:
    """Mixed reads and writes against one served NB ``group_sweep`` model.

    Phase A (open loop): one connection sends ``/predict`` at the frozen
    rate, each request timed from its scheduled send time; a second
    connection runs closed-loop ``/update`` append+retire deltas with
    ``retune: false``.  Phase B (closed loop): two predict-only
    connections, in passes of a fixed request count.
    """

    name = "serve_mix"
    model = "gs"
    spec = "SP <= 0.08"
    dataset = "scenario:group_sweep"
    rows_per_request = 4
    delta_rows = 16
    pass_requests = 400

    def __init__(self, seed, tiny, rate):
        self.seed = seed
        self.rate = rate
        self.n = 1500 if tiny else 4000
        self.server = None
        self._twin = None

    # -- inputs --------------------------------------------------------

    def twin(self):
        """The local solve ``/retune`` repeats server-side, and its inputs."""
        if self._twin is None:
            from repro.api import Engine, Problem
            from repro.datasets import load
            from repro.ml.adapters import resolve_model

            data = load(self.dataset, n=self.n, seed=self.seed)
            fair = Engine("auto").solve(
                Problem(self.spec), resolve_model("NB"), data, seed=self.seed,
            )
            stream = load(self.dataset, n=self.n, seed=self.seed + 1)
            self._twin = (data, fair, fair.predict(data.X), stream)
        return self._twin

    def setup(self, spans_path=None):
        """Boot a server, create the model via /retune, seed its auditor."""
        from repro.serving import ServingClient

        self.close()
        self.server = ServerProcess(spans_path)
        with ServingClient("127.0.0.1", self.server.port) as client:
            job = client.retune(
                self.spec, self.dataset, name=self.model, estimator="NB",
                n=self.n, seed=self.seed,
            )
            result = client.wait_job(job["job_id"], timeout=120)["result"]
            client.update(
                self.model,
                base={"dataset": self.dataset, "n": self.n,
                      "seed": self.seed},
                retune=False,
            )
        self.retune_lambdas = result["lambdas"]
        self.live = deque(range(self.n))     # live row ids, oldest first
        self.appended = []                   # stream row index per new id
        self.next_id = self.n
        self.last_audit = None

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- load ----------------------------------------------------------

    def _request(self, index):
        data, _, expected, _ = self.twin()
        n = len(expected)
        rows = (np.arange(self.rows_per_request)
                + index * self.rows_per_request) % n
        return data.X[rows], expected[rows]

    def _predict(self, client, index):
        """One checked /predict; returns (ok, service seconds or None)."""
        from repro.serving import ServingError

        X, want = self._request(index)
        t0 = time.perf_counter()
        try:
            got = client.predict(self.model, X)
        except (ServingError, OSError):
            return False, None
        return bool(np.array_equal(got, want)), time.perf_counter() - t0

    def _update(self, client, k):
        """One append+retire delta; returns (ok, seconds)."""
        from repro.serving import ServingError

        _, _, _, stream = self.twin()
        rows = (np.arange(self.delta_rows) + k * self.delta_rows) % len(stream)
        retire = [self.live.popleft() for _ in range(self.delta_rows)]
        t0 = time.perf_counter()
        try:
            out = client.update(
                self.model,
                append={"X": stream.X[rows], "y": stream.y[rows],
                        "sensitive": stream.sensitive[rows]},
                retire=retire, retune=False,
            )
        except (ServingError, OSError):
            return False, None
        seconds = time.perf_counter() - t0
        for r in rows:
            self.appended.append(int(r))
            self.live.append(self.next_id)
            self.next_id += 1
        self.last_audit = out["audit"]
        return True, seconds

    def phase_a(self, seconds):
        """Open-loop predicts beside closed-loop updates."""
        from repro.serving import ServingClient

        port = self.server.port
        stop_at = time.perf_counter() + seconds
        res = {"lat": [], "late": [], "svc": [], "bad": 0, "upd": [],
               "upd_bad": 0}

        def predicts():
            interval = 1.0 / self.rate
            with ServingClient("127.0.0.1", port, retry=False) as client:
                start = time.perf_counter()
                i = 0
                while True:
                    due = start + i * interval
                    if due >= stop_at:
                        return
                    now = time.perf_counter()
                    if due > now:
                        time.sleep(due - now)
                    sent = time.perf_counter()
                    ok, svc = self._predict(client, i)
                    res["late"].append(sent - due)
                    if ok:
                        res["lat"].append(sent + svc - due)
                        res["svc"].append(svc)
                    else:
                        res["bad"] += 1
                    i += 1

        def updates():
            with ServingClient("127.0.0.1", port, retry=False) as client:
                k = 0
                while time.perf_counter() < stop_at:
                    ok, sec = self._update(client, k)
                    if ok:
                        res["upd"].append(sec)
                    else:
                        res["upd_bad"] += 1
                    k += 1

        _run_threads([predicts, updates])
        return res

    def phase_b_pass(self, offset):
        """``pass_requests`` closed-loop predicts over two connections.

        Returns ``(wall seconds, failed requests, service times)``.
        """
        from repro.serving import ServingClient

        port = self.server.port
        half = self.pass_requests // 2
        bad, svc = [0, 0], [[], []]

        def worker(w):
            with ServingClient("127.0.0.1", port, retry=False) as client:
                for j in range(half):
                    ok, seconds = self._predict(client, offset + w * half + j)
                    if ok:
                        svc[w].append(seconds)
                    else:
                        bad[w] += 1

        t0 = time.perf_counter()
        _run_threads([lambda: worker(0), lambda: worker(1)])
        return time.perf_counter() - t0, sum(bad), svc[0] + svc[1]

    def check_updates(self):
        """True when the last /update audit equals a from-scratch one."""
        from repro.datasets import Dataset
        from repro.incremental import IncrementalAuditor

        if self.last_audit is None:
            return True
        data, fair, _, stream = self.twin()
        live = np.array(self.live)
        base_ids = live[live < self.n]
        new_rows = np.array(
            [self.appended[i - self.n] for i in live[live >= self.n]],
            dtype=np.int64,
        )
        rows = Dataset(
            name=data.name,
            X=np.vstack([data.X[base_ids], stream.X[new_rows]]),
            y=np.concatenate([data.y[base_ids], stream.y[new_rows]]),
            sensitive=np.concatenate(
                [data.sensitive[base_ids], stream.sensitive[new_rows]]
            ),
            group_names=data.group_names,
        )
        ref = IncrementalAuditor(fair.specs, fair, rows).recompute()
        got = self.last_audit
        return (
            got["accuracy"] == ref["accuracy"]
            and list(got["disparities"]) == ref["disparities"].tolist()
        )


def _run_threads(targets):
    """Run callables on threads; re-raise the first error after joining."""
    errors = []

    def guard(fn):
        try:
            fn()
        except BaseException as exc:   # surfaced below, after join
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


WORKLOADS = {
    cls.name: cls for cls in (PaperTwins, FitHeavy, EvalOutOfCore, ServeMix)
}
