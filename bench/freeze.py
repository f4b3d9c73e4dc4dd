"""Rebuild ``bench/frozen.json``: the vetted seed pool and λ digests.

Run from the repository root (takes several minutes)::

    python3 bench/freeze.py

For each candidate input seed, in order, every workload's solve
sequence runs once and is checked exactly as ``bench/run.py`` checks
it.  A seed on which a solve is infeasible is skipped, and the reason
is printed; a report that disagrees with a fresh audit is an error,
not a reason to skip.  The first ``POOL`` seeds that pass form the
pool that ``--seed`` indexes into, and their selected-λ digests are
frozen.  ``serve_mix`` freezes the λ of the
local solve that its server-side ``/retune`` repeats.  The frozen
open-loop rate is kept as it is.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import tempfile

# the same single BLAS thread as bench/run.py, so the λ match its runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core.exceptions import InfeasibleConstraintError  # noqa: E402
from workloads import (  # noqa: E402
    EvalOutOfCore, FitHeavy, PaperTwins, ServeMix, lambda_digest,
)

#: seeds in the pool, and the first seed not tried
POOL = 32
MAX_SEED = 200


def digests_for(seed, workdir):
    """``{workload: [digest, ...]}`` for one input seed, or None."""
    out = {}
    for cls in (PaperTwins, FitHeavy, EvalOutOfCore):
        workload = cls([seed] if cls is PaperTwins else seed, False, workdir)
        try:
            workload.setup()   # its warm-up solves raise when infeasible
        except InfeasibleConstraintError as exc:
            print(f"seed {seed}: skipped, {cls.name} warm-up: {exc}",
                  flush=True)
            workload.close()
            return None
        outcomes = workload.run_pass()
        workload.end_pass()
        workload.close()
        infeasible = [o.label for o in outcomes
                      if o.error is not None or not o.fair.report.feasible]
        if infeasible:
            print(f"seed {seed}: skipped, {cls.name} infeasible: "
                  f"{infeasible}", flush=True)
            return None
        failed, digests = workload.check(outcomes)
        if failed:
            raise RuntimeError(
                f"seed {seed}: {cls.name} reports disagree with a fresh "
                f"audit: {failed}"
            )
        out[cls.name] = digests
    _, fair, _, _ = ServeMix(seed, False, rate=1).twin()
    out["serve_mix"] = [lambda_digest(fair.report.lambdas)]
    return out


def render(frozen):
    """JSON text with one line per frozen seed."""
    lines = ["{", f' "seed_pool": {json.dumps(frozen["seed_pool"])},',
             f' "serve_mix_rate_rps": {frozen["serve_mix_rate_rps"]},',
             ' "lambda": {']
    names = sorted(frozen["lambda"])
    for i, name in enumerate(names):
        per_seed = frozen["lambda"][name]
        rows = [f'   "{s}": {json.dumps(per_seed[s])}'
                for s in sorted(per_seed, key=int)]
        lines.append(f'  "{name}": {{')
        lines.append(",\n".join(rows))
        lines.append("  }" + ("," if i < len(names) - 1 else ""))
    return "\n".join(lines + [" }", "}"]) + "\n"


def main():
    path = HERE / "frozen.json"
    frozen = json.loads(path.read_text())
    pool, table = [], {}
    scratch = HERE.parent / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="freeze-", dir=scratch))
    try:
        for seed in range(MAX_SEED):
            if len(pool) == POOL:
                break
            found = digests_for(seed, workdir)
            if found is None:
                continue
            pool.append(seed)
            for name, digests in found.items():
                table.setdefault(name, {})[str(seed)] = digests
            print(f"seed {seed}: ok ({len(pool)}/{POOL})", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    frozen["seed_pool"] = pool
    frozen["lambda"] = table
    path.write_text(render(frozen))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
