"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload anytime_open --seed 1 --seconds 12 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json``.  With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run, whose spans are also written as JSON lines under
``.perfbench_work/spans/``.  The line before it reports the run: request
counts, generator lateness (flagged when it fell behind), the host-speed
probes and raw figures, and the per-layer metrics the workload does not
exercise (they read 0) or that could not be measured (with the reason).
End-to-end timings are rescaled to a reference host speed, and the run is
flagged (``probe_flag``) when the probes taken while the program ran read
slower than the idle ones; see :mod:`perfbench.hostspeed`.

The seed picks the traffic (query rows and their order, budgets, arrival
times, stream order); the forests are the same for every seed.  Tune a
change on seeds 1-10 and confirm its claim on seeds 101-110.

The program under test is the checkout's ``src/repro``; without it the
benchmark exits with status 2 and prints no result.  A run whose served
answers disagree with the in-process reference prints ``"correct": false``
and exits with status 1.

Every process the run starts ends before it exits: pool workers, the
host-speed probe, ``multiprocessing``'s resource tracker, and any process
they leave orphaned (the run adopts those as a child subreaper).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
#: ``prctl`` option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36
#: How long children get to end on their own before they are killed (s).
GRACE_S = 10.0


def _adopt_orphans() -> None:
    """Become a child subreaper, so descendants orphaned by their parent stay reapable."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> List[int]:
    """Pids of this process's live or unreaped children, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # ended meanwhile
        # The parent pid is the second field after the parenthesised command.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Pool workers are joined first: they hold the resource tracker's pipe,
    which must close before the tracker ends.  Closing this process's end
    then lets the tracker end too.  Whatever is still running after
    ``GRACE_S`` is killed; every child is reaped.
    """
    gc.collect()  # finalizers that unlink shared memory talk to the tracker
    deadline = time.monotonic() + GRACE_S
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
        tracker._pid = None  # reaped below, with the other children
    while pids := _children():
        late = time.monotonic() > deadline
        if time.monotonic() > deadline + GRACE_S:
            print(f"perfbench: children {pids} did not end when killed", file=sys.stderr)
            return
        for pid in pids:
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.01)


def _import_program() -> bool:
    """Put the checkout's ``src`` first on the path; False when it is absent."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    return Path(repro.__file__).resolve().is_relative_to(source.resolve())


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    _adopt_orphans()
    try:
        return _run(args, parser)
    finally:
        _stop_children()


def _run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not _import_program():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    base = ROOT / ".perfbench_work"
    work = base / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Child processes and any temporary file of the library stay in the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), sizes, work)
        if args.trace:
            span_dir = base / "spans"
            span_dir.mkdir(exist_ok=True)
            span_file = span_dir / f"{args.workload}-seed{args.seed}.jsonl"
            with open(span_file, "w", encoding="utf-8") as out:
                out.writelines(json.dumps(span) + "\n" for span in outcome.spans)
            outcome.report["spans_file"] = str(span_file.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    print("perfbench: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                       **outcome.report}, default=str))
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
