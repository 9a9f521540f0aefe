"""tempcast benchmark: three CLI workloads, timed end to end, traced per module.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``paper_backtest`` runs
``tempcast backtest`` with every default on a generated 2015-2020
station; ``forecast_long`` runs ``tempcast forecast --auto --horizon
365`` on a generated 100-year series; ``ingest_bulk`` ingests each of
four stations from a generated 100-year multi-station export.

Each repetition is a fresh Python process (``child.py``) that imports
tempcast from ``src/``, sets up, and calls ``tempcast.cli.main`` once
per command, as a user running the CLI would. Repetitions run one after
another until ``--seconds`` have passed, so at most two processes (this
one and one child) exist at a time. Artifacts are checked outside the
timed region (``workloads.py``); a command fails if it exits non-zero or
its artifacts fail a check.

With ``--trace 0`` every repetition is untraced and the end-to-end
metrics of ``metrics.END_TO_END`` are reported: times from the fastest
repetitions, scaled by the fastest run of a fixed speed probe made
between repetitions (``reference.py`` says why), and the median peak
memory. With ``--trace 1`` untraced and traced repetitions
alternate; traced ones wrap tempcast's public functions (``tracing.py``)
and give the per-layer metrics of ``metrics.PER_LAYER``, and the two
kinds together give the tracing overhead.

Left out on purpose: tier-1 test wall time, which moves whenever tests
are added rather than when the program changes; and standalone kernel
microbenchmarks at width 1 or with experiments stacked, which time an
internal function no user calls. The kernel's cost is derived from the
workloads instead, as ``tuning.ns_per_triple_step``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Earlier lines describe the
host, the workload's shape and each repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from metrics import END_TO_END, PER_LAYER
from reference import REFERENCE_S, probe
from tracing import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Every run must end within 180 s; no repetition starts that would
# likely end after this many seconds from process start.
DEADLINE_S = 160.0
PROBES_PER_REP = 3


def host_tag() -> dict:
    """Core count, CPU model, cache sizes and library versions."""

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and size.endswith("K"):
            caches[level] = int(size[:-1])
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_kib": caches.get(2),
        "llc_kib": caches[max(caches)] if caches else None,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def size_statement(shape: dict, host: dict) -> dict:
    """The kernel's computed ring working set next to the cache sizes."""
    ring_mb = 365 * shape["grid_width"] * 8 / 1e6
    return {
        "ring_mb_computed": ring_mb,
        "l2_mb": host["l2_kib"] and host["l2_kib"] * 1024 / 1e6,
        "llc_mb": host["llc_kib"] and host["llc_kib"] * 1024 / 1e6,
    }


def artifact_digest(rep: Path) -> tuple[str, int]:
    """SHA-256 over the name and bytes of every artifact the commands
    wrote (set-up ones included), and the bytes the timed ones wrote."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for d in ("setup", "out") for p in (rep / d).rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.parts[len(rep.parts)] == "out":
            total += len(data)
        digest.update(path.relative_to(rep).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), total


def run_repetition(work: Path, index: int, inputs, traced: bool, timeout: float) -> dict:
    """Run one child process and collect what it measured."""
    rep = work / f"rep{index}"
    rep.mkdir()
    spec = {
        "src": str(ROOT / "src"),
        "setup": inputs.setup,
        "load": inputs.load,
        "commands": inputs.commands,
        "trace": traced,
    }
    (rep / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, TMPDIR=str(work))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "spec.json"],
            cwd=rep, env=env, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
    except subprocess.TimeoutExpired:
        print(f"repetition {index} timed out after {timeout:.0f} s", file=sys.stderr)
    result_path = rep / "result.json"
    if not result_path.is_file():
        return {"rep": rep, "traced": traced, "result": None}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    digest, written = artifact_digest(rep)
    record = {
        "rep": rep,
        "traced": traced,
        "result": result,
        "setup_s": result["ready"] - spawned,
        "wall_s": sum(c["wall_s"] for c in result["commands"]),
        "cpu_s": sum(c["cpu_s"] for c in result["commands"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "digest": digest,
        "bytes_written": written,
    }
    if traced:
        record["layers"] = layer_metrics(json.loads((rep / "trace.json").read_text()))
    return record


def check_repetition(record: dict, inputs, check, verdicts: dict) -> list[bool]:
    """Per command: did it exit 0 and pass every output check? Verdicts
    are cached by artifact digest, since equal bytes give equal verdicts."""
    result = record["result"]
    if result is None:
        return [False] * len(inputs.commands)
    key = (record["digest"], tuple(c["stdout"] for c in result["commands"]))
    if key not in verdicts:
        verdicts[key] = check(record["rep"], inputs.truth, result["commands"])
    failures, notes = verdicts[key]
    ok = []
    for command, exit_code, problems in zip(inputs.commands, (c["exit"] for c in result["commands"]), failures):
        if exit_code != 0:
            problems = [f"exit {exit_code}", *problems]
        for problem in problems:
            print(f"check failed: {command[0]}: {problem}", file=sys.stderr)
        ok.append(not problems)
    record["notes"] = notes
    return ok


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, keep: bool = False
) -> tuple[dict, list[dict], object]:
    """Generate inputs, run repetitions for ``seconds``, check artifacts.

    Returns the result object, the repetition records and the inputs.
    With ``keep`` the work directory stays for the caller to inspect and
    remove (``record["rep"]`` points into it).
    """
    started = time.monotonic()
    make_inputs, check = WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        inputs = make_inputs(ROOT, work / "inputs", seed, tiny)
        host = host_tag()
        print(json.dumps({
            "workload": name, "seed": seed, "trace": int(trace), "host": host,
            "shape": inputs.shape, "size": size_statement(inputs.shape, host),
        }))
        records = []
        probes = []
        verdicts: dict = {}
        attempted = failed = 0
        measuring = time.monotonic()
        longest = 0.0
        while True:
            traced = trace and len(records) % 2 == 1
            begun = time.monotonic()
            probes += [probe() for _ in range(PROBES_PER_REP)]
            timeout = max(1.0, DEADLINE_S + 15.0 - (begun - started))
            record = run_repetition(work, len(records), inputs, traced, timeout)
            ok = check_repetition(record, inputs, check, verdicts)
            attempted += len(ok)
            failed += ok.count(False)
            records.append(record)
            print(json.dumps(_describe(len(records) - 1, record, ok)))
            if not keep:
                shutil.rmtree(record["rep"], ignore_errors=True)
            longest = max(longest, time.monotonic() - begun)
            now = time.monotonic()
            kinds = {r["traced"] for r in records}
            enough = now - measuring >= seconds and (not trace or len(kinds) == 2)
            if enough or now - started + longest > DEADLINE_S:
                break
        probes += [probe() for _ in range(PROBES_PER_REP)]
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)
    measured = [r for r in records if r["result"] is not None]
    if not measured:
        raise RuntimeError(f"{name}: no repetition produced a result")
    digest_match = len({r["digest"] for r in measured}) == 1 and len(measured) == len(records)
    speed = REFERENCE_S / min(probes)
    print(json.dumps({
        "median_wall_s": statistics.median(r["wall_s"] for r in measured),
        "median_setup_s": statistics.median(r["setup_s"] for r in measured),
        "speed_factor": speed, "probes": probes,
    }))
    if trace:
        metrics = _layer_metrics(measured, digest_match)
    else:
        metrics = _end_to_end_metrics(measured, attempted, failed, speed)
    result = {
        "correct": failed == 0 and digest_match,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, records, inputs


def _describe(index: int, record: dict, ok: list[bool]) -> dict:
    line = {"rep": index, "traced": record["traced"], "commands_ok": sum(ok),
            "commands": len(ok)}
    for key in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb"):
        if key in record:
            line[key] = record[key]
    if index == 0 and record.get("notes"):
        line["notes"] = record["notes"]
    return line


def _with_units(values: dict, table: dict) -> dict:
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def _end_to_end_metrics(records, attempted, failed, speed) -> dict:
    """Times are each command's fastest repetition, summed, and the
    fastest set-up, scaled to the reference host speed; memory is the
    median over repetitions."""
    commands = zip(*(r["result"]["commands"] for r in records))
    values = {
        "wall_s": sum(min(c["wall_s"] for c in runs) for runs in commands) * speed,
        "setup_s": min(r["setup_s"] for r in records) * speed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "ok_frac": (attempted - failed) / attempted,
    }
    return _with_units(values, END_TO_END)


def _layer_metrics(records, digest_match) -> dict:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    if not traced or not untraced:
        raise RuntimeError("a traced run needs a traced and an untraced repetition")
    values = {
        key: statistics.median(r["layers"][key] for r in traced)
        for key in traced[0]["layers"]
    }
    values.update({
        "cli.bytes_written": statistics.median(r["bytes_written"] for r in untraced),
        "cli.cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "cli.digest_match": int(digest_match),
        "trace.wall_s": statistics.median(r["wall_s"] for r in traced),
        "trace.overhead_frac": (
            min(r["wall_s"] for r in traced) / min(r["wall_s"] for r in untraced) - 1.0
        ),
    })
    return _with_units(values, PER_LAYER)


def require_sources() -> None:
    """Fail before measuring anything unless the program's sources are here."""
    needed = [ROOT / "src" / "tempcast" / "cli.py", ROOT / "scripts" / "make_synthetic_station.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise FileNotFoundError(f"not a tempcast checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import tempcast

    if ROOT / "src" not in Path(tempcast.__file__).resolve().parents:
        raise ImportError(f"tempcast imported from {tempcast.__file__}, not {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tempcast benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
        result, _, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError, RuntimeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
