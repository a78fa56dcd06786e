#!/usr/bin/env python3
"""xldetect benchmark: one workload per process, closed loop, one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload twin-pipeline --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off. With ``--trace 1`` spans are recorded around every call
into xldetect, layer probes run after the timed phase, and the metrics
are the per-layer metrics. A full record (environment, checks, stage
times and, when traced, every span) goes to
``perfbench/results/<workload>/``.

``twin-pipeline`` is one fixed pass, whatever ``--seconds`` says;
``subword-scoring`` repeats an identical fixed pass while the next one
fits in ``--seconds`` (at least three times) and reports the median
pass, so runs at different ``--seconds`` stay comparable.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("BENCHMARK.json", "src/xldetect/__init__.py", "configs/demo.cfg",
            "configs/demo-target-embeddings.cfg")
# layers whose self time the traced run reports; "bench" is the
# benchmark's own loop inside the timed phase
SELF_LAYERS = ("bench", "stage", "synth", "corpus", "embedding", "align", "classifier",
               "curves", "baselines", "report", "external")
# environment fields that must agree before two results are compared
ENV_COMPARED = ("python", "numpy", "blas", "lapack", "cpu", "nproc", "blas_threads",
                "machine", "system")


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted((root / "configs").glob("*")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return "unknown"
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return str(func())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        deps = {}

    def lib(kind):
        info = deps.get(kind, {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    return {
        "commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(tracer, outcome, wl) -> dict[str, float]:
    """Per-layer metrics from the spans of the timed phase ("timed"), of the
    set-up repetitions ("setup") and of the probes ("probe"); a layer the
    workload does not exercise reads 0. Times and counts of the timed
    phase are per timed pass; rates pool all passes."""
    t = "timed"
    n = outcome.passes
    m: dict[str, float] = {}
    generate = [s.duration for s in tracer.select("synth.generate", "setup")]
    m["synth.generate_s"] = statistics.median(generate) if generate else 0.0
    m["corpus.tokenize_s"] = tracer.total("corpus.tokenize", t) / n
    m["vocab.input_ids_words_per_s"] = _rate(
        tracer.counted("vocab.input_ids", "words", "probe"), tracer.total("vocab.input_ids", "probe"))
    m["embedding.train_s"] = tracer.total("embedding.train", t) / n
    m["embedding.tokens_per_s"] = _rate(
        tracer.counted("embedding.train", "tokens", t), tracer.total("embedding.train", t))
    for op, name in (("save", "save_vectors"), ("load", "load_vectors")):
        m[f"embedding.{op}_mb_per_s"] = _rate(
            tracer.counted(f"embedding.{name}", "bytes", t) / 1e6,
            tracer.total(f"embedding.{name}", t))
    m["align.refine_s"] = tracer.total("align.refine", t) / n
    m["align.procrustes_s"] = tracer.total("align.procrustes", "probe")
    m["align.induce_s"] = tracer.total("align.induce", "probe")
    m["align.evaluate_s"] = tracer.total("align.evaluate", "probe")
    m["align.induced_pairs"] = tracer.counted("align.induce", "pairs", "probe")
    m["align.top_k"] = tracer.counted("align.induce", "top_k", "probe")
    m["classifier.init_s"] = tracer.total("classifier.init", "probe")
    m["classifier.train_s"] = tracer.total("classifier.train", t) / n
    m["classifier.doc_steps_per_s"] = _rate(
        tracer.counted("classifier.train", "doc_steps", t), tracer.total("classifier.train", t))
    m["classifier.predict_docs_per_s"] = _rate(
        len(tracer.select("classifier.predict", t)), tracer.total("classifier.predict", t))
    m["curves.sweep_s"] = tracer.total("curves.sweep", t) / n
    m["curves.cells"] = tracer.counted("curves.sweep", "cells", t) / n
    m["baselines.fit_s"] = tracer.total("baselines.fit", t) / n
    for key in ("score.docs_per_s", "score.latency_p50_ms", "score.latency_p99_ms",
                "score.samples", "score.oov_token_share"):
        m[key] = outcome.stats.get(key, 0.0)
    synth = [s.duration for s in tracer.select("stage.synth", "setup")]
    m["stage.synth_s"] = statistics.median(synth) if synth else 0.0
    for label, _, _ in wl.TWIN_STAGES:
        m[f"stage.{label}_s"] = tracer.total(f"stage.{label}", t) / n
    m["stage.manifest_gap_max_s"] = outcome.stats.get("stage.manifest_gap_max_s", 0.0)
    selfs = tracer.self_times(t)
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0) / n
    m["trace.run_s"] = outcome.run_s
    # measured inside the wrappers: two runs differ by more than this on a
    # machine whose speed drifts, so their difference would be noise
    m["trace.overhead_s"] = tracer.overhead.get(t, 0.0) / n
    m["trace.spans"] = len([s for s in tracer.spans if s.run == t]) / n
    return m


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not an xldetect checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    run = wl.WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is None:
            outcome = run(args.seed, work, None, args.seconds)
        else:
            wl.install_spans(tracer)
            try:
                outcome = run(args.seed, work, tracer, args.seconds)
            finally:
                tracer.unwrap()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = outcome.checks
    if tracer is None:
        values = {
            "run_s": outcome.run_s,
            "setup_s": import_s + outcome.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    else:
        values = per_layer(tracer, outcome, wl)
        declared = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(values))} "
                           "do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"perfbench: check failed: {name} {detail}".rstrip(), file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=environment(), import_s=import_s,
                  checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
                  stats=outcome.stats, pass_s=outcome.pass_s,
                  spans=tracer.to_json() if tracer else [])
    out_dir = BENCH / "results" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = out_dir / f"{stamp}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
