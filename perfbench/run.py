#!/usr/bin/env python3
"""Rollup benchmark: times ``run_rollup_pipeline`` end to end on a seeded
synthetic corpus and checks every op's tiers against an engine-independent
oracle (``oracle.py``).

    python3 perfbench/run.py --workload flagship_dv --seed 1 --seconds 12 --trace 0

Run from the repository root; ``--workload all`` runs every workload in
turn, one process each. Workloads (one op = one pipeline call):

  flagship_dv    default config (tokens, deletion-vector dedup, 1m/5m/1h
                 tiers, LOCF gap-fill, Gorilla chunks), fresh out_dir,
                 resume=False
  rollup_only    the same with ingest_tokens=False (the CLI's --no-tokens)
  append_stream  set-up builds the tiers over the first 28 of 32 files; each
                 op restores a copy of that build, adds one of the other
                 files and runs with resume=True, which must take the
                 incremental path

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run (``spans.py``, ``kernels.py``). The last
line of standard output is one JSON object; everything else, the engine's
and Ray's output included, goes to standard error. Work files live under
``.perfbench/`` in the repository root (the corpus and oracle cache is kept,
everything else is deleted at exit).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
RAY_TMP = os.path.join(ROOT, ".pbray")

N_ROWS = 256_000
N_FILES = 32
APPEND_BASE_FILES = 28
SETUP_REPS = 3
MIN_OPS = 3
OP_TIMEOUT_S = 60
RUN_DEADLINE_S = 170
LOOP_DEADLINE_S = 100  # set-ups and ops; the rest of the run needs the remainder
OBJECT_STORE_BYTES = 512 << 20

WORKLOADS = {
    "flagship_dv": {"tokens": True, "append": False},
    "rollup_only": {"tokens": False, "append": False},
    "append_stream": {"tokens": True, "append": True},
}

class OpTimeout(Exception):
    pass


# -- processes and memory (/proc) -------------------------------------------


def descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def tree_pids() -> list[int]:
    """This process and every process it started (Ray daemons, workers)."""
    return [os.getpid()] + descendants(os.getpid())


def reset_peak_rss(pids: list[int]) -> None:
    for p in pids:
        try:
            with open(f"/proc/{p}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def kill_tree(pid: int, sig: int = signal.SIGKILL) -> None:
    for p in descendants(pid):
        try:
            os.kill(p, sig)
        except OSError:
            pass


def wait_gone(pid: int, timeout_s: float) -> list[int]:
    t_end = time.monotonic() + timeout_s
    left = descendants(pid)
    while left and time.monotonic() < t_end:
        for p in left:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.1)
        left = [p for p in descendants(pid) if _alive(p)]
    return left


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def nproc() -> int:
    """CPUs as ``nproc`` counts them: the affinity mask, capped by
    OMP_NUM_THREADS / OMP_THREAD_LIMIT when those are set."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return int(out.stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


# -- files ------------------------------------------------------------------


def tree_files(root: str) -> dict[str, tuple]:
    out = {}
    for dp, _, fs in os.walk(root):
        for f in fs:
            st = os.stat(os.path.join(dp, f))
            out[os.path.join(dp, f)] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def written_bytes(before: dict, after: dict, prefix: str = "") -> int:
    """Bytes of files created or rewritten between two snapshots."""
    return sum(
        meta[1]
        for path, meta in after.items()
        if path.startswith(prefix) and before.get(path) != meta
    )


def link_files(src: list[str], dst_dir: str) -> None:
    os.makedirs(dst_dir, exist_ok=True)
    for p in src:
        os.link(p, os.path.join(dst_dir, os.path.basename(p)))


# -- the benchmark ------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = os.path.join(WORK, f"run-{os.getpid()}")
        self.ray_session = None

    # set-up pieces -----------------------------------------------------
    def make_corpus(self) -> None:
        from contest_parsing_ray.sources.synthetic import write_sequences_parquet

        import oracle

        cache = os.path.join(WORK, "corpus")
        key = f"r{N_ROWS}-f{N_FILES}-s{self.seed}"
        cdir = os.path.join(cache, key)
        data = write_sequences_parquet(
            os.path.join(cdir, "data"), n_rows=N_ROWS, seed=self.seed, num_files=N_FILES
        )
        # one corpus is kept (about 90 MB); a run on another seed replaces it
        for old in os.listdir(cache):
            if old != key:
                shutil.rmtree(os.path.join(cache, old), ignore_errors=True)
        self.files = [os.path.join(data, f"part-{i:04d}.parquet") for i in range(N_FILES)]
        self.corpus = data
        self.rows = oracle.load_rows(self.files, os.path.join(cdir, "oracle_rows.parquet"))
        self.file_rows = self.rows.groupby("file_idx").size().to_dict()
        self._expected: dict[tuple, object] = {}

    def expected(self, file_idx: tuple):
        import oracle

        if file_idx not in self._expected:
            self._expected[file_idx] = oracle.Expected(self.rows, list(file_idx))
        return self._expected[file_idx]

    def start_ray(self) -> None:
        import logging

        import ray
        from ray.data import DataContext

        ray.init(
            address="local",
            num_cpus=nproc(),
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=RAY_TMP,
        )
        self.ray_session = ray._private.worker._global_node.get_session_dir_path()
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop_ray(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        if self.ray_session:
            shutil.rmtree(self.ray_session, ignore_errors=True)
            latest = os.path.join(RAY_TMP, "session_latest")
            if os.path.islink(latest) and os.readlink(latest) == self.ray_session:
                os.remove(latest)
            self.ray_session = None

    def cfg(self, out_dir: str):
        from contest_parsing_ray.config import PipelineConfig

        return PipelineConfig(out_dir=out_dir, ingest_tokens=self.wl["tokens"])

    def pipeline(self, input_path: str, out_dir: str, resume: bool) -> dict:
        from contest_parsing_ray.pipelines import rollup_pipeline as rp

        return rp.run_rollup_pipeline(input_path, self.cfg(out_dir), resume=resume)

    def setup_once(self) -> float:
        """Ray session start + engine warm-up: the workload's op on one
        corpus file (for append_stream, the base build)."""
        t0 = time.perf_counter()
        self.start_ray()
        with deadline(OP_TIMEOUT_S):
            if self.wl["append"]:
                shutil.rmtree(self.base_out, ignore_errors=True)
                self.pipeline(self.append_in, self.base_out, resume=False)
            else:
                out = os.path.join(self.run_dir, "warmup-out")
                self.pipeline(self.warmup_in, out, resume=False)
                shutil.rmtree(out, ignore_errors=True)
        return time.perf_counter() - t0

    def link_inputs(self) -> None:
        os.makedirs(self.run_dir)
        self.warmup_in = os.path.join(self.run_dir, "warmup-in")
        link_files(self.files[:1], self.warmup_in)
        self.append_in = os.path.join(self.run_dir, "append-in")
        link_files(self.files[:APPEND_BASE_FILES], self.append_in)
        self.base_out = os.path.join(self.run_dir, "append-base")

    # one op ------------------------------------------------------------
    def op(self, i: int) -> dict:
        """Run op ``i``; returns its record (the out_dir is left for checks)."""
        out = os.path.join(self.run_dir, f"op-{i}")
        try:
            return self._op(i, out)
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise

    def _op(self, i: int, out: str) -> dict:
        rec = {"out": out}
        if self.wl["append"]:
            # ops go in pairs adding the same file, so a traced run's traced
            # and untraced ops do the same work
            spare = list(range(APPEND_BASE_FILES, N_FILES))
            j = spare[(i // 2) % len(spare)]
            shutil.copytree(self.base_out, out)
            rec["file_idx"] = tuple(range(APPEND_BASE_FILES)) + (j,)
            new = [self.files[j]]
            link = os.path.join(self.append_in, os.path.basename(self.files[j]))
            os.link(self.files[j], link)
            before = tree_files(out)
            try:
                t0 = time.perf_counter()
                with deadline(OP_TIMEOUT_S):
                    m = self.pipeline(self.append_in, out, resume=True)
                rec["op_s"] = time.perf_counter() - t0
            finally:
                os.remove(link)
            rec["path_ok"] = m.get("incremental_append") is True
        else:
            rec["file_idx"] = tuple(range(N_FILES))
            new = self.files
            before = {}
            t0 = time.perf_counter()
            with deadline(OP_TIMEOUT_S):
                m = self.pipeline(self.corpus, out, resume=False)
            rec["op_s"] = time.perf_counter() - t0
            rec["path_ok"] = (
                not m.get("incremental_append") and sorted(m["tiers"]) == ["1h", "1m", "5m"]
            )
        rec["metrics"] = m
        rec["rows"] = sum(self.file_rows[self.files.index(p)] for p in new)
        rec["in_bytes"] = sum(os.path.getsize(p) for p in new)
        rec["before"] = before
        rec["after"] = tree_files(out)
        rec["write_amp"] = written_bytes(before, rec["after"]) / rec["in_bytes"]
        return rec

    def check(self, rec: dict) -> list[str]:
        import oracle

        errs = [] if rec["path_ok"] else ["op took the wrong pipeline path"]
        exp = self.expected(rec["file_idx"])
        return errs + oracle.check_output(rec["out"], exp, self.wl["tokens"])

    def self_test(self, rec: dict) -> list[str]:
        import oracle

        return oracle.self_test(
            rec["out"], self.expected(rec["file_idx"]), self.wl["tokens"],
            os.path.join(self.run_dir, "selftest"),
        )

    def output_counts(self, rec: dict) -> dict:
        """Counts and bytes read from the op's outputs and manifests."""
        import oracle
        import pyarrow.parquet as pq

        out, before, after = rec["out"], rec["before"], rec["after"]
        sub = lambda *p: os.path.join(out, *p) + os.sep  # noqa: E731
        res = {
            "bytes.sidecar": written_bytes(before, after, sub("deduped")),
            "bytes.rollup": written_bytes(before, after, sub("rollup")),
            "bytes.chunks": written_bytes(before, after, sub("chunks")),
            "count.filled_points": oracle.filled_points(out),
        }
        for tier in oracle.TIERS:
            with open(os.path.join(out, "manifests", f"{tier}.json")) as f:
                res[f"count.points.{tier}"] = json.load(f)["total_rows"]
        dv_path = os.path.join(out, "deduped", "dv_manifest.json")
        if os.path.exists(dv_path):
            with open(dv_path) as f:
                dv = json.load(f)
            res["count.suspects"] = dv["n_suspects"]
            res["count.deleted"] = (
                dv["appends"][-1]["n_deleted_new"] if dv.get("appends") else dv["n_deleted"]
            )
        else:
            kept = sum(
                pq.ParquetFile(p).metadata.num_rows
                for p in after
                if p.startswith(sub("deduped", "data")) and p.endswith(".parquet")
            )
            res["count.suspects"] = 0
            res["count.deleted"] = rec["rows"] - kept
        bits = points = 0
        for p in after:
            if p.startswith(sub("chunks")) and p.endswith(".parquet"):
                t = pq.read_table(p, columns=["n_points", "ts_dod", "vals_xor"])
                points += sum(t["n_points"].to_pylist())
                bits += 8 * sum(len(b) for c in ("ts_dod", "vals_xor") for b in t[c].to_pylist())
        res["compress.bits_per_point"] = bits / points if points else 0.0
        return res

    # the measured loop ---------------------------------------------------
    def run(self) -> tuple[dict, str]:
        t0 = time.perf_counter()
        self.make_corpus()
        log(f"corpus and oracle rows: {time.perf_counter() - t0:.2f} s")
        reps = 1 if self.trace else SETUP_REPS
        self.link_inputs()
        tracer = None
        if self.trace:
            import spans

            tracer = spans.Tracer()
        setup_times: list[float] = []
        attempted = failed = 0
        peak_kb = 0
        timed = 0.0
        done: list[dict] = []
        layer_rows: list[dict] = []
        residuals: list[float] = []
        untraced: list[float] = []
        errors: list[str] = []
        self_test_problems: list[str] | None = None
        t_loop = time.monotonic()
        op_times = []
        stop = False
        for seg in range(1, reps + 1):
            if stop or time.monotonic() - t_loop > LOOP_DEADLINE_S:
                break
            if seg > 1:
                t0 = time.perf_counter()
                self.stop_ray()
                log(f"session stop between set-ups: {time.perf_counter() - t0:.2f} s")
            setup_times.append(self.setup_once())
            # each session runs its share of the ops, so that the timed ops
            # sample the whole run, not only its last seconds: the machine's
            # speed drifts over tens of seconds
            while (
                timed < self.seconds * seg / reps or attempted < MIN_OPS * seg // reps
            ) and time.monotonic() - t_loop < LOOP_DEADLINE_S:
                traced = tracer is not None and attempted % 2 == 1
                attempted += 1
                gc.collect()  # the previous op's checks leave garbage; don't bill it to this op
                reset_peak_rss(tree_pids())
                if traced:
                    tracer.op = attempted
                    tracer.install()
                try:
                    rec = self.op(attempted - 1)
                except OpTimeout:
                    failed += 1
                    errors.append(f"op {attempted}: timed out after {OP_TIMEOUT_S} s")
                    stop = True
                    break
                except Exception as e:  # noqa: BLE001 - an op that raises is a failed op
                    failed += 1
                    errors.append(f"op {attempted}: {type(e).__name__}: {e}")
                    continue
                finally:
                    if traced:
                        tracer.uninstall()
                peak_kb = max(peak_kb, sum(peak_rss_kb(p) for p in tree_pids()))
                timed += rec["op_s"]
                op_times.append(rec["op_s"])
                try:
                    errs = self.check(rec)
                except Exception as e:  # noqa: BLE001 - unreadable output fails the op
                    errs = [f"check raised {type(e).__name__}: {e}"]
                if self_test_problems is None and not errs:
                    self_test_problems = self.self_test(rec)
                if errs:
                    failed += 1
                    errors.append(f"op {attempted}: {errs[0]} ({len(errs)} problems)")
                done.append(rec)
                if tracer is not None:
                    if traced:
                        row, resid = spans.op_layers(tracer.spans, attempted)
                        row.update(self.output_counts(rec))
                        row["trace.op_s"] = rec["op_s"]
                        layer_rows.append(row)
                        residuals.append(resid)
                    else:
                        untraced.append(rec["op_s"])
                shutil.rmtree(rec["out"], ignore_errors=True)
        log(f"set-up: {', '.join(f'{t:.2f}' for t in setup_times)} s")
        log(f"set-ups and ops: {time.monotonic() - t_loop:.2f} s wall, ops "
            + " ".join(f"{t:.3f}" for t in op_times) + " s")
        if not done:
            raise RuntimeError("no op completed: " + "; ".join(errors))
        if self_test_problems is None:
            self_test_problems = ["no op passed the oracle, so the self-test did not run"]
        for e in errors + [f"self-test: {p}" for p in self_test_problems]:
            print(e, file=sys.stderr)

        med = statistics.median
        op_s = [r["op_s"] for r in done]
        if self.trace:
            # times: median over traced ops; counts and bytes: the first
            # traced op's, which is the same op (and added file) in every run
            metrics = {
                k: (med(r[k] for r in layer_rows) if k in spans.TIME_METRICS or k == "trace.op_s"
                    else layer_rows[0][k])
                for k in (layer_rows[0] if layer_rows else {})
            }
            if layer_rows and untraced:
                metrics["trace.overhead_s"] = metrics["trace.op_s"] - med(untraced)
            import kernels

            metrics.update(kernels.run_kernels(self.files))
            self.write_spans(tracer)
        else:
            metrics = {
                "op_s": med(op_s),
                "rows_per_s": med(r["rows"] / r["op_s"] for r in done),
                "setup_s": med(setup_times),
                "peak_rss_mb": peak_kb / 1024.0,
                "write_amp": med(r["write_amp"] for r in done),
            }
        units = load_units("per_layer" if self.trace else "end_to_end")
        if set(metrics) != set(units):
            raise RuntimeError(
                f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))},"
                f" extra {sorted(set(metrics) - set(units))}"
            )
        result = {
            "correct": failed == 0 and not self_test_problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        }
        summary = (
            f"{self.name} seed={self.seed} trace={int(self.trace)}: "
            + " ".join(f"{k}={float(metrics[k]):.6g}{u}" for k, u in units.items()
                       if not self.trace)
            + f" ops={len(done)} (median; a percentile above it needs >=20 ops)"
            + f" failed_frac={failed}/{attempted}={failed / attempted:.3f}"
            + f" self_test={'ok' if not self_test_problems else 'FAILED'}"
            + (f" spans_sum_residual_s={max(map(abs, residuals)):.2e}" if residuals else "")
        )
        return result, summary

    def write_spans(self, tracer) -> None:
        d = os.path.join(WORK, "trace")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"{self.name}-seed{self.seed}.json")
        with open(path, "w") as f:
            json.dump(tracer.spans, f)
        print(f"spans written to {path}", file=sys.stderr)

    def close(self) -> None:
        t0 = time.perf_counter()
        try:
            self.stop_ray()
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            kill_tree(os.getpid(), signal.SIGTERM)
            left = wait_gone(os.getpid(), 10)
            if left:
                kill_tree(os.getpid())
                wait_gone(os.getpid(), 10)
            log(f"shutdown: {time.perf_counter() - t0:.2f} s")


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the main thread after ``seconds``."""

    def fire(signum, frame):
        raise OpTimeout()

    prev = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, prev)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one BENCHMARK.json section, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def watchdog() -> None:
    """Last resort when the run overruns: stop every process started, exit
    without a result."""
    print(f"run exceeded {RUN_DEADLINE_S} s; aborting", file=sys.stderr)
    kill_tree(os.getpid())
    wait_gone(os.getpid(), 5)
    os._exit(3)


def run_all(args) -> int:
    """Every workload, one process each, in turn; their output is relayed."""
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
            rc = 1
    return rc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    result_fd = os.dup(1)
    os.dup2(2, 1)  # only the result reaches the real standard output
    try:
        sys.path.insert(0, ROOT)
        import contest_parsing_ray.pipelines.rollup_pipeline  # noqa: F401
    except ImportError as e:
        print(f"cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    timer = threading.Timer(RUN_DEADLINE_S, watchdog)
    timer.daemon = True
    timer.start()
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result, summary = bench.run()
    finally:
        bench.close()
        timer.cancel()
    sys.stdout.flush()
    os.write(result_fd, (summary + "\n" + json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
