#!/usr/bin/env python3
"""RustSight's end-to-end benchmark (design and metric map: README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `rustsight` and `perfbench_tool`
from that checkout into $CARGO_TARGET_DIR (default .bench_build), generates
the workload's inputs from --seed under .bench_work/, drives the real CLI or
daemon closed-loop for --seconds, checks every verdict against known
answers, and prints one JSON result line last.

--trace 0 reports the end-to-end metrics, measured from outside the
program. --trace 1 instead replays the seed's inputs in-process at jobs 1
through each layer's public functions and reports the per-layer metrics
(the same set for every workload).

`--write-benchmark-json` regenerates BENCHMARK.json from the tables below.
"""

import argparse
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = max(1, min(4, os.cpu_count() or 1))
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
# Host speed: the timed loops run perfbench_hostref (fixed work on up to
# JOBS threads) at most every HOST_REF_EVERY_S, and step_ms and setup_s are
# scaled to a host on which it takes HOST_REF_MS (README.md, "Host
# speed").
HOST_REF_EVERY_S = 0.5
HOST_REF_MS = 100.0

WORKLOADS = {
    "check_cold": "1.5k generated files plus the 77-file eval corpus, "
                  "`check --json --jobs 4` from an empty cache each pass",
    "check_incremental": "the same corpus warm: unchanged linked, unchanged "
                         "per-file, and one-file-edit re-runs in turn",
    "serve_edit": "one LSP client editing the generated files through "
                  "`rustsight serve`; each didChange waits for its publish",
}

# (name, unit, better, bound). Every workload reports all three; what a
# "step" is per workload is in README.md.
END_TO_END = [
    ("step_ms", "ms", "lower", 0.25),
    ("rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

DETECTORS = ["use-after-free", "double-lock", "conflicting-lock-order",
             "invalid-free", "double-free", "uninitialized-read",
             "interior-mutability", "missing-wakeup", "dangling-return"]

# (name, unit, better). The traced run reports all of them on every
# workload; README.md maps each to its layer and end-to-end metric.
PER_LAYER = [
    ("mir.parse_ms", "ms", "lower"),
    ("mir.verify_ms", "ms", "lower"),
    ("mir.snapshot_write_ms", "ms", "lower"),
    ("mir.snapshot_read_ms", "ms", "lower"),
    ("analysis.memory_ms", "ms", "lower"),
    ("analysis.summarize_ms", "ms", "lower"),
    ("analysis.link_solve_ms", "ms", "lower"),
    ("analysis.link_rounds", "count", "lower"),
    ("analysis.summarizations", "count", "lower"),
    ("analysis.facts_ms", "ms", "lower"),
    ("analysis.link_build_ms", "ms", "lower"),
] + [("detectors.%s_ms" % d, "ms", "lower") for d in DETECTORS] + [
    ("detectors.findings", "count", "higher"),
    ("sched.store_ms", "ms", "lower"),
    ("sched.lookup_ms", "ms", "lower"),
    ("sched.disk_files", "count", "lower"),
    ("sched.disk_bytes", "bytes", "lower"),
    ("sched.disk_files_per_edit", "count", "lower"),
    ("sched.disk_bytes_per_edit", "bytes", "lower"),
    ("sched.cache_hits", "count", "higher"),
    ("sched.cache_misses", "count", "lower"),
    ("sched.disk_hits", "count", "higher"),
    ("sched.summarydb_hits", "count", "higher"),
    ("sched.summarydb_stores", "count", "lower"),
    ("engine.read_ms", "ms", "lower"),
    ("engine.fingerprint_ms", "ms", "lower"),
    ("engine.render_json_ms", "ms", "lower"),
    ("engine.overhead_ms", "ms", "lower"),
    ("engine.unattributed_ms", "ms", "lower"),
    ("engine.unattributed_cycle_ms", "ms", "lower"),
    ("engine.replay_cold_ms", "ms", "lower"),
    ("engine.untraced_cold_ms", "ms", "lower"),
    ("engine.trace_overhead_ratio", "ratio", "lower"),
    ("engine.warm_jobs1_ms", "ms", "lower"),
    ("engine.warm_jobs4_ms", "ms", "lower"),
    ("engine.jobs4_speedup", "ratio", "higher"),
    ("corpus.walk_ms", "ms", "lower"),
    ("serve.initial_analyze_ms", "ms", "lower"),
    ("serve.initial_render_ms", "ms", "lower"),
    ("serve.handle_ms", "ms", "lower"),
    ("serve.refresh_ms", "ms", "lower"),
    ("serve.unattributed_ms", "ms", "lower"),
    ("serve.edit_p50_ms", "ms", "lower"),
    ("serve.transport_ms", "ms", "lower"),
    ("serve.analyses_per_edit", "count", "lower"),
    ("serve.revalidations_per_edit", "count", "lower"),
    ("diag.lsp_render_ms", "ms", "lower"),
    ("fuzz.execs_per_s", "1/s", "higher"),
    ("testgen.candidate_ms", "ms", "lower"),
    ("testgen.parse_ms", "ms", "lower"),
    ("testgen.minimize_ms", "ms", "lower"),
    ("testgen.minimize_evals", "count", "lower"),
    ("testgen.candidates", "count", "higher"),
    ("testgen.admitted", "count", "higher"),
    ("testgen.admitted_ratio", "ratio", "higher"),
    ("testgen.edges", "count", "higher"),
    ("testgen.replay_ms", "ms", "lower"),
    ("vm.compile_ms", "ms", "lower"),
    ("vm.run_ms", "ms", "lower"),
    ("interp.parity_ms", "ms", "lower"),
]

# Input sizes. --tiny (the smoke test) shrinks every workload.
SIZES = {
    False: dict(files=1500, edit_candidates=256, fuzz_iters=48,
                trace_edits=100, trace_cycles=2),
    True: dict(files=40, edit_candidates=16, fuzz_iters=8,
               trace_edits=8, trace_cycles=2),
}

XFILE_PAIRS = ("xfile_uaf", "xfile_double_lock")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * len(s) + 0.5)) - 1))]


# --- Build ------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the RustSight sources are not next to perfbench/")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_root, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        checked(["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"])
    checked(["cmake", "--build", build_dir, "-j", str(JOBS)])
    rustsight = os.path.join(build_dir, "rustsight", "examples", "rustsight")
    tool = os.path.join(build_dir, "perfbench_tool")
    hostref = os.path.join(build_dir, "perfbench_hostref")
    for exe in (rustsight, tool, hostref):
        if not os.access(exe, os.X_OK):
            raise BenchError("build produced no %s" % exe)
    return rustsight, tool, hostref


def checked(cmd):
    r = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=880)
    if r.returncode != 0:
        raise BenchError("%s exited %d" % (" ".join(cmd), r.returncode))


# --- Child processes --------------------------------------------------------

class Child:
    def __init__(self, code, out, err, ms, rss_mb):
        self.code, self.out, self.err = code, out, err
        self.ms, self.rss_mb = ms, rss_mb


def reap(proc, timeout):
    """Waits for `proc` (killing it after `timeout` seconds) and returns
    (exit code, rusage) — the child's own peak RSS, not the tree's."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(cmd):
    """Runs `cmd` to completion with its output on pipes (nothing touches
    the disk) and returns its exit code, output, wall time and peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    out = proc.stdout.read()
    drain.join()
    code, usage = reap(proc, CHILD_TIMEOUT_S)
    ms = (time.perf_counter() - t0) * 1000.0
    proc.stdout.close()
    proc.stderr.close()
    return Child(code, out.decode("utf-8", "replace"),
                 err[0].decode("utf-8", "replace"), ms,
                 usage.ru_maxrss / 1024.0)


def disk_usage(path):
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, n))
    return files, size


# --- Inputs and known answers -----------------------------------------------

class Inputs:
    """One generated input set: the seed's corpus (plus, for the check
    workloads, a private copy of examples/mir/eval) and the known verdict
    of every file, keyed by the absolute path the reports use."""

    def __init__(self, tool, work, seed, size, with_eval):
        self.root = os.path.join(work, "inputs")
        shutil.rmtree(self.root, ignore_errors=True)
        r = run_child([tool, "gen", "--seed", str(seed),
                       "--files", str(size["files"]),
                       "--edits", str(size["edit_candidates"]),
                       "--out", self.root])
        if r.code != 0:
            raise BenchError("perfbench_tool gen failed: " + r.err[-500:])
        self.gen = os.path.join(self.root, "gen")
        with open(os.path.join(self.root, "labels.json")) as f:
            labels = json.load(f)
        self.expected = {os.path.join(self.root, e["path"]):
                         (e["detector"], e["positive"])
                         for e in labels["files"]}
        self.edit_candidates = labels["edits"]
        self.rules = labels["rules"]
        self.eval = None
        if with_eval:
            self.eval = os.path.join(self.root, "eval")
            shutil.copytree(os.path.join(ROOT, "examples", "mir", "eval"),
                            self.eval)
            with open(os.path.join(self.eval, "manifest.json")) as f:
                for c in json.load(f)["cases"]:
                    self.expected[os.path.join(self.eval, c["file"])] = (
                        c["detector"], c["positive"])

    def roots(self):
        return [self.gen] + ([self.eval] if self.eval else [])


def perfile_expected(expected):
    """Per-file mode cannot see a callee in another file, so every
    cross-file caller is negative there (docs/WHOLEPROGRAM.md)."""
    out = dict(expected)
    for path, (det, _) in expected.items():
        name = os.path.basename(path)
        if name.startswith("xfile_") and name.endswith("_use.mir"):
            out[path] = (det, False)
    return out


def verdict_ok(detector, positive, fired):
    if detector == "*":
        return not fired
    return (detector in fired) == positive


def report_errors(text, expected):
    """Checks a `check --json` report against the known verdicts."""
    try:
        doc = json.loads(text)
    except ValueError:
        return ["--json output is not JSON"]
    errors, seen = [], set()
    for f in doc.get("files", []):
        path = f.get("path")
        seen.add(path)
        if path not in expected:
            errors.append("unexpected file %s" % path)
            continue
        if f.get("status") != "ok":
            errors.append("%s: status %s" % (path, f.get("status")))
            continue
        fired = {d["name"] for d in f.get("detectors", [])
                 if d.get("findings")}
        det, pos = expected[path]
        if not verdict_ok(det, pos, fired):
            errors.append("%s: expected %s %s, fired %s" % (
                path, det, "positive" if pos else "negative", sorted(fired)))
    missing = len(set(expected) - seen)
    if missing:
        errors.append("%d file(s) missing from the report" % missing)
    return errors


def rename(text, names, suffix):
    if not names:
        return text
    pattern = r"\b(%s)\b" % "|".join(
        re.escape(n) for n in sorted(names, key=len, reverse=True))
    return re.sub(pattern, lambda m: m.group(1) + suffix, text)


class EditPlanner:
    """Edits with known answers. Each flips a generated file between the
    buggy and the benign twin of its mutator pattern; the expected verdict
    follows the twin. A file's later visits rename the planted functions
    so every edit is new content (a true re-analysis, never a cache hit).
    With `xfile_first`, the first edit instead rewrites the callee file of
    a cross-file eval pair with its benign body, which must flip the
    caller's verdict."""

    def __init__(self, inputs, seed, xfile_first):
        self.inputs = inputs
        self.visits = {}
        self.pristine = {}
        self.count = 0
        self.xfile = XFILE_PAIRS[seed % 2] if xfile_first else None

    def next(self):
        """Returns (path, text, {path: expected verdict} updates)."""
        self.count += 1
        if self.xfile:
            stem, self.xfile = self.xfile, None
            ev = self.inputs.eval
            with open(os.path.join(ev, stem + "_ok_0_def.mir")) as f:
                text = f.read().replace("_ok_0", "_bug_0")
            use = os.path.join(ev, stem + "_bug_0_use.mir")
            det, _ = self.inputs.expected[use]
            return (os.path.join(ev, stem + "_bug_0_def.mir"), text,
                    {use: (det, False)})
        cands = self.inputs.edit_candidates
        c = cands[(self.count - 1) % len(cands)]
        path = os.path.join(self.inputs.root, c["path"])
        if path not in self.pristine:
            with open(path) as f:
                self.pristine[path] = f.read()
        visit = self.visits.get(path, 0)
        self.visits[path] = visit + 1
        if visit % 2 == 0:
            text, names, positive = (c["twin"], c["twin_names"],
                                     not c["positive"])
        else:
            text, names, positive = (self.pristine[path], c["names"],
                                     c["positive"])
        if visit:
            text = rename(text, names, "_e%d" % self.count)
        return path, text, {path: (c["detector"], positive)}


def write_text(path, text):
    with open(path, "w") as f:
        f.write(text)


# --- Run context ------------------------------------------------------------

class Run:
    def __init__(self, args, rustsight, tool, hostref):
        self.args = args
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = SIZES[args.tiny]
        self.rs, self.tool, self.hostref = rustsight, tool, hostref
        self.ref_ms = []
        self.ref_at = None
        self.work = os.path.abspath(os.path.join(".bench_work",
                                                 args.workload))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        # Start every run on a quiet disk: flush what earlier runs wrote.
        os.sync()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup_times = []

    def record(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])

    def inputs(self, with_eval):
        return Inputs(self.tool, self.work, self.seed, self.size, with_eval)

    def set_aside(self, path):
        """Moves `path` out of the way; cleanup() deletes it. Deleting
        ~10k files at once keeps a disk mounted with online discard busy
        for seconds after the delete returns, which would slow whatever
        runs next."""
        trash = os.path.join(self.work, "trash")
        os.makedirs(trash, exist_ok=True)
        os.rename(path, os.path.join(trash, str(len(os.listdir(trash)))))

    def setup(self, fn, discard=None):
        """Runs the program's set-up for the workload SETUP_REPEATS times,
        timing each, and keeps the last result; `discard` sets each earlier
        one aside. The inputs are generated once, before, and are not part
        of it. Flushing the written files to disk (`sync`) is not timed
        either: how fast the disk writes back is the host's, not the
        program's. Flushing between set-ups keeps one set-up's write-back
        out of the next one and out of the timed passes."""
        result = None
        for _ in range(SETUP_REPEATS):
            if discard and result is not None:
                discard(result)
            os.sync()
            t0 = time.perf_counter()
            result = fn()
            self.setup_times.append(time.perf_counter() - t0)
        os.sync()
        log("set-up times (s): " + " ".join("%.3f" % t
                                             for t in self.setup_times))
        return result

    def cleanup(self):
        """Deletes inputs and caches, keeping only the traces' span files,
        then flushes, so the next run starts on a quiet disk."""
        for entry in os.listdir(self.work):
            if entry != "trace":
                shutil.rmtree(os.path.join(self.work, entry),
                              ignore_errors=True)
        shutil.rmtree(os.path.join(self.work, "trace", "replay_cache"),
                      ignore_errors=True)
        os.sync()

    def deadline(self):
        return time.perf_counter() + self.seconds

    def host_ref(self):
        """Samples the host's speed between timed steps, at most every
        HOST_REF_EVERY_S, so the samples spread over the timed window. The
        reference runs on the CPUs the workload may use, one thread each
        (up to JOBS)."""
        now = time.perf_counter()
        if self.ref_at is not None and now - self.ref_at < HOST_REF_EVERY_S:
            return
        self.ref_at = now
        threads = min(JOBS, len(os.sched_getaffinity(0)))
        r = run_child([self.hostref, str(threads)])
        if r.code != 0:
            raise BenchError("perfbench_hostref exited %d" % r.code)
        self.ref_ms.append(float(r.out.split()[0]))

    def check(self, inputs, cache, expected, jobs=JOBS, linked=True):
        """`check --json`; `cache` None keeps the cache in memory only."""
        cmd = [self.rs, "check", "--json", "--jobs", str(jobs)]
        if cache:
            cmd += ["--cache-dir", cache]
        if not linked:
            cmd.append("--no-whole-program")
        r = run_child(cmd + inputs.roots())
        errors = [] if r.code == 1 else [
            "check exited %d: %s" % (r.code, r.err[-300:])]
        return r, errors + report_errors(r.out, expected)


def show(name, value, unit, n=None):
    """One human-readable metric line (stdout, before the result line)."""
    print("metric %-28s %14.4f %-6s%s" % (
        name, value, unit, "" if n is None else "  (n=%d)" % n))


def stats_wall_ms(stderr):
    m = re.search(r"([\d.]+) ms wall-clock", stderr)
    return float(m.group(1)) if m else None


# --- Workloads ----------------------------------------------------------------

def workload_check_cold(run):
    # Every pass is a fresh process with an empty cache. The cache stays in
    # memory: on ext4, writing the ~10k cache files costs the filesystem
    # seconds per pass, with wide spread (README.md).
    inputs = run.inputs(with_eval=True)

    def setup():
        # One untimed cold check: binary and inputs in the page cache.
        _, errors = run.check(inputs, None, inputs.expected)
        run.record(errors)

    run.setup(setup)
    times, rss, first = [], [], None
    end = run.deadline()
    while not times or time.perf_counter() < end:
        run.host_ref()
        r, errors = run.check(inputs, None, inputs.expected)
        first = first if first is not None else r.out
        if r.out != first:
            errors.append("cold --json bytes differ between passes")
        run.record(errors)
        times.append(r.ms)
        rss.append(r.rss_mb)

    # Determinism: a jobs-1 run renders the same bytes (check_incremental
    # compares cold against warm).
    j1, errors = run.check(inputs, None, inputs.expected, jobs=1)
    run.record(errors + ([] if j1.out == first else
                         ["jobs-1 --json differs from jobs %d" % JOBS]))

    show("check_cold_ms", median(times), "ms", len(times))
    show("check_cold_rss_mb", median(rss), "MB", len(rss))
    return {"step_ms": median(times), "rss_mb": median(rss)}


def workload_check_incremental(run):
    cache = os.path.join(run.work, "cache")

    inputs = run.inputs(with_eval=True)

    def setup():
        r, errors = run.check(inputs, cache, inputs.expected)
        run.record(errors)
        return r.out

    linked_json = run.setup(setup, lambda _: run.set_aside(cache))
    expected = dict(inputs.expected)
    planner = EditPlanner(inputs, run.seed, xfile_first=True)
    warm_ms, perfile_ms, edit_ms, cycle_ms, rss = [], [], [], [], []
    files0, size0 = disk_usage(cache)
    end = run.deadline()
    while not cycle_ms or time.perf_counter() < end:
        run.host_ref()
        w, errors = run.check(inputs, cache, expected)
        if w.out != linked_json:
            errors.append("unchanged linked re-run changed --json bytes")
        run.record(errors)
        p, errors = run.check(inputs, cache, perfile_expected(expected),
                              linked=False)
        run.record(errors)
        path, text, updates = planner.next()
        write_text(path, text)
        expected.update(updates)
        e, errors = run.check(inputs, cache, expected)
        run.record(errors)
        linked_json = e.out
        warm_ms.append(w.ms)
        perfile_ms.append(p.ms)
        edit_ms.append(e.ms)
        cycle_ms.append(w.ms + p.ms + e.ms)
        rss.append(max(w.rss_mb, p.rss_mb, e.rss_mb))
    files1, size1 = disk_usage(cache)

    n = len(cycle_ms)
    paths = [median(warm_ms), median(perfile_ms), median(edit_ms)]
    # The step is the geometric mean of the three paths' medians, so each
    # weighs the same: a per-file re-run is ~1/20 of a linked one, and a sum
    # would hide a 2x regression on it.
    step = (paths[0] * paths[1] * paths[2]) ** (1.0 / 3.0)
    show("check_warm_ms", paths[0], "ms", n)
    show("check_warm_perfile_ms", paths[1], "ms", n)
    show("check_edit_ms", paths[2], "ms", n)
    show("check_cycle_ms", median(cycle_ms), "ms", n)
    show("sched.disk_files_after_setup", files0, "count")
    show("sched.disk_bytes_after_setup", size0, "bytes")
    show("sched.disk_files", files1, "count")
    show("sched.disk_bytes", size1, "bytes")
    show("sched.disk_files_per_edit", (files1 - files0) / n, "count")
    show("sched.disk_bytes_per_edit", (size1 - size0) / n, "bytes")
    return {"step_ms": step, "rss_mb": median(rss)}


# Every daemon started; main() kills and reaps any that an error left open.
DAEMONS = []


class LspClient:
    """A minimal LSP client over the daemon's stdio pipes."""

    def __init__(self, cmd, work):
        self.err = open(os.path.join(work, "serve.stderr"), "wb")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err)
        DAEMONS.append(self.proc)
        self.fd = self.proc.stdout.fileno()
        self.buf = b""
        self.next_id = 1

    def send(self, method, params, request=False):
        msg = {"jsonrpc": "2.0", "method": method, "params": params}
        if request:
            msg["id"] = self.next_id
            self.next_id += 1
        self.write(self.frame(msg))
        return msg.get("id")

    @staticmethod
    def frame(msg):
        body = json.dumps(msg).encode()
        return b"Content-Length: %d\r\n\r\n" % len(body) + body

    def write(self, frame):
        self.proc.stdin.write(frame)
        self.proc.stdin.flush()

    def recv(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while True:
            msg = self._frame()
            if msg is not None:
                return msg
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("serve sent nothing for %.0f s" % timeout)
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 1 << 20)
                if not chunk:
                    raise BenchError("serve closed its stdout")
                self.buf += chunk

    def _frame(self):
        head = self.buf.find(b"\r\n\r\n")
        if head < 0:
            return None
        m = re.search(rb"Content-Length:\s*(\d+)", self.buf[:head], re.I)
        if not m:
            raise BenchError("serve sent a frame without Content-Length")
        start, n = head + 4, int(m.group(1))
        if len(self.buf) < start + n:
            return None
        body, self.buf = self.buf[start:start + n], self.buf[start + n:]
        return json.loads(body)

    def close(self):
        """shutdown + exit; returns (exit code, peak RSS in MB)."""
        try:
            rid = self.send("shutdown", None, request=True)
            while self.recv().get("id") != rid:
                pass
            self.send("exit", None)
            self.proc.stdin.close()
        except (BenchError, OSError):
            self.proc.kill()
        code, usage = reap(self.proc, 30)
        self.proc.stdout.close()
        self.err.close()
        return code, usage.ru_maxrss / 1024.0


def path_uri(path):
    return "file://" + urllib.parse.quote(path)


def uri_path(uri):
    return urllib.parse.unquote(uri[len("file://"):])


class ServeSession:
    """A daemon over one input set: initial sweep, then timed edits."""

    def __init__(self, run, inputs):
        self.run, self.inputs = run, inputs
        self.versions = {}
        t0 = time.perf_counter()
        self.client = LspClient([run.rs, "serve", "--debounce-ms", "0",
                                 inputs.gen], run.work)
        rid = self.client.send("initialize", {"processId": os.getpid()},
                               request=True)
        while self.client.recv().get("id") != rid:
            pass
        self.client.send("initialized", {})
        pending = {p for p in inputs.expected}
        errors = []
        while pending:
            msg = self.client.recv()
            if msg.get("method") != "textDocument/publishDiagnostics":
                continue
            path = uri_path(msg["params"]["uri"])
            if path in pending:
                pending.discard(path)
                errors += self.verdict_errors(msg["params"],
                                              *inputs.expected[path])
        self.initial_ms = (time.perf_counter() - t0) * 1000.0
        run.record(errors)

    def verdict_errors(self, params, detector, positive):
        fired = {self.inputs.rules.get(d.get("code"), "")
                 for d in params.get("diagnostics", [])}
        fired.discard("")
        if verdict_ok(detector, positive, fired):
            return []
        return ["%s: expected %s %s, published %s" % (
            uri_path(params["uri"]), detector,
            "positive" if positive else "negative", sorted(fired))]

    def wait_publish(self, path, version):
        while True:
            msg = self.client.recv()
            if msg.get("method") == "window/logMessage":
                raise BenchError("serve logged: %s" % msg["params"])
            params = msg.get("params") or {}
            if (msg.get("method") == "textDocument/publishDiagnostics"
                    and uri_path(params.get("uri", "")) == path
                    and params.get("version") == version):
                return params

    def edit(self, path, text, detector, positive):
        """One timed edit: didChange, then its publishDiagnostics. Returns
        the latency in ms (None when the publish is missing)."""
        if path not in self.versions:
            with open(path) as f:
                current = f.read()
            self.client.send("textDocument/didOpen", {"textDocument": {
                "uri": path_uri(path), "languageId": "mir", "version": 1,
                "text": current}})
            self.wait_publish(path, 1)
            self.versions[path] = 1
        self.versions[path] += 1
        version = self.versions[path]
        # Encoded before the clock starts: the client's JSON work is not
        # the daemon's latency.
        frame = LspClient.frame({
            "jsonrpc": "2.0", "method": "textDocument/didChange", "params": {
                "textDocument": {"uri": path_uri(path), "version": version},
                "contentChanges": [{"text": text}]}})
        t0 = time.perf_counter()
        self.client.write(frame)
        try:
            params = self.wait_publish(path, version)
        except BenchError as e:
            self.run.record(["missing publish after edit: %s" % e])
            return None
        ms = (time.perf_counter() - t0) * 1000.0
        self.run.record(self.verdict_errors(params, detector, positive))
        return ms

    def close(self):
        code, rss = self.client.close()
        self.run.record([] if code == 0 else ["serve exited %d" % code])
        return rss


def workload_serve_edit(run):
    inputs = run.inputs(with_eval=False)
    # The client and the daemon (which inherits this) share one CPU, as a
    # closed loop needs only one. Waking a process on another virtual CPU
    # cost the tuning host up to 0.5 ms more per edit in its slow phases.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    initial = []

    def setup():
        session = ServeSession(run, inputs)
        initial.append(session.initial_ms)
        return session

    session = run.setup(setup, ServeSession.close)
    planner = EditPlanner(inputs, run.seed, xfile_first=False)
    latencies = []
    end = run.deadline()
    while not latencies or time.perf_counter() < end:
        run.host_ref()
        path, text, updates = planner.next()
        (detector, positive), = updates.values()
        ms = session.edit(path, text, detector, positive)
        if ms is None:
            break
        latencies.append(ms)
    rss = session.close()

    n = len(latencies)
    show("serve_initial_ms", median(initial), "ms", len(initial))
    show("serve_edit_p50_ms", median(latencies), "ms", n)
    if n >= 100:
        show("serve_edit_p90_ms", percentile(latencies, 0.9), "ms", n)
    else:
        log("serve_edit_p90_ms needs 100 samples, have %d" % n)
    show("serve_rss_mb", rss, "MB")
    return {"step_ms": median(latencies), "rss_mb": rss}


FUZZ_LINE = re.compile(r"fuzzed (\d+) candidates, (\d+) corpus entries, "
                       r"(\d+) edges, digest ([0-9a-f]{16}): OK")


# The traced run's fuzz scenario uses a fixed master seed, not --seed: the
# cost of a fuzz run varies up to 3x between master seeds (README.md).
FUZZ_SEED = 1


def run_fuzz(run, iters, jobs=JOBS):
    r = run_child([run.rs, "fuzz", "--jobs", str(jobs), "--fuzz-seed",
                   str(FUZZ_SEED), "--fuzz-iters", str(iters)])
    m = FUZZ_LINE.search(r.out)
    errors = [] if r.code == 0 and m else [
        "fuzz exited %d: %s" % (r.code, (r.out + r.err)[-300:])]
    return r, (m.group(4) if m else None), errors


# --- Traced run ---------------------------------------------------------------

def tool_json(run, cmd):
    r = run_child([run.tool] + cmd)
    if r.code != 0:
        raise BenchError("perfbench_tool %s failed: %s" % (cmd[0],
                                                            r.err[-500:]))
    doc = json.loads(r.out.strip().splitlines()[-1])
    run.attempted += doc["attempted"]
    run.failed += doc["failed"]
    run.errors.extend(doc["errors"][:3])
    return doc


def trace_check(run, metrics):
    trace = os.path.join(run.work, "trace")
    os.makedirs(trace, exist_ok=True)
    inputs = run.inputs(with_eval=True)

    # The CLI's view of the same state, for byte comparison and for the
    # process overhead around RunStats.WallMs.
    cold, errors = run.check(inputs, None, inputs.expected)
    run.record(errors)
    overheads = []
    wall = stats_wall_ms(cold.err)
    if wall is not None:
        overheads.append(cold.ms - wall)

    # The cycles' edits, with the verdicts each must produce.
    planner = EditPlanner(inputs, run.seed, xfile_first=True)
    edits, states, expected = [], [], dict(inputs.expected)
    for _ in range(run.size["trace_cycles"]):
        path, text, updates = planner.next()
        states.append(dict(expected))  # before this cycle's edit
        expected.update(updates)
        states.append(dict(expected))  # after it
        (det, pos) = updates.get(path, (None, False))
        edits.append({"path": path, "text": text, "detector": det or "*",
                      "positive": pos})
    edits_file = os.path.join(trace, "check_edits.json")
    with open(edits_file, "w") as f:
        json.dump(edits, f)

    doc = tool_json(run, ["trace-check"]
                    + sum((["--root", r] for r in inputs.roots()), [])
                    + ["--edits", edits_file, "--work", trace,
                       "--spans", os.path.join(trace, "check_spans.json")])
    metrics.update(doc["metrics"])

    def replay(name):
        with open(os.path.join(trace, name)) as f:
            return f.read()

    run.record([] if replay("replay_cold.json") == cold.out else
               ["traced replay --json differs from the CLI's"])
    for c in range(len(edits)):
        before, after = states[2 * c], states[2 * c + 1]
        prefix = "replay_cycle%d" % c
        run.record(report_errors(replay(prefix + "_warm.json"), before))
        run.record(report_errors(replay(prefix + "_perfile.json"),
                                 perfile_expected(before)))
        run.record(report_errors(replay(prefix + "_edit.json"), after))

    # The CLI on the edited state must agree with the replay byte for byte.
    final, errors = run.check(inputs, os.path.join(trace, "replay_cache"),
                              expected)
    last = replay("replay_cycle%d_edit.json" % (len(edits) - 1))
    run.record(errors + ([] if final.out == last else
                         ["CLI --json after edits differs from the replay"]))
    wall = stats_wall_ms(final.err)
    if wall is not None:
        overheads.append(final.ms - wall)
    metrics["engine.overhead_ms"] = median(overheads)


def trace_serve(run, metrics):
    trace = os.path.join(run.work, "trace")
    inputs = run.inputs(with_eval=False)
    planner = EditPlanner(inputs, run.seed, xfile_first=False)
    edits = []
    for _ in range(run.size["trace_edits"]):
        path, text, updates = planner.next()
        (det, pos), = updates.values()
        edits.append({"path": path, "text": text, "detector": det,
                      "positive": pos})
    edits_file = os.path.join(trace, "serve_edits.json")
    with open(edits_file, "w") as f:
        json.dump(edits, f)
    doc = tool_json(run, ["trace-serve", "--root", inputs.gen,
                          "--edits", edits_file,
                          "--spans", os.path.join(trace, "serve_spans.json")])
    metrics.update(doc["metrics"])

    # The same edits over the real pipes give the latency the refresh sits
    # inside; the rest is transport (framing, JSON, the stdio loop).
    session = ServeSession(run, inputs)
    latencies = [session.edit(e["path"], e["text"], e["detector"],
                              e["positive"]) for e in edits]
    session.close()
    latencies = [ms for ms in latencies if ms is not None]
    metrics["serve.edit_p50_ms"] = median(latencies)
    metrics["serve.transport_ms"] = (median(latencies)
                                     - metrics["serve.refresh_ms"])


def trace_fuzz(run, metrics):
    trace = os.path.join(run.work, "trace")
    iters = run.size["fuzz_iters"]
    cli, digest, errors = run_fuzz(run, iters)
    run.record(errors)
    metrics["fuzz.execs_per_s"] = iters / (cli.ms / 1000.0)
    doc = tool_json(run, ["trace-fuzz", "--seed", str(FUZZ_SEED),
                          "--iters", str(iters),
                          "--spans", os.path.join(trace, "fuzz_spans.json")])
    run.record([] if doc.get("digest") == digest else
               ["fuzz replay digest %s differs from the CLI's %s" % (
                   doc.get("digest"), digest)])
    metrics.update(doc["metrics"])


def traced(run):
    metrics = {}
    trace_check(run, metrics)
    trace_serve(run, metrics)
    trace_fuzz(run, metrics)
    for name, unit, _ in PER_LAYER:
        if name not in metrics:
            raise BenchError("traced run did not produce %s" % name)
        show(name, metrics[name], unit)
    return {name: metrics[name] for name, _, _ in PER_LAYER}


# --- Entry --------------------------------------------------------------------

def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test input sizes")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="regenerate BENCHMARK.json at the checkout root")
    args = ap.parse_args()
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        run = Run(args, *build())
        if args.trace:
            values = traced(run)
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            values = globals()["workload_" + args.workload](run)
            values["setup_s"] = median(run.setup_times)
            ref = median(run.ref_ms)
            show("step_ms_unscaled", values["step_ms"], "ms")
            show("setup_s_unscaled", values["setup_s"], "s")
            show("host_ref_ms", ref, "ms", len(run.ref_ms))
            values["step_ms"] *= HOST_REF_MS / ref
            values["setup_s"] *= HOST_REF_MS / ref
            units = {n: u for n, u, _, _ in END_TO_END}
            for name, unit, _, _ in END_TO_END:
                show(name, values[name], unit)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        for proc in DAEMONS:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    run.cleanup()
    for e in run.errors[:20]:
        log("failed: %s" % e)
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
