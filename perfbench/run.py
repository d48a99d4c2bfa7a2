"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload build-paper --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run builds the harness and the
`acbm` binary from source into .bench_build/; every input is generated from
--seed into a scratch directory under .bench_work/ that is removed at exit.
The timed operations are the shipped `acbm` commands, each run as its own
process; the harness (harness/) generates inputs, checks outputs and, with
--trace 1, times each layer's public calls.

--trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1 every
per-layer metric; each workload measures all of them on its own inputs. The
last stdout line is {"correct", "attempted", "failed", "metrics"}; the line
before it records the run context (seed, threads, CPU, ISA, git SHA,
serving rates, and figures of the workload such as build_s, evaluate_s or
refresh_s). Progress and a readable metric table go to stderr.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
HARNESS = os.path.join(BUILD, "acbm_perfbench")
ACBM = os.path.join(BUILD, "acbm", "cli", "acbm")
PHASE_TIMEOUT_S = 170
# Every process runs the fit at this many threads: all CPUs, at most 4.
THREADS = min(len(os.sched_getaffinity(0)), 4)
# Set-up and the timed build run this many times a run; the median counts.
SETUP_REPEATS = 3
BUILDS = 3
# The name `acbm serve` serves the packed model under.
MODEL = "paper"
TRACE_FILES = ("--dataset", "dataset.art", "--ipmap", "ipmap.art")


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_digest():
    """Content hash of everything the build reads."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "harness")):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(HERE, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return digest.hexdigest()


def build():
    """Builds the harness and `acbm` unless the sources are unchanged."""
    stamp = os.path.join(BUILD, "sources.sha256")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no repository sources next to perfbench/")
    digest = source_digest()
    if os.path.isfile(HARNESS) and os.path.isfile(ACBM) and os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return
    log("perfbench: building the harness and acbm (Release)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(len(os.sched_getaffinity(0))),
                  "--target", "acbm_perfbench", "acbm_tool"])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    with open(stamp, "w") as f:
        f.write(digest)


def child_env():
    """The environment of every child: the fixed thread count, tracing off."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("ACBM_TRACE", "ACBM_METRICS", "ACBM_PROFILE")}
    env["ACBM_THREADS"] = str(THREADS)
    return env


def pinned(cpus):
    """preexec_fn that pins the child to `cpus` (None: no pinning)."""
    return None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))


def harness(phase, cpus=None, cwd=None, **options):
    """Runs one harness phase and returns its JSON result."""
    argv = [HARNESS, phase]
    start = time.monotonic()
    for key, value in options.items():
        if value is None or value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=PHASE_TIMEOUT_S, text=True, preexec_fn=pinned(cpus),
                          cwd=cwd, env=child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"harness phase {phase} exited {proc.returncode}")
    log(f"perfbench: {phase} took {time.monotonic() - start:.1f} s")
    return json.loads(proc.stdout.strip().splitlines()[-1])


Command = collections.namedtuple("Command", "seconds out ok rss_mb cpu_ms")


def acbm(*argv, cwd, metrics=None):
    """Runs one `acbm` command as its own process, as a user would, and
    times it. `metrics` names a file for the command's metrics dump, which
    turns the program's tracing on. rss_mb is the process's peak RSS and
    cpu_ms its user plus system CPU time."""
    argv = [ACBM, *argv] + (["--metrics", metrics] if metrics else [])
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            cwd=cwd, env=child_env())
    timer = threading.Timer(PHASE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    log(f"perfbench: acbm {argv[1]} took {seconds:.1f} s"
        + ("" if proc.returncode == 0 else f" and exited {proc.returncode}"))
    return Command(seconds, out, proc.returncode == 0, usage.ru_maxrss / 1024.0,
                   1000.0 * (usage.ru_utime + usage.ru_stime))


class Daemon:
    """`acbm serve` on a Unix socket, stopped gracefully on exit."""

    def __init__(self, work, cpus=None, metrics=None):
        # Relative to `work`, the daemon's and the generator's working
        # directory: a Unix socket path is limited to about 100 bytes.
        self.socket = "serve.sock"
        argv = [ACBM, "serve", "--socket", self.socket, "--model", f"{MODEL}=model.armm"]
        if metrics:
            argv += ["--metrics", metrics]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                                     text=True, preexec_fn=pinned(cpus), cwd=work,
                                     env=child_env())
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("LISTENING"):
            self.stop()
            raise RuntimeError("acbm serve did not start: " + line.strip())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def prometheus(path):
    """name -> value, and histogram name -> [(le, cumulative count)]."""
    values, buckets = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            if "_bucket{le=" in name:
                base, le = name.split("_bucket{le=")
                le = le.strip('"}')
                buckets.setdefault(base, []).append(
                    (math.inf if le == "+Inf" else float(le), float(value)))
            else:
                values[name] = float(value)
    return values, buckets


def histogram_quantile(buckets, q):
    """Prometheus-style quantile, interpolated inside the bucket."""
    total = buckets[-1][1]
    rank = q * total
    lower, below = 0.0, 0.0
    for le, count in buckets:
        if count >= rank:
            if math.isinf(le):
                return lower
            inside = count - below
            return lower + (le - lower) * ((rank - below) / inside if inside else 1.0)
        lower, below = le, count
    return lower


def median(values):
    return statistics.median(values) if values else None


def difference(traced, untraced):
    """Tracing overhead; None (not measured) when either side is missing."""
    return None if traced is None or untraced is None else traced - untraced


class Run:
    """Accumulates one workload run: metrics, accounting and context."""

    def __init__(self):
        self.metrics = {}
        self.context = {}
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, ok, why):
        """One attempted operation; a failed one fails the run's checks."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.expect(False, why)
        return ok

    def expect(self, ok, why):
        if not ok:
            self.correct = False
            self.failures.append(why)
        return ok

    def absorb(self, result, metrics=True):
        """Takes a harness phase's accounting, context and (optionally) metrics."""
        self.correct &= bool(result["correct"])
        self.attempted += int(result["attempted"])
        self.failed += int(result["failed"])
        self.failures += result.get("failures", [])
        if metrics:
            self.metrics.update(result["metrics"])
        self.context.update(result.get("context", {}))
        return bool(result["correct"])


def generate_rate(results):
    """Attacks generated per second, at the median set-up's speed."""
    attacks = results[0]["metrics"]["attacks"]
    return attacks / statistics.median(r["metrics"]["generate_s"] for r in results)


def check_image_hash(run, args, armm_hash):
    """A seed's packed image must not change between runs of one `acbm`
    build."""
    with open(ACBM, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    size = "tiny" if args.tiny else "full"
    record = os.path.join(BUILD, "armm-hashes", f"seed{args.seed}-{size}-{build_id}")
    os.makedirs(os.path.dirname(record), exist_ok=True)
    if os.path.exists(record):
        with open(record) as f:
            expected = f.read()
        run.expect(expected == armm_hash, f"packed image {armm_hash} differs from "
                   f"{expected} of an earlier run of this seed")
    else:
        with open(record, "w") as f:
            f.write(armm_hash)


Build = collections.namedtuple("Build", "seconds cpu_ms rss_mb hash")


def build_once(run, args, work, traced=False):
    """`acbm fit` then `acbm pack`: trace files on disk to a checked .armm on
    disk. None when a step or the check failed; no failed step is timed."""
    fit = acbm("fit", *TRACE_FILES, "--model", "model.art", "--fit-report", "-",
               cwd=work, metrics=traced and "fit.prom")
    if not run.op(fit.ok, "acbm fit failed"):
        return None
    degraded = re.search(r"fit report: \d+ components, (\d+) degraded", fit.out)
    run.context["fit_degraded_records"] = int(degraded.group(1)) if degraded else None
    pack = acbm("pack", "--model", "model.art", "--out", "model.armm",
                cwd=work, metrics=traced and "pack.prom")
    if not run.op(pack.ok, "acbm pack failed"):
        return None
    check = harness("check-build", dir=work, inject=args.inject)
    if not run.absorb(check, metrics=False):
        return None
    return Build(fit.seconds + pack.seconds, fit.cpu_ms + pack.cpu_ms,
                 max(fit.rss_mb, pack.rss_mb), check["context"]["armm_hash"])


Evaluation = collections.namedtuple("Evaluation", "seconds hour_rmse date_rmse")


def evaluate_once(run, args, work):
    """`acbm evaluate --train-fraction 0.8`, with its RMSEs checked."""
    ev = acbm("evaluate", *TRACE_FILES, "--train-fraction", "0.8", cwd=work)
    if not run.op(ev.ok, "acbm evaluate failed"):
        return None
    tests = re.search(r"(\d+) test attacks", ev.out)
    hour = re.search(r"hour RMSE:.* spatiotemporal (\S+)", ev.out)
    date = re.search(r"date RMSE:.* spatiotemporal (\S+)", ev.out)
    if not run.op(tests and hour and date and int(tests.group(1)) > 0,
                  "acbm evaluate scored no test attack"):
        return None
    hour_rmse, date_rmse = float(hour.group(1)), float(date.group(1))
    if args.inject == "nan-rmse":
        hour_rmse = math.nan
    finite = all(math.isfinite(v) and v >= 0 for v in (hour_rmse, date_rmse))
    if not run.op(finite, f"RMSEs {hour_rmse}, {date_rmse} are not finite errors"):
        return None
    return Evaluation(ev.seconds, hour_rmse, date_rmse)


def split_cpus():
    """The daemon's CPUs and the generator's: the generator spins on the
    last CPU and the daemon gets the others, so the two never compete."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[:-1], cpus[-1:]) if len(cpus) > 1 else (None, None)


def serve_layers(run, args, config, work):
    """The serving layers of work/model.armm: a traced `acbm serve` session
    under the open-loop generator (its histograms and counters, pings, and
    the serving calls timed in process)."""
    serve = config["serve"]
    scale = 0.1 if args.tiny else 1.0
    light, heavy = serve["light_qps"] * scale, serve["heavy_qps"] * scale
    run.context.update({"light_qps": light, "heavy_qps": heavy, "zipf_s": serve["zipf_s"]})
    daemon_cpus, generator_cpus = split_cpus()
    dump = os.path.join(work, "serve.prom")
    with Daemon(work, daemon_cpus, metrics=dump) as daemon:
        result = harness("load", dir=work, model=MODEL, seed=args.seed, seconds=args.seconds / 2,
                         light_qps=light, heavy_qps=heavy, zipf_s=serve["zipf_s"],
                         inject=args.inject, cpus=generator_cpus, cwd=work,
                         socket=daemon.socket)
    run.absorb(result)
    values, buckets = prometheus(dump)
    run.metrics["core.server.batch_size.mean"] = (
        values["acbm_serve_batch_size_sum"] / values["acbm_serve_batch_size_count"])
    run.metrics["core.server.latency_ms.p99"] = histogram_quantile(
        buckets["acbm_serve_latency_ms"], 0.99)


# The traced build-paper run initialises an ingest directory on the first
# days of its world, as many as ingest-replay's base log holds, and replays
# the next few hours.
INGEST_BASE_DAYS = 56


def build_paper(args, config, work, run):
    if args.trace:
        setup = harness("setup-build", seed=args.seed, dir=work, tiny=args.tiny)
        run.absorb(setup, metrics=False)
        untraced = build_once(run, args, work)
        traced = build_once(run, args, work, traced=True)
        ev = evaluate_once(run, args, work)
        if not (untraced and traced and ev):
            return
        check_image_hash(run, args, untraced.hash)
        run.expect(traced.hash == untraced.hash, "tracing changed the packed image")
        run.context.update({"evaluate_s": ev.seconds, "st_hour_rmse": ev.hour_rmse,
                            "st_date_rmse": ev.date_rmse})
        # The fit layers on the world, whose in-process fit must pack to the
        # image `acbm pack` wrote, then the serving and ingest layers.
        dataset, ipmap = os.path.join(work, "dataset.art"), os.path.join(work, "ipmap.art")
        run.absorb(harness("trace-fit", dataset=dataset, ipmap=ipmap, armm_hash=untraced.hash))
        serve_layers(run, args, config, work)
        run.absorb(harness("trace-ingest", dir=os.path.join(work, "layers.ingest"),
                           dataset=dataset, ipmap=ipmap,
                           base_days=30 if args.tiny else INGEST_BASE_DAYS))
        run.metrics.update({
            "trace.generate_attacks_per_s": generate_rate([setup]),
            "overhead.op_ms": 1000.0 * (traced.seconds - untraced.seconds),
        })
        return

    results = [harness("setup-build", seed=args.seed, dir=work, tiny=args.tiny)
               for _ in range(SETUP_REPEATS)]
    for r in results:
        run.absorb(r, metrics=False)
    builds = [b for b in (build_once(run, args, work) for _ in range(BUILDS)) if b]
    for b in builds:
        run.expect(b.hash == builds[0].hash,
                   "the packed image changed between repeated builds")
    if builds:
        check_image_hash(run, args, builds[0].hash)
        run.context.update({"armm_hash": builds[0].hash,
                            "build_s": median([b.seconds for b in builds])})
    run.metrics.update({
        "setup_s": median([r["metrics"]["setup_s"] for r in results]),
        "ops_per_s": 1.0 / median([b.seconds for b in builds]) if builds else None,
        "op_cpu_ms": median([b.cpu_ms for b in builds]),
        "peak_rss_mb": max(b.rss_mb for b in builds) if builds else None,
    })


class Replay:
    """The timings and outputs of one replay of hourly snapshots."""

    def __init__(self):
        self.hours = []         # The hours replayed, in order.
        self.untripped = []     # Per-hour `acbm ingest --snapshot`, no drift trip.
        self.tripped = []       # The hours whose drift check tripped and refit.
        self.refresh_s = []     # Forced `acbm ingest --refit`, published.
        self.rss_mb = 0.0

    def typical(self):
        """The hours whose drift check did not trip. An hour that trips also
        refits, at about the cost refresh_s measures. In about one seed in
        four a family's drift trips in some hours, which would make the
        median bimodal across seeds, so those hours are left out (and
        counted in drift_refit_hours). In a run where every hour tripped,
        as in seed 33, where family 8's rate drift trips from the first
        hour and no refit clears it, every hour counts."""
        return self.untripped or self.tripped

    def hour_s(self):
        """The median wall time of a typical hour."""
        return median([h.seconds for h in self.typical()])

    def catchup(self):
        """Snapshots per second at the median cost of a typical hour."""
        seconds = self.hour_s()
        return None if seconds is None else 1.0 / seconds

    def cpu_ms(self):
        """The median CPU time of a typical hour."""
        return median([h.cpu_ms for h in self.typical()])


def replay(run, work, name, hours, every, seconds=None, traced=False):
    """Replays `hours` into the ingest directory `name` until `seconds` have
    passed (or every hour, when None), forcing a refit before every
    `every`-th hour. Each hour is one `acbm ingest --snapshot` process,
    each refit one `acbm ingest --refit`; traced, each writes a metrics
    dump."""
    r = Replay()
    start = time.monotonic()
    dumps = 0

    def ingest(*argv):
        nonlocal dumps
        dumps += 1
        cmd = acbm("ingest", "--dir", name, *argv, cwd=work,
                   metrics=traced and f"{name}-{dumps}.prom")
        r.rss_mb = max(r.rss_mb, cmd.rss_mb)
        return cmd

    for hour in hours:
        if seconds is not None and time.monotonic() - start >= seconds:
            break
        if r.hours and len(r.hours) % every == 0:
            cmd = ingest("--refit")
            if run.op(cmd.ok and "new model generation published" in cmd.out,
                      "forced refit fell back"):
                r.refresh_s.append(cmd.seconds)
        cmd = ingest("--snapshot", os.path.join("snapshots", f"{hour}.csv"), "--hour", str(hour))
        status = re.search(r"snapshot hour \d+: (\w+)", cmd.out)
        if run.op(cmd.ok and status and status.group(1) in ("accepted", "repaired"),
                  f"hour {hour}: " + (status.group(1) if status else "no status")
                  + ("" if cmd.ok else ", refit fell back")):
            (r.tripped if "drift trip:" in cmd.out else r.untripped).append(cmd)
        r.hours.append(hour)
    return r


def ingest_replay(args, config, work, run):
    every = config["ingest"]["refit_every_hours"]
    run.context["refit_every_hours"] = every
    results, setup_s = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(os.path.join(work, "ingest"), ignore_errors=True)
        result = harness("setup-ingest", seed=args.seed, dir=work, tiny=args.tiny)
        run.absorb(result, metrics=False)
        init = acbm("ingest", "--dir", "ingest", "--init", "--dataset", "base.art",
                    "--ipmap", "ipmap.art", cwd=work)
        if not run.op(init.ok, "acbm ingest --init failed"):
            return
        results.append(result)
        setup_s.append(result["metrics"]["setup_s"] + init.seconds)
    hours = sorted(int(name[:-len(".csv")])
                   for name in os.listdir(os.path.join(work, "snapshots")))
    facts = os.path.join(work, "facts.txt")

    if not args.trace:
        r = replay(run, work, "ingest", hours, every, seconds=args.seconds)
        run.absorb(harness("check-ingest", dir=os.path.join(work, "ingest"), facts=facts,
                           inject=args.inject), metrics=False)
        run.context.update({"hours": len(r.hours), "refits": len(r.refresh_s),
                            "drift_refit_hours": len(r.tripped),
                            "catchup_snapshots_per_s": r.catchup(),
                            "refresh_s": median(r.refresh_s)})
        run.metrics.update({"setup_s": statistics.median(setup_s),
                            "ops_per_s": r.catchup(),
                            "op_cpu_ms": r.cpu_ms(),
                            "peak_rss_mb": r.rss_mb})
        return

    # The same hours replayed untraced and traced on copies of the
    # initialised directory; the per-hour parts are timed on a third.
    for name in ("untraced", "traced", "parts"):
        shutil.copytree(os.path.join(work, "ingest"), os.path.join(work, name))
    untraced = replay(run, work, "untraced", hours, every, seconds=args.seconds / 2)
    traced = replay(run, work, "traced", untraced.hours, every, traced=True)
    run.absorb(harness("check-ingest", dir=os.path.join(work, "traced"), facts=facts,
                       inject=args.inject), metrics=False)
    run.context.update({"hours": len(traced.hours), "refresh_s": median(traced.refresh_s)})
    # The fit layers on the cumulative data the replay ended with, the
    # serving layers on the model it published.
    cumulative = os.path.join(work, "cumulative.art")
    export = acbm("ingest", "--dir", "traced", "--export-dataset", cumulative, cwd=work)
    pack = acbm("pack", "--model", os.path.join("traced", "model.art"), "--out", "model.armm",
                cwd=work)
    if not (run.op(export.ok, "acbm ingest --export-dataset failed")
            and run.op(pack.ok, "acbm pack of the published model failed")):
        return
    # The cheapest world to fit twice: the 1-thread fit must pack to the
    # same image as the N-thread one.
    run.absorb(harness("trace-fit", dataset=cumulative, ipmap=os.path.join(work, "ipmap.art"),
                       identity=True))
    serve_layers(run, args, config, work)
    run.absorb(harness("trace-ingest", dir=os.path.join(work, "parts"),
                       snapshots=os.path.join(work, "snapshots"),
                       hours=",".join(map(str, untraced.hours))))
    overhead = difference(traced.hour_s(), untraced.hour_s())
    run.metrics.update({
        "trace.generate_attacks_per_s": generate_rate(results),
        "overhead.op_ms": None if overhead is None else 1000.0 * overhead,
    })


WORKLOADS = {"build-paper": build_paper, "ingest-replay": ingest_replay}


def cpu_name():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (the benchmark's own tests)")
    parser.add_argument("--inject", choices=("corrupt-forecast", "nan-rmse"),
                        help="corrupt one output before its check (tests)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    build()

    run = Run()
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    run.context.update({"workload": args.workload, "why": why[args.workload],
                        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                        "threads": THREADS, "nproc": len(os.sched_getaffinity(0)),
                        "cpu": cpu_name(), "git_sha": git_sha()})
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        WORKLOADS[args.workload](args, config, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for name in run.metrics:
        if name not in units:
            raise SystemExit(f"perfbench: metric {name} is not declared in BENCHMARK.json")
    # Every declared metric is printed; one that a failed step left
    # unmeasured reads 0 and fails the run.
    metrics = {}
    for name in sorted(units):
        value = run.metrics.get(name)
        if value is None or not math.isfinite(value):
            run.correct = False
            run.failures.append(f"{name} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": units[name]}
        log(f"  {name:40s} {value:16.6g} {units[name]}")
    log(f"  correct={run.correct} attempted={run.attempted} failed={run.failed}")
    for failure in run.failures:
        log("  check failed: " + failure)
    print(json.dumps({"context": run.context}))
    print(json.dumps({"correct": run.correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
