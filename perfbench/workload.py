"""Run one workload in this process: set-up, warm-up, the timed closed loop,
an optional traced pass, and the output checks.

``run.py`` starts this script as a child process, so the peak resident set it
reports is that of the process that ran the workload and nothing else.  The
result goes to ``--out`` as JSON.  With ``--setup-only`` the process sets up,
tears down and writes only its set-up time.

Usage: python3 perfbench/workload.py --workload NAME --inputs DIR --seed N
           --seconds S --trace 0|1 --out FILE [--setup-only]
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import gen
import reference
import tracing

INJECTED_DELAY_S = 0.005  # 1/100 of a ~0.5 s model call
CLIENT_BACKOFF_S = 0.005  # 1/100 of the client's 0.5 s default backoff
REFINE_SAMPLE_SIZE = 10
REFINE_BUDGET = 1000
TRACE_BLOCK_S = 1.0  # length of each untraced and traced block in a traced run
MAX_WALL_FACTOR = 2.0  # a timed pass stops after this many times its seconds of wall time


# --------------------------------------------------------------------------
# Set-up: import, loaders, distributions, stub server
# --------------------------------------------------------------------------

def setup(workload: str, inputs: Path) -> tuple[SimpleNamespace, float, float]:
    """Everything a user pays before the first op, timed from before the import.

    Returns the context, the raw set-up seconds and the set-up seconds with
    their CPU part scaled to the reference speed, from probes taken just
    before and just after."""
    probes = reference.Probes()
    reference.probe_ms()  # the kernel's first call warms the interpreter
    probes.take()
    cpu0 = time.process_time()
    start = time.perf_counter()
    import plancheck
    from plancheck import bundled_path, clients, conformal, fmdp, interventions, logic

    ctx = SimpleNamespace(plancheck=plancheck, server=None, session=None)
    ctx.vocab = logic.Vocabulary.load(bundled_path("driving_vocabulary.txt"))
    if workload == "rules":
        ctx.specs = fmdp.SpecificationSet.load(inputs / "rules.txt", ctx.vocab)
    else:
        ctx.specs = fmdp.SpecificationSet.load(bundled_path("driving_gating_specs.txt"), ctx.vocab)
    if workload in ("calibrate", "rules", "sweep"):
        ctx.records = fmdp.load_plan_records(inputs / "records.jsonl")
    if workload in ("sweep", "refine"):
        ctx.perception = conformal.load_perception_calibration(inputs / "perception.csv")
        ctx.dist_p = conformal.perception_nonconformity(ctx.perception)
    if workload == "sweep":
        ctx.scenes = interventions.load_scenarios(inputs / "scenes.jsonl")
        ctx.dist_d, _ = fmdp.calibrate_decision(ctx.records[: gen.SET_SIZE], ctx.specs, ctx.vocab)
    if workload == "refine":
        from transport import DelaySession

        ctx.images = [o for s in interventions.load_scenarios(inputs / "images.jsonl") for o in s.observations]
        ctx.tasks = [t.strip() for t in (inputs / "tasks.txt").read_text(encoding="utf-8").splitlines() if t.strip()]
        ctx.fixtures = clients.load_replay_fixtures(inputs / "fixtures.jsonl")
        ctx.server = clients.StubModelServer(ctx.fixtures).__enter__()
        ctx.session = DelaySession(INJECTED_DELAY_S)
        ctx.client = clients.HttpModelClient(ctx.server.url, backoff=CLIENT_BACKOFF_S, session=ctx.session)
    end = time.perf_counter()
    cpu = time.process_time() - cpu0
    probes.take()
    return ctx, end - start, probes.scale(start, end, cpu)


def teardown(ctx: SimpleNamespace) -> None:
    if ctx.server is not None:
        ctx.server.__exit__(None, None, None)
    if ctx.session is not None:
        ctx.session.close()


# --------------------------------------------------------------------------
# Workloads: what one op calls, how many items it yields, how it is checked
# --------------------------------------------------------------------------

class Calibrate:
    """Op: calibrate_decision on one 200-record set, filter "all", gating rules."""

    round_size = 1
    limit = None

    def __init__(self, ctx, oracle, workdir):
        self.ctx, self.oracle = ctx, oracle
        n = gen.SET_SIZE
        self.sets = [ctx.records[k : k + n] for k in range(0, len(ctx.records), n)]

    def records(self, i):
        return self.sets[1 + i % (len(self.sets) - 1)]

    def warmup(self):
        self.ctx.plancheck.fmdp.calibrate_decision(self.sets[0], self.ctx.specs, self.ctx.vocab, "all")

    def call(self, i):
        return self.ctx.plancheck.fmdp.calibrate_decision(self.records(i), self.ctx.specs, self.ctx.vocab, "all")

    def items(self, out):
        return out[1].total

    def check(self, i, out):
        return self.oracle.check_calibrate(self.records(i), out)

    def note(self, counts, out):
        counts["pass_ratio_sum"] += out[1].included / out[1].total


class Rules:
    """Op: checker.check(structure, rule) with a rule this process has never seen."""

    round_size = len(gen.RULE_ROUND)

    def __init__(self, ctx, oracle, workdir):
        self.ctx, self.oracle = ctx, oracle
        encode = ctx.plancheck.plan_encoder.encode
        self.structures = []
        for record in ctx.records:
            try:
                self.structures.append(encode(record.plan, ctx.vocab, record.observed))
            except ValueError:
                continue
        self.rules = list(ctx.specs)
        # The first round warms up; every timed op takes the next unseen rule.
        self.limit = len(self.rules) - self.round_size

    def op_input(self, i):
        return self.structures[i % len(self.structures)], self.rules[self.round_size + i]

    def warmup(self):
        for k in range(self.round_size):
            name, formula = self.rules[k]
            self.ctx.plancheck.checker.check(self.structures[-1 - k], formula, name)

    def call(self, i):
        structure, (name, formula) = self.op_input(i)
        return self.ctx.plancheck.checker.check(structure, formula, name)

    def items(self, out):
        return 1

    def check(self, i, out):
        structure, (_, formula) = self.op_input(i)
        return self.oracle.check_rule(structure, formula, out)

    def note(self, counts, out):
        pass


class Sweep:
    """Op: threshold_sweep over one 40-scene slice at thresholds 0.50 .. 0.95."""

    round_size = 1
    limit = None

    def __init__(self, ctx, oracle, workdir):
        self.ctx, self.oracle = ctx, oracle
        n = gen.SCENES_PER_SLICE
        self.slices = [ctx.scenes[k : k + n] for k in range(0, len(ctx.scenes), n)]
        self.p_scores = sorted(1.0 - s.confidence[s.true_label] for s in ctx.perception)
        self.d_scores = oracle.calibration(ctx.records[: gen.SET_SIZE])[0]

    def scenes(self, i):
        return self.slices[1 + i % (len(self.slices) - 1)]

    def _sweep(self, scenes):
        c = self.ctx
        return c.plancheck.interventions.threshold_sweep(
            scenes, gen.SWEEP_THRESHOLDS, c.dist_p, c.dist_d, c.specs, c.vocab
        )

    def warmup(self):
        self._sweep(self.slices[0])

    def call(self, i):
        return self._sweep(self.scenes(i))

    def items(self, out):
        return gen.SCENES_PER_SLICE * len(out)

    def check(self, i, out):
        return self.oracle.check_sweep(self.scenes(i), gen.SWEEP_THRESHOLDS, self.p_scores, self.d_scores, out)

    def note(self, counts, out):
        counts["cells"] += gen.SCENES_PER_SLICE * len(out)


class Refine:
    """Op: generate_refinement_dataset, sample size 10, t_p 0.7, one seed per op."""

    round_size = 1
    limit = None

    def __init__(self, ctx, oracle, workdir):
        self.ctx, self.oracle = ctx, oracle
        self.p_scores = sorted(1.0 - s.confidence[s.true_label] for s in ctx.perception)
        self.images_by_id = {o.image_id: o for o in ctx.images}
        self.dataset_path = workdir / "refine-dataset.jsonl"
        self.base_seed = ctx.seed * 1_000_000

    def _refine(self, seed):
        c = self.ctx
        return c.plancheck.interventions.generate_refinement_dataset(
            c.tasks, c.images, c.client, c.vocab, c.specs, c.dist_p,
            sample_size=REFINE_SAMPLE_SIZE, t_p=gen.REFINE_T_P, budget=REFINE_BUDGET, seed=seed,
        )

    def warmup(self):
        self._refine(self.base_seed)

    def call(self, i):
        return self._refine(self.base_seed + 1 + i)

    def items(self, out):
        return len(out[0])

    def check(self, i, out):
        data, report = out
        self.ctx.plancheck.interventions.save_refinement_dataset(self.dataset_path, data)
        expected = self.oracle.refinement(
            self.ctx.tasks, self.ctx.images, self.ctx.fixtures, self.p_scores,
            REFINE_SAMPLE_SIZE, gen.REFINE_T_P, REFINE_BUDGET, self.base_seed + 1 + i,
        )
        return self.oracle.check_refine(
            data, report, self.dataset_path.read_bytes(), expected, gen.REFINE_T_P, self.images_by_id
        )

    def note(self, counts, out):
        counts["iterations"] += out[1].iterations
        counts["kept"] += out[1].collected


WORKLOADS = {"calibrate": Calibrate, "rules": Rules, "sweep": Sweep, "refine": Refine}


# --------------------------------------------------------------------------
# The closed loop
# --------------------------------------------------------------------------

def timed_pass(w, first: int, seconds: float, tracer=None, probes=None) -> tuple[list, float, reference.Probes]:
    """Ops from index ``first`` until their scaled time (see reference.py)
    adds up to ``seconds``, ending on a round boundary.

    Counting scaled rather than wall time makes the number of ops, and with it
    the tail percentile and the memory held, the same whether the host runs
    fast or slow.  A run still stops after MAX_WALL_FACTOR x ``seconds`` of
    wall time.  One caller, one op at a time, with a reference probe between
    ops every ``reference.PROBE_EVERY_S``, added to ``probes`` if given.
    Returns ([(index, start, end, cpu_s, output, error)], wall seconds,
    probes)."""
    results = []
    probes = probes if probes is not None else reference.Probes()
    i = first
    start = time.perf_counter()
    wall_deadline = start + MAX_WALL_FACTOR * seconds
    scaled = 0.0
    while w.limit is None or i < w.limit:
        if (i - first) % w.round_size == 0 and (scaled >= seconds or time.perf_counter() >= wall_deadline):
            break
        if probes.due():
            probes.take()
        if tracer is not None:
            tracer.op = i
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, error = w.call(i), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
        results.append((i, t0, t1, cpu, out, error))
        scaled += probes.scale(t0, t1, cpu)
        i += 1
    probes.take()
    return results, time.perf_counter() - start, probes


def check_pass(w, results, counts=None) -> tuple[int, int, list[str]]:
    """(items from ops whose output checks out, failed ops, first errors)."""
    items, failed, errors = 0, 0, []
    for i, _, _, _, out, error in results:
        if error is None:
            error = w.check(i, out)
        if error is None:
            items += w.items(out)
            if counts is not None:
                w.note(counts, out)
        else:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {i}: {error}")
    return items, failed, errors


def summarise(results, wall: float, items: int, probes: reference.Probes) -> dict:
    """Op latencies and throughput with their CPU part scaled to the reference
    speed (see reference.py), and the raw figures beside them."""
    raw = [(end - start) * 1e3 for _, start, end, _, _, _ in results]
    scaled = [probes.scale(start, end, cpu) * 1e3 for _, start, end, cpu, _, _ in results]
    label, value = tracing.tail(scaled)
    return {
        "ops": len(results),
        "wall_s": wall,
        "items": items,
        "items_per_s": items / (sum(scaled) / 1e3),
        "op_p50_ms": median(scaled),
        "op_tail_ms": value,
        "op_tail_percentile": label,
        "op_ms": scaled,
        "raw": {
            "items_per_s": items / wall,
            "op_p50_ms": median(raw),
            "op_tail_ms": tracing.percentile(sorted(raw), float(label[1:])) if label != "max" else max(raw),
            "probe_ms_median": median(probes.ms),
        },
    }


def interleaved_passes(w, ctx, seconds: float, tracer: tracing.Tracer) -> tuple[tuple, list, tuple, int]:
    """Alternate untraced and traced blocks of TRACE_BLOCK_S until ``seconds``
    pass, so that both passes see the same host conditions and their gap is
    the tracing overhead.  Returns (results, walls, probes), each indexed by
    traced (0 or 1), and the transport attempts made in traced blocks."""
    passes: tuple[list, list] = ([], [])
    probes = (reference.Probes(), reference.Probes())
    walls = [0.0, 0.0]
    attempts = 0
    first = 0
    exhausted = False
    while not exhausted and walls[0] + walls[1] < seconds:
        for traced in (False, True):
            if traced:
                before = ctx.session.attempts if ctx.session else 0
                tracer.install(tracing.program_targets(ctx.plancheck))
            try:
                block, wall, _ = timed_pass(w, first, TRACE_BLOCK_S, tracer if traced else None, probes[traced])
            finally:
                if traced:
                    tracer.uninstall()
                    attempts += (ctx.session.attempts if ctx.session else 0) - before
            if not block:  # the workload's inputs ran out
                exhausted = True
                break
            passes[traced].extend(block)
            walls[traced] += wall
            first = block[-1][0] + 1
    return passes, walls, probes, attempts


def run(args) -> dict:
    ctx, setup_raw_s, setup_s = setup(args.workload, args.inputs)
    try:
        if args.setup_only:
            return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
        import numpy
        from oracle import Oracle

        ctx.seed = args.seed
        w = WORKLOADS[args.workload](ctx, Oracle(ctx.vocab, ctx.specs), args.out.parent)
        w.warmup()
        # The process holds the whole input corpus (40 000 records in
        # calibrate), where a user holds the one set an op reads.  Freezing
        # what exists now keeps full collections during the ops from scanning
        # it; objects the ops allocate are still collected.
        gc.collect()
        gc.freeze()
        tracer = tracing.Tracer()
        if args.trace:
            (results, traced), (wall, traced_wall), (probes, traced_probes), attempts = (
                interleaved_passes(w, ctx, args.seconds, tracer)
            )
        else:
            results, wall, probes = timed_pass(w, 0, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        items, failed, errors = check_pass(w, results)
        out = {
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "numpy": numpy.__version__,
            **summarise(results, wall, items, probes),
            "peak_rss_mb": peak_rss_mb,
        }
        attempted = len(results)
        if args.trace:
            tracer.install(tracing.oracle_targets(ctx.plancheck))
            try:
                traced_items, traced_failed, traced_errors = check_pass(w, traced, tracer.counts)
            finally:
                tracer.uninstall()
            per_layer = tracing.analyse(tracer, traced_wall, len(traced), INJECTED_DELAY_S, attempts)
            summary = summarise(traced, traced_wall, traced_items, traced_probes)
            per_layer["trace.overhead_pct"] = (
                (out["items_per_s"] - summary["items_per_s"]) / out["items_per_s"] * 100.0
            )
            tracer.write(args.out.with_suffix(".spans.jsonl"))
            out.update(traced=summary, per_layer=per_layer, spans=len(tracer.spans))
            attempted += len(traced)
            failed += traced_failed
            errors += traced_errors
        out.update(attempted=attempted, failed=failed, errors=errors[:5], error_rate=failed / attempted)
        return out
    finally:
        teardown(ctx)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run(args)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
