"""Per-layer metrics from a traced run, plus computed kernel counts.

Layers are whitenet's modules: simulators, datasets, nn, losses, training,
evaluation, gradcheck and cli.  A span is charged to the module named by the
first part of its name; a module's self time is its spans' durations minus
the time their child spans cover.  Timings report a median and, where the
trace holds enough samples, the 99th percentile (it needs at least ten
samples beyond it, so at least 1000 samples).
"""

import statistics

MODULES = ("simulators", "datasets", "nn", "losses", "training",
           "evaluation", "gradcheck", "cli")
ARCHS = ("dense", "rnn", "lstm")
GRADCHECK_COMPONENTS = ("dense", "rnn", "lstm", "dropout",
                        "mse", "ljb", "composite", "ljb2d")
BATCH = 128
LJB_LAGS = 5


def p50(values):
    return statistics.median(values) if values else 0.0


def p99(values):
    """99th percentile; 0 without samples, None when fewer than ten samples
    would lie beyond it."""
    if not values:
        return 0.0
    if len(values) < 1000:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[98]


# ---------------------------------------------------------------------------
# Computed counts (from shapes, not measured).

def gemm_shapes(arch, lb, d_in, lf, d_out, batch=BATCH):
    """(m, k, n) of every matrix product in one forward and one backward pass.

    Layer sizes follow ``whitenet.nn.build_specs`` defaults.  The backward
    pass does a parameter-gradient product and an input-gradient product for
    each forward product.
    """
    from whitenet.nn import build_specs

    specs, seq_shape = build_specs(arch, lb, d_in, lf, d_out)
    steps = seq_shape[0] if seq_shape else 1
    fwd, bwd = [], []
    for spec in specs:
        if spec.kind == "dense":
            pairs = [(spec.in_dim, spec.out_dim)]
            reps = 1
        elif spec.kind in ("rnn", "lstm"):
            width = spec.hidden * (4 if spec.kind == "lstm" else 1)
            pairs = [(spec.in_dim, width), (spec.hidden, width)]
            reps = steps
        else:
            continue
        for _ in range(reps):
            for k, n in pairs:
                fwd.append((batch, k, n))
                bwd.append((k, batch, n))    # weight gradient x.T @ dz
                bwd.append((batch, n, k))    # input gradient dz @ W.T
    return fwd, bwd


def gemm_counts(shapes):
    """FLOPs (2mkn) and compulsory bytes (each operand once, float64)."""
    flop = sum(2 * m * k * n for m, k, n in shapes)
    nbytes = sum(8 * (m * k + k * n + m * n) for m, k, n in shapes)
    return flop, nbytes


def ljb_counts(batch, n, channels, lags):
    """FLOPs and compulsory bytes of the Ljung-Box value+gradient kernel.

    Per channel: energies 2bn+b; per lag k the cross product 2b(n-k), the
    statistic and weight 9b and the two gradient scatters 4b(n-k); then the
    energy-normalization correction 3bn+3b.  Bytes read the residual and
    write the gradient once.
    """
    lag_sum = sum(n - k for k in range(1, lags + 1))
    per_channel = 5 * batch * n + 4 * batch + 6 * batch * lag_sum + 9 * batch * lags
    return channels * per_channel, channels * 16 * batch * n


# ---------------------------------------------------------------------------
# Span reduction.

class SpanIndex:
    """Self times and inherited attributes for a list of spans."""

    def __init__(self, spans):
        count = len(spans)
        self.dur = [s[4] - s[3] for s in spans]
        child = [0.0] * count
        self.arch = [None] * count
        self.prep = [-1] * count       # enclosing training.prepare_data span
        self.in_val = [False] * count  # inside a validation pass
        for s in spans:
            sid, parent, name, attrs = s[0], s[1], s[2], s[5]
            if parent >= 0:
                child[parent] += self.dur[sid]
                self.arch[sid] = self.arch[parent]
                self.prep[sid] = self.prep[parent]
                self.in_val[sid] = self.in_val[parent]
            if attrs and "arch" in attrs:
                self.arch[sid] = attrs["arch"]
            if name == "training.prepare_data":
                self.prep[sid] = sid
            elif name == "training.dataset_loss":
                self.in_val[sid] = True
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s[2], []).append(s)

    def select(self, name, arch=None, pred=None):
        return [s for s in self.by_name.get(name, ())
                if (arch is None or self.arch[s[0]] == arch)
                and (pred is None or pred(s))]

    def durations(self, name, arch=None, pred=None, scale=1.0):
        return [self.dur[s[0]] * scale for s in self.select(name, arch, pred)]

    def per_prepare(self, names, weight):
        """Sum ``weight(span)`` over ``names`` spans within each prepare_data."""
        sums = {}
        for name in names:
            for s in self.by_name.get(name, ()):
                key = self.prep[s[0]]
                if key >= 0:
                    sums[key] = sums.get(key, 0.0) + weight(s)
        return list(sums.values())


def layer_metrics(spans, missing_spans, *, traced_walls, serial_walls,
                  parallel_walls, attempted, failed, shapes):
    """Every per-layer metric as name -> (value, unit).

    ``missing_spans`` names span kinds whose hooks could not be installed;
    metrics that need them are left out rather than reported as zero.
    ``shapes`` is (lb, d_in, lf, d_out) of the workload's reference system,
    used for the computed counts.
    """
    idx = SpanIndex(spans)
    out = {}

    def put(name, value, unit, needs=()):
        if any(n in missing_spans for n in needs):
            return
        if value is not None:
            out[name] = (value, unit)

    # simulators and datasets, per prepare_data call
    sim_s = idx.per_prepare({"simulators.simulate"}, lambda s: idx.dur[s[0]])
    sims = idx.select("simulators.simulate")
    steps = sum((s[5] or {}).get("steps", 0) for s in sims)
    sim_total = sum(idx.dur[s[0]] for s in sims)
    needs_sim = ("simulators.simulate", "training.prepare_data")
    put("simulators.simulate_s", p50(sim_s), "s", needs_sim)
    put("simulators.steps_per_s", steps / sim_total if sim_total else 0.0,
        "1/s", needs_sim)
    put("simulators.prepare_n", len(sim_s), "count", needs_sim)
    ds_names = {"datasets.build_regime", "datasets.split",
                "datasets.normalize", "datasets.manifest"}
    needs_ds = ("datasets.build_regime", "training.prepare_data")
    put("datasets.build_s",
        p50(idx.per_prepare(ds_names, lambda s: idx.self_time[s[0]])), "s",
        needs_ds)
    put("datasets.windows",
        p50(idx.per_prepare({"datasets.build_regime"},
                            lambda s: (s[5] or {}).get("windows", 0))),
        "count", needs_ds)

    # training
    prep = idx.durations("training.prepare_data")
    put("training.prepare_data_s", p50(prep), "s", ("training.prepare_data",))
    put("training.prepare_data_n", len(prep), "count", ("training.prepare_data",))
    saves = idx.durations("training.save_run", scale=1e3)
    put("training.save_run_ms", p50(saves), "ms", ("training.save_run",))
    put("training.save_run_n", len(saves), "count", ("training.save_run",))
    put("training.serial_wall_s", p50(serial_walls), "s")
    speedup = 1.0
    if parallel_walls:
        speedup = p50(serial_walls) / p50(parallel_walls)
    put("training.parallel_speedup", speedup, "ratio")
    for arch in ARCHS:
        fits = [idx.self_time[s[0]] for s in idx.select("training.fit", arch)]
        put(f"training.fit_self_s.{arch}", p50(fits), "s", ("training.fit",))
        put(f"training.fit_n.{arch}", len(fits), "count", ("training.fit",))
        adam = idx.durations("training.adam_step", arch, scale=1e6)
        put(f"training.adam_step_us_p50.{arch}", p50(adam), "us",
            ("training.adam_step",))
        put(f"training.adam_step_us_p99.{arch}", p99(adam), "us",
            ("training.adam_step",))
        put(f"training.batches_n.{arch}", len(adam), "count",
            ("training.adam_step",))
        val = idx.durations("training.dataset_loss", arch, scale=1e3)
        put(f"training.val_pass_ms_p50.{arch}", p50(val), "ms",
            ("training.dataset_loss",))
        put(f"training.val_pass_n.{arch}", len(val), "count",
            ("training.dataset_loss",))

    # nn
    lb, d_in, lf, d_out = shapes

    def mode_is(mode):
        return lambda s: (s[5] or {}).get("mode") == mode

    for arch in ARCHS:
        fwd_t = idx.durations("nn.forward", arch, mode_is("train"), 1e3)
        bwd = idx.durations("nn.backward", arch, scale=1e3)
        fwd_e = idx.durations("nn.forward", arch, mode_is("eval"), 1e3)
        put(f"nn.forward_train_ms_p50.{arch}", p50(fwd_t), "ms", ("nn.forward",))
        put(f"nn.forward_train_ms_p99.{arch}", p99(fwd_t), "ms", ("nn.forward",))
        put(f"nn.backward_ms_p50.{arch}", p50(bwd), "ms", ("nn.backward",))
        put(f"nn.backward_ms_p99.{arch}", p99(bwd), "ms", ("nn.backward",))
        put(f"nn.forward_eval_ms_p50.{arch}", p50(fwd_e), "ms", ("nn.forward",))
        put(f"nn.forward_eval_n.{arch}", len(fwd_e), "count", ("nn.forward",))
        fwd_shapes, bwd_shapes = gemm_shapes(arch, lb, d_in, lf, d_out)
        flop, nbytes = gemm_counts(fwd_shapes + bwd_shapes)
        put(f"nn.gemm_gflop_per_batch.{arch}", flop / 1e9, "GFLOP")
        put(f"nn.gemm_mbytes_per_batch.{arch}", nbytes / 1e6, "MB")
        done = 0.0
        busy = 0.0
        for s in idx.select("nn.forward", arch) + idx.select("nn.backward", arch):
            attrs = s[5] or {}
            factor = 2 if s[2] == "nn.backward" else 1
            done += factor * attrs.get("rows", 0) * attrs.get("flop_per_row", 0)
            busy += idx.dur[s[0]]
        put(f"nn.achieved_gflops.{arch}", done / busy / 1e9 if busy else 0.0,
            "GFLOP/s", ("nn.forward", "nn.backward"))
    saves = idx.durations("nn.save_checkpoint", scale=1e3)
    loads = idx.durations("nn.load_checkpoint", scale=1e3)
    sizes = [(s[5] or {}).get("bytes", 0) for s in idx.select("nn.save_checkpoint")]
    put("nn.save_checkpoint_ms", p50(saves), "ms", ("nn.save_checkpoint",))
    put("nn.save_checkpoint_n", len(saves), "count", ("nn.save_checkpoint",))
    put("nn.load_checkpoint_ms", p50(loads), "ms", ("nn.load_checkpoint",))
    put("nn.load_checkpoint_n", len(loads), "count", ("nn.load_checkpoint",))
    put("nn.checkpoint_bytes", p50(sizes), "bytes", ("nn.save_checkpoint",))

    # losses: composite on training batches and gradcheck instances, not on
    # the validation passes, which run it on whole chunks
    comp = idx.durations("losses.composite",
                         pred=lambda s: not idx.in_val[s[0]], scale=1e3)
    put("losses.composite_ms_p50", p50(comp), "ms", ("losses.composite",))
    put("losses.composite_ms_p99", p99(comp), "ms", ("losses.composite",))
    put("losses.composite_n", len(comp), "count", ("losses.composite",))
    stat = idx.durations("losses.ljb_statistic", scale=1e3)
    put("losses.ljb_statistic_ms", p50(stat), "ms", ("losses.ljb_statistic",))
    put("losses.ljb_statistic_n", len(stat), "count", ("losses.ljb_statistic",))
    flop, nbytes = ljb_counts(BATCH, lf, d_out, LJB_LAGS)
    put("losses.ljb_kflop_per_batch", flop / 1e3, "kFLOP")
    put("losses.ljb_kbytes_per_batch", nbytes / 1e3, "kB")

    # evaluation and the eval command
    evals = idx.select("evaluation.evaluate")
    put("evaluation.evaluate_self_ms",
        p50([idx.self_time[s[0]] * 1e3 for s in evals]), "ms",
        ("evaluation.evaluate",))
    put("evaluation.evaluate_n", len(evals), "count", ("evaluation.evaluate",))
    put("evaluation.predict_ms", p50(idx.durations("evaluation.predict", scale=1e3)),
        "ms", ("evaluation.predict",))
    emits = idx.durations("evaluation.emit", scale=1e3)
    put("evaluation.emit_ms", p50(emits), "ms", ("evaluation.emit",))
    put("evaluation.emit_n", len(emits), "count", ("evaluation.emit",))
    put("evaluation.aggregate_ms",
        p50(idx.durations("evaluation.aggregate", scale=1e3)), "ms",
        ("evaluation.aggregate",))
    dirs = idx.durations("cli.eval_dir", scale=1e3)
    put("cli.eval_dir_ms_p50", p50(dirs), "ms", ("cli.eval_dir",))
    put("cli.eval_dir_n", len(dirs), "count", ("cli.eval_dir",))

    # gradcheck, from the suite results the traced runs returned
    suite_seconds = {}
    for s in idx.select("gradcheck.run_suites"):
        for comp_name, secs in (s[5] or {}).get("suites", []):
            suite_seconds.setdefault(comp_name, []).append(secs)
    for comp_name in GRADCHECK_COMPONENTS:
        put(f"gradcheck.{comp_name}_s", p50(suite_seconds.get(comp_name, [])),
            "s", ("gradcheck.run_suites",))

    # shares of the traced wall, by module self time
    wall = sum(traced_walls)
    by_module = dict.fromkeys(MODULES, 0.0)
    for s in spans:
        module = s[2].split(".", 1)[0]
        if module in by_module:
            by_module[module] += idx.self_time[s[0]]
    for module in MODULES:
        put(f"{module}.share", by_module[module] / wall if wall else 0.0, "ratio")

    put("trace_overhead_ratio", p50(traced_walls) / p50(serial_walls)
        if serial_walls else 0.0, "ratio")
    put("ops_failed_ratio", failed / attempted if attempted else 0.0, "ratio")
    return out
