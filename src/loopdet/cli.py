"""Command-line surface: detect, eval, synth, bench, pca-fit.

Every flag but ``--config`` is a :class:`RunConfig` field, and every field is
a flag of the subcommands that read it.  Configuration precedence is defaults
< config file (flat ``key=value`` lines, one key per field) < command-line
flags.  A config file may hold keys of several subcommands: every key is
checked when the file loads, but a subcommand reads only its own, and a key
it does not read never reaches the run.  Every run echoes the fields it
reads, fully resolved, to standard error.  The log level comes from the
``FILDPP_LOG`` environment variable, read before the flags are parsed.  Exit
codes: 0 success, 1 semantic failure during detection/evaluation, 2 usage or
file errors, 3 an internal invariant violated (a ``RuntimeError`` such as the
exclusion-zone check); each failure prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .container import (
    ContainerError,
    ContainerHeader,
    atomic_output,
    read_features,
    read_header,
    write_features,
)
from .descriptors import DEFAULT_REDUCED_DIM, fit_pca, load_pca_model, reduce_features, save_pca_model
from .evaluation import (
    GroundTruth,
    RevisitSegment,
    SynthConfig,
    generate_synthetic,
    pr_curve,
    read_ground_truth,
    recall_at_full_precision,
    write_ground_truth,
    write_pr_csv,
    write_timing_csv,
)
from .hnsw import HnswParams
from .pipeline import LoopClosurePipeline, PipelineConfig, collect_frame_records

LOG_ENV = "FILDPP_LOG"
logger = logging.getLogger("loopdet")


def _parse_tau_range(raw: str) -> tuple[int, int, int]:
    parts = raw.split(":")
    try:
        lo, hi, step = map(int, parts + ["1"] if len(parts) == 2 else parts)
        if 0 <= lo <= hi and step >= 1:
            return lo, hi, step
    except ValueError:  # not integers, or not two or three of them
        pass
    raise argparse.ArgumentTypeError(
        f"expected lo:hi[:step], 0 <= lo <= hi, step >= 1, got {raw!r}")


def _ints(raw: str, sep: str = ",") -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(sep))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {raw!r}") from None


def _non_negative(raw: str) -> int:
    if raw.strip().isdecimal():
        return int(raw)
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")


def _positive(raw: str) -> int:
    if raw.strip().isdecimal() and int(raw) >= 1:
        return int(raw)
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")


def _segments(raw: str) -> tuple[tuple[int, ...], ...]:
    """``origin:revisit:length[,...]``; the generator checks that each fits."""
    segments = tuple(_ints(part, ":") for part in raw.split(",") if part)
    if any(len(s) != 3 for s in segments):
        raise argparse.ArgumentTypeError(f"expected origin:revisit:length[,...], got {raw!r}")
    return segments


def _knob(default, parse, doc: str, commands: str, show=str):
    """A RunConfig field: default, text-form parser and the ``show`` that
    writes a value back in that form, flag help, readers."""
    return field(default=default,
                 metadata={"parse": parse, "show": show, "help": doc, "commands": commands})


def _joined(sep: str):
    """``show`` for a tuple of integers in the form ``_ints(raw, sep)`` reads."""
    return lambda values: sep.join(map(str, values))


_PIPE = "detect eval bench"  # the subcommands that run the pipeline
_STREAM = _PIPE + " synth"  # and the one that generates a stream


@dataclass
class RunConfig:
    """The one list of flags: each field is a ``--flag`` (underscores become
    dashes) of the subcommands that read it and a config-file key, and
    serializes to ``key=value`` text, round-trip stable.  A field that sets a
    library field has that field's default."""

    psi: float = _knob(PipelineConfig.psi, float, "search-area time constant, seconds", _STREAM)
    phi: float | None = _knob(None, float, "camera frame rate, frames/second "
                                           "(default: the container header)", _STREAM)
    n: int = _knob(PipelineConfig.n, int, "retrieval candidates per query", _PIPE)
    epsilon: float = _knob(PipelineConfig.epsilon, float, "distance-ratio threshold", _PIPE)
    beta: int = _knob(PipelineConfig.beta, int, "consecutive frames for temporal consistency",
                      _PIPE)
    # only detect gates its detections; eval and bench record each frame's best
    # candidate in one pass and replay every tau of their tau_range
    tau: int = _knob(PipelineConfig.tau, int, "inlier acceptance threshold", "detect")
    delta: float = _knob(PipelineConfig.delta, float, "attention-score threshold", _PIPE)
    M: int = _knob(HnswParams.M, int, "graph degree cap per layer", _PIPE)
    ef_construction: int = _knob(HnswParams.ef_construction, int,
                                 "graph construction beam width", _PIPE)
    ef_search: int = _knob(HnswParams.ef_search, int, "graph search beam width", _PIPE)
    seed: int = _knob(PipelineConfig.seed, int, "base random seed", _STREAM)
    gt_window: int = _knob(evaluation.GT_WINDOW, _non_negative,
                           "frame tolerance when matching detections to labels", "eval bench")
    tau_range: tuple[int, int, int] = _knob(
        (0, 40, 1), _parse_tau_range, "inlier threshold sweep as lo:hi[:step]", "eval bench",
        show=_joined(":"),
    )
    features: str | None = _knob(None, str, "input feature container (FFTC)", "detect eval pca-fit")
    pca: str | None = _knob(None, str, "optional PCA model applied to every frame's raw local "
                                       "descriptors as they are read", "detect")
    gt: str | None = _knob(None, str, "ground-truth CSV path", "eval synth")
    out: str | None = _knob(None, str, "primary output path", _STREAM + " pca-fit")
    # the synthetic stream
    frames: int = _knob(2000, int, "trajectory length", "synth")
    segments: tuple[tuple[int, ...], ...] = _knob(
        (), _segments, "revisit segments as origin:revisit:length[,...]", "synth",
        show=lambda segments: ",".join(map(_joined(":"), segments)),
    )
    dim_global: int = _knob(SynthConfig.dim_global, int, "global descriptor dimension", "synth")
    dim_local: int = _knob(SynthConfig.dim_local, int, "local descriptor dimension", "synth")
    features_per_frame: int = _knob(SynthConfig.features_per_frame, int,
                                    "local features per frame", "synth")
    outlier_frac: float = _knob(SynthConfig.outlier_fraction, float,
                                "share of a loop pair's matchable features that are "
                                "distractors", "synth")
    sigma_global: float = _knob(SynthConfig.sigma_global, float,
                                "norm of the noise on a revisit's global descriptor", "synth")
    sigma_px: float = _knob(SynthConfig.sigma_px, float, "noise on a revisit's keypoints, pixels",
                            "synth")
    sigma_desc: float = _knob(SynthConfig.sigma_desc, float,
                              "noise on a revisit's local descriptors", "synth")
    # bench's timing and n-sweep stream
    bench_dim: int = _knob(64, _positive, "global descriptor dimension of the timing and n-sweep "
                                          "stream", "bench")
    bench_frames: int = _knob(1500, _positive, "frames of the timing and n-sweep stream", "bench")
    n_list: tuple[int, ...] = _knob((1, 3, 5, 10), _ints, "n sweep values", "bench",
                                    show=_joined(","))
    # pca-fit
    out_dim: int = _knob(DEFAULT_REDUCED_DIM, int, "reduced local descriptor dimension",
                         "pca-fit")
    max_samples: int = _knob(50000, _positive, "most local descriptors fitted on", "pca-fit")

    def items(self) -> list[tuple[str, str]]:
        """Set fields as (key, text) pairs; the text parses back to the value."""
        return [
            (f.name, f.metadata["show"](v))
            for f in dataclasses.fields(self)
            if (v := getattr(self, f.name)) is not None
        ]

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in fields:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            try:
                values[key] = fields[key].metadata["parse"](raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config line {lineno}: {key}: {exc}") from None
        return cls(**values)


def _knobs(command: str) -> dict[str, dataclasses.Field]:
    """The RunConfig fields ``command`` reads, in field order."""
    return {f.name: f for f in dataclasses.fields(RunConfig)
            if command in f.metadata["commands"].split()}


def _taus(cfg: RunConfig) -> list[int]:
    lo, hi, step = cfg.tau_range
    return list(range(lo, hi + 1, step))


def _pipeline_config(cfg: RunConfig) -> PipelineConfig:
    """Map the run fields onto the pipeline and graph fields of the same name;
    the graph's ``rng_seed`` is the run ``seed``."""
    knobs = dataclasses.asdict(cfg) | {"rng_seed": cfg.seed}

    def pick(cls) -> dict:
        return {f.name: knobs[f.name] for f in dataclasses.fields(cls) if f.name in knobs}

    # checked before the graph, so a negative seed is named ``seed``, not ``rng_seed``
    pipe_cfg = PipelineConfig(**pick(PipelineConfig))
    return dataclasses.replace(pipe_cfg, hnsw=HnswParams(**pick(HnswParams)))


def _resolve(args: argparse.Namespace) -> tuple[RunConfig, ContainerHeader | None]:
    """Every subcommand's start-up: take each field it reads from its flag,
    else the config file, else the default, and leave every other field at
    its default; read the container header if it reads ``features``; default
    ``phi`` to the header's (else the pipeline's); echo those fields and the
    header's f32 image scales at f32 precision."""
    loaded = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            loaded = RunConfig.from_text(f.read())  # every key is checked, read or not
    knobs = _knobs(args.command)
    cfg = RunConfig(**{name: getattr(loaded, name) if (v := getattr(args, name)) is None else v
                       for name in knobs})
    header = None
    if "features" in knobs:
        header = read_header(_require(cfg.features, "feature file (--features)"))
    if "phi" in knobs and cfg.phi is None:
        cfg.phi = header.phi if header else PipelineConfig.phi
    resolved = [(k, v) for k, v in cfg.items() if k in knobs]
    if header is not None:
        resolved += [(k, str(np.float32(getattr(header, k)))) for k in ("s_g", "s_l")]
    print("resolved config: " + " ".join(f"{k}={v}" for k, v in resolved), file=sys.stderr)
    return cfg, header


def _require(path: str | None, what: str) -> str:
    if not path:
        raise SystemExitError(2, f"missing required {what}")
    if not os.path.exists(path):
        raise SystemExitError(2, f"{what} not found: {path}")
    return path


class SystemExitError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_detect(cfg: RunConfig, header: ContainerHeader) -> int:
    frames = read_features(cfg.features)
    if cfg.pca:
        pca = load_pca_model(_require(cfg.pca, "PCA model (--pca)"))
        if pca.raw_dim != header.dim_local:
            raise ValueError(f"PCA model is {pca.raw_dim}-d, {cfg.features} holds "
                             f"{header.dim_local}-d local descriptors")
        frames = ((i, g, reduce_features(pca, ls)) for i, g, ls in frames)
    out = cfg.out or "detections.csv"
    pipeline = LoopClosurePipeline(_pipeline_config(cfg), header.dim_global)
    detections = [det for frame in frames if (det := pipeline.process_frame(*frame)) is not None]
    with atomic_output(out, "w") as f:
        f.write("query_frame,matched_frame,inliers,similarity\n")
        for det in detections:
            f.write(
                f"{det.query_frame},{det.matched_frame},"
                f"{det.inlier_count},{det.similarity:.6f}\n"
            )
    logger.info("processed %d frames, %d detections -> %s",
                header.frame_count, len(detections), out)
    return 0


def cmd_eval(cfg: RunConfig, header: ContainerHeader) -> int:
    # parsed before the pipeline runs; its frame ids are checked after it
    gt = read_ground_truth(_require(cfg.gt, "ground-truth file (--gt)"))
    pipe_cfg = _pipeline_config(cfg)
    records, _ = collect_frame_records(read_features(cfg.features), pipe_cfg, header.dim_global)
    gt = GroundTruth(gt.pairs, frozenset(r.query_frame for r in records))
    curve = pr_curve((), gt, pipe_cfg, _taus(cfg), gt_window=cfg.gt_window, records=records)
    if cfg.out:
        with atomic_output(cfg.out, "w") as f:
            write_pr_csv(f, curve)
    else:
        write_pr_csv(sys.stdout, curve)
    print(f"recall_at_100_precision={recall_at_full_precision(curve):.6f}")
    return 0


def cmd_synth(cfg: RunConfig, _header: None) -> int:
    if not cfg.out:
        raise SystemExitError(2, "missing required output path (--out)")
    synth_cfg = SynthConfig(
        n_frames=cfg.frames,
        segments=tuple(RevisitSegment(*s) for s in cfg.segments),
        dim_global=cfg.dim_global,
        dim_local=cfg.dim_local,
        features_per_frame=cfg.features_per_frame,
        outlier_fraction=cfg.outlier_frac,
        sigma_global=cfg.sigma_global,
        sigma_px=cfg.sigma_px,
        sigma_desc=cfg.sigma_desc,
        exclusion_zone=PipelineConfig(psi=cfg.psi, phi=cfg.phi).n_non,
        seed=cfg.seed,
    )
    dataset = generate_synthetic(synth_cfg)
    # the ground truth's temp file is made first and renamed last, so a run
    # that fails writes neither file
    with atomic_output(cfg.gt, "w") if cfg.gt else nullcontext() as gt_file:
        write_features(cfg.out, dataset.frames, phi=cfg.phi)
        if gt_file is not None:
            write_ground_truth(gt_file, dataset.ground_truth)
    logger.info("wrote %d synthetic frames (%d planted loops) -> %s",
                len(dataset.frames), len(dataset.planted), cfg.out)
    return 0


def cmd_bench(cfg: RunConfig, _header: None) -> int:
    pipe_cfg = _pipeline_config(cfg)
    # every n is configured before the first pass, so an n the library
    # rejects fails before anything is written
    n_configs = {n: dataclasses.replace(pipe_cfg, n=n) for n in (*cfg.n_list, cfg.n)}
    out_dir = cfg.out or "bench"
    os.makedirs(out_dir, exist_ok=True)
    dim = cfg.bench_dim

    # timing and n sweep run on a planted synthetic trajectory
    n_frames = cfg.bench_frames
    exclusion = pipe_cfg.n_non
    seg_len = max(10, n_frames // 20)
    origin = max(1, n_frames // 10)
    revisit = origin + exclusion + seg_len
    segments = ()
    if revisit + seg_len < n_frames:
        segments = (RevisitSegment(origin, revisit, seg_len),)
    dataset = generate_synthetic(
        SynthConfig(
            n_frames=n_frames,
            segments=segments,
            dim_global=dim,
            features_per_frame=40,
            exclusion_zone=exclusion,
            seed=cfg.seed,
        )
    )
    # one pass per distinct n: the sweep replays its records at every tau, and
    # the timing table comes from the pass at the run's n
    passes = {}
    for n, n_cfg in n_configs.items():
        t0 = time.perf_counter()
        records, _ = collect_frame_records(dataset.frames, n_cfg, dim)
        passes[n] = records, (time.perf_counter() - t0) * 1e3 / n_frames
    with atomic_output(os.path.join(out_dir, "timing.csv"), "w") as f:
        write_timing_csv(f, passes[cfg.n][0])

    with atomic_output(os.path.join(out_dir, "n_sweep.csv"), "w") as f:
        f.write("n,recall_at_100_precision,mean_frame_ms\n")
        for n in cfg.n_list:
            records, ms = passes[n]
            curve = pr_curve((), dataset.ground_truth, n_configs[n], _taus(cfg),
                             gt_window=cfg.gt_window, records=records)
            f.write(f"{n},{recall_at_full_precision(curve):.6f},{ms:.6f}\n")

    logger.info("benchmark tables written to %s", out_dir)
    return 0


def cmd_pca_fit(cfg: RunConfig, _header: ContainerHeader) -> int:
    if not cfg.out:
        raise SystemExitError(2, "missing required output path (--out)")

    collected = []
    total = 0
    for _, _, locals_ in read_features(cfg.features):
        if len(locals_) == 0:
            continue
        collected.append(locals_.descriptors)
        total += len(locals_)
        if total >= cfg.max_samples:
            break
    if not collected:
        raise SystemExitError(1, "no local descriptors found to fit on")
    samples = np.vstack(collected)[: cfg.max_samples]
    model = fit_pca(samples, cfg.out_dim)
    save_pca_model(cfg.out, model)
    logger.info(
        "fit %d-d -> %d-d PCA on %d descriptors%s -> %s",
        model.raw_dim,
        model.out_dim,
        samples.shape[0],
        " (degenerate)" if model.degenerate else "",
        cfg.out,
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopdet",
        description="Incremental visual loop-closure detection and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, doc in (
        ("detect", cmd_detect, "run the detection pipeline over a feature file"),
        ("eval", cmd_eval, "precision-recall sweep against ground truth"),
        ("synth", cmd_synth, "generate a synthetic feature container"),
        ("bench", cmd_bench, "per-stage timing and n-sweep tables"),
        ("pca-fit", cmd_pca_fit, "fit a PCA reduction on a container's local descriptors"),
    ):
        # no abbreviations: a flag scoped away must not match a longer one
        p = sub.add_parser(name, help=doc, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for f in _knobs(name).values():
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=f.metadata["parse"], help=f.metadata["help"])
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get(LOG_ENV, "INFO").upper()
    if not isinstance(logging.getLevelName(level), int):  # not a level name
        print(f"error: unknown {LOG_ENV} level {level!r}", file=sys.stderr)
        return 2
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(*_resolve(args))
    except SystemExitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContainerError as exc:
        print(f"error: invalid feature file ({exc.category}): {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
