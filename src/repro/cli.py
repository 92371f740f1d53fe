"""Command-line interface: reproduce figures and probe configurations.

Usage (also via ``python -m repro``):

    repro info                         # platforms, layouts, counters
    repro figure 2                     # regenerate a paper figure
    repro figure all -o results/
    repro bilateral --stencil r3 --pencil pz --order zyx --threads 8
    repro volrend --viewpoint 2 --threads 12 --platform mic
    repro render --viewpoint 3 --out frame.ppm
    repro analyze --kernel bilateral --layout morton
    repro serve --order hilbert --queries 100    # chunked volume service
    repro serve-bench --shape 64                 # curve vs row-major gate
    repro cluster --faults shard-flap@2:at=8:down=6   # elastic sharding
    repro chaos serve                            # one chaos gate
    repro trace validate run.jsonl               # trace + manifest check
    repro sweep --capacities 8 16 32 64          # miss-ratio curve

Figure subcommands accept ``--shape`` / ``--scale`` to trade fidelity
for speed; cell subcommands run one array-vs-Z comparison and print the
counters and the paper's d_s.

Long runs survive interruption: the figure/bilateral/volrend commands
take ``--checkpoint PATH`` / ``--resume`` (journal completed cells and
restart where a killed run stopped), ``--retries N``,
``--cell-timeout SECONDS`` (reap hung workers) and ``--govern``
(resource governance).  See docs/RESILIENCE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .core.registry import layout_names
from .experiments import (
    BilateralCell,
    RetryPolicy,
    VolrendCell,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    render_ds_figure,
    render_series_figure,
    run_layout_pairs,
)
from .instrument import (
    build_manifest,
    cross_check,
    render_summary,
    scaled_relative_difference,
    trace,
    validate_manifest,
    validate_trace_file,
    write_manifest,
)
from .memsim.platforms import PLATFORMS, get_platform
from .resilience import artifacts as _artifacts

__all__ = ["main", "build_parser"]

_FIGURES = {
    "2": (figure2, render_ds_figure, "fig2_bilateral_ivybridge.txt"),
    "3": (figure3, render_ds_figure, "fig3_bilateral_mic.txt"),
    "4": (figure4, render_series_figure, "fig4_volrend_viewpoints.txt"),
    "5": (figure5, render_ds_figure, "fig5_volrend_ivybridge.txt"),
    "6": (figure6, render_ds_figure, "fig6_volrend_mic.txt"),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse tree (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SFC memory-layout study reproduction "
                    "(Bethel et al., IPDPS-W 2015)",
        epilog="Checkpoint/resume, retries and per-cell timeouts for long "
               "runs are documented in docs/RESILIENCE.md.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def _workers(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"workers must be >= 0 (0 = all CPUs), got {value}")
        return value

    # observability flags shared by every command that runs work
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument("--trace", metavar="PATH", default=None,
                     help="write a JSON-lines span trace of the run")
    obs.add_argument("--trace-summary", action="store_true",
                     help="print a per-phase timing/counter rollup")
    obs.add_argument("--manifest", metavar="PATH", default=None,
                     help="run-manifest output path (default: "
                          "<trace>.manifest.json when --trace is given)")
    obs.add_argument("--sanitize", nargs="?", const="strict",
                     choices=["strict", "report"], default=None,
                     help="validate every grid access against the layout's "
                          "bounds/bijectivity (exports REPRO_SANITIZE so "
                          "workers inherit it; see docs/STATIC_ANALYSIS.md)")

    # resilience flags shared by the cell-batch commands
    # (checkpoint/resume, per-cell retry + timeout; see docs/RESILIENCE.md)
    res = argparse.ArgumentParser(add_help=False)
    res.add_argument("--checkpoint", metavar="PATH", default=None,
                     help="journal completed cells to this JSON-lines file "
                          "so an interrupted run can --resume "
                          "(see docs/RESILIENCE.md)")
    res.add_argument("--resume", action="store_true",
                     help="skip cells already completed in --checkpoint "
                          "instead of truncating it")
    res.add_argument("--retries", type=int, default=0, metavar="N",
                     help="retry transiently-failed cells up to N times "
                          "with deterministic backoff (default 0)")
    res.add_argument("--cell-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell deadline; a hung worker is killed and "
                          "its cell requeued (needs --workers >= 2)")
    res.add_argument("--govern", action="store_true",
                     help="resource governance: clamp workers to free "
                          "memory, cap worker address space, degrade "
                          "instead of dying under memory/disk pressure "
                          "(see docs/RESILIENCE.md)")

    sub.add_parser("info", help="list platforms, layouts and counters")

    p_fig = sub.add_parser("figure", help="regenerate a paper figure",
                           parents=[obs, res])
    p_fig.add_argument("which", choices=[*_FIGURES, "all"])
    p_fig.add_argument("--shape", type=int, default=64,
                       help="volume edge length (default 64)")
    p_fig.add_argument("--scale", type=int, default=64,
                       help="platform cache scale divisor (default 64)")
    p_fig.add_argument("-o", "--out", default=None,
                       help="directory to write the table (default: print only)")
    p_fig.add_argument("-j", "--workers", type=_workers, default=1,
                       help="worker processes for the figure's cells "
                            "(0 = all CPUs; default 1 = serial)")

    p_bil = sub.add_parser("bilateral", parents=[obs, res],
                           help="one bilateral cell, array vs Z-order")
    p_bil.add_argument("--platform", choices=sorted(PLATFORMS),
                       default="ivybridge")
    p_bil.add_argument("--scale", type=int, default=64)
    p_bil.add_argument("--shape", type=int, default=64)
    p_bil.add_argument("--stencil", default="r3",
                       help="r1/r3/r5 or an integer radius")
    p_bil.add_argument("--pencil", choices=["px", "py", "pz"], default="pz")
    p_bil.add_argument("--order", choices=["xyz", "zyx"], default="zyx")
    p_bil.add_argument("--threads", type=int, default=8)
    p_bil.add_argument("--layouts", nargs=2, default=["array", "morton"],
                       metavar=("A", "Z"),
                       help="the two layouts to compare (default array morton)")
    p_bil.add_argument("-j", "--workers", type=_workers, default=1,
                       help="worker processes (0 = all CPUs; default serial)")

    p_vol = sub.add_parser("volrend", parents=[obs, res],
                           help="one volume-rendering cell, array vs Z-order")
    p_vol.add_argument("--platform", choices=sorted(PLATFORMS),
                       default="ivybridge")
    p_vol.add_argument("--scale", type=int, default=64)
    p_vol.add_argument("--shape", type=int, default=64)
    p_vol.add_argument("--viewpoint", type=int, default=2)
    p_vol.add_argument("--threads", type=int, default=8)
    p_vol.add_argument("--image", type=int, default=256)
    p_vol.add_argument("--layouts", nargs=2, default=["array", "morton"],
                       metavar=("A", "Z"))
    p_vol.add_argument("-j", "--workers", type=_workers, default=1,
                       help="worker processes (0 = all CPUs; default serial)")

    p_ren = sub.add_parser("render", parents=[obs], help="render a PPM image of a volume")
    p_ren.add_argument("--shape", type=int, default=48)
    p_ren.add_argument("--viewpoint", type=int, default=2)
    p_ren.add_argument("--image", type=int, default=128)
    p_ren.add_argument("--dataset", choices=["combustion", "mri"],
                       default="combustion")
    p_ren.add_argument("--layout", default="morton", metavar="SPEC",
                       help="layout name or spec string, e.g. morton or "
                            "tiled:brick=8 (see `repro info`)")
    p_ren.add_argument("--out", default="render.ppm")

    p_ana = sub.add_parser("analyze", parents=[obs],
                           help="locality report for a kernel stream")
    p_ana.add_argument("--kernel", choices=["bilateral", "volrend"],
                       default="bilateral")
    p_ana.add_argument("--layout", default="morton", metavar="SPEC",
                       help="layout name or spec string (see `repro info`)")
    p_ana.add_argument("--shape", type=int, default=32)

    p_tune = sub.add_parser("tune", parents=[obs],
                            help="auto-tune a blocking/tiling parameter "
                                 "against the simulator")
    p_tune.add_argument("what", choices=["brick", "tile"])
    p_tune.add_argument("--shape", type=int, default=32)
    p_tune.add_argument("--threads", type=int, default=4)
    p_tune.add_argument("--method", choices=["exhaustive", "hill"],
                        default="exhaustive")

    p_mesh = sub.add_parser("mesh", parents=[obs],
                            help="unstructured-mesh ordering study")
    p_mesh.add_argument("--vertices", type=int, default=2000)
    p_mesh.add_argument("--seed", type=int, default=1)

    p_srv = sub.add_parser(
        "serve", parents=[obs],
        help="serve a seeded query session over a chunked volume store")
    p_srv.add_argument("--shape", type=int, default=64,
                       help="volume edge length (default 64)")
    p_srv.add_argument("--dataset", choices=["combustion", "mri"],
                       default="combustion")
    p_srv.add_argument("--order", default="morton", metavar="SPEC",
                       help="chunk-order layout spec applied to the chunk "
                            "grid, e.g. morton, hilbert, tiled:brick=2, "
                            "array (see `repro info`)")
    p_srv.add_argument("--chunk", type=int, default=16,
                       help="brick edge length in voxels (default 16)")
    p_srv.add_argument("--chunks-per-segment", type=int, default=4,
                       help="chunks per segment file, the I/O and cache "
                            "granularity (default 4)")
    p_srv.add_argument("--cache", default="lru:capacity=32", metavar="SPEC",
                       help="cache spec: lru:capacity=<segments> or none "
                            "(default lru:capacity=32)")
    p_srv.add_argument("--queries", type=int, default=50,
                       help="synthetic queries to serve (default 50)")
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument("--concurrency", type=int, default=4,
                       help="max in-flight queries (default 4)")
    p_srv.add_argument("--arrival-profile", choices=["steady", "burst"],
                       default="burst")
    p_srv.add_argument("--store", default=None, metavar="DIR",
                       help="store directory to create or reuse "
                            "(default: temp dir, removed afterwards)")
    p_srv.add_argument("--no-crosscheck", action="store_true",
                       help="skip the memsim cache-counter cross-check")
    p_srv.add_argument("--replicas", type=int, default=1,
                       help="replica copies of every segment, each on a "
                            "distinct simulated shard (default 1)")
    p_srv.add_argument("--shards", type=int, default=None,
                       help="simulated shards the curve-segment ranges are "
                            "placed across (default: one per replica)")
    p_srv.add_argument("--deadline-ms", type=float, default=None,
                       help="per-query deadline in milliseconds; an attempt "
                            "over budget fails and retries with a fresh one "
                            "(default: none)")
    p_srv.add_argument("--max-inflight", type=int, default=None,
                       help="admission bound on queued+executing queries; "
                            "arrivals beyond it are shed with a typed "
                            "rejection, never queued unboundedly "
                            "(default: unbounded)")
    p_srv.add_argument("--retries", type=int, default=2,
                       help="extra attempts for a failed query (default 2)")

    p_sbench = sub.add_parser(
        "serve-bench", parents=[obs],
        help="serve the same traffic under several chunk orders; gate "
             "curve orders against the row-major baseline")
    p_sbench.add_argument("--shape", type=int, default=64)
    p_sbench.add_argument("--chunk", type=int, default=8)
    p_sbench.add_argument("--chunks-per-segment", type=int, default=4)
    p_sbench.add_argument("--orders", nargs="+",
                          default=["array", "morton", "hilbert"],
                          metavar="SPEC")
    p_sbench.add_argument("--baseline", default="array", metavar="SPEC")
    p_sbench.add_argument("--queries", type=int, default=80)
    p_sbench.add_argument("--seed", type=int, default=0)
    p_sbench.add_argument("--cache", default="lru:capacity=32",
                          metavar="SPEC")
    p_sbench.add_argument("--concurrency", type=int, default=4)
    p_sbench.add_argument("--arrival-profile", choices=["steady", "burst"],
                          default="burst")
    p_sbench.add_argument("--on-degenerate", choices=["error", "adjust"],
                          default="adjust",
                          help="what to do when grid x-extent == "
                               "chunks-per-segment, a configuration "
                               "whose gate silently favors row-major "
                               "(default: adjust with a warning)")

    p_clu = sub.add_parser(
        "cluster", parents=[obs],
        help="serve a seeded session through an elastic shard cluster "
             "under deterministic membership chaos")
    p_clu.add_argument("--shape", type=int, default=32,
                       help="volume edge length (default 32)")
    p_clu.add_argument("--dataset", choices=["combustion", "mri"],
                       default="combustion")
    p_clu.add_argument("--order", default="morton", metavar="SPEC",
                       help="chunk-order layout spec (default morton)")
    p_clu.add_argument("--chunk", type=int, default=8)
    p_clu.add_argument("--chunks-per-segment", type=int, default=4)
    p_clu.add_argument("--cache", default="lru:capacity=8", metavar="SPEC")
    p_clu.add_argument("--queries", type=int, default=36)
    p_clu.add_argument("--seed", type=int, default=0)
    p_clu.add_argument("--replicas", type=int, default=2,
                       help="replica copies per segment (default 2)")
    p_clu.add_argument("--shards", type=int, default=4,
                       help="simulated shards (default 4)")
    p_clu.add_argument("--faults", default=None, metavar="SPEC",
                       help="membership fault plan, e.g. "
                            "shard-kill@2:at=8,shard-join@2:at=20 or "
                            "shard-flap@1:at=10:down=6 (default: none; "
                            "composes with any active REPRO_FAULTS)")
    p_clu.add_argument("--rebalance-budget", type=int, default=4,
                       help="segment-copy moves per tick (default 4)")
    p_clu.add_argument("--scrub-budget", type=int, default=2,
                       help="anti-entropy checks per tick (default 2)")
    p_clu.add_argument("--no-crosscheck", action="store_true",
                       help="skip the bit-identical comparison against "
                            "an undisturbed serving run")

    # no shared observability flags: each scenario traces only its
    # faulted run, never the undisturbed reference runs
    p_chaos = sub.add_parser(
        "chaos",
        help="run one failure-injection scenario and check that the "
             "system survived it (see docs/RESILIENCE.md)")
    # the keys of repro.chaos.SCENARIOS, listed here so that building
    # the parser does not import the serving stack
    p_chaos.add_argument("scenario",
                         choices=["smoke", "disk", "serve", "cluster",
                                  "fuzz"])
    p_chaos.add_argument("trace_path", nargs="?", default=None,
                         metavar="TRACE",
                         help="trace output path; the manifest lands "
                              "beside it (default chaos_<scenario>.jsonl; "
                              "fuzz writes none)")

    # positionals named apart from the shared --trace/--manifest flags,
    # which would trace the run over its own input
    p_tval = sub.add_parser("trace", help="inspect a trace file") \
        .add_subparsers(dest="action", required=True).add_parser(
            "validate", help="check a trace + manifest pair: schemas, "
            "phases that tile every cell, the serve section")
    p_tval.add_argument("trace_path", metavar="TRACE")
    p_tval.add_argument("manifest_path", nargs="?", metavar="MANIFEST",
                        help="default TRACE.manifest.json")

    p_swp = sub.add_parser(
        "sweep", parents=[obs],
        help="miss-ratio curve: one kernel trace priced at many "
             "cache capacities (capacity_sweep driver)")
    p_swp.add_argument("--capacities", type=int, nargs="+", required=True,
                       metavar="LINES",
                       help="fully-associative LRU capacities to price, "
                            "in cache lines")
    p_swp.add_argument("--kernel", choices=["bilateral", "volrend"],
                       default="bilateral")
    p_swp.add_argument("--shape", type=int, default=16)
    p_swp.add_argument("--threads", type=int, default=2)
    p_swp.add_argument("--layouts", nargs="+", default=["array", "morton"],
                       metavar="SPEC")
    p_swp.add_argument("--counters", nargs="+",
                       default=["L1_TCA", "L1_TCM"])
    p_swp.add_argument("-o", "--out", default=None, metavar="CSV",
                       help="also write the rows as a CSV artifact")

    from .check.cli import add_arguments as add_check_arguments

    add_check_arguments(sub.add_parser(
        "check",
        help="project-specific static analysis (layout contract, "
             "determinism, worker safety)",
        description="static analysis over the repo's own contracts; "
                    "rule catalog in docs/STATIC_ANALYSIS.md"))
    return parser


def _cmd_info() -> int:
    print(f"repro {__version__}\n")
    print("layouts (name: accepted spec kwargs, as in 'tiled:brick=8'):")
    for name, doc in layout_names(with_kwargs=True):
        print(f"  {name:10s} {doc or '(no kwargs)'}")
    print("\nserve (same spec grammar; see docs/SERVING.md):")
    print("  chunk order: any layout name above, applied to the chunk grid")
    print("  cache      : lru:capacity=<segments> | none")
    print("\nplatforms:")
    for name, spec in sorted(PLATFORMS.items()):
        levels = ", ".join(
            f"{lv.cache.name} {lv.cache.capacity_bytes // 1024}K/"
            f"{lv.cache.ways}w/{lv.scope}" for lv in spec.levels
        )
        print(f"  {name:<10} {spec.n_cores} cores x {spec.smt} SMT @ "
              f"{spec.freq_ghz} GHz | {levels}")
        print(f"  {'':<10} counters: {', '.join(sorted(spec.counters))}")
    return 0


def _resilience_kwargs(args) -> dict:
    """``run_cells_parallel`` resilience kwargs from the shared CLI flags."""
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint PATH")
    kwargs = {}
    if args.checkpoint:
        kwargs["checkpoint"] = args.checkpoint
        kwargs["resume"] = args.resume
    if args.retries:
        kwargs["retry"] = RetryPolicy(max_retries=args.retries)
    if args.cell_timeout is not None:
        kwargs["timeout"] = args.cell_timeout
    if getattr(args, "govern", False):
        kwargs["govern"] = True
    return kwargs


def _cmd_figure(args) -> int:
    which = list(_FIGURES) if args.which == "all" else [args.which]
    shape = (args.shape, args.shape, args.shape)
    resilience = _resilience_kwargs(args)
    for n, fig_id in enumerate(which):
        driver, renderer, fname = _FIGURES[fig_id]
        print(f"running figure {fig_id} at {shape}, scale {args.scale} ...",
              file=sys.stderr)
        if "checkpoint" in resilience and n > 0:
            # later figures must append to the shared journal, not wipe
            # the completed figures' entries
            resilience["resume"] = True
        fig = driver(shape=shape, scale=args.scale, workers=args.workers,
                     **resilience)
        text = renderer(fig)
        print(text)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, fname)
            _artifacts.write_text_artifact(path, text + "\n",
                                           kind="figure-table")
            print(f"[saved to {path}]", file=sys.stderr)
    return 0


def _cmd_cell(args) -> int:
    """``repro bilateral`` / ``repro volrend``: one cell under both layouts."""
    platform = get_platform(args.platform, scale=args.scale)
    mic = args.platform == "mic"
    common = dict(platform=platform, shape=(args.shape,) * 3,
                  n_threads=args.threads,
                  affinity="balanced" if mic else "compact",
                  usable_cores=59 if mic else None,
                  sample_cores=8 if mic else None)
    if args.command == "bilateral":
        cell = BilateralCell(stencil=args.stencil, pencil=args.pencil,
                             stencil_order=args.order, **common)
        what = f"bilateral {args.stencil} {args.pencil} {args.order}"
    else:
        cell = VolrendCell(viewpoint=args.viewpoint, image_size=args.image,
                           **common)
        what = f"volrend viewpoint {args.viewpoint}"
    [(res_a, res_z)] = run_layout_pairs([cell], args.layouts,
                                        workers=args.workers,
                                        **_resilience_kwargs(args))
    print(f"{what}, {args.threads} threads, {platform.name}\n")
    a_name, z_name = args.layouts
    print(f"{'metric':<28} {a_name:>14} {z_name:>14} {'d_s':>8}")
    ds = scaled_relative_difference(res_a.runtime_seconds,
                                    res_z.runtime_seconds)
    print(f"{'runtime (ms)':<28} {res_a.runtime_seconds * 1e3:>14.3f} "
          f"{res_z.runtime_seconds * 1e3:>14.3f} {ds:>8.2f}")
    for name in sorted(res_a.counters):
        a, z = res_a.counters[name], res_z.counters[name]
        ds = scaled_relative_difference(a, z) if z else float("nan")
        print(f"{name:<28} {a:>14.0f} {z:>14.0f} {ds:>8.2f}")
    print("\n(positive d_s: the second layout measured less — it wins)")
    return 0


def _cmd_render(args) -> int:
    from .core.grid import Grid
    from .core.registry import make_layout
    from .data.synthetic import combustion_field, mri_phantom
    from .kernels.camera import orbit_camera
    from .kernels.transfer import grayscale_ramp, warm_ramp
    from .kernels.volrend import RaycastRenderer, RenderSpec

    shape = (args.shape, args.shape, args.shape)
    if args.dataset == "combustion":
        dense, tf = combustion_field(shape, seed=7), warm_ramp()
    else:
        dense, tf = mri_phantom(shape), grayscale_ramp()
    grid = Grid.from_dense(dense, make_layout(args.layout, shape))
    cam = orbit_camera(shape, args.viewpoint, width=args.image,
                       height=args.image)
    img = RaycastRenderer(grid, tf, RenderSpec(
        step=0.5, sampler="trilinear",
        early_termination=0.98)).render_image(cam)
    rgb = (np.clip(img[..., :3], 0, 1) * 255).astype(np.uint8)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    _artifacts.write_artifact(args.out, header + rgb.tobytes(),
                              kind="ppm-image")
    print(f"wrote {args.out} ({args.image}x{args.image}, viewpoint "
          f"{args.viewpoint}, {args.layout} layout)")
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import (
        miss_ratio_curve,
        reuse_distance_histogram,
        stride_spectrum,
        working_set_curve,
    )
    from .core.grid import Grid
    from .core.registry import make_layout
    from .data.synthetic import mri_phantom
    from .kernels.bilateral import BilateralFilter3D, BilateralSpec
    from .kernels.camera import orbit_camera
    from .kernels.transfer import grayscale_ramp
    from .kernels.volrend import RaycastRenderer, RenderSpec
    from .memsim.address import AddressSpace
    from .parallel.pencil import Pencil
    from .parallel.tiles import Tile

    shape = (args.shape, args.shape, args.shape)
    dense = mri_phantom(shape, noise=0.0)
    grid = Grid.from_dense(dense, make_layout(args.layout, shape))
    space = AddressSpace(64)
    if args.kernel == "bilateral":
        filt = BilateralFilter3D(BilateralSpec(radius=2, stencil_order="zyx"))
        trace = filt.pencil_trace(
            grid, Pencil(axis=2, fixed=(shape[0] // 2, shape[1] // 2)), space)
    else:
        cam = orbit_camera(shape, 2, width=128, height=128)
        renderer = RaycastRenderer(grid, grayscale_ramp(), RenderSpec())
        trace = renderer.render_tile(cam, Tile(48, 48, 32, 32), space=space,
                                     want_values=False).trace
    lines = trace.lines - space.base_of(grid) // 64
    print(f"{args.kernel} stream under {args.layout} layout at {shape}: "
          f"{trace.n_accesses} accesses, {np.unique(lines).size} lines\n")
    spec = stride_spectrum(lines, line_elems=2, near_elems=64)
    print("stride spectrum:", {k: round(v, 3) for k, v in spec.as_dict().items()})
    hist = reuse_distance_histogram(lines)
    capacities = [16, 64, 256, 1024]
    mrc = miss_ratio_curve(hist, capacities)
    print("miss-ratio curve:",
          {c: round(float(m), 3) for c, m in zip(capacities, mrc)})
    ws = working_set_curve(lines, [64, 256, 1024])
    print("working set:", {k: round(v, 1) for k, v in ws.items()})
    return 0


def _cmd_tune(args) -> int:
    from .tuning import tune_brick, tune_tile_size

    shape = (args.shape, args.shape, args.shape)
    platform = get_platform("ivybridge", scale=64)
    if args.what == "brick":
        cell = BilateralCell(platform=platform, shape=shape,
                             n_threads=args.threads, stencil="r3",
                             pencil="pz", stencil_order="zyx",
                             pencils_per_thread=2)
        result = tune_brick(cell, method=args.method)
        param = "brick"
    else:
        cell = VolrendCell(platform=platform, shape=shape,
                           n_threads=args.threads, image_size=256,
                           viewpoint=2, ray_step=2)
        result = tune_tile_size(cell, method=args.method)
        param = "tile"
    print(f"tuning {param} ({args.method}): "
          f"{result.evaluations} evaluations")
    seen = set()
    for params, cost in result.history:
        key = params[param]
        if key in seen:
            continue
        seen.add(key)
        label = "inf" if cost == float("inf") else f"{cost * 1e3:9.3f} ms"
        print(f"  {param} = {key:>4}: {label}")
    print(f"best: {param} = {result.best_params[param]} "
          f"({result.best_cost * 1e3:.3f} ms)")
    return 0


def _cmd_mesh(args) -> int:
    from .experiments import default_ivybridge
    from .mesh import ORDERINGS, random_delaunay, reorder
    from .memsim import SimulationEngine, ThreadWork, TraceChunk

    mesh = random_delaunay(args.vertices, seed=args.seed)
    print(f"{mesh}\n")
    spec = default_ivybridge(64)
    print(f"{'ordering':>10} {'PAPI_L3_TCA':>12} {'runtime (us)':>13}")
    rows = []
    for strategy in sorted(ORDERINGS):
        m2 = reorder(mesh, strategy, seed=7)
        chunk = TraceChunk.from_offsets(
            m2.sweep_element_offsets(), itemsize=8,
            line_bytes=spec.line_bytes, n_ops=m2.sweep_read_ids().size)
        res = SimulationEngine(spec).run([ThreadWork(0, 0, chunk)])
        rows.append((strategy, res.counters["PAPI_L3_TCA"],
                     res.runtime_seconds * 1e6))
    for strategy, l3, rt in sorted(rows, key=lambda r: r[1]):
        print(f"{strategy:>10} {l3:>12.0f} {rt:>13.1f}")
    return 0


def _cmd_serve(args) -> int:
    import shutil
    import tempfile

    from .data.synthetic import combustion_field, mri_phantom
    from .resilience.policy import RetryPolicy
    from .serve import (
        ChunkStore,
        ReliabilityConfig,
        VolumeServer,
        arrival_times,
        cache_crosscheck,
        generate_queries,
    )

    shape = (args.shape, args.shape, args.shape)
    if args.dataset == "combustion":
        dense = combustion_field(shape, seed=args.seed)
    else:
        dense = mri_phantom(shape)
    tmp = None
    store_dir = args.store
    if store_dir is None:
        tmp = tempfile.mkdtemp(prefix="repro-serve-")
        store_dir = os.path.join(tmp, "store")
    try:
        if os.path.exists(os.path.join(store_dir, "meta.json")):
            store = ChunkStore.open(store_dir, origin=dense)
            print(f"opened store {store_dir} ({store.order}, "
                  f"{store.n_segments} segments)")
        else:
            store = ChunkStore.create(
                store_dir, dense, order=args.order, chunk=args.chunk,
                chunks_per_segment=args.chunks_per_segment,
                replicas=args.replicas, shards=args.shards)
            print(f"created store {store_dir}: shape {store.shape}, "
                  f"chunk {store.chunk_shape}, order {store.order}, "
                  f"{store.n_chunks} chunks in {store.n_segments} segments"
                  + (f", {store.replicas} replicas on {store.shards} shards"
                     if store.shards > 1 else ""))
        reliability = ReliabilityConfig(
            deadline_s=args.deadline_ms / 1e3
            if args.deadline_ms is not None else None,
            max_inflight=args.max_inflight,
            retry=RetryPolicy(max_retries=args.retries, backoff_base=0.01))
        server = VolumeServer(store, cache=args.cache,
                              reliability=reliability)
        queries = generate_queries(shape, args.queries, seed=args.seed)
        arrivals = arrival_times(args.queries, profile=args.arrival_profile,
                                 seed=args.seed)
        results = server.serve_session(queries, concurrency=args.concurrency,
                                       arrivals=arrivals, time_scale=0.0)
        ok = [r for r in results if r.ok]
        rejected = [r for r in results if not r.ok]
        lat = np.array([r.latency_s for r in ok] or [0.0]) * 1e3
        by_kind: dict = {}
        for r in ok:
            by_kind.setdefault(r.query.kind, []).append(r)
        print(f"\nserved {len(ok)} queries "
              f"(p50 {np.percentile(lat, 50):.3f} ms, "
              f"p99 {np.percentile(lat, 99):.3f} ms)")
        for kind in sorted(by_kind):
            rs = by_kind[kind]
            segs = float(np.mean([r.segments_touched for r in rs]))
            util = sum(r.bytes_returned for r in rs) \
                / max(1, sum(r.bytes_touched for r in rs))
            print(f"  {kind:<9} {len(rs):>4} queries, "
                  f"{segs:6.2f} segments/query, utilization {util:.3f}")
        if rejected:
            shed = sum(1 for r in rejected if r.reason == "shed")
            print(f"rejected {len(rejected)} queries "
                  f"({shed} shed by admission control, "
                  f"{len(rejected) - shed} failed/deadline)")
        if store.failovers or store.read_repairs:
            print(f"reliability: {store.failovers} replica failovers, "
                  f"{store.read_repairs} read repairs")
        c = server.cache.counters()
        rate = c["hits"] / c["accesses"] if c["accesses"] else 0.0
        print(f"cache: {c['hits']}/{c['accesses']} hits "
              f"({rate:.1%}), {c['evictions']} evictions, "
              f"capacity {c['capacity']} segments")
        if not args.no_crosscheck:
            check = cache_crosscheck(server.cache)
            if not check.consistent:
                print("CROSSCHECK FAIL: " + "; ".join(check.mismatches()))
                return 1
            print(f"crosscheck: counters match memsim stack-distance + "
                  f"machine over {check.accesses} accesses (exact)")
        if store.segments_rebuilt:
            print(f"[{store.segments_rebuilt} corrupt segments quarantined "
                  f"and rebuilt from origin]")
        return 0
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def _cmd_serve_bench(args) -> int:
    from .serve import render as render_bench
    from .serve import run_serve_bench

    bench = run_serve_bench(
        shape=args.shape, chunk=args.chunk,
        chunks_per_segment=args.chunks_per_segment,
        orders=tuple(args.orders), baseline=args.baseline,
        n_queries=args.queries, seed=args.seed, cache=args.cache,
        concurrency=args.concurrency, profile=args.arrival_profile,
        on_degenerate=args.on_degenerate)
    print(render_bench(bench))
    return 0 if bench.ok else 1


def _cmd_cluster(args) -> int:
    import shutil
    import tempfile

    from .chaos import check_served, cluster_stores, serve_cluster
    from .data.synthetic import combustion_field, mri_phantom
    from .resilience.faults import active_plan
    from .serve import generate_queries

    shape = (args.shape, args.shape, args.shape)
    if args.dataset == "combustion":
        dense = combustion_field(shape, seed=args.seed)
    else:
        dense = mri_phantom(shape)
    queries = generate_queries(shape, args.queries, seed=args.seed)

    tmp = tempfile.mkdtemp(prefix="repro-cluster-")
    try:
        store, want = cluster_stores(
            tmp, dense, queries, cache=args.cache,
            crosscheck=not args.no_crosscheck, order=args.order,
            chunk=args.chunk, chunks_per_segment=args.chunks_per_segment,
            replicas=args.replicas, shards=args.shards)
        print(f"store: shape {store.shape}, chunk {store.chunk_shape}, "
              f"order {store.order}, {store.n_segments} segments, "
              f"{store.replicas} replicas on {store.shards} shards")
        # --faults composes with any ambient REPRO_FAULTS plan
        spec = ",".join(p for p in (active_plan().to_spec(), args.faults)
                        if p)
        if args.faults:
            print(f"faults: {spec}")
        cluster, results = serve_cluster(
            store, queries, spec, cache=args.cache,
            rebalance_budget=args.rebalance_budget,
            scrub_budget=args.scrub_budget)
        ok = sum(1 for r in results if r.ok)
        st = cluster.status()
        print(f"\nserved {ok}/{len(results)} queries over "
              f"{st['events']} events")
        print(f"membership: {st['deaths']} deaths, {st['joins']} joins, "
              f"{st['rebalances']} rebalances -> map v{st['map_version']} "
              f"(live {st['live']})")
        print(f"rebalancing: {st['segments_moved']} segment copies moved "
              f"({st['cutovers']} cutovers), "
              f"{st['under_replicated']} under-replicated")
        print(f"scrub: {st['scrub_checked']} checked, "
              f"{st['scrub_repaired']} repaired, "
              f"{st['scrub_divergent']} divergent")
        for v, c in enumerate(cluster.comparisons, start=1):
            print(f"  map v{v} (live {list(c.new_live)}): SFC moved "
                  f"{c.sfc_moved} vs block-Cartesian {c.cartesian_moved}")
        cache = cluster.server.cache if want is not None else None
        problems = check_served(results, want, cache)
        for p in problems:
            print(f"FAIL: {p}")
        if problems:
            return 1
        if cache is not None:
            print(f"crosscheck: bit-identical to the undisturbed run; "
                  f"cache counters match memsim over "
                  f"{len(cache.access_log)} accesses (exact)")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _cmd_chaos(args) -> int:
    from .chaos import run_scenario

    problems = run_scenario(
        args.scenario, args.trace_path or f"chaos_{args.scenario}.jsonl")
    for p in problems:
        print(f"FAIL: {p}")
    if problems:
        return 1
    print(f"OK: chaos {args.scenario} held")
    return 0


def _cmd_trace(args) -> int:
    manifest_path = args.manifest_path or args.trace_path + ".manifest.json"
    try:
        n_spans = validate_trace_file(args.trace_path)
        with open(manifest_path) as fh:
            manifest = validate_manifest(json.load(fh))
        problems = cross_check(args.trace_path, manifest)
    except ValueError as exc:  # a schema problem, or not JSON at all
        problems = [str(exc)]
    for p in problems:
        print(f"FAIL: {p}")
    if problems:
        return 1
    print(f"OK: {n_spans} spans, {len(manifest['cells'])} cells, "
          f"phases tile every cell")
    return 0


def _cmd_sweep(args) -> int:
    from .experiments import capacity_sweep, rows_to_csv
    from .memsim.stackdist import fully_associative_spec

    shape = (args.shape, args.shape, args.shape)
    platform = fully_associative_spec(max(args.capacities), n_cores=4,
                                      n_sockets=1)
    if args.kernel == "bilateral":
        base = BilateralCell(platform=platform, shape=shape,
                             n_threads=args.threads, stencil="r1",
                             pencils_per_thread=1)
    else:
        base = VolrendCell(platform=platform, shape=shape,
                           n_threads=args.threads, viewpoint=2,
                           image_size=64, ray_step=2)
    rows = capacity_sweep(base, args.capacities, counters=args.counters,
                          axes={"layout": args.layouts})
    cols = ["layout", "capacity_lines", *args.counters]
    print(f"{args.kernel} at {shape}, {args.threads} threads "
          f"(one trace per layout, every capacity priced from its "
          f"stack-distance histogram)\n")
    print("  ".join(f"{c:>16}" for c in cols))
    for row in rows:
        print("  ".join(f"{row[c]:>16}" for c in cols))
    if args.out:
        rows_to_csv(rows, args.out)
        print(f"\n[saved {len(rows)} rows to {args.out}]", file=sys.stderr)
    return 0


def _dispatch(args) -> int:
    if args.command == "check":
        from .check.cli import run as run_check
        return run_check(args)
    if args.command == "info":
        return _cmd_info()
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command in ("bilateral", "volrend"):
        return _cmd_cell(args)
    if args.command == "render":
        return _cmd_render(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "mesh":
        return _cmd_mesh(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _observability_requested(args) -> bool:
    return bool(getattr(args, "trace", None)
                or getattr(args, "trace_summary", False)
                or getattr(args, "manifest", None))


def _write_observability(args, tracer) -> None:
    """Emit the trace file, manifest, and/or summary the flags asked for."""
    if getattr(args, "trace", None):
        n = tracer.write_jsonl(args.trace)
        print(f"[trace: {n} spans -> {args.trace}]", file=sys.stderr)
    manifest_path = getattr(args, "manifest", None)
    if manifest_path is None and getattr(args, "trace", None):
        manifest_path = args.trace + ".manifest.json"
    if manifest_path:
        manifest = build_manifest(
            tracer, extra={"argv": [args.command], "command": args.command})
        write_manifest(manifest_path, manifest)
        print(f"[manifest: {len(manifest['cells'])} cells -> {manifest_path}]",
              file=sys.stderr)
    if getattr(args, "trace_summary", False):
        print("\n" + render_summary(tracer))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    sanitizer = None
    if getattr(args, "sanitize", None):
        from .memsim import sanitize as _sanitize

        # exported so forked/spawned workers re-enable it on import
        os.environ[_sanitize.ENV_VAR] = args.sanitize
        sanitizer = _sanitize.enable(args.sanitize)
    try:
        if not _observability_requested(args):
            return _dispatch(args)
        tracer = trace.enable()
        try:
            with trace.span(f"cli.{args.command}"):
                rc = _dispatch(args)
        finally:
            trace.disable()
        _write_observability(args, tracer)
        return rc
    finally:
        if sanitizer is not None:
            from .memsim import sanitize as _sanitize

            _sanitize.disable()
            stats = sanitizer.stats()
            print(f"[sanitize: {stats['accesses']} accesses across "
                  f"{stats['layouts']} layouts, "
                  f"{stats['violations']} violations]", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
