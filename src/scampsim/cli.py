"""Operator command line: gen, train, lower, infer, bench, loop, dump.

Every command is reproducible under a fixed seed; outputs are written
temp-then-rename so an interrupted run never leaves partial artifacts.
Failures exit nonzero with a single machine-parsable `error: ...` line.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from . import dataset as ds
from . import lowering, pnm, servo, training
from .model import (argmax, default_model, load_weights_file, reference_infer,
                    save_weights)
from .planes import NoiseModel
from .program import CostModel, disassemble, estimate, execute

DEFAULT_COST_RESOURCE = "default_cost.json"


class CliError(Exception):
    pass


def _load_weights(args):
    if args.weights:
        return load_weights_file(args.weights)
    return default_model()


def _load_cost(args) -> CostModel:
    if args.cost_table:
        with open(args.cost_table) as f:
            return CostModel.from_json(f.read())
    text = resources.files("scampsim.data").joinpath(
        DEFAULT_COST_RESOURCE).read_text()
    return CostModel.from_json(text)


def _noise(args) -> NoiseModel:
    if args.noise_sigma > 0:
        return NoiseModel("gaussian", args.noise_sigma, args.seed)
    return NoiseModel()


def _iter_input_images(path, block_size: int):
    """Yield (name, block-sized binary image) from a PGM file or a directory."""
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".pgm"))
        if not names:
            raise CliError(f"no PGM files in {path}")
        for n in names:
            img = pnm.read_pgm(os.path.join(path, n))
            yield n, lowering.prepare_input(img, block_size)
    else:
        img = pnm.read_pgm(path)
        yield os.path.basename(path), lowering.prepare_input(img, block_size)


# -- commands ------------------------------------------------------------


def cmd_gen(args):
    params = ds.JitterParams(args.rotation, args.translation, args.scale,
                             args.boundary_flip)
    split = ds.generate(args.seed, args.n_train, args.n_test, params)
    ds.export_dataset(split, args.out)
    print(f"wrote {len(split.train)} train + {len(split.test)} test samples "
          f"to {args.out}")


def cmd_train(args):
    data = ds.load_dataset(args.dataset)
    config = training.TrainConfig(seed=args.seed, learning_rate=args.lr,
                                  epochs=args.epochs, batch_size=args.batch_size)
    model, tlog = training.train(data, config)
    os.makedirs(args.out, exist_ok=True)
    pnm.atomic_write(os.path.join(args.out, "weights.json"), save_weights(model))
    pnm.atomic_write(os.path.join(args.out, "log.csv"), tlog.to_csv())
    best = tlog.records[tlog.best_epoch]
    print(f"best epoch {best.epoch}: train_acc={best.train_acc:.4f} "
          f"test_acc={best.test_acc:.4f}")


def cmd_lower(args):
    model = _load_weights(args)
    program, plan = lowering.lower_model(model)
    os.makedirs(args.out, exist_ok=True)
    pnm.atomic_write(os.path.join(args.out, "program.txt"), disassemble(program))
    pnm.atomic_write(os.path.join(args.out, "plan.json"), plan.to_json())
    print(f"lowered {len(program)} instructions to {args.out}")


def cmd_infer(args):
    model = _load_weights(args)
    program, _ = lowering.lower_model(model)
    noise = _noise(args)
    agree = 0
    total = 0
    for name, img in _iter_input_images(args.images, model.geometry.block_size):
        state = lowering.make_input_state(img, model.geometry, args.mode, noise)
        _, sums = execute(program, state)
        predicted = program.sum_labels[argmax(sums)]
        line = f"{name}: sums={sums} predicted={predicted}"
        if args.check:
            oracle = reference_infer(model, img)
            ok = (sums == [lowering.POOL_REPLICATION * s for s in oracle.sums]
                  and predicted == oracle.predicted_name)
            agree += ok
            line += f" oracle_agreement={'yes' if ok else 'NO'}"
        total += 1
        print(line)
    if args.check:
        print(f"oracle agreement: {agree}/{total}")
        if agree != total:
            raise CliError("oracle disagreement detected")


def cmd_bench(args):
    model = _load_weights(args)
    program, _ = lowering.lower_model(model)
    report = estimate(program, _load_cost(args))
    print(f"latency_us={report.latency_us:.1f} fps={report.throughput_fps_floor}")


def cmd_loop(args):
    model = _load_weights(args)
    program, _ = lowering.lower_model(model)
    cost = _load_cost(args)
    images = list(_iter_input_images(args.frames, model.geometry.block_size))
    interval = int(round(1e6 / args.fps))
    frames = []
    t = 0
    i = 0
    while t <= args.duration_us and images:
        frames.append((t, images[i % len(images)][1]))
        t += interval
        i += 1
    bank = servo.ServoBank([servo.ServoModel() for _ in range(args.servos)])
    timeline = servo.run_loop(frames, program, cost, bank, args.duration_us,
                              args.mode, _noise(args), geometry=model.geometry)
    os.makedirs(args.out, exist_ok=True)
    pnm.atomic_write(os.path.join(args.out, "timeline.csv"), timeline.to_csv())
    records = servo.reaction_latency(timeline)
    latched = [r for r in records if r.latched]
    lines = ["frame_index,frame_t_us,latched,reaction_us"]
    for r in records:
        lines.append(f"{r.frame_index},{r.frame_t_us},{int(r.latched)},"
                     f"{'' if r.reaction_us is None else r.reaction_us}")
    pnm.atomic_write(os.path.join(args.out, "reaction.csv"), "\n".join(lines) + "\n")
    print(f"frames={len(frames)} latched={len(latched)} "
          f"dropped={len(records) - len(latched)} "
          f"latency_us={timeline.inference_latency_us}")


def cmd_dump(args):
    model = _load_weights(args)
    program, plan = lowering.lower_model(model)
    (_, img), = _iter_input_images(args.image, model.geometry.block_size)
    state = lowering.make_input_state(img, model.geometry, args.mode, _noise(args))
    os.makedirs(args.out, exist_ok=True)

    stage_end = {end - 1: name for name, (_, end) in plan.stage_ranges.items()}
    acc = plan.registers["accumulator"]
    rep = plan.registers["replicated"]
    fc_reg = plan.registers["fc_scratch"]
    stage_reg = {"replicate": rep, "conv": acc, "relu": acc, "maxpool": acc}
    fc_index = [0]

    def snap(idx, ins, st):
        if ins.opcode == "gsum":
            name = f"fc_class_{program.sum_labels[fc_index[0]]}"
            fc_index[0] += 1
            pnm.atomic_write(os.path.join(args.out, f"{name}.pgm"),
                             pnm.encode_pgm(st.areg(fc_reg), st.mode))
        if idx in stage_end:
            stage = stage_end[idx]
            if stage in stage_reg:
                pnm.atomic_write(os.path.join(args.out, f"post_{stage}.pgm"),
                                 pnm.encode_pgm(st.areg(stage_reg[stage]), st.mode))

    _, sums = execute(program, state, on_instruction=snap)
    pnm.write_gray_pgm(
        os.path.join(args.out, f"input_{model.geometry.block_size}.pgm"), img * 255)
    print(f"sums={sums} predicted={program.sum_labels[argmax(sums)]} "
          f"dumped to {args.out}")


# -- argument parsing ----------------------------------------------------


def _add_common(p, cost=False, mode=True):
    p.add_argument("--weights", help="weights JSON (default: built-in model)")
    if cost:
        p.add_argument("--cost-table", help="cost table JSON (default: shipped table)")
    if mode:
        p.add_argument("--mode", choices=["ideal", "saturating"], default="ideal")
        p.add_argument("--noise-sigma", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scampsim",
        description="Simulated in-sensor binary CNN inference with servo loop")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic gesture dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=500)
    p.add_argument("--n-test", type=int, default=200)
    p.add_argument("--rotation", type=float, default=25.0)
    p.add_argument("--translation", type=float, default=6.0)
    p.add_argument("--scale", type=float, default=0.15)
    p.add_argument("--boundary-flip", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train binary weights on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1000.0)
    p.add_argument("--epochs", type=int, default=12)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("lower", help="compile weights to a plane program")
    _add_common(p, mode=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("infer", help="run lowered inference on images")
    _add_common(p)
    p.add_argument("--images", required=True, help="PGM file or directory")
    p.add_argument("--check", action="store_true",
                   help="verify against the dense reference inference")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="report latency and throughput")
    _add_common(p, cost=True, mode=False)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("loop", help="simulate the servo control loop")
    _add_common(p, cost=True)
    p.add_argument("--frames", required=True, help="PGM file or directory")
    p.add_argument("--fps", type=float, default=1000.0)
    p.add_argument("--duration-us", type=int, default=1_000_000)
    p.add_argument("--servos", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("dump", help="dump every intermediate plane")
    _add_common(p)
    p.add_argument("--image", required=True, help="input PGM file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as e:  # single-line machine-parsable failure
        msg = str(e).replace("\n", " | ")
        print(f"error: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
