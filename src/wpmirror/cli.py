"""Command-line surface: compute either side, verify, and run bisection
experiments, with JSON/CSV output and optional SVG rendering of the curves.

Exit codes: 0 all checks pass, 1 a check failed (output still written),
2 invalid input.  Each `_cmd_*` action returns its output and whether its
checks passed; `run` alone writes the output and turns an input error into
exit 2.
"""

import argparse
import math
import sys
from itertools import combinations_with_replacement, product

from . import __version__
from .aside import (build_curves, critical_data, h_poly_roots, hom_space,
                    intersections, maslov_degree, monodromy_data)
from .bside import (dual_ext, ext_pushforward, generation_certificate,
                    resolution_summands)
from .bisection import (bisection_from_config, coherence_weights, load_config,
                        track_splitting, validate_bisection)
from .verify import hms_certificate, json_chunks, sweep
from .weights import Weights


_CSV_NEEDS_TABLE = "--format csv writes tables only; use --format json for this output"
# The (command, action) pairs that write a table; `verify` does for --sweep-l.
_CSV_TABLES = {("bside", "ext"), ("bside", "dual"), ("aside", "homs"), ("bisect", "weights")}


def _emit(payload, fmt):
    """Write one command's output: text as it is, a table as csv, anything
    else as JSON, chunk by chunk from the encoder of the certificates."""
    if isinstance(payload, str):
        sys.stdout.write(payload)
    elif fmt == "csv":
        sys.stdout.write(_to_csv(payload))
    else:
        sys.stdout.writelines(json_chunks(payload))
        sys.stdout.write("\n")


def _to_csv(payload):
    """Flatten a {key: {col: val}} table into CSV."""
    cols = sorted({c for val in payload.values() for c in val}, key=str)
    rows = ["key," + ",".join(str(c) for c in cols)]
    for key, val in sorted(payload.items()):
        rows.append(str(key).replace(",", "|") + ","
                    + ",".join(str(val.get(c, "")) for c in cols))
    return "\n".join(rows) + "\n"


def _parse_weights(text, need_two=False):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"weights must be comma-separated integers, got {text!r}")
    if any(p < 1 for p in parts) or not parts:
        raise ValueError(f"weights must be positive, got {text!r}")
    if need_two and len(parts) != 2:
        raise ValueError("this command needs exactly two weights")
    return Weights(parts)


def _dims_table(w, hom, pairs):
    """The table {"j,k": {degree: dimension}} of hom(w, j, k) over `pairs`."""
    return {f"{j},{k}": {str(d): v for d, v in sorted(hom(w, j, k).dims_by_degree.items())}
            for j, k in pairs}


def _cmd_bside(args):
    w = _parse_weights(args.weights)
    if args.action in ("ext", "dual"):
        hom = ext_pushforward if args.action == "ext" else dual_ext
        return _dims_table(w, hom, product(range(w.l - 1), repeat=2)), True
    if args.action == "resolve":
        out = {}
        for k in range(w.l - 1):
            out[str(k)] = [
                {"position": j, "projective": i, "shift": shift, "subset": list(J)}
                for j, i, shift, J in resolution_summands(w, k)
            ]
        return out, True
    report = generation_certificate(w)
    return {"passed": report.passed, "violations": report.violations}, report.passed


def _svg_curves(w, path):
    """Write the strip curves over one period as an SVG drawing."""
    curves = build_curves(w)
    scale = 40
    height = 4 * (w.l - 1)
    pad = 2

    def pt(x, y):
        return (pad * scale + float(x) * scale * 4,
                (height + pad - float(y)) * scale / 2)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{8 * scale}" height="{(2 * height) * scale}">']
    for c in curves:
        for a, b in ((c.p_plus, c.q_plus), (c.p_minus, c.q_minus)):
            (x1, y1), (x2, y2) = pt(*a), pt(*b)
            parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                         f'y2="{y2:.1f}" stroke="black" stroke-width="1.5"/>')
        (sx, sy), (ex, ey) = pt(*c.p_plus), pt(*c.p_minus)
        r = c.arc_radius * scale / 2
        parts.append(f'<path d="M {sx:.1f} {sy:.1f} A {r:.1f} {r:.1f} 0 0 0 '
                     f'{ex:.1f} {ey:.1f}" fill="none" stroke="black" '
                     f'stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def _cmd_aside(args):
    w = _parse_weights(args.weights, need_two=True)
    if w.a[0] > w.a[1]:
        raise ValueError("strip model expects a0 <= a1")
    if args.svg:
        _svg_curves(w, args.svg)
    if args.action == "homs":
        return _dims_table(w, hom_space, combinations_with_replacement(range(w.l - 1), 2)), True
    if args.action == "points":
        out = {}
        for j in range(w.l - 1):
            for k in range(j + 1, w.l - 1):
                out[f"{j},{k}"] = [
                    {"kind": p.kind.value, "x": p.x, "shift": p.d,
                     "degree": maslov_degree(w, p), "label": list(p.label.subset)}
                    for p in intersections(w, j, k)
                ]
        return out, True
    if args.action == "critical":
        out = {
            "critical_values": [
                {"index": c.index, "modulus": c.modulus, "angle_pi": c.angle,
                 "value": c.value}
                for c in critical_data(w)
            ],
            "monodromy": monodromy_data(w),
        }
        return out, True
    # hq: root report at the critical parameters, or a custom q
    if args.q is not None:
        try:
            re, im = (float(x) for x in args.q.split(","))
        except ValueError:
            raise ValueError(f"--q expects RE,IM, got {args.q!r}")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError("--q must be finite")
        qs = [complex(re, im)]
    else:
        qs = [c.value for c in critical_data(w)]
    return {"reports": [vars(h_poly_roots(w, q)) for q in qs]}, True


def _cmd_verify(args):
    if (args.weights is None) == (args.sweep_l is None):
        raise ValueError("give exactly one of --weights or --sweep-l")
    if args.sweep_l is not None:
        summary = sweep(args.sweep_l)
        if args.format == "csv":
            return summary.to_csv(), summary.all_passed
        return {"l_max": summary.l_max,
                "results": [{"weights": list(ws), "l": l, "passed": p}
                            for ws, l, p in summary.results],
                "all_passed": summary.all_passed}, summary.all_passed
    w = _parse_weights(args.weights, need_two=True)
    if w.a[0] > w.a[1]:
        raise ValueError("verification needs a0 <= a1")
    cert = hms_certificate(w)
    return vars(cert), cert.passed  # every check has run before the first byte


def _cmd_bisect(args):
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad config: {exc}")
    b, parent = bisection_from_config(cfg)
    report = validate_bisection(b, parent)
    if args.action == "validate":
        return {"passed": report.passed, "violations": report.violations}, report.passed
    if not report.passed:
        raise ValueError(f"invalid bisection: {report.violations[0]}")
    if args.action == "weights":
        eta, tau = coherence_weights(b)
        return {"eta": {str(p[0]): v for p, v in eta.items()},
                "tau": {str(p[0]): v for p, v in tau.items()}}, True
    rep = track_splitting(b, coeffs=cfg.get("coefficients"), seed=cfg["seed"])
    return {**vars(rep), "seed": cfg["seed"]}, rep.ok


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wpmirror",
        description="Mirror-symmetry verification for weighted blowups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bside", help="derived-category side computations")
    p.add_argument("action", choices=["ext", "dual", "resolve", "certify-generation"])
    p.add_argument("--weights", required=True)
    p.set_defaults(func=_cmd_bside)

    p = sub.add_parser("aside", help="Fukaya-side computations")
    p.add_argument("action", choices=["homs", "points", "critical", "hq"])
    p.add_argument("--weights", required=True)
    p.add_argument("--svg", default=None, help="write the curves as SVG")
    p.add_argument("--q", default=None, help="RE,IM parameter for hq")
    p.set_defaults(func=_cmd_aside)

    p = sub.add_parser("verify", help="cross-check both sides")
    p.add_argument("--weights", default=None)
    p.add_argument("--sweep-l", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bisect", help="bisection experiments")
    p.add_argument("action", choices=["validate", "weights", "track"])
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_bisect)

    for p in sub.choices.values():
        p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # Only a table has a csv form; refuse any other output before its work.
        if args.format == "csv" and not (
                args.sweep_l is not None if args.command == "verify"
                else (args.command, args.action) in _CSV_TABLES):
            raise ValueError(_CSV_NEEDS_TABLE)
        payload, passed = args.func(args)
        _emit(payload, args.format)
    except (ValueError, ArithmeticError, RuntimeError, OSError, MemoryError) as exc:
        # Input the library cannot work with: a bad value, an arithmetic
        # invariant, a seeded draw that found no generic configuration, an
        # output path that cannot be written, or a size past the memory.
        print(f"error: {str(exc) or 'not enough memory for this input'}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
