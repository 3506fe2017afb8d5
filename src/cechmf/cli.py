"""Command-line driver: verify / pushforward / homology."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import signs
from .cech import CONE, OMEGA, OMEGA_Y, Cochain, cech_total_d
from .diagrams import pushforward_routes
from .forms import Form
from .homology import homology_dims
from .parsing import parse_poly
from .report import Check, Report, Timer
from .scene import Scene, load_scene, validate_scene
from .scenes_builtin import all_builtin_names, builtin_scene
from .ses import NotACocycle
from .suites import SUITES, suite_pushforward


class InputFileError(Exception):
    """A scene or class file that cannot be read or is malformed."""


@contextmanager
def _reading(what: str, path: str):
    try:
        yield
    except (OSError, ValueError) as e:
        raise InputFileError(f"cannot read {what} {path}: {e}") from None


def _resolve_scene(spec: str, trunc: int | None, window: int | None) -> Scene:
    if spec in all_builtin_names():
        scene = builtin_scene(spec)
    else:
        with _reading("scene file", spec):
            scene = load_scene(spec)
    if trunc is not None:
        scene.trunc = trunc
    if window is not None:
        scene.window = window
    return scene


def _emit(report: Report, args) -> int:
    if args.format == "json":
        text = report.to_json(include_timings=args.timings)
    else:
        text = report.to_text()
    print(text)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print(f"cannot write report {args.report}: {e}", file=sys.stderr)
            return 2
    return 0 if report.ok else 1


def _open_scene(args, validate: bool = True) -> tuple[Scene, Report]:
    """Resolve the scene and start its report.  When validate is set, a
    scene that fails validation gets its failing checks as the report's
    "scene" suite, so the report is not ok and the command stops there."""
    scene = _resolve_scene(args.scene, args.trunc, args.window)
    rep = Report(
        scene=scene.name,
        seed=args.seed,
        trunc=scene.trunc,
        window=scene.window,
        todd_sign=signs.sign("todd-factor"),
        ledger_version=signs.LEDGER_VERSION,
    )
    if validate:
        val = validate_scene(scene)
        if not val.ok:
            rep.add_suite("scene", [Check(f"scene:{n}", False, d) for n, d in val.failures()], 0.0)
    return scene, rep


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; available: {', '.join(SUITES)}", file=sys.stderr)
        return 2
    # the scene suite reports every validation check itself
    scene, rep = _open_scene(args, validate=args.suite != "scene")
    if not rep.ok:
        return _emit(rep, args)
    for name in list(SUITES) if args.suite == "all" else [args.suite]:
        with Timer() as t:
            try:
                checks = SUITES[name](scene, seed=args.seed)
            except Exception as e:
                # a crash is one failed check, told from a failed identity
                # by its id, and the other suites still report
                payload = {"type": type(e).__name__, "message": str(e)}
                checks = [Check(f"{name}:raised", False, "the suite raised", payload)]
        rep.add_suite(name, checks, t.seconds)
    return _emit(rep, args)


def _integers(key: str, where: str) -> tuple:
    try:
        return tuple(int(x) for x in key.split(","))
    except ValueError:
        raise ValueError(f"{where}: expected comma-separated integers") from None


def _load_y_class(path: str, scene: Scene) -> Cochain:
    """A divisor class file: {"i,j,..": {"k,l,..": polynomial}}, one object
    of dx-index keys per tuple; raises ValueError naming a bad or repeated key."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"expected an object of tuples, got {type(data).__name__}")
    entries = {}
    for key, terms in data.items():
        I = _integers(key, f"tuple {key!r}")
        if I in entries:
            raise ValueError(f"tuple {key!r}: tuple {I} is given twice")
        ring = scene.atlas.ring(I)
        if scene.ctx(I).pole is None:
            raise ValueError(f"tuple {key!r}: Y misses it, so a class on Y has no entry there")
        if not isinstance(terms, dict):
            raise ValueError(f"tuple {key!r}: expected an object, got {type(terms).__name__}")
        form_terms = {}
        for dxkey, poly in terms.items():
            where = f"tuple {key!r} key {dxkey!r}"
            K = _integers(dxkey, where) if dxkey else ()
            if K in form_terms:
                raise ValueError(f"{where}: dx indices {K} are given twice")
            if any(a >= b for a, b in zip(K, K[1:])) or not all(0 <= i < ring.nvars for i in K):
                raise ValueError(
                    f"{where}: dx indices must be increasing and below {ring.nvars}"
                )
            if not isinstance(poly, str):
                raise ValueError(
                    f"{where}: expected a polynomial string, got {type(poly).__name__}"
                )
            form_terms[K] = parse_poly(poly, ring)
        entries[I] = Form(ring, form_terms)
    return Cochain(scene, "yform", entries)


def cmd_pushforward(args) -> int:
    scene, rep = _open_scene(args)
    if not rep.ok:
        return _emit(rep, args)
    with Timer() as t:
        if args.input == "unit":
            checks = suite_pushforward(scene, seed=args.seed)
        else:
            with _reading("class file", args.input):
                y_class = _load_y_class(args.input, scene)
            try:
                route_a = pushforward_routes(scene, y_class)
            except NotACocycle as e:
                print(f"input class is not a cocycle: {e}", file=sys.stderr)
                return 2
            closed = cech_total_d(route_a, OMEGA).is_zero()
            checks = [
                Check(
                    "pushforward:image",
                    closed,
                    "connecting morphism after inverse Todd multiplication",
                    {"value": repr(route_a)},
                )
            ]
    rep.add_suite("pushforward", checks, t.seconds)
    return _emit(rep, args)


def cmd_homology(args) -> int:
    scene, rep = _open_scene(args)
    if not rep.ok:
        return _emit(rep, args)
    # instability is reported, not fatal: the window slices can grow with
    # the window, on affine scenes and on projective SCENE-P2 alike
    with Timer() as t:
        checks = []
        for kind in (OMEGA, OMEGA_Y, CONE):
            dims = homology_dims(scene, kind, scene.window)
            checks.append(
                Check(
                    f"homology:{kind}",
                    True,
                    f"even {dims['even']}, odd {dims['odd']}, "
                    f"stable {dims['stable']} (window {dims['window']})",
                    {"dims": dims},
                )
            )
    rep.add_suite("homology", checks, t.seconds)
    return _emit(rep, args)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cechmf",
        description="Exact chain-level verification engine for matrix factorization scenes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", required=True, help="built-in name or scene file path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trunc", type=int, default=None, help="Hochschild length cap N")
        p.add_argument("--window", type=int, default=None, help="homology window D")
        p.add_argument("--report", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument(
            "--timings",
            action="store_true",
            help="include wall-clock timings in JSON (breaks byte determinism)",
        )

    p = sub.add_parser("verify", help="run property suites")
    common(p)
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pushforward", help="run the main-theorem instance")
    common(p)
    p.add_argument("--input", default="unit", help="'unit' or a JSON divisor-class file")
    p.set_defaults(fn=cmd_pushforward)

    p = sub.add_parser("homology", help="windowed homology tables")
    common(p)
    p.set_defaults(fn=cmd_homology)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputFileError as e:
        print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
